import dataclasses
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import femcond as fc

# scipy submodules that importing femcond must not load: scipy.spatial pulls
# in scipy.special, which adds a large share of the package's import time.
HEAVY_SCIPY = ("scipy.spatial", "scipy.special", "scipy.optimize")


def test_import_loads_no_heavy_scipy_module():
    src = Path(fc.__file__).resolve().parents[1]
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import femcond; "
        f"print(sorted(m for m in {HEAVY_SCIPY!r} if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code, str(src)],
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["mesh", "assembly", "bounds", "spectra", "cli",
                                    "quadrature"])
def test_every_exported_name_resolves(module):
    # A deletion must take its export with it.
    mod = importlib.import_module(f"femcond.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_element_stacks_use_the_closed_form_kernels():
    # mesh._det and mesh._inv are the one path for stacks of element
    # matrices; batched LAPACK costs 7 to 50 times as much on them.
    src = Path(fc.__file__).resolve().parent
    calls = [f"{path.name}:{i}" for path in sorted(src.glob("*.py"))
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if "np.linalg.inv(" in line or "np.linalg.det(" in line]
    assert calls == []


@pytest.fixture(scope="module")
def bench():
    """The benchmark's workload module, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "bench.py"
    spec = importlib.util.spec_from_file_location("femcond_perfbench", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name, instance", [("bl3d-n", (4, 25.0)),
                                            ("varfield-2d", (12, 5.0))])
def test_benchmark_replay_resolves(bench, name, instance):
    # The traced pass calls the package's public functions with the
    # arguments the benchmark passes; none of those calls may raise.
    workload = dataclasses.replace(bench.WORKLOADS[name], instances=(instance,))
    _, outcomes, _ = bench.run_traced_pass(workload, 0, {}, "t")
    assert len(outcomes) == 1
    assert not any((o.failure or "").startswith("raised") for o in outcomes)


def test_benchmark_selftest_passes():
    # The benchmark harness imports the package's public names; its own
    # self-tests (about 10 s on small meshes) catch a name it relies on
    # disappearing.
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=root,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
