import subprocess
import sys
from pathlib import Path

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
