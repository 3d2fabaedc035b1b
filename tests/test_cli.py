import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from scipy.linalg.lapack import dpbtrf

import femcond as fc
from femcond.cli import _fmt, fit_loglog_slope, main
from oracles import read_matrix_market


def run(args):
    return main([str(a) for a in args])


def assert_usage_error(args, capsys, reason):
    """The command exits 2 with the reason on stderr, before any solve."""
    code = run(args)
    err = capsys.readouterr().err
    assert code == 2
    assert reason in err
    assert "warning: sweep value" not in err


@pytest.fixture
def no_solve(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("eigen-solve started")

    monkeypatch.setattr(fc.bounds, "_spectra", fail)


class TestGenerate:
    def test_chebyshev_file(self, tmp_path, capsys):
        out = tmp_path / "mesh.json"
        assert run(["generate", "--family", "chebyshev", "--n", "64", "-o", out]) == 0
        mesh = fc.import_mesh(out)
        assert mesh.n_elements == 64
        assert "N=64" in capsys.readouterr().out

    def test_boundary_layer_summary_aspect(self, tmp_path, capsys):
        out = tmp_path / "bl.json"
        assert run([
            "generate", "--family", "boundary_layer_2d",
            "--n-core", "20", "--aspect", "125", "-o", out,
        ]) == 0
        text = capsys.readouterr().out
        aspect = float(text.split("max_aspect=")[1].split()[0])
        assert 125.0 <= aspect <= 250.0

    def test_summary_needs_no_boundary_distances(self, tmp_path, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("boundary distances computed")

        monkeypatch.setattr(fc.mesh, "_boundary_distance_batch", fail)
        out = tmp_path / "bl.json"
        assert run([
            "generate", "--family", "boundary_layer_2d",
            "--n-core", "6", "--aspect", "25", "-o", out,
        ]) == 0
        mesh = fc.import_mesh(out)
        text = capsys.readouterr().out
        assert f"|K_min|={format(float(mesh.volumes.min()), '.17g')} " in text

    def test_invalid_aspect_exits_2(self, tmp_path, capsys):
        code = run([
            "generate", "--family", "boundary_layer_2d",
            "--n-core", "10", "--aspect", "0.5", "-o", tmp_path / "x.json",
        ])
        assert code == 2
        assert "aspect" in capsys.readouterr().err

    def test_family_required(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run(["generate", "--n", "4", "-o", tmp_path / "x.json"])
        assert err.value.code == 2
        assert "--family" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("name", ["m.json", "m.node", "m.ele"])
    def test_mesh_file_analyzes_as_its_family(self, tmp_path, name):
        family = ["--family", "boundary_layer_2d", "--n-core", "6", "--aspect", "8"]
        assert run(["generate", *family, "-o", tmp_path / name]) == 0
        assert run(["analyze", "--mesh", tmp_path / name, "--csv", tmp_path / "file.csv"]) == 0
        assert run(["analyze", *family, "--csv", tmp_path / "family.csv"]) == 0
        assert (tmp_path / "file.csv").read_text() == (tmp_path / "family.csv").read_text()

    def test_triangle_format(self, tmp_path, capsys):
        out = tmp_path / "mesh.node"
        assert run([
            "generate", "--family", "uniform", "--dim", "2", "--n", "3", "-o", out,
        ]) == 0
        assert capsys.readouterr().out.startswith(f"wrote {tmp_path / 'mesh'}: N=18 ")
        mesh = fc.import_mesh(out)
        assert mesh.n_elements == 18


class TestAnalyze:
    def test_uniform_1d_table(self, capsys):
        assert run(["analyze", "--family", "uniform", "--dim", "1", "--n", "4"]) == 0
        out = capsys.readouterr().out
        kappa = float(out.split("kappa=")[1].split()[0])
        assert kappa == pytest.approx((2 + math.sqrt(2)) / (2 - math.sqrt(2)), rel=1e-10)
        assert "lambda_max sandwich" in out

    def test_sandwich_always_reported_and_valid(self, tmp_path):
        out = tmp_path / "r.json"
        assert run([
            "analyze", "--family", "boundary_layer_2d", "--n-core", "6",
            "--aspect", "8", "--json", out,
        ]) == 0
        data = json.loads(out.read_text())
        lo, hi = data["lambda_max_sandwich"]
        assert lo <= data["exact"]["A"]["lambda_max"] <= hi

    def test_solver_counters_reported(self, tmp_path, capsys, monkeypatch):
        # order 2401, above the dense cutoff: both matrices go through Lanczos
        calls = []

        def dpbtrf_spy(*args, **kwargs):
            calls.append(None)
            return dpbtrf(*args, **kwargs)

        monkeypatch.setattr(fc.spectra, "dpbtrf", dpbtrf_spy)
        out = tmp_path / "r.json"
        assert run([
            "analyze", "--family", "boundary_layer_2d", "--n-core", "49",
            "--aspect", "25", "--json", out,
        ]) == 0
        data = json.loads(out.read_text())
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("exact ")]
        # each factorization is counted once, the shared one at zero on A
        assert sum(data["exact"][name]["factorizations"] for name in ("A", "SAS")) == len(calls)
        for name, line in zip(("A", "SAS"), lines):
            exact = data["exact"][name]
            assert exact["method"] == "lanczos_shift_invert"
            assert exact["factor_nnz"] > 0
            assert exact["solves"] > 0
            assert (f"factor_nnz={exact['factor_nnz']} "
                    f"solves={exact['solves']} factorizations={exact['factorizations']} "
                    f"start={exact['start']}") in line
        # A's top eigenvector lives along the boundary layer; S A S has a
        # constant diagonal on a bipartite graph
        assert [data["exact"][name]["start"] for name in ("A", "SAS")] == ["local", "mirror"]

    def test_certificate_reported(self, tmp_path, capsys):
        # order 400, above the dense cutoff
        out = tmp_path / "r.json"
        assert run([
            "analyze", "--family", "boundary_layer_2d", "--n-core", "18",
            "--aspect", "25", "--json", out,
        ]) == 0
        data = json.loads(out.read_text())
        text = capsys.readouterr().out
        lines = [ln for ln in text.splitlines() if ln.startswith("  enclosure: ")]
        assert len(lines) == 2
        for name, line in zip(("A", "SAS"), lines):
            exact = data["exact"][name]
            assert exact["method"] == "lanczos_shift_invert" and exact["certified"]
            assert 0 < exact["lambda_min_lower"] <= exact["lambda_min"]
            assert exact["lambda_max"] <= exact["lambda_max_upper"]
            assert line == (f"  enclosure: {_fmt(exact['lambda_min_lower'])} <= lambda_min, "
                            f"lambda_max <= {_fmt(exact['lambda_max_upper'])}")
        # which proof gave each end, and its relative width
        proofs = [ln for ln in text.splitlines() if ln.startswith("  proofs: ")]
        assert len(proofs) == 2
        for name, line in zip(("A", "SAS"), proofs):
            exact = data["exact"][name]
            assert exact["proof_min"] == "collatz_wielandt"
            assert exact["proof_max"] in ("band", "collatz_wielandt")
            assert 0 < exact["width_min"] <= 1e-8 and 0 < exact["width_max"] <= 1e-8
            assert line == (f"  proofs: lambda_min by {exact['proof_min']} "
                            f"(width {exact['width_min']:.2e}), lambda_max by "
                            f"{exact['proof_max']} (width {exact['width_max']:.2e})")

    @pytest.mark.parametrize("flags", [
        ["--family", "uniform", "--dim", "1", "--n", "8"],
        ["--family", "boundary_layer_2d", "--n-core", "6", "--aspect", "8"],
        ["--family", "uniform", "--dim", "3", "--n", "3"],
    ], ids=["1d", "2d", "3d"])
    def test_json_is_strict(self, tmp_path, flags):
        # RFC 8259 has no NaN: a bound undefined in 1D and 3D is null
        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        out = tmp_path / "r.json"
        assert run(["analyze", *flags, "--json", out]) == 0
        data = json.loads(out.read_text(), parse_constant=reject)
        conjectured = data["bounds_raw"]["conjectured.kappa.SAS"]
        assert (conjectured is None) == (data["dim"] != 2)

    def test_matrix_out_round_trips_spectra(self, tmp_path):
        mtx = tmp_path / "a.mtx"
        assert run([
            "analyze", "--family", "uniform", "--dim", "1", "--n", "16",
            "--matrix-out", mtx,
        ]) == 0
        back = read_matrix_market(mtx)
        mesh = fc.generate_uniform(1, 16)
        a = fc.assemble_stiffness(mesh, fc.DiffusionField.identity(1))
        r1 = fc.extreme_eigenvalues(back)
        r2 = fc.extreme_eigenvalues(a)
        assert r1.lambda_min == pytest.approx(r2.lambda_min, rel=1e-12)
        assert r1.lambda_max == pytest.approx(r2.lambda_max, rel=1e-12)

    def test_matrix_out_assembles_once(self, tmp_path, monkeypatch):
        calls = []
        local = fc.assembly._local_stiffness

        def counting(*args):
            calls.append(1)
            return local(*args)

        monkeypatch.setattr(fc.assembly, "_local_stiffness", counting)
        mtx = tmp_path / "a.mtx"
        assert run([
            "analyze", "--family", "uniform", "--dim", "2", "--n", "4",
            "--matrix-out", mtx,
        ]) == 0
        assert len(calls) == 1
        assert read_matrix_market(mtx).order == 9

    def test_mesh_file_input(self, tmp_path):
        mesh_file = tmp_path / "m.json"
        fc.export_mesh(fc.generate_chebyshev_1d(8), mesh_file)
        assert run(["analyze", "--mesh", mesh_file]) == 0

    def test_family_or_mesh_required(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["analyze", "--n", "4"])
        assert err.value.code == 2
        assert "--family --mesh" in capsys.readouterr().err

    @pytest.mark.parametrize("args, reason", [
        (["--family", "uniform", "--n", "4"], "--dim is required"),
        (["--family", "chebyshev", "--n", "8", "--diffusion", "const:1,2,3"],
         "const diffusion for dim 1"),
        (["--family", "uniform", "--dim", "2", "--n", "4", "--n-core", "6", "--aspect", "8"],
         "the uniform family does not read --n-core and --aspect"),
        (["--family", "boundary_layer_2d", "--dim", "2", "--n-core", "6", "--aspect", "8"],
         "the boundary_layer_2d family does not read --dim"),
        (["--family", "chebyshev", "--dim", "1", "--n", "8"],
         "the chebyshev family does not read --dim"),
        (["--family", "uniform", "--dim", "2", "--n", "4", "--diffusion", "const:inf,1"],
         "diffusion matrix entries must be finite"),
        (["--family", "uniform", "--dim", "2", "--n", "4", "--diffusion", "const:nan,1"],
         "diffusion matrix entries must be finite"),
        (["--family", "uniform", "--dim", "2", "--n", "4", "--diffusion", "const:2,0.5,0.4,1"],
         "diffusion matrix must be symmetric"),
    ])
    def test_usage_error_exits_2(self, args, reason, capsys, no_solve):
        assert_usage_error(["analyze", *args], capsys, reason)

    @pytest.mark.parametrize("flags", [["--n", "4"], ["--dim", "1"], ["--aspect", "8"]])
    def test_generator_flag_next_to_mesh_file_exits_2(self, tmp_path, capsys, flags,
                                                      monkeypatch):
        mesh_file = tmp_path / "m.json"
        fc.export_mesh(fc.generate_chebyshev_1d(8), mesh_file)

        def fail(*args):
            raise AssertionError("mesh read")

        monkeypatch.setattr(fc.cli, "_make_mesh", fail)
        assert_usage_error(["analyze", "--mesh", mesh_file, *flags], capsys,
                           f"a --mesh file does not read {flags[0]}")

    @pytest.mark.parametrize("family", [["--family", "uniform", "--dim", "2", "--n", "4"],
                                        ["--family", "power2", "--n", "8"]],
                             ids=["uniform-2d", "power2"])
    def test_p_below_3d_exits_2(self, capsys, no_solve, family):
        assert_usage_error(["analyze", *family, "--p", "2.5"], capsys,
                           "--p applies to 3D problems only")

    def test_p_next_to_2d_mesh_file_exits_2(self, tmp_path, capsys, no_solve):
        mesh_file = tmp_path / "m.json"
        fc.export_mesh(fc.generate_uniform(2, 2), mesh_file)
        assert_usage_error(["analyze", "--mesh", mesh_file, "--p", "2.5"], capsys,
                           "--p applies to 3D problems only, not to this 2D one")

    @pytest.mark.parametrize("content", [b'{"dim": 1, "vertices": [\xff]}',
                                         b'{"dim": 1, "vertices": "abc", "elements": []}'],
                             ids=["not-utf8", "string-vertices"])
    def test_malformed_mesh_file_named(self, tmp_path, capsys, no_solve, content):
        mesh_file = tmp_path / "m.json"
        mesh_file.write_bytes(content)
        assert_usage_error(["analyze", "--mesh", mesh_file], capsys, f"error: {mesh_file}: ")

    @pytest.mark.parametrize("command", [["analyze", "--family", "chebyshev", "--n", "8"],
                                         ["sweep", "--family", "chebyshev", "--values", "8,16"]])
    @pytest.mark.parametrize("content", [b"", b"\xff\xfe\x00\x81"], ids=["empty", "binary"])
    def test_unreadable_calibration_file_named(self, tmp_path, capsys, no_solve,
                                               command, content):
        cal = tmp_path / "cal.json"
        cal.write_bytes(content)
        assert_usage_error([*command, "--calibration", cal], capsys,
                           f"{cal}: not a calibration JSON file")

    def test_const_diffusion_flag(self, capsys):
        assert run([
            "analyze", "--family", "uniform", "--dim", "2", "--n", "4",
            "--diffusion", "const:4,1",
        ]) == 0

    def test_const_diffusion_forms_agree(self, tmp_path):
        # the upper triangle and the full row-major matrix name the same D,
        # which is not the identity
        texts = []
        for k, spec in enumerate(["const:2,0.5,1", "const:2,0.5,0.5,1", "identity"]):
            out = tmp_path / f"r{k}.json"
            assert run(["analyze", "--family", "uniform", "--dim", "2", "--n", "4",
                        "--diffusion", spec, "--json", out]) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1] != texts[2]

    def test_calibrated_bounds_printed(self, tmp_path, capsys):
        cal = tmp_path / "cal.json"
        fc.Calibration(dim=1, constants={"new.kappa.A": 2.0, "prior.kappa.A": 0.5}).save(cal)
        out = tmp_path / "r.json"
        assert run(["analyze", "--family", "uniform", "--dim", "1", "--n", "8",
                    "--calibration", cal, "--json", out]) == 0
        raw = json.loads(out.read_text())["bounds_raw"]
        text = capsys.readouterr().out
        block = text.split("bounds (calibrated):\n")[1].splitlines()
        assert block == [f"  new.kappa.A = {_fmt(2.0 * raw['new.kappa.A'])}",
                         f"  prior.kappa.A = {_fmt(0.5 * raw['prior.kappa.A'])}"]

    def test_unconverged_spectrum_exits_3_after_writing(self, tmp_path, capsys, monkeypatch):
        build = fc.cli.build_report

        def unconverged(*args, **kwargs):
            report = build(*args, **kwargs)
            sas = dataclasses.replace(report.exact_SAS, converged=False)
            return dataclasses.replace(report, exact_SAS=sas)

        monkeypatch.setattr(fc.cli, "build_report", unconverged)
        out = tmp_path / "r.json"
        assert run(["analyze", "--family", "uniform", "--dim", "1", "--n", "8",
                    "--json", out]) == 3
        captured = capsys.readouterr()
        assert "warning: eigensolver did not reach the requested tolerance" in captured.err
        assert "exact SAS: " in captured.out and "[NOT CONVERGED]" in captured.out
        assert json.loads(out.read_text())["exact"]["SAS"]["converged"] is False

    def test_csv_row(self, tmp_path):
        csv = tmp_path / "row.csv"
        assert run([
            "analyze", "--family", "uniform", "--dim", "1", "--n", "8",
            "--csv", csv,
        ]) == 0
        lines = csv.read_text().splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        assert "exact.kappa.A" in header
        assert "new.kappa.SAS" in header


class TestSweep:
    def test_chebyshev_small_sweep(self, tmp_path, capsys):
        csv = tmp_path / "sweep.csv"
        plots = tmp_path / "plots"
        assert run([
            "sweep", "--family", "chebyshev", "--values", "8,16,32,64",
            "--csv", csv, "--plot-dir", plots,
        ]) == 0
        lines = csv.read_text().splitlines()
        assert len(lines) == 5
        assert (plots / "exact_kappa_A.dat").exists()
        assert (plots / "slopes.csv").exists()
        assert (plots / "plots.gp").exists()
        out = capsys.readouterr().out
        assert "fitted log-log slopes" in out

    def test_deterministic_output(self, tmp_path):
        csvs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            assert run([
                "sweep", "--family", "power2", "--values", "6,8,10", "--csv", path,
            ]) == 0
            csvs.append(path.read_bytes())
        assert csvs[0] == csvs[1]

    def test_aspect_sweep(self, tmp_path):
        csv = tmp_path / "aspect.csv"
        assert run([
            "sweep", "--family", "boundary_layer_2d",
            "--values", "2,4,8", "--n-core", "6", "--csv", csv,
        ]) == 0
        rows = csv.read_text().splitlines()
        assert len(rows) == 4
        # N fixed across the aspect sweep
        n_col = rows[0].split(",").index("n_elements")
        ns = {row.split(",")[n_col] for row in rows[1:]}
        assert len(ns) == 1

    def test_imported_family_sweep(self, tmp_path):
        # one native JSON file and one Triangle pair
        files = []
        for n, suffix in ((8, ".json"), (16, ".node")):
            path = tmp_path / f"m{n}{suffix}"
            fc.export_mesh(fc.generate_chebyshev_1d(n), path)
            files.append(str(path))
        csv = tmp_path / "imported.csv"
        assert run([
            "sweep", "--family", "imported", "--values", ",".join(files),
            "--csv", csv,
        ]) == 0
        rows = csv.read_text().splitlines()
        assert len(rows) == 3
        n_col = rows[0].split(",").index("n_elements")
        assert [row.split(",")[n_col] for row in rows[1:]] == ["8", "16"]

    def test_imported_sweep_applies_p_to_3d_files(self, tmp_path):
        files = [tmp_path / "line.json", tmp_path / "cube.json"]
        fc.export_mesh(fc.generate_chebyshev_1d(8), files[0])
        fc.export_mesh(fc.generate_uniform(3, 2), files[1])
        csv = tmp_path / "imported.csv"
        assert run(["sweep", "--family", "imported", "--values", ",".join(map(str, files)),
                    "--p", "2.5", "--csv", csv]) == 0
        header, *rows = [line.split(",") for line in csv.read_text().splitlines()]
        assert [row[header.index("p")] for row in rows] == ["nan", "2.5"]

    @pytest.mark.parametrize("flags, swept, xlabel", [
        (["--n-core", "6", "--values", "2,4"], "aspect = [2, 4]", "aspect ratio"),
        (["--aspect", "4", "--values", "4,6"], "n = [4, 6]", "number of elements N"),
    ], ids=["aspect", "n-core"])
    def test_axis_is_the_flag_not_given(self, tmp_path, capsys, flags, swept, xlabel):
        csv, plots = tmp_path / "s.csv", tmp_path / "plots"
        assert run(["sweep", "--family", "boundary_layer_2d", *flags, "--csv", csv,
                    "--plot-dir", plots]) == 0
        assert f"sweep boundary_layer_2d over {swept}\n" in capsys.readouterr().out
        assert f'set xlabel "{xlabel}"' in (plots / "plots.gp").read_text()
        rows = [row.split(",") for row in csv.read_text().splitlines()]
        n_col = rows[0].index("n_elements")
        xs = [line.split()[0] for line in (plots / "exact_kappa_A.dat").read_text().splitlines()]
        if swept.startswith("aspect"):
            assert xs == ["2", "4"] and rows[1][n_col] == rows[2][n_col]
        else:
            assert xs == [row[n_col] for row in rows[1:]] and rows[1][n_col] != rows[2][n_col]

    @pytest.mark.parametrize("values", ["8,inf", "nan,8"])
    def test_non_finite_value_exits_2(self, values, capsys):
        assert run(["sweep", "--family", "chebyshev", "--values", values]) == 2
        assert "not finite" in capsys.readouterr().err

    def test_spec_validation(self, capsys, no_solve):
        assert_usage_error(["sweep", "--family", "boundary_layer_2d", "--n-core", "6",
                            "--aspect", "4", "--values", "4,6"], capsys,
                           "exactly one of --n-core and --aspect")
        assert_usage_error(["sweep", "--family", "chebyshev", "--values", "8,8"],
                           capsys, "strictly increasing")
        assert_usage_error(["sweep", "--family", "chebyshev", "--values", ","],
                           capsys, "empty value list")

    @pytest.mark.parametrize("args, reason", [
        (["--family", "uniform", "--values", "2,4"], "--dim is required"),
        (["--family", "boundary_layer_2d", "--values", "4,6"],
         "exactly one of --n-core and --aspect"),
        (["--family", "boundary_layer_3d", "--values", "4,6"],
         "exactly one of --n-core and --aspect"),
        (["--family", "chebyshev", "--values", "8,16", "--diffusion", "bogus"],
         "unknown diffusion spec"),
        (["--family", "power2", "--values", "8,16", "--diffusion", "const:1,2,3"],
         "const diffusion for dim 1"),
        (["--family", "boundary_layer_3d", "--values", "3,4", "--aspect", "4", "--p", "5"],
         "p must lie in"),
        (["--family", "chebyshev", "--values", "8.2,8.7"], "must be integers"),
        (["--family", "chebyshev", "--n", "8", "--values", "16,32"],
         "--values sets --n in a chebyshev sweep"),
        (["--family", "uniform", "--dim", "2", "--n", "4", "--values", "2,4"],
         "--values sets --n in a uniform sweep"),
        (["--family", "uniform", "--dim", "2", "--aspect", "8", "--values", "2,4"],
         "the uniform family does not read --aspect"),
        (["--family", "boundary_layer_3d", "--dim", "3", "--aspect", "4", "--values", "3,4"],
         "the boundary_layer_3d family does not read --dim"),
        (["--family", "boundary_layer_2d", "--n", "8", "--aspect", "4", "--values", "3,4"],
         "the boundary_layer_2d family does not read --n"),
        (["--family", "power2", "--dim", "1", "--values", "8,16"],
         "the power2 family does not read --dim"),
        (["--family", "imported", "--n", "8", "--values", "a.json,b.json"],
         "the imported family does not read --n"),
        (["--family", "chebyshev", "--values", "8,16", "--p", "2.5"],
         "--p applies to 3D problems only"),
        (["--family", "boundary_layer_2d", "--aspect", "4", "--values", "4,6", "--p", "2.5"],
         "--p applies to 3D problems only"),
    ], ids=["no-dim", "no-aspect", "no-n-core", "bogus-diffusion", "diffusion-dim",
            "p-range", "fractional-n", "swept-n-given", "uniform-swept-n-given",
            "uniform-aspect", "layer-dim", "layer-n", "power2-dim", "imported-n",
            "p-1d", "p-2d"])
    def test_usage_error_exits_2(self, args, reason, capsys, no_solve):
        assert_usage_error(["sweep", *args], capsys, reason)

    @pytest.mark.parametrize("values, flags, reason", [
        ("a.json,b.json", ["--diffusion", "foo"], "unknown diffusion spec"),
        ("b.json", ["--p", "7"], "p must lie in (1, 3.0)"),
        ("a.json,b.json", ["--calibration", "cal.json"], "calibration is for dimension 2"),
        ("a.json,missing.json", [], "missing.json"),
        ("a.json,bad.json", [], "bad.json: not a JSON object"),
    ], ids=["diffusion", "p-range", "calibration-dim", "missing-file", "malformed-file"])
    def test_imported_usage_error_exits_2(self, tmp_path, monkeypatch, capsys, no_solve,
                                          values, flags, reason):
        # every file is read, and every flag checked against it, before any solve
        monkeypatch.chdir(tmp_path)
        fc.export_mesh(fc.generate_uniform(2, 2), "a.json")
        fc.export_mesh(fc.generate_uniform(3, 2), "b.json")
        (tmp_path / "bad.json").write_text("[1]\n")
        fc.Calibration(dim=2, constants={"new.kappa.A": 1.0}).save("cal.json")
        assert_usage_error(["sweep", "--family", "imported", "--values", values, *flags,
                            "--csv", "out.csv"], capsys, reason)
        assert not (tmp_path / "out.csv").exists()

    def test_calibration_of_another_dimension_exits_2(self, tmp_path, capsys, no_solve):
        cal = tmp_path / "cal.json"
        fc.Calibration(dim=1, constants={"new.kappa.A": 1.0}).save(cal)
        assert_usage_error(["sweep", "--family", "boundary_layer_2d", "--values", "4,6",
                            "--aspect", "4", "--calibration", cal], capsys,
                           "calibration is for dimension 1")

    def test_values_required(self, capsys, no_solve):
        assert_usage_error(["sweep", "--family", "chebyshev"], capsys, "--values is required")

    def test_family_required(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["sweep", "--values", "8,16"])
        assert err.value.code == 2
        assert "--family" in capsys.readouterr().err

    def test_failing_member_writes_nan_row(self, tmp_path, capsys):
        csv = tmp_path / "sweep.csv"
        assert run(["sweep", "--family", "chebyshev", "--values", "1,8,16", "--csv", csv]) == 0
        err = capsys.readouterr().err
        assert err.count("warning: sweep value") == 1
        assert "warning: sweep value 1 failed: n must be >= 2" in err
        rows = [row.split(",") for row in csv.read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["1", "8", "16"]
        assert all(v == "nan" for v in rows[0][1:])
        n_col = csv.read_text().splitlines()[0].split(",").index("n_elements")
        assert [row[n_col] for row in rows[1:]] == ["8", "16"]

    def test_every_member_failing_exits_3(self, capsys):
        assert run(["sweep", "--family", "power2", "--values", "60,61"]) == 3
        err = capsys.readouterr().err
        assert err.count("warning: sweep value") == 2
        assert "every sweep instance failed" in err


@pytest.mark.parametrize("command", [
    ["generate", "--family", "uniform", "--dim", "1", "--n", "4", "-o"],
    ["analyze", "--family", "uniform", "--dim", "1", "--n", "4", "--json"],
    ["sweep", "--family", "chebyshev", "--values", "8,16", "--csv"],
    ["calibrate", "--dim", "1", "--n-values", "8,16", "-o"],
], ids=lambda command: command[0])
@pytest.mark.parametrize("flag", [
    ["--variable", "aspect"], ["--format", "triangle_node_ele"], ["--mesh-files", "m.json"],
    ["--tol", "1e-8"], ["--seed", "0"],
], ids=lambda flag: flag[0])
def test_removed_flag_exits_2(tmp_path, capsys, command, flag):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as err:
        run([*command, out, *flag])
    assert err.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["analyze", "--family", "uniform", "--dim", "1", "--n", "4"],
    ["sweep", "--family", "chebyshev", "--values", "8,16"],
], ids=lambda command: command[0])
@pytest.mark.parametrize("text", ['{}', '{"version": 2, "dim": 1, "constants": {}}',
                                  '{"dim": 1, "constants": {"new.kappa.A": null}}'],
                         ids=["empty", "version-2", "null-constant"])
def test_malformed_calibration_exits_2(tmp_path, capsys, monkeypatch, no_solve, command, text):
    def fail(*args):
        raise AssertionError("mesh built")

    monkeypatch.setattr(fc.cli, "_make_mesh", fail)
    cal = tmp_path / "cal.json"
    cal.write_text(text)
    assert_usage_error([*command, "--calibration", cal], capsys, f"error: {cal}: ")


class TestCalibrateCommand:
    def test_file_written_with_positive_constants(self, tmp_path):
        out = tmp_path / "cal.json"
        assert run([
            "calibrate", "--dim", "1", "--n-values", "8,16,32,64", "-o", out,
        ]) == 0
        data = json.loads(out.read_text())
        assert data["dim"] == 1
        constants = {k: float(v) for k, v in data["constants"].items()}
        assert constants
        assert all(v > 0 for v in constants.values())

    def test_deterministic(self, tmp_path):
        outs = []
        for name in ("c1.json", "c2.json"):
            path = tmp_path / name
            assert run(["calibrate", "--dim", "1", "--n-values", "8,16", "-o", path]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_calibration_valid_on_own_family(self, tmp_path):
        cal_path = tmp_path / "cal.json"
        assert run(["calibrate", "--dim", "1", "--n-values", "8,16,32", "-o", cal_path]) == 0
        cal = fc.Calibration.load(cal_path)
        for n in (8, 16, 32):
            mesh = fc.generate_uniform(1, n)
            field = fc.DiffusionField.identity(1)
            report = fc.build_report(mesh, field, calibration=cal)
            calibrated = report.calibrated_bounds()
            assert calibrated["new.lambda_min.A"] <= report.exact_A.lambda_min * (1 + 1e-12)
            assert calibrated["new.lambda_min.SAS"] <= report.exact_SAS.lambda_min * (1 + 1e-12)
            assert calibrated["new.kappa.A"] >= report.exact_A.kappa * (1 - 1e-12)
            assert calibrated["new.kappa.SAS"] >= report.exact_SAS.kappa * (1 - 1e-12)

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["calibrate", "--dim", "1", "-o", "x.json"])  # missing --n-values
        assert err.value.code == 2

    @pytest.mark.parametrize("dim", ["1", "2"])
    def test_p_below_3d_exits_2(self, tmp_path, capsys, no_solve, dim):
        out = tmp_path / "cal.json"
        assert_usage_error(["calibrate", "--dim", dim, "--n-values", "2,4", "--p", "2.5",
                            "-o", out], capsys, "--p applies to 3D problems only")
        assert not out.exists()

    def test_fractional_n_exits_2(self, tmp_path, capsys, no_solve):
        out = tmp_path / "cal.json"
        assert_usage_error(["calibrate", "--dim", "1", "--n-values", "8.7,16", "-o", out],
                           capsys, "must be integers")
        assert not out.exists()

    def test_unconverged_member_refused(self, tmp_path, capsys, monkeypatch):
        build = fc.cli.build_report

        def unconverged_at_16(mesh, *args, **kwargs):
            report = build(mesh, *args, **kwargs)
            if mesh.n_elements != 16:
                return report
            sas = dataclasses.replace(report.exact_SAS, converged=False)
            return dataclasses.replace(report, exact_SAS=sas)

        monkeypatch.setattr(fc.cli, "build_report", unconverged_at_16)
        out = tmp_path / "cal.json"
        assert run(["calibrate", "--dim", "1", "--n-values", "8,16", "-o", out]) == 3
        assert not out.exists()
        assert "member 1 (N=16)" in capsys.readouterr().err

    def test_one_average_per_member(self, tmp_path, monkeypatch):
        calls = []
        average = fc.assembly.average_diffusion_all

        def counting(*args):
            calls.append(1)
            return average(*args)

        monkeypatch.setattr(fc.assembly, "average_diffusion_all", counting)
        monkeypatch.setattr(fc.bounds, "average_diffusion_all", counting)
        out = tmp_path / "cal.json"
        assert run(["calibrate", "--dim", "2", "--n-values", "2,4", "-o", out]) == 0
        assert len(calls) == 2


class TestSlopeFit:
    def test_power_law_recovered(self):
        x = np.array([8, 16, 32, 64, 128])
        y = 3.5 * x**2.5
        assert fit_loglog_slope(x, y) == pytest.approx(2.5, rel=1e-12)

    def test_upper_half_only(self):
        x = np.array([4.0, 8, 16, 32, 64, 128])
        y = x.copy() ** 3
        y[:2] = 1e6  # transients in the lower half are ignored
        assert fit_loglog_slope(x, y) == pytest.approx(3.0, rel=1e-12)

    def test_nan_for_degenerate_input(self):
        assert math.isnan(fit_loglog_slope([4], [2.0]))

    def test_nan_without_two_distinct_x(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(fit_loglog_slope([5, 5, 5], [1, 2, 3]))
            # the lower half differs, the fitted upper half does not
            assert math.isnan(fit_loglog_slope([2, 3, 5, 5], [1, 2, 3, 4]))

    def test_imported_sweep_of_one_mesh_prints_nan_slopes(self, tmp_path, capsys):
        path = tmp_path / "a.json"
        fc.export_mesh(fc.generate_uniform(2, 4), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["sweep", "--family", "imported", "--values", f"{path},{path}"]) == 0
        out = capsys.readouterr().out
        slopes = out.split("fitted log-log slopes (upper half of sweep):\n")[1].splitlines()
        assert slopes and all(line.endswith(": nan") for line in slopes)
