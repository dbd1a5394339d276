import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from phaselab.cli import run
from phaselab.reconstruct import PhaseSpaceDensity

DATA = Path(__file__).parent / "data"


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestKopCommands:
    def test_gamma(self, tmp_path):
        out = tmp_path / "g.json"
        code = run(["kop", "gamma", "--eps", "1e-6", "--L", "1e6", "--out", str(out)])
        assert code == 0
        payload = read_json(out)
        assert payload["closed_form"] == pytest.approx(0.9155845643, abs=1e-9)
        assert payload["defect"] < 1e-9

    def test_spectrum(self, tmp_path):
        out = tmp_path / "s.json"
        code = run(["kop", "spectrum", "--U", "30", "--n", "128", "--out", str(out)])
        assert code == 0
        payload = read_json(out)
        vals = np.asarray(payload["eigenvalues"])
        assert payload["top"] >= 0.97
        assert vals.min() >= -1e-8 and vals.max() <= 1 + 1e-6

    def test_bad_cutoffs_exit_code(self, capsys):
        assert run(["kop", "gamma", "--eps", "2.0", "--L", "1.0"]) == 1


class TestBellCommands:
    def test_counterexample_defaults(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(["bell", "counterexample", "--out", str(out)]) == 0
        payload = read_json(out)
        assert payload["bell_sum"] == 4.0
        assert payload["within_bounds"] is False
        assert payload["consistency"]["pass"] is True
        assert len(payload["atoms"]["U"]["atoms"]) == 2

    def test_eval_roundtrip(self, tmp_path):
        cjson = tmp_path / "c.json"
        run(["bell", "counterexample", "--out", str(cjson)])
        payload = read_json(cjson)
        qpath = tmp_path / "q.json"
        wpath = tmp_path / "w.json"
        qpath.write_text(json.dumps(payload["atoms"]))
        wpath.write_text(json.dumps({
            "S1": [[0.0, None]], "S2": [[0.0, None]],
            "S1p": [[0.0, None]], "S2p": [[0.0, None]]}))
        out = tmp_path / "e.json"
        assert run(["bell", "eval", "--quartet", str(qpath), "--witness", str(wpath),
                    "--out", str(out)]) == 0
        assert read_json(out)["bell_sum"] == 4.0

    def test_eval_bad_schema_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"R": {"plane": "XX", "atoms": []}}))
        w = tmp_path / "w.json"
        w.write_text(json.dumps({"S1": [[0.0, None]], "S2": [[0.0, None]],
                                 "S1p": [[0.0, None]], "S2p": [[0.0, None]]}))
        assert run(["bell", "eval", "--quartet", str(bad), "--witness", str(w)]) == 1


class TestScan:
    def test_csv_columns_and_values(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run(["violate", "scan", "--h", "cutoff", "--eps", "1e-2", "--L", "1e2",
                    "--rho-grid", "1:1:1",
                    "--theta-grid", f"{math.pi/4}:{math.pi/4}:1",
                    "--preset", "coarse", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "rho,theta,gamma,closed_value,grid_value,bell_sum"
        row = lines[1].split(",")
        closed, grid = float(row[3]), float(row[4])
        assert closed == pytest.approx(-0.0411, abs=1e-3)
        assert abs(closed - grid) < 0.05  # coarse preset
        assert float(row[5]) == pytest.approx(2.0 - 4.0 * grid, abs=1e-9)


class TestNodeTarget:
    @pytest.mark.parametrize("command", [["violate", "scan"], ["quartet", "from-psi"]])
    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_non_positive_n_rejected(self, command, n, capsys):
        assert run(command + ["--n", n]) == 1
        assert "--n" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["violate", "scan"], ["quartet", "from-psi"]])
    @pytest.mark.parametrize("n", ["1", "59"])
    def test_n_below_panel_floor_rejected(self, command, n, capsys):
        # below n = 60 a panel floor would silently replace the node target
        assert run(command + ["--n", n]) == 1
        assert "at least 60" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["violate", "scan"], ["quartet", "from-psi"]])
    def test_n_at_minimum_accepted(self, command, tmp_path):
        assert run(command + ["--n", "60", "--out", str(tmp_path / "out")]) == 0


class TestNonFiniteInput:
    @pytest.mark.parametrize("option, value, field", [
        ("--L", "inf", "L"), ("--eps", "nan", "eps"), ("--a", "nan", "shift"),
        ("--boost", "inf", "boost"),
    ])
    def test_violate_scan(self, option, value, field, capsys):
        assert run(["violate", "scan", "--preset", "coarse", option, value]) == 1
        assert f"error: {field} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value", [
        ("--rho-grid", "nan:2:3"), ("--rho-grid", "0:inf:3"), ("--theta-grid", "-inf:1:2"),
    ])
    def test_violate_scan_grid_ends(self, option, value, capsys):
        assert run(["violate", "scan", "--preset", "coarse", option, value]) == 1
        assert f"grid spec ends must be finite, got '{value}'" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value, field", [
        ("--rho", "nan", "rho"), ("--theta", "inf", "theta"), ("--a", "-inf", "shift"),
        ("--boost", "nan", "boost"), ("--L", "inf", "L"), ("--eps", "nan", "eps"),
    ])
    def test_quartet_from_psi(self, option, value, field, capsys):
        assert run(["quartet", "from-psi", "--preset", "coarse", option, value]) == 1
        assert f"error: {field} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value, field", [("--eps", "nan", "eps"),
                                                      ("--L", "inf", "L")])
    def test_kop_gamma(self, option, value, field, capsys):
        assert run(["kop", "gamma", "--eps", "1e-2", "--L", "1e2", option, value]) == 1
        assert f"error: {field} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["violate", "scan", "--preset", "coarse"],
                                         ["quartet", "from-psi", "--preset", "coarse"],
                                         ["kop", "gamma"]])
    def test_overflowing_cutoff_ratio(self, command, capsys):
        assert run([*command, "--eps", "1e-300", "--L", "1e300"]) == 1
        assert "L/eps overflows for eps=1e-300, L=1e+300" in capsys.readouterr().err


def _scan_rows(text):
    return list(csv.reader(text.splitlines()))


class TestScanGolden:
    """``violate scan`` output against CSVs written by an earlier version:
    rho and theta exactly, the computed fields to 1e-12 relative, so that
    other BLAS builds pass too."""

    @pytest.mark.parametrize("args, golden", [
        ([], "violate_scan_default.csv"),
        (["--a", "0.3", "--boost", "0.2"], "violate_scan_a0.3_boost0.2.csv"),
    ])
    def test_matches_golden(self, args, golden, tmp_path):
        out = tmp_path / "scan.csv"
        assert run(["violate", "scan", *args, "--out", str(out)]) == 0
        got = _scan_rows(out.read_text())
        want = _scan_rows((DATA / golden).read_text())
        assert got[0] == want[0] and len(got) == len(want)
        for g, w in zip(got[1:], want[1:]):
            assert g[:2] == w[:2]
            assert [float(x) for x in g[2:]] == pytest.approx(
                [float(x) for x in w[2:]], rel=1e-12, abs=0)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("artifacts")
    qout = tmp / "from_psi.json"
    code = run(["quartet", "from-psi", "--h", "cutoff", "--eps", "1e-2",
                "--L", "1e2", "--n", "96", "--out", str(qout)])
    assert code == 0
    payload = read_json(qout)
    quartet_path = tmp / "quartet.json"
    quartet_path.write_text(json.dumps(payload["quartet"]))
    triplet_path = tmp / "triplet.json"
    triplet_path.write_text(json.dumps({
        "sigma0": payload["quartet"]["R"],
        "sigma1": payload["quartet"]["T"],
        "sigma2": payload["quartet"]["U"]}))
    return {"tmp": tmp, "from_psi": qout, "quartet": quartet_path,
            "triplet": triplet_path}


class TestQuartetReconstructDemo:
    def test_reconstruct_roundtrip(self, artifacts):
        out = artifacts["tmp"] / "rec.json"
        code = run(["reconstruct", "--triplet", str(artifacts["triplet"]),
                    "--out", str(out)])
        assert code == 0
        payload = read_json(out)
        assert max(payload["marginal_defects"].values()) < 1e-10
        assert payload["mass"] == pytest.approx(1.0, abs=1e-8)

    def test_demo(self, artifacts):
        out = artifacts["tmp"] / "demo.json"
        code = run(["demo", "--quartet", str(artifacts["quartet"]),
                    "--tol", "0.05", "--out", str(out)])
        assert code == 0
        payload = read_json(out)
        assert payload["four_set"]["bell_sum"] > 2.0
        assert len(payload["subsets"]) == 4

    def test_demo_accepts_from_psi_envelope(self, artifacts):
        bare, wrapped = artifacts["tmp"] / "bare.json", artifacts["tmp"] / "wrapped.json"
        assert run(["demo", "--quartet", str(artifacts["quartet"]),
                    "--tol", "0.05", "--out", str(bare)]) == 0
        assert run(["demo", "--quartet", str(artifacts["from_psi"]),
                    "--tol", "0.05", "--out", str(wrapped)]) == 0
        assert bare.read_bytes() == wrapped.read_bytes()

    def test_bell_eval_accepts_from_psi_envelope(self, artifacts):
        wpath = artifacts["tmp"] / "witness.json"
        wpath.write_text(json.dumps(read_json(artifacts["from_psi"])["witness"]))
        out = artifacts["tmp"] / "eval.json"
        assert run(["bell", "eval", "--quartet", str(artifacts["from_psi"]),
                    "--witness", str(wpath), "--relative-tol", "--tol", "0.05",
                    "--out", str(out)]) == 0
        assert read_json(out)["bell_sum"] > 2.0

    def test_chain_marginals_once_per_density(self, artifacts, tmp_path, monkeypatch):
        # demo builds one density per 3-subset, reconstruct one base; each
        # reads its chain marginals for the round-trip defects and the mass
        calls = []
        compute = PhaseSpaceDensity._chain_marginals
        monkeypatch.setattr(PhaseSpaceDensity, "_chain_marginals",
                            lambda self: calls.append(self) or compute(self))
        assert run(["demo", "--quartet", str(artifacts["quartet"]), "--tol", "0.05",
                    "--out", str(tmp_path / "demo.json")]) == 0
        assert run(["reconstruct", "--triplet", str(artifacts["triplet"]),
                    "--out", str(tmp_path / "rec.json")]) == 0
        assert len(calls) == 5 and len(set(map(id, calls))) == 5

    def test_demo_rejects_a_negative_density_value(self, artifacts, tmp_path, capsys):
        quartet = read_json(artifacts["quartet"])
        values = np.asarray(quartet["R"]["values"])
        values[np.unravel_index(np.argmin(values), values.shape)] = -1e-11
        quartet["R"]["values"] = values.tolist()
        bad = tmp_path / "negative.json"
        bad.write_text(json.dumps(quartet))
        assert run(["demo", "--quartet", str(bad), "--tol", "0.05"]) == 1
        assert "nonnegative" in capsys.readouterr().err

    def test_demo_inconsistent_exit_code(self, artifacts):
        code = run(["demo", "--quartet", str(artifacts["quartet"]),
                    "--tol", "1e-12"])
        assert code == 2


class TestSpinCheck:
    def test_all_defects_tiny(self, tmp_path):
        out = tmp_path / "spin.json"
        assert run(["spin", "check", "--out", str(out)]) == 0
        payload = read_json(out)
        assert payload["pauli_form_defect"] < 1e-12
        assert payload["defect_operator_defect"] < 1e-12
        assert payload["plus"]["p_bar_value"] == pytest.approx(
            (1 - math.sqrt(2)) / 2, abs=1e-12)

    def test_same_defects_as_criterion_8(self, tmp_path):
        from phaselab.acceptance import criterion_8

        out = tmp_path / "spin.json"
        assert run(["spin", "check", "--out", str(out)]) == 0
        payload = read_json(out)
        details = criterion_8().details
        keys = ("pauli_form_defect", "defect_operator_defect",
                "plus_expectation_error", "minus_expectation_error",
                "plus_defect_error", "minus_defect_error")
        assert {k: payload[k] for k in keys} == {k: details[k] for k in keys}


class TestDeterminism:
    def test_identical_config_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run(["kop", "gamma", "--eps", "1e-3", "--L", "1e3",
                        "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_scan_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["violate", "scan", "--h", "inv1", "--rho-grid", "0.5:1.5:2",
                "--theta-grid", "0:0.785:2", "--preset", "coarse"]
        for path in (a, b):
            assert run(args + ["--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestUnknownInput:
    def test_missing_file(self):
        assert run(["bell", "eval", "--quartet", "/nonexistent.json",
                    "--witness", "/nonexistent2.json"]) in (1, 2)


WITNESS = {"S1": [[0.0, None]], "S2": [[0.0, None]],
           "S1p": [[0.0, None]], "S2p": [[0.0, None]]}


class TestSchemaErrors:
    """A file missing a required key exits 1 with the key named, not with
    a traceback."""

    @pytest.fixture
    def files(self, tmp_path):
        paths = {}
        for name, obj in (("empty", {}), ("envelope", {"quartet": {}}),
                          ("witness", WITNESS)):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(obj))
        return paths

    @pytest.mark.parametrize("quartet", ["empty", "envelope"])
    def test_demo(self, files, quartet, capsys):
        assert run(["demo", "--quartet", str(files[quartet])]) == 1
        assert "R" in capsys.readouterr().err

    @pytest.mark.parametrize("quartet", ["empty", "envelope"])
    def test_bell_eval_quartet(self, files, quartet):
        assert run(["bell", "eval", "--quartet", str(files[quartet]),
                    "--witness", str(files["witness"])]) == 1

    def test_bell_eval_witness(self, tmp_path, files, capsys):
        cjson = tmp_path / "c.json"
        assert run(["bell", "counterexample", "--out", str(cjson)]) == 0
        qpath = tmp_path / "q.json"
        qpath.write_text(json.dumps(read_json(cjson)["atoms"]))
        assert run(["bell", "eval", "--quartet", str(qpath),
                    "--witness", str(files["empty"])]) == 1
        assert "S1" in capsys.readouterr().err

    def test_reconstruct_triplet_and_F(self, artifacts, files, capsys):
        assert run(["reconstruct", "--triplet", str(files["empty"])]) == 1
        assert "sigma0" in capsys.readouterr().err
        assert run(["reconstruct", "--triplet", str(artifacts["triplet"]),
                    "--F", str(files["empty"])]) == 1
        assert "grids" in capsys.readouterr().err


class TestTypeErrors:
    """A value of the wrong type exits 1 with its key named, not with a
    traceback."""

    @pytest.fixture
    def grid(self, artifacts):
        return read_json(artifacts["triplet"])["sigma0"]["grid1"]

    def _bad_quartet(self, grid, **override):
        plane = {"plane": "QQ", "grid1": grid, "grid2": grid,
                 "values": [[1.0] * len(grid["nodes"])] * len(grid["nodes"])}
        plane.update(override)
        return {k: plane for k in ("R", "S", "T", "U")}

    @pytest.mark.parametrize("key, bad", [
        ("nodes", lambda g: {**g, "nodes": ["a"] * len(g["nodes"])}),
        ("weights", lambda g: {**g, "weights": {"w": 1.0}}),
        ("panel_order", lambda g: {**g, "panel_order": "6"}),
    ])
    def test_demo_grid(self, tmp_path, grid, key, bad, capsys):
        path = tmp_path / "q.json"
        path.write_text(json.dumps(self._bad_quartet(bad(grid))))
        assert run(["demo", "--quartet", str(path)]) == 1
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("key, override", [
        ("values", {"values": "dense"}),
        ("values", {"values": [[1.0], [1.0, 2.0]]}),
        ("atoms", {"atoms": 5}),
        ("atoms", {"atoms": [{"x": "a", "y": 0.0, "w": 1.0}]}),
    ])
    def test_demo_marginal(self, tmp_path, grid, key, override, capsys):
        path = tmp_path / "q.json"
        path.write_text(json.dumps(self._bad_quartet(grid, **override)))
        assert run(["demo", "--quartet", str(path)]) == 1
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("region", [5, [[0.0]], [["a", None]], None])
    def test_bell_eval_witness(self, tmp_path, region, capsys):
        cjson = tmp_path / "c.json"
        assert run(["bell", "counterexample", "--out", str(cjson)]) == 0
        qpath, wpath = tmp_path / "q.json", tmp_path / "w.json"
        qpath.write_text(json.dumps(read_json(cjson)["atoms"]))
        wpath.write_text(json.dumps({**WITNESS, "S1": region}))
        assert run(["bell", "eval", "--quartet", str(qpath), "--witness", str(wpath)]) == 1
        assert "'S1'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, dense", [
        ("grids", {"grids": 5, "values": []}),
        ("grids", {"grids": [], "values": []}),
        ("values", None),
    ])
    def test_reconstruct_F(self, tmp_path, artifacts, grid, key, dense, capsys):
        if dense is None:
            dense = {"grids": [grid] * 4, "values": "x"}
        fpath = tmp_path / "f.json"
        fpath.write_text(json.dumps(dense))
        assert run(["reconstruct", "--triplet", str(artifacts["triplet"]),
                    "--F", str(fpath)]) == 1
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("params, key", [
        ({"a1": "x"}, "a1"), ({"zz": 1.0}, "zz"), ([1.0], "object")])
    def test_counterexample_params(self, tmp_path, params, key, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(params))
        assert run(["bell", "counterexample", "--params", str(path)]) == 1
        assert key in capsys.readouterr().err


class TestReconstructWithF:
    def test_perturbation_path(self, tmp_path):
        import numpy as np
        from phaselab.marginal import TripletProblem, quantum_marginals
        from phaselab.quantum import HProfile, ViolationParams, build_psi
        from phaselab.reconstruct import Dense4D, calibrate_triplet, rho0

        psi = build_psi(ViolationParams(h=HProfile.cutoff_sqrt(1e-1, 1e1)),
                        n_target=48)
        triplet, _ = calibrate_triplet(TripletProblem.from_quartet(
            quantum_marginals(psi)))
        tpath = tmp_path / "t.json"
        tpath.write_text(json.dumps(triplet.to_json()))
        base = rho0(triplet)
        dense = base.dense()
        bump = np.ones_like(dense)
        for axis, g in enumerate(base.grids):
            shape = [1, 1, 1, 1]
            shape[axis] = len(g)
            span = max(abs(g.nodes[0]), abs(g.nodes[-1]))
            bump = bump * np.exp(-(g.nodes / span) ** 2).reshape(shape)
        fpath = tmp_path / "f.json"
        fpath.write_text(json.dumps(Dense4D(base.grids, dense * bump).to_json()))

        out = tmp_path / "r.json"
        code = run(["reconstruct", "--triplet", str(tpath), "--F", str(fpath),
                    "--lam", "0.0", "--out", str(out)])
        assert code == 0
        payload = read_json(out)
        assert payload["lambda_range"]["lo"] < 0 < payload["lambda_range"]["hi"]
        assert payload["min_density"] >= -1e-12
        assert payload["solution_mass"] == pytest.approx(1.0, abs=1e-8)


class TestReconstructLambda:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        from phaselab.marginal import Marginal2D, PlaneLabel, TripletProblem
        from phaselab.quad import build_panels
        from phaselab.reconstruct import Dense4D, reconstruct_solution, rho0

        tmp = tmp_path_factory.mktemp("lam")
        g = build_panels([-6.0, 0.0, 6.0], order=4, subdiv=2)
        a, b, c, d = (np.exp(-(g.nodes - mu) ** 2 / 2) for mu in (0.0, 0.5, -0.4, 0.2))
        triplet = TripletProblem(
            Marginal2D.gridded(PlaneLabel.QQ, g, g, np.outer(a, b), normalize=True),
            Marginal2D.gridded(PlaneLabel.PQ, g, g, np.outer(c, b), normalize=True),
            Marginal2D.gridded(PlaneLabel.PP, g, g, np.outer(c, d), normalize=True))
        base = rho0(triplet)
        bump = np.exp(-(g.nodes - 1.0) ** 2)
        F = Dense4D(base.grids, base.dense() * np.einsum("i,j,k,l->ijkl", bump, bump, bump, bump))
        tpath, fpath = tmp / "t.json", tmp / "f.json"
        tpath.write_text(json.dumps(triplet.to_json()))
        fpath.write_text(json.dumps(F.to_json()))
        return tpath, fpath, reconstruct_solution(triplet, F).lambda_range

    def test_lam_without_F_rejected(self, files, capsys):
        tpath, _, _ = files
        assert run(["reconstruct", "--triplet", str(tpath), "--lam", "5"]) == 1
        assert "--F" in capsys.readouterr().err

    @pytest.mark.parametrize("end", ["lo", "hi"])
    def test_lam_outside_interval_rejected(self, files, end, capsys):
        tpath, fpath, rng_l = files
        lam = 2.0 * getattr(rng_l, end)
        assert run(["reconstruct", "--triplet", str(tpath), "--F", str(fpath),
                    "--lam", repr(lam)]) == 1
        assert "admissible interval" in capsys.readouterr().err


class TestBellEvalConsistencyGate:
    def test_inconsistent_quartet_exits_2(self, tmp_path):
        cjson = tmp_path / "c.json"
        run(["bell", "counterexample", "--out", str(cjson)])
        atoms = read_json(cjson)["atoms"]
        # break the R marginal's shared q1 atom locations
        atoms["R"]["atoms"][0]["x"] = 5.0
        qpath = tmp_path / "q.json"
        qpath.write_text(json.dumps(atoms))
        wpath = tmp_path / "w.json"
        wpath.write_text(json.dumps({"S1": [[0.0, None]], "S2": [[0.0, None]],
                                     "S1p": [[0.0, None]], "S2p": [[0.0, None]]}))
        assert run(["bell", "eval", "--quartet", str(qpath),
                    "--witness", str(wpath)]) == 2
