import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from qot import cli
from qot import metrology as mt
from qot import qstates as qs
from qot.cli import main


def load_script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def write_operator(path, matrix, dims):
    matrix = np.asarray(matrix, dtype=complex)
    doc = {
        "dims": list(dims),
        "matrix": [[[v.real, v.imag] for v in row] for row in matrix],
    }
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def mixed_file(tmp_path):
    return write_operator(tmp_path / "mixed.json", np.eye(2) / 2, [2])


@pytest.fixture
def sz_file(tmp_path):
    return write_operator(tmp_path / "sz.json", np.diag([1.0, -1.0]), [2])


class TestDistance:
    def test_example2(self, capsys, mixed_file, sz_file):
        rc = main(
            [
                "distance",
                "--rho", mixed_file,
                "--sigma", mixed_file,
                "--obs", sz_file,
                "--set", "ppt",
                "--convention", "gmpc",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["value"]) < 1e-7
        assert payload["set"] == "ppt"
        assert payload["exactness"] == "ExactSeparable"
        assert payload["gap"] <= 1e-8
        assert "coupling" in payload

    def test_example8_max(self, capsys, mixed_file, sz_file):
        rc = main(
            [
                "distance",
                "--rho", mixed_file,
                "--sigma", mixed_file,
                "--obs", sz_file,
                "--set", "ppt",
                "--convention", "gmpc",
                "--max",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(2.0, abs=1e-6)

    def test_product_set_omits_coupling(self, capsys, mixed_file, sz_file):
        rc = main(
            [
                "distance",
                "--rho", mixed_file,
                "--sigma", mixed_file,
                "--obs", sz_file,
                "--set", "product",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert "coupling" not in payload
        assert payload["value"] == pytest.approx(1.0, abs=1e-10)

    def test_malformed_json_exits_1(self, tmp_path, sz_file, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(
            ["distance", "--rho", str(bad), "--sigma", str(bad), "--obs", sz_file]
        )
        assert rc == 1
        assert "bad.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc",
        ["3", '{"dims": 2}', '{"dims": ["x"]}', '{"dims": [2.7]}'],
        ids=["number", "scalar_dims", "string_dims", "fractional_dims"],
    )
    def test_malformed_document_exits_1(self, tmp_path, sz_file, capsys, doc):
        # a 2 x 2 matrix, so only the document shape or the dims are wrong
        if doc.startswith("{"):
            doc = doc[:-1] + ', "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}'
        bad = tmp_path / "bad.json"
        bad.write_text(doc)
        rc = main(
            ["distance", "--rho", str(bad), "--sigma", str(bad), "--obs", sz_file]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    def test_invalid_state_exits_1(self, tmp_path, sz_file, capsys):
        bad = write_operator(tmp_path / "nonpsd.json", np.diag([2.0, -1.0]), [2])
        rc = main(["distance", "--rho", bad, "--sigma", bad, "--obs", sz_file])
        assert rc == 1

    def test_non_hermitian_observable_exits_1(self, tmp_path, mixed_file, capsys):
        bad = write_operator(tmp_path / "nonherm.json", [[0.0, 1.0], [0.0, 0.0]], [2])
        rc = main(
            ["distance", "--rho", mixed_file, "--sigma", mixed_file, "--obs", bad]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: Hermiticity defect")

    def test_missing_file_exits_1(self, sz_file):
        rc = main(
            ["distance", "--rho", "/nonexistent.json", "--sigma", sz_file,
             "--obs", sz_file]
        )
        assert rc == 1

    def test_usage_error_exits_1(self):
        assert main(["distance", "--rho"]) == 1

    def test_unknown_set_exits_1(self, mixed_file, sz_file, capsys):
        rc = main(
            ["distance", "--rho", mixed_file, "--sigma", mixed_file,
             "--obs", sz_file, "--set", "bogus"]
        )
        assert rc == 1
        capsys.readouterr()

    def test_malformed_extension_order_exits_1(self, mixed_file, sz_file, capsys):
        rc = main(
            ["distance", "--rho", mixed_file, "--sigma", mixed_file,
             "--obs", sz_file, "--set", "ppt_extension_x"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_dimension_mismatch_exits_1(self, tmp_path, mixed_file, capsys):
        obs3 = write_operator(tmp_path / "h3.json", np.diag([1.0, 0.0, -1.0]), [3])
        rc = main(
            ["distance", "--rho", mixed_file, "--sigma", mixed_file,
             "--obs", obs3]
        )
        assert rc == 1
        capsys.readouterr()

    def test_deterministic_output(self, capsys, mixed_file, sz_file):
        argv = [
            "distance",
            "--rho", mixed_file,
            "--sigma", mixed_file,
            "--obs", sz_file,
            "--set", "ppt",
            "--convention", "gmpc",
        ]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second


class TestFig2:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["fig2", "--points", "9", "--out", str(out)])
        assert rc == 0
        raw = out.read_bytes().decode()
        assert "\r" not in raw
        lines = raw.strip().split("\n")
        assert lines[0] == "phi,d2_general,d2_ppt"
        body = [ln for ln in lines[1:] if not ln.startswith("phi0")]
        assert len(body) == 9
        assert lines[-1].startswith("phi0,")
        phi0 = float(lines[-1].split(",")[1])
        assert 0.28 * np.pi < phi0 < 0.31 * np.pi
        first = [float(x) for x in body[0].split(",")]
        assert abs(first[1] - (1 - np.sqrt(3) / 2)) < 1e-4
        assert abs(first[2] - 0.25) < 1e-4
        for ln in body:
            phi, general, ppt = (float(x) for x in ln.split(","))
            assert general <= ppt + 1e-6
            if phi >= phi0:
                assert abs(general - ppt) <= 1e-5

    def test_bisection_failure_exits_2(self, tmp_path, monkeypatch, capsys):
        # the grid solves as usual; the first bisection solve is reported
        # as uncertified, which is a numerical failure, not an input error
        real = cli._sweep_point
        calls = []

        def failing_after_grid(phi):
            calls.append(phi)
            g, p, ok = real(phi)
            return g, p, ok and len(calls) <= 9

        monkeypatch.setattr(cli, "_sweep_point", failing_after_grid)
        out = tmp_path / "sweep.csv"
        rc = main(["fig2", "--points", "9", "--out", str(out)])
        assert rc == 2
        assert len(calls) == 10
        assert "solver failure during bisection" in capsys.readouterr().err
        assert not out.exists()

    def test_too_few_points_rejected(self, tmp_path):
        rc = main(["fig2", "--points", "4", "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    def test_jobs_flag_rejected(self, tmp_path):
        out = tmp_path / "x.csv"
        rc = main(["fig2", "--points", "8", "--out", str(out), "--jobs", "2"])
        assert rc == 1
        assert not out.exists()


class TestTable1:
    def test_example4_rows(self, capsys, tmp_path, sz_file):
        x1 = qs.xbasis_state(1)
        rho = 0.5 * np.outer(x1, x1.conj()) + 0.25 * np.eye(2)
        rho_file = write_operator(tmp_path / "rho.json", rho, [2])
        rc = main(["table1", "--rho", rho_file, "--obs", sz_file])
        assert rc == 0
        rows = {r["set"]: r for r in json.loads(capsys.readouterr().out)["rows"]}
        assert rows["general"]["value"] == pytest.approx(
            1 - np.sqrt(3) / 2, abs=1e-6
        )
        assert rows["ppt"]["value"] == pytest.approx(0.25, abs=1e-6)
        # var_rho(sigma_z) = 1 for this state: the top of the metrology chain
        assert rows["product"]["value"] == pytest.approx(1.0, abs=1e-10)

    def test_identity_observable_all_zero(self, capsys, tmp_path, mixed_file):
        ident = write_operator(tmp_path / "eye.json", np.eye(2), [2])
        rc = main(["table1", "--rho", mixed_file, "--obs", ident])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        for r in rows:
            assert abs(r["value"]) < 1e-7


class TestSelfDistanceDemo:
    def test_rows_match_closed_forms(self, capsys):
        assert load_script("self_distance_demo").run([]) == 0
        rows = {}
        for line in capsys.readouterr().out.splitlines():
            parts = line.split()
            if len(parts) == 3 and parts[0] in ("general", "ppt"):
                rows[parts[0]] = float(parts[1])
        # the script's default state: visibility 0.5 towards |1>_x
        x1 = qs.xbasis_state(1)
        rho = qs.validate_density(0.5 * np.outer(x1, x1.conj()) + 0.25 * np.eye(2))
        h = qs.pauli("z")
        assert rows["general"] == pytest.approx(mt.skew_information(rho, h), abs=1e-6)
        assert rows["ppt"] == pytest.approx(mt.qfi(rho, h) / 4, abs=1e-6)


class TestCheck:
    def test_singlet(self, capsys, tmp_path):
        v = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
        f = write_operator(tmp_path / "singlet.json", np.outer(v, v.conj()), [2, 2])
        rc = main(["check", "--coupling", f])
        assert rc == 0
        reports = json.loads(capsys.readouterr().out)["reports"]
        by_name = {r["criterion"]: r for r in reports}
        upper = by_name["pauli_xy_second_moment_upper"]
        assert upper["lhs"] == pytest.approx(8.0, abs=1e-10)
        assert upper["verdict"] == "violated"

    def test_maximally_entangled_qutrit(self, capsys, tmp_path):
        f = write_operator(
            tmp_path / "me3.json", qs.maximally_entangled(3).matrix, [3, 3]
        )
        rc = main(["check", "--coupling", f])
        assert rc == 0
        reports = json.loads(capsys.readouterr().out)["reports"]
        su = next(r for r in reports if r["criterion"].startswith("su_"))
        assert su["lhs"] == pytest.approx(0.0, abs=1e-10)
        assert su["bound"] == 8.0
        assert su["verdict"] == "violated"

    def test_maximally_mixed_inconclusive(self, capsys, tmp_path):
        f = write_operator(tmp_path / "mm4.json", np.eye(4) / 4, [2, 2])
        rc = main(["check", "--coupling", f])
        assert rc == 0
        for r in json.loads(capsys.readouterr().out)["reports"]:
            assert r["verdict"] == "satisfied"

    def test_round_trip_distance_to_check(self, capsys, tmp_path, mixed_file, sz_file):
        rc = main(
            [
                "distance",
                "--rho", mixed_file,
                "--sigma", mixed_file,
                "--obs", sz_file,
                "--set", "ppt",
                "--convention", "gmpc",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        coupling_file = tmp_path / "coupling.json"
        coupling_file.write_text(json.dumps(payload["coupling"]))
        rc = main(["check", "--coupling", str(coupling_file)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["reports"]
