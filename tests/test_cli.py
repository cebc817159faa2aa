"""End-to-end command-line interface and artifact contracts."""

import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from tubeflood import cli, forward
from tubeflood.errors import ArgumentError
from tubeflood.inverse import RecoveryConfig
from tubeflood.measures import Measure

from helpers import pipeline_roundtrip

ATOM_CONFIG = {
    "measure": {"atoms": [{"L": 1.0, "S": 1.0}], "pieces": []},
    "kappa": 0.5,
    "alpha_max": 2.0,
    "n_samples": 101,
}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, data


class TestForward:
    def test_endpoint_row(self, tmp_path):
        config = write_json(tmp_path / "m.json", ATOM_CONFIG)
        out = tmp_path / "curve.csv"
        assert cli.main(["forward", config, "--out", str(out)]) == 0
        header, data = read_csv(out)
        assert header == ["alpha", "Vw", "Vo", "total", "water_cut"]
        assert data[-1, header.index("total")] == pytest.approx(5.5, abs=1e-12)
        assert data[-1, header.index("Vw")] == pytest.approx(4.5, abs=1e-12)

    def test_flag_overrides_config(self, tmp_path):
        config = write_json(tmp_path / "m.json", ATOM_CONFIG)
        out = tmp_path / "curve.csv"
        assert cli.main(["forward", config, "--n-samples", "11", "--out", str(out)]) == 0
        _, data = read_csv(out)
        assert data.shape[0] == 11

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["forward", str(bad), "--out", str(tmp_path / "x.csv")]) == 2

    def test_zero_measure(self, tmp_path):
        config = write_json(
            tmp_path / "zero.json",
            {"measure": {"atoms": [], "pieces": []}, "kappa": 0.5,
             "alpha_max": 2.0, "n_samples": 11},
        )
        assert cli.main(["forward", config]) == 2

    @pytest.mark.parametrize(
        "change",
        [
            {"kappa": "abc"},
            {"alpha_max": [2.0]},
            {"n_samples": "many"},
            {"measure": {"pieces": [{"a": "x", "b": 2.0, "rho": 1.0}]}},
            {"measure": {"atoms": [{"L": 1.0, "S": None}]}},
        ],
        ids=["kappa", "alpha_max", "n_samples", "piece", "atom"],
    )
    def test_non_numeric_value(self, tmp_path, capsys, change):
        config = write_json(tmp_path / "m.json", {**ATOM_CONFIG, **change})
        assert cli.main(["forward", config, "--out", str(tmp_path / "x.csv")]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["exit_code"] == 2 and error["type"] == "invalid-config"

    def test_non_finite_alpha_max(self, tmp_path, capsys):
        config = write_json(tmp_path / "m.json", ATOM_CONFIG)
        out = tmp_path / "x.csv"
        assert cli.main(["forward", config, "--alpha-max", "inf", "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["exit_code"] == 2

    def test_missing_option(self, tmp_path):
        config = write_json(
            tmp_path / "m.json", {"measure": ATOM_CONFIG["measure"], "kappa": 0.5}
        )
        assert cli.main(["forward", config, "--n-samples", "11"]) == 2

    def test_infinite_n_samples(self, tmp_path, capsys):
        # int(inf) raises OverflowError, which is bad input like any other
        config = write_json(tmp_path / "m.json", {**ATOM_CONFIG, "n_samples": math.inf})
        assert cli.main(["forward", config, "--out", str(tmp_path / "x.csv")]) == 2
        assert "n_samples" in json.loads(capsys.readouterr().err)["error"]["message"]


class TestInvert:
    @pytest.fixture
    def curve_csv(self, tmp_path):
        config = write_json(tmp_path / "m.json", ATOM_CONFIG)
        out = tmp_path / "curve.csv"
        assert cli.main(["forward", config, "--out", str(out)]) == 0
        return out

    def test_round_trip_exit_and_diagnostics(self, tmp_path, curve_csv):
        out = tmp_path / "rec.csv"
        diag = tmp_path / "diag.json"
        code = cli.main([
            "invert", str(curve_csv), "--kappa", "0.5", "--alpha-max", "2",
            "--n-grid", "501", "--out", str(out), "--diagnostics", str(diag),
        ])
        assert code == 0
        header, data = read_csv(out)
        assert header == ["alpha", "V", "Phi", "f"]
        diagnostics = json.loads(diag.read_text())
        assert set(diagnostics) == {
            "iterations", "residual", "error_bound", "contraction_q",
            "clip_count", "f_clip_count", "timings_s", "operator_cached",
        }
        # no --alpha-min, so no density stage
        assert set(diagnostics["timings_s"]) == {"assembly", "solve", "cdf"}
        assert all(t >= 0 for t in diagnostics["timings_s"].values())
        assert isinstance(diagnostics["operator_cached"], bool)
        assert diagnostics["iterations"] == 1
        assert diagnostics["residual"] <= 1e-12
        assert diagnostics["error_bound"] == pytest.approx(
            diagnostics["residual"] / (1.0 - diagnostics["contraction_q"])
        )
        # Phi jumps from 0 to about S/L = 1 across the atom at alpha = 1
        grid = data[:, 0]
        phi = data[:, 2]
        assert np.max(np.abs(phi[grid <= 0.9])) <= 0.05
        assert np.max(np.abs(phi[grid >= 1.1] - 1.0)) <= 0.05

    def test_small_kappa_exit_code(self, tmp_path):
        # q = 0.99 at kappa = 0.005: the slowest contraction the CLI accepts in tests
        config = write_json(
            tmp_path / "m.json",
            {"measure": {"pieces": [{"a": 3.0, "b": 9.0, "rho": 1.0}]},
             "kappa": 0.005, "alpha_max": 10.0, "n_samples": 4001},
        )
        curve = tmp_path / "curve.csv"
        out = tmp_path / "r.csv"
        assert cli.main(["forward", config, "--out", str(curve)]) == 0
        code = cli.main([
            "invert", str(curve), "--kappa", "0.005", "--alpha-max", "10",
            "--n-grid", "2001", "--out", str(out),
        ])
        assert code == 0
        header, data = read_csv(out)
        _, fwd = read_csv(curve)
        v_max = fwd[-1, 3]
        truth = forward.v_w_samples(
            Measure(pieces=((3.0, 9.0, 1.0),)), 0.005, data[:, 0]
        )
        assert np.max(np.abs(data[:, header.index("V")] - truth)) <= 1e-5 * v_max

    def test_lipschitz_violation_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("total,water\n0.0,0.0\n1.0,0.9\n2.0,2.1\n")
        assert cli.main(["invert", str(bad), "--kappa", "0.5", "--alpha-max", "2"]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "invalid-config"

    @pytest.mark.parametrize(
        "rows",
        [
            "0.0,0.0\n1.0,nan\n2.0,1.0\n",      # NaN sample
            "0.0,0.0\n1.0,0.5\n1.0,0.6\n",      # repeated total
        ],
        ids=["nan", "duplicate-total"],
    )
    def test_invalid_curve_exit_code(self, tmp_path, capsys, rows):
        bad = tmp_path / "bad.csv"
        bad.write_text("total,water\n" + rows)
        assert cli.main(["invert", str(bad), "--kappa", "0.5", "--alpha-max", "2"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["exit_code"] == 2 and error["type"] == "invalid-config"

    def test_non_finite_alpha_max(self, tmp_path, curve_csv, capsys):
        out = tmp_path / "r.csv"
        code = cli.main([
            "invert", str(curve_csv), "--kappa", "0.5", "--alpha-max", "inf",
            "--out", str(out),
        ])
        assert code == 2 and not out.exists()
        assert json.loads(capsys.readouterr().err)["error"]["exit_code"] == 2

    def test_v_at_any_magnitude_of_alpha_max(self, tmp_path, curve_csv):
        # the same curve declared at alpha_max 2 and 1e160 gives the same V
        columns = []
        for alpha_max in ("2", "1e160"):
            out = tmp_path / f"r{alpha_max}.csv"
            diag = tmp_path / f"d{alpha_max}.json"
            assert cli.main([
                "invert", str(curve_csv), "--kappa", "0.5", "--alpha-max", alpha_max,
                "--n-grid", "501", "--out", str(out), "--diagnostics", str(diag),
            ]) == 0
            assert math.isfinite(json.loads(diag.read_text())["residual"])
            header, data = read_csv(out)
            columns.append(data[:, header.index("V")])
        assert np.all(np.isfinite(columns[1]))
        assert np.max(np.abs(columns[1] - columns[0])) <= 2e-15 * 5.5

    def test_malformed_csv_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("total,water\n0.0,zero\n1.0,0.5\n")
        assert cli.main(["invert", str(bad), "--kappa", "0.5", "--alpha-max", "2"]) == 2

    def test_missing_column_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n0.0,0.0\n1.0,0.5\n")
        assert cli.main(["invert", str(bad), "--kappa", "0.5", "--alpha-max", "2"]) == 2


def reference_read(path):
    """The curve CSV reader as it was before the one-pass ingest."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = [h.strip() for h in lines[0].split(",")]
    x_col = header.index("total")
    g_col = header.index("water" if "water" in header else "Vw")
    data = [
        (float(parts[x_col]), float(parts[g_col]))
        for parts in (ln.split(",") for ln in lines[1:])
    ]
    return np.array([d[0] for d in data]), np.array([d[1] for d in data])


class TestReadCurveCsv:
    ROWS = [(0.0, 0.0), (0.5, 0.0), (1.25, 0.5), (2.0, 1.125)]

    def read(self, tmp_path, text):
        path = tmp_path / "curve.csv"
        path.write_text(text)
        return cli.read_curve_csv(str(path), 0.5, 2.0)

    def assert_rows(self, curve):
        assert curve.x.tolist() == [r[0] for r in self.ROWS]
        assert curve.g.tolist() == [r[1] for r in self.ROWS]

    def test_benchmark_format_matches_the_reference_reader(self, tmp_path):
        # the layout the benchmark writes: shortest round-trip floats
        curve = forward.build_curve(
            Measure(pieces=((1.0, 7.0, 1.3),)), 0.1, 10.0, 4001
        )
        path = tmp_path / "curve.csv"
        path.write_text("total,water\n" + "".join(
            f"{x!r},{g!r}\n" for x, g in zip(curve.x.tolist(), curve.g.tolist())
        ))
        got = cli.read_curve_csv(str(path), 0.1, 10.0)
        x, g = reference_read(path)
        assert np.array_equal(got.x, x) and np.array_equal(got.g, g)
        assert np.array_equal(got.x, curve.x) and np.array_equal(got.g, curve.g)

    @pytest.mark.parametrize(
        "header, row",
        [
            ("total,water", "{x},{g}"),
            ("water,total", "{g},{x}"),
            ("total,Vw", "{x},{g}"),
            (" total , water ", "  {x} ,\t{g}  "),
            ("alpha,total,Vo,water,water_cut", "9,{x},-1,{g},0.5"),
        ],
        ids=["plain", "swapped", "Vw", "spaces", "extra-columns"],
    )
    def test_layouts(self, tmp_path, header, row):
        rows = [row.format(x=x, g=g) for x, g in self.ROWS]
        text = header + "\n" + "\n".join(rows) + "\n"
        self.assert_rows(self.read(tmp_path, text))

    def test_blank_lines(self, tmp_path):
        text = "total,water\n\n0.0,0.0\n   \n0.5,0.0\n1.25,0.5\r\n\n2.0,1.125"
        self.assert_rows(self.read(tmp_path, text))

    @pytest.mark.parametrize(
        "rows",
        [
            "0.0,0.0\n0.5,zero\n1.0,0.5\n",     # malformed number
            "0.0,0.0\n0.5\n1.0,0.5\n",          # short row
            "0.0,0.0\n0.5,nan\n1.0,0.5\n",      # NaN sample
            "0.0,0.0\n",                         # one data row
        ],
        ids=["malformed", "short", "nan", "one-row"],
    )
    def test_bad_rows_exit_2(self, tmp_path, capsys, rows):
        bad = tmp_path / "bad.csv"
        bad.write_text("total,water\n" + rows)
        assert cli.main(["invert", str(bad), "--kappa", "0.5", "--alpha-max", "2"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["exit_code"] == 2 and error["type"] == "invalid-config"


TUBES_CONFIG = {
    "tubes": [{"L": 1.0, "S": 1.0}, {"L": 2.0, "S": 1.0}],
    "kappa": 0.5,
    "pump": {"breakpoints": [0.0], "c": [1.0]},
    "t_max": 3.0,
    "n_steps": 5,
}


class TestTubes:
    def test_two_tube_csv(self, tmp_path):
        config = write_json(tmp_path / "t.json", TUBES_CONFIG)
        out = tmp_path / "tubes.csv"
        assert cli.main(["tubes", str(config), "--out", str(out)]) == 0
        header, data = read_csv(out)
        assert header == ["t", "F", "Vw", "Vo", "l_1", "l_2"]
        # row at t = 0.75: first tube exactly at breakthrough
        row = data[1]
        assert row[0] == pytest.approx(0.75)
        assert row[header.index("l_1")] == pytest.approx(1.0, abs=1e-12)
        expected_l2 = (2.0 - math.sqrt(4.0 - 0.75)) / 0.5
        assert row[header.index("l_2")] == pytest.approx(expected_l2, abs=1e-12)
        assert row[header.index("Vo")] == pytest.approx(1.0 + expected_l2, abs=1e-12)
        assert data[-1, header.index("Vo")] == pytest.approx(3.0, abs=1e-12)

    def test_invalid_config(self, tmp_path):
        config = write_json(tmp_path / "t.json", {"tubes": []})
        assert cli.main(["tubes", str(config)]) == 2

    def test_non_numeric_value(self, tmp_path, capsys):
        config = write_json(
            tmp_path / "t.json",
            {"tubes": [{"L": 1.0, "S": 1.0}], "kappa": "abc",
             "pump": {"breakpoints": [0.0], "c": [1.0]}, "t_max": 3.0, "n_steps": 5},
        )
        assert cli.main(["tubes", str(config)]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["exit_code"] == 2

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"n_steps": math.inf}, "malformed tubes config"),
            ({"t_max": math.inf}, "finite t_max"),
            ({"t_max": math.nan}, "finite t_max"),
            ({"pump": {"breakpoints": [0.0, math.nan], "c": [1.0, 0.5]}}, "breakpoints"),
            ({"pump": {"breakpoints": [0.0, math.inf], "c": [1.0, 0.5]}}, "breakpoints"),
        ],
        ids=["n_steps-inf", "t_max-inf", "t_max-nan", "breakpoint-nan", "breakpoint-inf"],
    )
    def test_non_finite_value(self, tmp_path, capsys, change, message):
        config = write_json(tmp_path / "t.json", {**TUBES_CONFIG, **change})
        out = tmp_path / "tubes.csv"
        assert cli.main(["tubes", str(config), "--out", str(out)]) == 2
        assert not out.exists()
        assert message in json.loads(capsys.readouterr().err)["error"]["message"]


class TestStability:
    def test_perturbation_mode(self, tmp_path, capsys):
        config = write_json(
            tmp_path / "m.json",
            {
                "measure": {"atoms": [{"L": 4.0, "S": 1.0}, {"L": 7.0, "S": 0.5}]},
                "kappa": 0.5,
                "alpha_max": 10.0,
                "n_samples": 801,
            },
        )
        code = cli.main(["stability", config, "--n-grid", "301"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bound_constant"] == pytest.approx(18.5)
        assert report["v_diff"] <= report["bound"]

    def test_curve_mode(self, tmp_path, capsys):
        config = write_json(tmp_path / "m.json", ATOM_CONFIG)
        curve = tmp_path / "c.csv"
        assert cli.main(["forward", config, "--out", str(curve)]) == 0
        code = cli.main([
            "stability", "--curve1", str(curve), "--curve2", str(curve),
            "--kappa", "0.5", "--alpha-max", "2", "--n-grid", "301",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["delta"] == 0.0
        assert report["v_diff"] == 0.0

    def test_requires_input(self):
        assert cli.main(["stability"]) == 2

    @pytest.mark.parametrize(
        "change, flags",
        [({"n_samples": math.inf}, []), ({}, ["--delta0-rel", "inf"])],
        ids=["n_samples-inf", "delta0-rel-inf"],
    )
    def test_infinite_value(self, tmp_path, capsys, change, flags):
        config = write_json(tmp_path / "m.json", {**ATOM_CONFIG, **change})
        out = tmp_path / "report.json"
        assert cli.main(["stability", config, "--n-grid", "51", "--out", str(out)] + flags) == 2
        assert not out.exists()
        assert json.loads(capsys.readouterr().err)["error"]["exit_code"] == 2


class TestMc:
    def test_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "mc.csv"
        code = cli.main([
            "mc", "--trials", "15", "--seed", "3", "--n-grid", "401",
            "--out", str(out),
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        header, data = read_csv(out)
        assert header == ["seed", "n1", "n2", "v1max", "v2max", "accepted", "c"]
        assert data.shape[0] == 15
        assert summary["trials"] == 15
        accepted = data[:, header.index("accepted")] == 1.0
        assert summary["accepted"] == int(np.sum(accepted))
        assert np.all(data[accepted, header.index("c")] > 0)
        assert np.all(np.isnan(data[~accepted, header.index("c")]))

    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["mc", "--trials", "10", "--seed", "5", "--n-grid", "401"]
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_no_jobs_flag(self, tmp_path):
        # trials run serially: there is no --jobs
        with pytest.raises(SystemExit) as exc:
            cli.main(["mc", "--trials", "3", "--jobs", "2", "--out", str(tmp_path / "mc.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flags",
        [["--alpha-max", "inf"], ["--alpha-max", "nan"], ["--n-grid", "1"],
         ["--seed=-1"], ["--trials", "0"]],
        ids=["alpha-max-inf", "alpha-max-nan", "n-grid-1", "seed-negative", "trials-0"],
    )
    def test_invalid_input_exit_code(self, tmp_path, capsys, flags):
        out = tmp_path / "mc.csv"
        code = cli.main(["mc", "--trials", "3", "--seed", "0", "--out", str(out)] + flags)
        assert code == 2 and not out.exists()
        assert json.loads(capsys.readouterr().err)["error"]["exit_code"] == 2


class TestAmbiguity:
    def test_report(self, capsys):
        code = cli.main(["ambiguity", "--alpha0", "2", "--k", "1.2", "--kappa", "0.5"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["gap"] > 0
        assert 0.5 <= report["gap_over_estimate"] <= 2.0

    def test_invalid_factor(self):
        assert cli.main(["ambiguity", "--alpha0", "2", "--k", "1.6"]) == 2


class TestReadme:
    def test_documented_commands_parse(self):
        # every `tubeflood ...` line of README's shell blocks is a valid
        # command line, so a removed flag cannot stay documented
        text = (Path(__file__).parents[1] / "README.md").read_text()
        script = "".join(re.findall(r"```bash\n(.*?)```", text, re.S))
        lines = script.replace("\\\n", " ").splitlines()
        commands = [shlex.split(ln)[1:] for ln in lines if ln.startswith("tubeflood ")]
        assert {argv[0] for argv in commands} == {
            "forward", "invert", "tubes", "stability", "mc", "ambiguity",
        }
        for argv in commands:
            cli.build_parser().parse_args(argv)


class TestRoundtripPipeline:
    """The forward -> inverse round-trip report of tests/helpers.py."""

    def test_uniform_density(self):
        mu = Measure(pieces=((3.0, 9.0, 1.0),))
        report = pipeline_roundtrip(
            mu, 0.5, 10.0, n_samples=2001,
            config=RecoveryConfig(n_grid=1001),
            density_window=(3.5, 8.5),
        )
        assert report["v_sup_error"] <= 1e-5 * report["v_max"]
        assert report["phi_linf_error"] <= 5e-3 * report["phi_end"]
        assert report["f_linf_error"] <= 0.05

    def test_atomic_measure_jump(self):
        mu = Measure(atoms=((1.0, 1.0),))
        report = pipeline_roundtrip(
            mu, 0.5, 2.0, n_samples=2001,
            config=RecoveryConfig(n_grid=1001),
        )
        assert report["v_sup_error"] <= 1e-5 * report["v_max"]

    def test_zero_measure_rejected(self):
        with pytest.raises(ArgumentError):
            pipeline_roundtrip(Measure(), 0.5, 10.0)

    def test_density_needs_pieces(self):
        with pytest.raises(ArgumentError):
            pipeline_roundtrip(
                Measure(atoms=((1.0, 1.0),)), 0.5, 2.0, n_samples=501,
                config=RecoveryConfig(n_grid=301),
                density_window=(0.5, 1.5),
            )
