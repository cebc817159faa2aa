"""End-to-end command-line interface and artifact contracts."""

import inspect
import json
import math
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

import tubeflood
from tubeflood import analysis, cli, forward
from tubeflood.errors import ArgumentError, InternalConsistencyError
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


class TestMeasureConfig:
    @pytest.mark.parametrize("nested", [True, False], ids=["nested", "flat"])
    def test_dict_round_trip(self, nested):
        mu = Measure(atoms=((3.0, 1.0),), pieces=((1.0, 7.5, 0.2),))
        data = {
            "atoms": [{"L": 3.0, "S": 1.0}],
            "pieces": [{"a": 1.0, "b": 7.5, "rho": 0.2}],
        }
        config = {"measure": data, "kappa": 0.5} if nested else {**data, "kappa": 0.5}
        assert cli._measure_from_config(config) == mu


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
            # JSON true and false, which Python reads as the numbers 1 and 0
            {"kappa": False},
            {"alpha_max": True},
            {"n_samples": True},
            {"measure": {"pieces": [{"a": 0.5, "b": True, "rho": 1.0}]}},
            {"measure": {"atoms": [{"L": True, "S": 1.0}]}},
            {"measure": {"atoms": [{"L": True, "S": 1.0}],
                         "pieces": [{"a": 0.5, "b": 0.9, "rho": 1.0}]},
             "alpha_max": True},
        ],
        ids=["kappa", "alpha_max", "n_samples", "piece", "atom", "kappa-false",
             "alpha_max-true", "n_samples-true", "piece-true", "atom-true",
             "atom-and-alpha_max-true"],
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
            "residual", "error_bound", "contraction_q", "clip_count",
            "f_clip_count", "timings_s", "operator_cached", "operator_doubles",
        }
        # no --alpha-min, so no density stage
        assert set(diagnostics["timings_s"]) == {"assembly", "solve", "cdf"}
        assert all(t >= 0 for t in diagnostics["timings_s"].values())
        assert isinstance(diagnostics["operator_cached"], bool)
        assert diagnostics["residual"] <= 1e-12
        assert diagnostics["error_bound"] == pytest.approx(
            diagnostics["residual"] / (1.0 - diagnostics["contraction_q"])
        )
        # Phi jumps from 0 to about S/L = 1 across the atom at alpha = 1
        grid = data[:, 0]
        phi = data[:, 2]
        assert np.max(np.abs(phi[grid <= 0.9])) <= 0.05
        assert np.max(np.abs(phi[grid >= 1.1] - 1.0)) <= 0.05

    def test_diagnostics_report_the_operator_storage(self, tmp_path, curve_csv):
        # the doubles the operator stores, leaves and far parts apart, stay
        # below 0.1 n^2 at n_grid 2001
        diag = tmp_path / "diag.json"
        code = cli.main([
            "invert", str(curve_csv), "--kappa", "0.5", "--alpha-max", "2",
            "--n-grid", "2001", "--out", str(tmp_path / "rec.csv"),
            "--diagnostics", str(diag),
        ])
        assert code == 0
        stored = json.loads(diag.read_text())["operator_doubles"]
        assert set(stored) == {"leaves", "far"}
        assert all(isinstance(v, int) and v > 0 for v in stored.values())
        assert sum(stored.values()) < 0.1 * 2001 ** 2

    def test_empty_density_window_at_the_smallest_grid(self, tmp_path, curve_csv):
        out = tmp_path / "rec.csv"
        diag = tmp_path / "diag.json"
        code = cli.main([
            "invert", str(curve_csv), "--kappa", "0.5", "--alpha-max", "2",
            "--n-grid", "3", "--alpha-min", "1", "--out", str(out),
            "--diagnostics", str(diag),
        ])
        assert code == 0
        header, data = read_csv(out)
        assert np.all(np.isnan(data[:, header.index("f")]))
        assert json.loads(diag.read_text())["f_clip_count"] == 0

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
        # the same curve declared at alpha_max 2 and 1e150 gives the same V
        columns = []
        for alpha_max in ("2", "1e150"):
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

    @pytest.mark.parametrize("alpha_max", ["1e160", "1e200"])
    def test_phi_below_the_normal_doubles(self, tmp_path, curve_csv, capsys, alpha_max):
        # Phi and f scale as v_max / alpha_max^2: 5.5e-320 at 1e160, and 0
        # at 1e200, where every Phi would be written as 0
        capsys.readouterr()
        out = tmp_path / "rec.csv"
        code = cli.main([
            "invert", str(curve_csv), "--kappa", "0.5", "--alpha-max", alpha_max,
            "--n-grid", "101", "--alpha-min", "0.5", "--out", str(out),
        ])
        assert "underflow a double" in one_error_line(capsys, code)
        assert not out.exists()

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
            "0.0,0.0\n0.5,0.0 # note\n1.0,0.5\n",  # '#' is not a comment
            "0.0,0.0\n# note\n1.0,0.5\n",
            "0.0,0.0\n1_000,0.5\n2000,1.0\n",     # float() reads 1_000
        ],
        ids=["malformed", "short", "nan", "one-row", "hash-in-row", "hash-row",
             "underscore"],
    )
    def test_bad_rows_exit_2(self, tmp_path, capsys, rows):
        bad = tmp_path / "bad.csv"
        bad.write_text("total,water\n" + rows)
        assert cli.main(["invert", str(bad), "--kappa", "0.5", "--alpha-max", "2"]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["exit_code"] == 2 and error["type"] == "invalid-config"

    @pytest.mark.parametrize("fmt", [repr, "{:.25e}".format], ids=["repr", "25-digits"])
    def test_rows_parse_as_float_does(self, tmp_path, monkeypatch, fmt):
        # random bit patterns cover every exponent, subnormals included; the
        # curve checks are bypassed so any double can stand in either column
        monkeypatch.setattr(forward, "DisplacementCurve", lambda **fields: fields)
        rng = np.random.default_rng(17)
        values = np.frombuffer(rng.bytes(8 * 20000), dtype=np.float64)
        extremes = [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -0.0]
        values = np.concatenate([values[np.isfinite(values)], extremes])
        text = [fmt(v) for v in values.tolist()]
        half = len(text) // 2
        rows = [f"{g},{x}" for x, g in zip(text[:half], text[half:2 * half])]
        path = tmp_path / "curve.csv"
        path.write_text("water,total\n" + "\n".join(rows) + "\n")
        got = cli.read_curve_csv(str(path), 0.5, 2.0)
        want = np.array([float(t) for t in text[:2 * half]])
        for column, expected in ((got["x"], want[:half]), (got["g"], want[half:])):
            assert column.flags.c_contiguous
            assert np.array_equal(column.view(np.uint64), expected.view(np.uint64))


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

    def test_huge_tube_never_broken_through(self, tmp_path):
        # V_w sums only the tubes broken through by t_max: a sum over the
        # 1e150 tube too, its threshold times the wide tube's S / L, overflows
        config = write_json(tmp_path / "t.json", {
            **TUBES_CONFIG, "tubes": [{"L": 1.0, "S": 1e10}, {"L": 1e150, "S": 1.0}],
        })
        out = tmp_path / "tubes.csv"
        assert cli.main(["tubes", str(config), "--out", str(out)]) == 0
        assert out.read_text() == (
            "t,F,Vw,Vo,l_1,l_2\n"
            "0.0,0.0,0.0,0.0,0.0,0.0\n"
            "0.75,0.75,0.0,10000000000.0,1.0,7.5e-151\n"
            "1.5,1.5,15000000000.0,10000000000.0,1.0,1.5e-150\n"
            "2.25,2.25,30000000000.0,10000000000.0,1.0,2.25e-150\n"
            "3.0,3.0,45000000000.0,10000000000.0,1.0,3e-150\n"
        )

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
        "change",
        [
            {"kappa": True},
            {"t_max": True},
            {"tubes": [{"L": True, "S": 1.0}]},
            {"pump": {"breakpoints": [0.0], "c": [True]}},
        ],
        ids=["kappa", "t_max", "tube", "pump"],
    )
    def test_boolean_value(self, tmp_path, capsys, change):
        # JSON true, which Python reads as the number 1
        config = write_json(tmp_path / "t.json", {**TUBES_CONFIG, **change})
        out = tmp_path / "tubes.csv"
        assert cli.main(["tubes", str(config), "--out", str(out)]) == 2
        assert not out.exists()
        assert json.loads(capsys.readouterr().err)["error"]["exit_code"] == 2

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"n_steps": math.inf}, "n_steps must be an integer"),
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

    def test_violated_bound_exits_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(analysis, "stability_bound", lambda kappa, alpha_max: 1e-300)
        config = write_json(tmp_path / "m.json", {**ATOM_CONFIG, "n_samples": 801})
        code = cli.main(["stability", config, "--n-grid", "301"])
        message = one_error_line(capsys, code, "internal-consistency", exit_code=4)
        assert message.startswith("stability bound violated")

    def test_no_alpha_min_flag(self, tmp_path, capsys):
        # stability only solves, so a density window has nothing to set
        config = write_json(tmp_path / "m.json", ATOM_CONFIG)
        with pytest.raises(SystemExit) as exc:
            cli.main(["stability", config, "--alpha-min", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --alpha-min 1" in capsys.readouterr().err

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
         ["--seed=-1"], ["--trials", "0"], ["--alpha-max", "5"], ["--kappa", "0"]],
        ids=["alpha-max-inf", "alpha-max-nan", "n-grid-1", "seed-negative", "trials-0",
             "alpha-max-below-lengths", "kappa-0"],
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

    def test_grid_of_one_names_its_option(self, capsys):
        code = cli.main(["ambiguity", "--alpha0", "2", "--k", "1.2", "--n-grid", "1"])
        assert one_error_line(capsys, code) == "n_grid must be an integer >= 2, got 1"


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestStrictJson:
    """A NaN in a report is written as null, which every JSON reader parses."""

    @pytest.mark.parametrize(
        "argv, keys",
        [
            (["ambiguity", "--alpha0", "2", "--k", "1.2", "--probe", "0"],
             ["gap_over_estimate"]),
            (["stability", "--curve1", "{curve}", "--curve2", "{curve}",
              "--kappa", "0.5", "--alpha-max", "2", "--n-grid", "51"], ["ratio"]),
            # the one trial's pair is rejected, so no c has a statistic
            (["mc", "--trials", "1", "--seed", "0", "--n-grid", "51", "--out", "{csv}"],
             ["c_min", "c_median", "c_max"]),
        ],
        ids=["ambiguity", "stability", "mc"],
    )
    def test_nan_written_as_null(self, tmp_path, capsys, argv, keys):
        curve = tmp_path / "c.csv"
        config = write_json(tmp_path / "m.json", ATOM_CONFIG)
        assert cli.main(["forward", config, "--out", str(curve)]) == 0
        files = {"{curve}": str(curve), "{csv}": str(tmp_path / "mc.csv")}
        assert cli.main([files.get(a, a) for a in argv]) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        assert all(report[k] is None for k in keys)


def one_error_line(capsys, code, kind="invalid-config", exit_code=2):
    """The message of the one JSON error line main wrote for its exit code."""
    assert code == exit_code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == kind and error["exit_code"] == exit_code
    return error["message"]


def assert_invalid_config(capsys, code):
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["exit_code"] == 2 and error["type"] == "invalid-config"


class TestSmallestSizes:
    """The smallest admissible size of each subcommand runs through."""

    @pytest.mark.parametrize(
        "argv, volumes",
        [
            (["forward", "{measure}", "--n-samples", "2"], ["Vw", "Vo", "total"]),
            (["invert", "{curve}", "--kappa", "0.5", "--alpha-max", "2",
              "--n-grid", "3"], ["V"]),
            (["invert", "{curve}", "--kappa", "0.5", "--alpha-max", "2",
              "--n-grid", "3", "--alpha-min", "1"], ["V"]),
            (["stability", "{measure}", "--n-grid", "3"], ["v_diff", "bound"]),
            (["tubes", "{tubes}"], ["Vw", "Vo"]),
            (["mc", "--trials", "1", "--n-grid", "2"], ["v1max", "v2max"]),
            (["ambiguity", "--alpha0", "2", "--k", "1.2", "--n-grid", "2"], ["gap"]),
        ],
        ids=["forward", "invert", "invert-alpha-min", "stability", "tubes", "mc",
             "ambiguity"],
    )
    def test_exit_0_with_finite_volumes(self, tmp_path, capsys, argv, volumes):
        measure = write_json(tmp_path / "m.json", ATOM_CONFIG)
        curve = tmp_path / "curve.csv"
        assert cli.main(["forward", measure, "--out", str(curve)]) == 0
        capsys.readouterr()
        files = {
            "{measure}": measure,
            "{curve}": str(curve),
            "{tubes}": write_json(tmp_path / "t.json", {**TUBES_CONFIG, "n_steps": 2}),
        }
        out = tmp_path / "out"
        assert cli.main([files.get(a, a) for a in argv] + ["--out", str(out)]) == 0
        assert len(capsys.readouterr().err.splitlines()) == 1
        if argv[0] in ("stability", "ambiguity"):
            report = json.loads(out.read_text())
            values = [report[name] for name in volumes]
        else:
            header, data = read_csv(out)
            values = data[:, [header.index(name) for name in volumes]]
        assert np.all(np.isfinite(values))


class TestOutOfRange:
    """Values whose volumes leave the doubles, and fractional or huge sizes.

    Each exits 2 with the JSON error; pytest turns a RuntimeWarning into a
    failure, so none may fire on the way.
    """

    @pytest.mark.parametrize(
        "argv",
        [
            ["forward", "{measure}", "--alpha-max", "1e160"],
            ["stability", "{measure}", "--alpha-max", "1e160"],
            # alpha_max^2 below the normal doubles: the squared samples
            # would lose the digits that keep the total volume increasing
            ["forward", "{tiny}"],
            ["stability", "{tiny}"],
            ["mc", "--trials", "2", "--alpha-max", "1e160"],
            ["ambiguity", "--alpha0", "2", "--k", "1e-160"],  # tail near 4e160
            ["tubes", "{long_tube}"],
            ["tubes", "{strong_drive}"],
            ["tubes", "{wide_tube}"],
            # Phi scales as v_max / alpha_max^2
            ["invert", "{curve}", "--kappa", "0.5", "--alpha-max", "1e-160"],
            # V_w'(alpha_max) as v_max / alpha_max
            ["invert", "{curve}", "--kappa", "0.5", "--alpha-max", "1e-310"],
        ],
        ids=[
            "forward", "stability", "forward-tiny", "stability-tiny", "mc",
            "ambiguity", "tubes", "tubes-drive", "tubes-section", "invert-phi",
            "invert-slope",
        ],
    )
    def test_overflowing_volume(self, tmp_path, capsys, argv):
        curve = tmp_path / "curve.csv"
        curve.write_text("total,water\n0.0,0.0\n1.0,0.5\n2.0,1.0\n")
        files = {
            "{curve}": str(curve),
            "{measure}": write_json(tmp_path / "m.json", ATOM_CONFIG),
            "{tiny}": write_json(tmp_path / "s.json", {
                "measure": {"atoms": [{"L": 1e-160, "S": 1.0}]},
                "kappa": 0.5, "alpha_max": 1e-160, "n_samples": 2001,
            }),
            "{long_tube}": write_json(tmp_path / "t.json", {
                **TUBES_CONFIG, "tubes": [{"L": 1.0, "S": 1.0}, {"L": 1e160, "S": 1.0}],
            }),
            "{strong_drive}": write_json(tmp_path / "d.json", {
                **TUBES_CONFIG, "pump": {"breakpoints": [0.0, 1.0], "c": [1.0, 1e308]},
            }),
            "{wide_tube}": write_json(tmp_path / "w.json", {
                **TUBES_CONFIG, "tubes": [{"L": 1.0, "S": 1e308}],
            }),
        }
        out = tmp_path / "out"
        argv = [files.get(a, a) for a in argv] + ["--out", str(out)]
        assert_invalid_config(capsys, cli.main(argv))
        assert not out.exists()

    @pytest.mark.parametrize(
        "measure",
        [
            {"atoms": [{"L": 1e-10, "S": 1e300}]},     # S / L past the doubles
            {"atoms": [{"L": 1.0, "S": 1e-320}]},      # a subnormal v_max
            {"atoms": [{"L": 1e-320, "S": 1.0}]},
            {"pieces": [{"a": 1e-320, "b": 1.0, "rho": 1.0}]},
        ],
        ids=["moment", "section", "length", "piece-start"],
    )
    def test_measure_past_the_normal_doubles(self, tmp_path, capsys, measure):
        config = write_json(tmp_path / "m.json", {**ATOM_CONFIG, "measure": measure})
        out = tmp_path / "out"
        code = cli.main(["forward", config, "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2 and len(err) == 1
        assert json.loads(err[0])["error"]["type"] == "invalid-config"
        assert not out.exists()

    def test_piece_moment_past_the_doubles(self, tmp_path, capsys):
        # log(b / a) of the piece overflows in the divide
        config = write_json(tmp_path / "m.json", {
            "measure": {"pieces": [{"a": 1e-300, "b": 1e10, "rho": 1.0}]},
            "kappa": 0.5, "alpha_max": 1e10, "n_samples": 101,
        })
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["forward", config, "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 2 and len(err) == 1
        assert json.loads(err[0])["error"]["type"] == "invalid-config"
        assert not out.exists()

    # a count is a JSON integer, as check_count has it: not an integral
    # float such as 21.0, and not a number written as a string
    @pytest.mark.parametrize("value", [21.7, 1e160, True, 21.0, "21"])
    @pytest.mark.parametrize(
        "sub, config, key",
        [
            ("forward", ATOM_CONFIG, "n_samples"),
            ("stability", ATOM_CONFIG, "n_samples"),
            ("tubes", TUBES_CONFIG, "n_steps"),
        ],
        ids=["forward", "stability", "tubes"],
    )
    def test_integer_field(self, tmp_path, capsys, sub, config, key, value):
        path = write_json(tmp_path / "c.json", {**config, key: value})
        out = tmp_path / "out"
        assert_invalid_config(capsys, cli.main([sub, path, "--out", str(out)]))
        assert not out.exists()

    @pytest.mark.parametrize("sub", ["invert", "stability"])
    def test_grid_numpy_cannot_describe(self, tmp_path, capsys, sub):
        # an n x n operator of 8e22 bytes: numpy refuses it before allocating
        curve = tmp_path / "curve.csv"
        curve.write_text("total,water\n0.0,0.0\n1.0,0.5\n2.0,1.0\n")
        argv = {
            "invert": ["invert", str(curve), "--kappa", "0.5", "--alpha-max", "2"],
            "stability": ["stability", write_json(tmp_path / "m.json", ATOM_CONFIG)],
        }[sub]
        out = tmp_path / "out"
        code = cli.main(argv + ["--n-grid", "100000000000", "--out", str(out)])
        assert_invalid_config(capsys, code)
        assert not out.exists()

    def test_heavy_atom_far_out(self, tmp_path):
        # v_max = 1e305 is finite, but S * c0 would reach 7.5e314 in the tail
        config = write_json(tmp_path / "m.json", {
            "measure": {"atoms": [{"L": 1e10, "S": 1e295}]},
            "kappa": 0.5, "alpha_max": 1e10, "n_samples": 11,
        })
        out = tmp_path / "curve.csv"
        assert cli.main(["forward", config, "--out", str(out)]) == 0
        header, data = read_csv(out)
        volumes = data[:, [header.index(k) for k in ("Vw", "Vo", "total")]]
        assert np.all(np.isfinite(volumes))
        assert data[-1, header.index("total")] == pytest.approx(1e305)

    @pytest.mark.parametrize(
        "sub", ["forward", "invert", "tubes", "stability", "mc", "ambiguity"]
    )
    def test_kappa_below_the_floor(self, tmp_path, capsys, sub):
        measure = write_json(tmp_path / "m.json", {**ATOM_CONFIG, "kappa": 1e-9})
        system = write_json(tmp_path / "t.json", {**TUBES_CONFIG, "kappa": 1e-9})
        curve = tmp_path / "curve.csv"
        curve.write_text("total,water\n0.0,0.0\n1.0,0.5\n2.0,1.0\n")
        argv = {
            "forward": ["forward", measure],
            "invert": ["invert", str(curve), "--kappa", "1e-9", "--alpha-max", "2"],
            "tubes": ["tubes", system],
            "stability": ["stability", measure],
            "mc": ["mc", "--trials", "2", "--kappa", "1e-9"],
            "ambiguity": ["ambiguity", "--alpha0", "2", "--k", "1.2", "--kappa", "1e-9"],
        }[sub]
        out = tmp_path / "out"
        assert_invalid_config(capsys, cli.main(argv + ["--out", str(out)]))
        assert not out.exists()

    def test_memory_error(self, tmp_path, capsys, monkeypatch):
        def too_large(*args):
            raise MemoryError("cannot allocate")

        monkeypatch.setattr(forward, "build_curve", too_large)
        config = write_json(tmp_path / "m.json", ATOM_CONFIG)
        assert cli.main(["forward", config]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "out-of-memory"


class TestInputFiles:
    """Every reader of a user file through main: a file that is not UTF-8
    and a config that is not a JSON object exit 2 with one JSON error line,
    and a UTF-8 byte-order mark reads as no mark.
    """

    CONFIGS = {"forward": ATOM_CONFIG, "tubes": TUBES_CONFIG, "stability": ATOM_CONFIG}

    @pytest.mark.parametrize("sub", ["invert", "stability"])
    def test_curve_not_utf8(self, tmp_path, capsys, sub):
        curve = tmp_path / "curve.csv"
        curve.write_bytes(b"total,water\n0.0,0.0\n\xff\xfe,1\n2.0,1.0\n")
        argv = {
            "invert": ["invert", str(curve)],
            "stability": ["stability", "--curve1", str(curve), "--curve2", str(curve)],
        }[sub]
        out = tmp_path / "out"
        code = cli.main(argv + ["--kappa", "0.5", "--alpha-max", "2", "--out", str(out)])
        assert_invalid_config(capsys, code)
        assert not out.exists()

    @pytest.mark.parametrize("sub", ["forward", "tubes", "stability"])
    def test_config_not_utf8(self, tmp_path, capsys, sub):
        # a valid config but for one byte in a string no option reads
        text = json.dumps({**self.CONFIGS[sub], "note": "@"}).encode()
        path = tmp_path / "c.json"
        path.write_bytes(text.replace(b"@", b"\xff"))
        out = tmp_path / "out"
        assert_invalid_config(capsys, cli.main([sub, str(path), "--out", str(out)]))
        assert not out.exists()

    @pytest.mark.parametrize("sub", ["invert", "stability"])
    def test_curve_with_a_byte_order_mark(self, tmp_path, sub):
        # a spreadsheet's "CSV UTF-8" starts with a UTF-8 byte-order mark,
        # here in front of the first column a reader looks for; the curve
        # reads as the same file without it
        config = write_json(tmp_path / "m.json", ATOM_CONFIG)
        full = tmp_path / "full.csv"
        assert cli.main(["forward", config, "--out", str(full)]) == 0
        header, data = read_csv(full)
        rows = data[:, [header.index("total"), header.index("Vw")]]
        plain = tmp_path / "plain.csv"
        plain.write_text("total,water\n" + "".join(f"{t!r},{w!r}\n" for t, w in rows.tolist()))
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outputs = []
        for curve in (plain, marked):
            argv = {
                "invert": ["invert", str(curve)],
                "stability": ["stability", "--curve1", str(curve), "--curve2", str(curve)],
            }[sub]
            out = tmp_path / f"{curve.stem}.out"
            assert cli.main(argv + ["--kappa", "0.5", "--alpha-max", "2", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("sub", ["forward", "tubes", "stability"])
    def test_config_with_a_byte_order_mark(self, tmp_path, sub):
        text = json.dumps(self.CONFIGS[sub]).encode()
        outputs = []
        for name, data in (("plain", text), ("marked", b"\xef\xbb\xbf" + text)):
            path = tmp_path / f"{name}.json"
            path.write_bytes(data)
            out = tmp_path / f"{name}.out"
            assert cli.main([sub, str(path), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("text", ["5", "true", "null", "[]", '"config"'])
    @pytest.mark.parametrize("sub", ["forward", "tubes", "stability"])
    def test_config_not_an_object(self, tmp_path, capsys, sub, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        out = tmp_path / "out"
        assert_invalid_config(capsys, cli.main([sub, str(path), "--out", str(out)]))
        assert not out.exists()


class TestErrorBranches:
    """The reader, config and option errors of each subcommand, and the
    exit codes of an I/O error and a broken invariant."""

    def test_curve_without_a_water_column(self, tmp_path, capsys):
        curve = tmp_path / "c.csv"
        curve.write_text("total,oil\n0.0,0.0\n1.0,0.5\n")
        code = cli.main(["invert", str(curve), "--kappa", "0.5", "--alpha-max", "2"])
        assert "no 'water' (or 'Vw') column" in one_error_line(capsys, code)

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"kappa": 0.5, "alpha_max": 2.0, "n_samples": 11},
             "config carries no measure block"),
            ({**ATOM_CONFIG, "measure": [{"L": 1.0, "S": 1.0}]},
             "measure block must be a JSON object"),
        ],
        ids=["no-block", "not-an-object"],
    )
    def test_measure_block(self, tmp_path, capsys, config, message):
        path = write_json(tmp_path / "m.json", config)
        out = tmp_path / "curve.csv"
        assert one_error_line(capsys, cli.main(["forward", path, "--out", str(out)])) == message
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--curve1", "{curve}", "--kappa", "0.5", "--alpha-max", "2"],
             "curve mode needs both --curve1 and --curve2"),
            (["--curve1", "{curve}", "--curve2", "{curve}", "--alpha-max", "2"],
             "curve mode needs --kappa and --alpha-max"),
            (["--curve1", "{curve}", "--curve2", "{curve}", "--kappa", "0.5"],
             "curve mode needs --kappa and --alpha-max"),
        ],
        ids=["one-curve", "no-kappa", "no-alpha-max"],
    )
    def test_stability_curve_mode(self, tmp_path, capsys, flags, message):
        curve = tmp_path / "c.csv"
        assert cli.main(["forward", write_json(tmp_path / "m.json", ATOM_CONFIG),
                         "--out", str(curve)]) == 0
        capsys.readouterr()
        argv = ["stability"] + [str(curve) if f == "{curve}" else f for f in flags]
        assert one_error_line(capsys, cli.main(argv)) == message

    def test_out_in_a_missing_directory(self, tmp_path, capsys):
        config = write_json(tmp_path / "m.json", ATOM_CONFIG)
        out = tmp_path / "missing" / "curve.csv"
        one_error_line(capsys, cli.main(["forward", config, "--out", str(out)]), "io-error")

    def test_forward_without_out_writes_stdout(self, tmp_path, capsys):
        config = write_json(tmp_path / "m.json", {**ATOM_CONFIG, "n_samples": 3})
        assert cli.main(["forward", config]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "alpha,Vw,Vo,total,water_cut" and len(lines) == 4
        assert "wrote stdout" in captured.err

    def test_broken_invariant_exits_4(self, tmp_path, capsys, monkeypatch):
        def broken(*args):
            raise InternalConsistencyError("a broken invariant")

        monkeypatch.setattr(forward, "build_curve", broken)
        config = write_json(tmp_path / "m.json", ATOM_CONFIG)
        code = cli.main(["forward", config])
        message = one_error_line(capsys, code, "internal-consistency", exit_code=4)
        assert message == "a broken invariant"


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

    def test_python_api_block_runs(self, capsys):
        # README's Python example runs as printed, and its key objects are
        # exactly the package's public names (submodules and dunders aside)
        # apart from BACKEND
        text = (Path(__file__).parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```python\n(.*?)```", text, re.S)
        exec(compile(block, "README.md", "exec"), {})
        residual, _ = capsys.readouterr().out.split("\n")[0].split()
        assert float(residual) <= 1e-12
        listed = re.search(r"Key objects:(.*?)\n\n", text, re.S).group(1)
        names = re.findall(r"\w+", " ".join(re.findall(r"`([^`]+)`", listed)))
        assert len(names) == len(set(names))
        public = {
            name for name in dir(tubeflood)
            if not name.startswith("__")
            and not inspect.ismodule(getattr(tubeflood, name))
        }
        assert public == set(names) | {"BACKEND"}


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
