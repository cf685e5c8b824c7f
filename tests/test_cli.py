"""CLI behavior: output formats, exit codes, scans, verify suites."""

import csv
import functools
import io
import json
import re

import numpy as np
import pytest

from bell3q import (Strengths, build, decompose, ghz_state, mermin, mermin_bound_degenerate_smax,
                    mermin_bound_equal_strengths, mermin_bound_unbiased,
                    mermin_bound_x_asymmetric, mermin_sufficient_orthogonal, parse_state_spec,
                    svetlichny_bound_degenerate_smax, svetlichny_bound_equal_strengths,
                    svetlichny_sufficient_orthogonal)
from bell3q import SeeSawConfig, cli
from bell3q.cli import CRITERION_NAMES, main
from bell3q.mermin import _t_svals
from bell3q.observables import OPERATORS
from bell3q.svetlichny import svetlichny_bound_x_asymmetric_best

GHZ_TENSOR_27 = ",".join(str(x) for x in
                         [1, 0, 0, 0, -1, 0, 0, 0, 0,
                          0, 0, -1, -1, 0, 0, 0, 0, 0,
                          0, 0, 0, 0, 0, 0, 0, 0, 0])
UNEQUAL_STRENGTHS = "0.9,0.8,0.7,0.7,0.6,0.6"
# a missing parent directory, and a directory itself (tmp_path / "." is tmp_path)
UNWRITABLE_OUT = pytest.mark.parametrize("out", ["missing/out.json", "."])


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBound:
    def test_ghz_mermin_all_applicable(self, capsys):
        code, out, _ = run(["bound", "--state", "ghz", "--operator", "mermin"], capsys)
        assert code == 0
        payload = json.loads(out)
        by_name = {r["criterion"]: r for r in payload["reports"]}
        assert abs(by_name["mermin_equal_strengths"]["bound"] - 4.0) < 1e-9
        assert by_name["mermin_equal_strengths"]["violated"]
        assert abs(by_name["mermin_unbiased_general"]["bound"] - 4.0) < 1e-9
        assert payload["config"]["state_physical"]

    def test_maximally_mixed_zero_bounds(self, capsys):
        code, out, _ = run(["bound", "--state", "mix:ghz:0", "--operator", "both"],
                           capsys)
        assert code == 0
        payload = json.loads(out)
        for report in payload["reports"]:
            if "tstate" in report["criterion"]:
                continue  # carries the bias-only term
            assert abs(report["bound"]) < 1e-9
            assert not report["violated"]

    def test_zero_strength_tstate_thresholds(self, capsys):
        code, out, _ = run(["bound", "--state", "mix:ghz:0", "--operator", "both",
                            "--strengths", "0,0,0,0,0,0",
                            "--criteria", "tstate_general"], capsys)
        assert code == 0
        payload = json.loads(out)
        values = {r["operator"]: r for r in payload["reports"]
                  if "tightest" not in r["criterion"]}
        assert values["mermin"]["bound"] == 2.0
        assert not values["mermin"]["violated"]
        assert values["svetlichny"]["bound"] == 4.0
        assert not values["svetlichny"]["violated"]

    def test_oracle_attachment_gap_nonnegative(self, capsys):
        code, out, _ = run(["bound", "--state", "ghz", "--operator", "mermin",
                            "--criteria", "equal_strengths",
                            "--oracle-restarts", "10"], capsys)
        assert code == 0
        payload = json.loads(out)
        report = payload["reports"][0]
        assert report["oracle"] is not None
        assert report["gap"] >= -1e-6
        assert abs(report["oracle"] - 4.0) < 1e-6

    def test_capped_oracle_says_so(self, monkeypatch, capsys):
        args = ["bound", "--state", "tstate:0.3,0,0,0,0.2,0,0,0,0", "--operator", "mermin",
                "--strengths", "0.8,0.8,0.7,0.7,0.6,0.6", "--oracle-restarts", "2"]
        code, out, _ = run(args, capsys)
        converged = json.loads(out)["reports"]
        assert code == 0 and not any("sweep cap" in r["notes"] for r in converged)
        # convergence is judged from the second sweep on, so one sweep is always capped
        monkeypatch.setattr(cli, "SeeSawConfig", functools.partial(SeeSawConfig, max_sweeps=1))
        code, out, _ = run(args, capsys)
        assert code == 0
        for before, after in zip(converged, json.loads(out)["reports"]):
            if after["oracle"] is None:
                assert after["notes"] == before["notes"]
            else:
                assert after["notes"] == "; ".join(filter(None, (
                    before["notes"], "oracle stopped at its sweep cap"))), after

    def test_unphysical_tensor_is_reported(self, capsys):
        code, out, _ = run(["bound", "--state", f"tstate:{GHZ_TENSOR_27}",
                            "--operator", "mermin"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert not payload["config"]["state_physical"]
        assert payload["config"]["state_min_eigenvalue"] < -1e-10

    def test_config_error_exit_2(self, capsys):
        code, _, err = run(["bound", "--state", "ghz", "--strengths", "2,1,1,1,1,1"],
                           capsys)
        assert code == 2 and "strength" in err

    def test_coefficient_above_one_exit_2(self, capsys):
        code, _, err = run(["bound", "--state", "tstate:1.5,0,0,0,0,0,0,0,0"], capsys)
        assert code == 2 and "exceeds 1" in err

    def test_bad_angles_exit_2(self, capsys):
        code, _, err = run(["bound", "--state", "ghz", "--angles", "9,0,0"], capsys)
        assert code == 2 and "angles" in err

    def test_pi_with_its_slack_is_an_angle(self, capsys):
        code, _, _ = run(["bound", "--state", "ghz", "--angles", f"{np.pi + 5e-13!r},1,1"],
                         capsys)
        assert code == 0

    def test_incompatible_criterion_exit_3(self, capsys):
        code, _, err = run(["bound", "--state", "ghz",
                            "--criteria", "tstate_general"], capsys)
        assert code == 3 and "does not apply" in err

    def test_biased_non_tstate_exit_3(self, capsys):
        code, _, err = run(["bound", "--state", "ghz", "--strengths",
                            "0.5,0.5,0.5,0.5,0.5,0.5",
                            "--biases", "0.4,0,0,0,0,0"], capsys)
        assert code == 3

    def test_json_round_trip_byte_identical(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, _, _ = run(["bound", "--state", "ghz", "--operator", "mermin",
                          "--out", str(out_path)], capsys)
        assert code == 0
        text = out_path.read_text()
        reserialized = json.dumps(json.loads(text), sort_keys=True, indent=2,
                                  separators=(",", ": "))
        assert reserialized == text

    def test_csv_floats_round_trip(self, tmp_path, capsys):
        out_json = tmp_path / "r.json"
        out_csv = tmp_path / "r.csv"
        args = ["bound", "--state", "gghz:0.61", "--operator", "mermin",
                "--strengths", "0.9,0.8,0.7,0.6,0.5,0.4"]
        run(args + ["--out", str(out_json)], capsys)
        run(args + ["--format", "csv", "--out", str(out_csv)], capsys)
        reports = json.loads(out_json.read_text())["reports"]
        lines = out_csv.read_text().strip().split("\n")
        header = lines[0].split(",")
        bound_col = header.index("bound")
        crit_col = header.index("criterion")
        csv_bounds = {}
        for line in lines[1:]:
            cells = line.split(",")
            csv_bounds[cells[crit_col]] = float(cells[bound_col])
        for report in reports:
            assert csv_bounds[report["criterion"]] == report["bound"]

    def test_csv_rows_have_header_width(self, capsys):
        # notes such as "violation certificate, not an upper bound" hold commas
        code, out, _ = run(["bound", "--state", "ghz", "--operator", "both",
                            "--format", "csv"], capsys)
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert rows
        for cells in rows:
            assert len(cells) == len(header)
            row = dict(zip(header, cells))
            assert row["operator"] in ("mermin", "svetlichny")
            assert row["criterion"].startswith(row["operator"] + "_")

    def test_x_asymmetric_angles_achieve_the_bound(self, capsys):
        # at GHZ with unit strengths the branches tie to the last bit; the
        # reported angles must still reach the reported value
        code, out, _ = run(["bound", "--state", "ghz", "--strengths", "1,1,1,1,1,1",
                            "--operator", "svetlichny"], capsys)
        assert code == 0
        report = next(r for r in json.loads(out)["reports"]
                      if r["criterion"].startswith("svetlichny_x_asymmetric"))
        achieved = OPERATORS["svetlichny"].unbiased(*_t_svals(decompose(ghz_state()).t_tensor),
                                                    Strengths.uniform(1.0), report["angles"])
        assert abs(achieved.bound_value - report["bound"]) < 1e-12 * report["bound"]


    @pytest.mark.parametrize("state,strengths", [
        ("random:7", "0.9,0.8,0.7,0.6,0.5,0.4"),
        ("tstate:0.3,0,0,0,0.2,0,0,0,0", "0.9,0.6,0.8,0.7,0.6,0.5"),
        ("ghz", "0.9,0.6,0.8,0.8,0.7,0.7"),
        ("tstate:0.5,0,0,0,0.5,0,0,0,0.2", "0.9,0.6,0.7,0.7,0.8,0.8"),
    ])
    def test_rows_equal_the_library_functions(self, state, strengths, capsys):
        """The CLI evaluates these rows from the state's (s1, s2) once; here each
        library call finds the spectrum from T itself.  On a T-state the
        x_asymmetric and degenerate_smax rows are the closed form plus k_max or
        l_max, under a label with _tstate before any trailing _best."""
        code, out, _ = run(["bound", "--state", state, "--strengths", strengths,
                            "--operator", "both"], capsys)
        assert code == 0
        payload = json.loads(out)
        spec = parse_state_spec(state)
        tstate = spec.kind == "tstate"
        t = (np.asarray(spec.t_tensor).reshape(3, 3, 3) if tstate
             else decompose(build(spec)).t_matrix)
        st = Strengths.from_iterable(float(x) for x in strengths.split(","))
        s1 = payload["config"]["t_singular_values"][0]
        x_args = (*_t_svals(t), st.rx, st.rxp, st.ry, st.rz)
        term = {op: OPERATORS[op].closed_form("bias_max")(st) if tstate else 0.0
                for op in OPERATORS}
        library = {
            "mermin": {
                "unbiased_general": lambda a: mermin_bound_unbiased(t, st, a).bound_value,
                "equal_strengths":
                    lambda a: mermin_bound_equal_strengths(t, st.rx, st.ry, st.rz).bound_value,
                "orthogonal_sufficient":
                    lambda a: mermin_sufficient_orthogonal(*_t_svals(t), st).bound_value,
                "six_variant":
                    lambda a: OPERATORS["mermin"].six_variant(*_t_svals(t), st, a).bound_value,
                "tstate_general":
                    lambda a: OPERATORS["mermin"].tstate(*_t_svals(t), st, a).bound_value,
                "x_asymmetric":
                    lambda a: mermin_bound_x_asymmetric(*x_args).bound_value + term["mermin"],
                "degenerate_smax":
                    lambda a: mermin_bound_degenerate_smax(st, s1).bound_value + term["mermin"],
            },
            "svetlichny": {
                "unbiased_general":
                    lambda a: OPERATORS["svetlichny"].unbiased(*_t_svals(t), st, a).bound_value,
                "equal_strengths":
                    lambda a: svetlichny_bound_equal_strengths(t, st.rx, st.ry,
                                                               st.rz).bound_value,
                "orthogonal_sufficient":
                    lambda a: svetlichny_sufficient_orthogonal(*_t_svals(t), st).bound_value,
                "six_variant":
                    lambda a: OPERATORS["svetlichny"].six_variant(*_t_svals(t), st,
                                                                  a).bound_value,
                "tstate_general":
                    lambda a: OPERATORS["svetlichny"].tstate(*_t_svals(t), st, a).bound_value,
                "x_asymmetric":
                    lambda a: (svetlichny_bound_x_asymmetric_best(*x_args).bound_value
                               + term["svetlichny"]),
                "degenerate_smax":
                    lambda a: (svetlichny_bound_degenerate_smax(st, s1).bound_value
                               + term["svetlichny"]),
            },
        }
        applicable = {"random:7": 3, "tstate:0.3,0,0,0,0.2,0,0,0,0": 4, "ghz": 5,
                      "tstate:0.5,0,0,0,0.5,0,0,0,0.2": 6}[state]
        rows = [r for r in payload["reports"]
                if not r["criterion"].endswith("_tightest_applicable")]
        assert len(rows) == 2 * applicable
        for row in rows:
            label = row["criterion"][len(row["operator"]) + 1:]
            name = next(n for n in CRITERION_NAMES if label.startswith(n))
            assert row["bound"] == library[row["operator"]][name](tuple(row["angles"])), row
            if name in ("x_asymmetric", "degenerate_smax"):
                assert label.endswith(("_tstate", "_tstate_best")) == tstate, row

    def test_oracle_rows_on_a_tstate(self, capsys):
        # tstate_general takes bias enumeration; the certificates get no oracle
        code, out, _ = run(["bound", "--state", "tstate:0.3,0,0,0,0.2,0,0,0,0",
                            "--strengths", "0.8,0.8,0.7,0.7,0.6,0.6", "--operator", "mermin",
                            "--oracle-restarts", "2", "--seed", "5"], capsys)
        assert code == 0
        rows = {r["criterion"]: r for r in json.loads(out)["reports"]}
        assert "mermin_tstate_general" in rows
        for name, row in rows.items():
            if name in ("mermin_orthogonal_sufficient", "mermin_six_variant",
                        "mermin_tightest_applicable"):
                assert row["oracle"] is None, name
            else:
                assert row["gap"] >= -1e-9 * max(1.0, row["bound"]), name

    def test_bias_out_of_range_exit_2(self, capsys):
        code, _, err = run(["bound", "--state", "ghz", "--strengths",
                            "0.5,0.5,0.5,0.5,0.5,0.5", "--biases", "0.6,0,0,0,0,0"], capsys)
        assert code == 2 and "|bias|" in err

    @pytest.mark.parametrize("args,where", [
        (["--strengths", "0.5,0.5,0.5,0.5,0.5,0.5", "--biases", "nan,0,0,0,0,0"], "--biases"),
        (["--strengths", "inf,1,1,1,1,1"], "--strengths"),
        (["--angles", "nan,1,1"], "--angles"),
    ])
    def test_non_finite_option_exit_2(self, args, where, capsys):
        code, out, err = run(["bound", "--state", "ghz", *args], capsys)
        assert code == 2 and where in err and out == ""

    def test_non_finite_tstate_exit_2(self, capsys):
        code, _, err = run(["bound", "--state", "tstate:nan,0,0,0,0,0,0,0,0"], capsys)
        assert code == 2 and "tstate" in err

    @pytest.mark.parametrize("args,where", [
        (["--angles", "0.5,,1.0,1.2"], "--angles"),
        (["--angles", "0.5,,1.0"], "--angles"),
        (["--strengths", "1,,1,1,1,1,1"], "--strengths"),
        (["--strengths", "0.5,0.5,0.5,0.5,0.5,0.5", "--biases", "0,0,0,0,0,0,"], "--biases"),
    ])
    def test_empty_entry_exit_2(self, args, where, capsys):
        code, out, err = run(["bound", "--state", "ghz", *args], capsys)
        assert code == 2 and where in err and out == ""

    @pytest.mark.parametrize("argv", [
        ["bound", "--state", "ghz", "--criteria", ","],
        ["bound", "--state", "ghz", "--criteria", " "],
        ["scan", "--state", "ghz", "--scan-axis", "visibility", "--range", "0,1,2",
         "--criteria", ""],
    ])
    def test_empty_criteria_exit_2(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 2 and "--criteria" in err and out == ""

    @pytest.mark.parametrize("state,strengths", [
        ("ghz", "0.9,0.9,0.8,0.8,0.7,0.7"),       # equal per side: closed-form angles
        ("ghz", "1,0.5,1,1,1,1"),                 # X side only unequal: x_asymmetric
        ("mix:w:0.5", "1,0.5,1,1,1,1"),
        ("random:7", "0.9,0.8,0.7,0.6,0.5,0.4"),  # unequal: angle search
    ])
    def test_one_spectrum_per_request(self, state, strengths, monkeypatch, capsys):
        calls = []
        svals = mermin.singular_values_3x9
        monkeypatch.setattr(mermin, "singular_values_3x9",
                            lambda a: calls.append(a) or svals(a))
        code, _, _ = run(["bound", "--state", state, "--strengths", strengths,
                          "--operator", "both"], capsys)
        assert code == 0 and len(calls) == 1

    @UNWRITABLE_OUT
    def test_unwritable_out_exit_2(self, out, tmp_path, capsys):
        code, stdout, err = run(["bound", "--state", "ghz", "--out", str(tmp_path / out)],
                                capsys)
        assert code == 2 and "--out" in err and stdout == ""

    @pytest.mark.parametrize("args,where", [
        (["--seed", "-5", "--oracle-restarts", "1"], "--seed"),
        (["--seed", "-5"], "--seed"),
        (["--oracle-restarts", "-1"], "--oracle-restarts"),
    ])
    def test_negative_seed_or_restarts_exit_2(self, args, where, capsys):
        code, out, err = run(["bound", "--state", "ghz", *args], capsys)
        assert code == 2 and where in err and out == ""


class TestScan:
    @pytest.mark.parametrize("bad", ["0,1", "0,1,x", "0,1,0", "0,1,2.5"])
    def test_bad_range_exit_2(self, bad, capsys):
        code, _, err = run(["scan", "--state", "ghz", "--scan-axis", "visibility",
                            "--range", bad], capsys)
        assert code == 2 and "--range" in err

    @pytest.mark.parametrize("bad", ["garbage", "nan,0,0,0,0,0"])
    def test_strength_axis_still_checks_strengths(self, bad, capsys):
        code, _, err = run(["scan", "--state", "ghz", "--operator", "mermin",
                            "--scan-axis", "strength_all", "--range", "0.5,1,2",
                            "--criteria", "unbiased_general", "--strengths", bad], capsys)
        assert code == 2 and "--strengths" in err

    @pytest.mark.parametrize("option", [["--biases", "0.1,0,0,0,0,0"],
                                        ["--oracle-restarts", "2"], ["--seed", "3"]])
    def test_bound_only_options_exit_2(self, option, capsys):
        with pytest.raises(SystemExit) as info:
            main(["scan", "--state", "ghz", "--strengths", ",".join(["0.5"] * 6),
                  "--scan-axis", "visibility", "--range", "1,1,1", *option])
        assert info.value.code == 2

    def test_single_step_matches_bound(self, capsys):
        cases = [
            ("strength_all", ["--state", "ghz"],
             ["--state", "ghz", "--strengths", ",".join(["0.9"] * 6)]),
            ("visibility", ["--state", "ghz", "--strengths", UNEQUAL_STRENGTHS],
             ["--state", "mix:ghz:0.9", "--strengths", UNEQUAL_STRENGTHS]),
            ("angle_x", ["--state", f"tstate:{GHZ_TENSOR_27}", "--strengths", UNEQUAL_STRENGTHS],
             ["--state", f"tstate:{GHZ_TENSOR_27}", "--strengths", UNEQUAL_STRENGTHS,
              "--angles", f"0.9,{np.pi / 2},{np.pi / 2}"]),
        ]
        for axis, scan_args, bound_args in cases:
            code, out, _ = run(["scan", *scan_args, "--operator", "both",
                                "--scan-axis", axis, "--range", "0.9,0.9,1"], capsys)
            assert code == 0
            row = json.loads(out)["rows"][0]
            code, out, _ = run(["bound", *bound_args, "--operator", "both"], capsys)
            assert code == 0
            reports = json.loads(out)["reports"]
            for operator in ("mermin", "svetlichny"):
                names = [n for n in CRITERION_NAMES if f"{operator}_{n}" in row]
                bounds = [r["bound"] for r in reports if r["operator"] == operator
                          and not r["criterion"].endswith("_tightest_applicable")]
                # bound reports the applicable criteria in CRITERION_NAMES order
                assert len(names) == len(bounds) > 1, (axis, operator)
                for name, bound in zip(names, bounds):
                    assert row[f"{operator}_{name}"] == bound, (axis, operator, name)

    def test_visibility_axis_keeps_a_tstate_at_the_coefficient_level(self, capsys):
        """White noise scales T by the visibility, so a tensor whose T-state operator
        is not positive scans like any other tstate spec; at v = 1 it is the spec."""
        state = "tstate:1,0,0,0,1,0,0,0,1"
        code, out, err = run(["scan", "--state", state, "--operator", "both",
                              "--scan-axis", "visibility", "--range", "0,1,3"], capsys)
        assert code == 0, err
        row = json.loads(out)["rows"][-1]
        code, out, _ = run(["bound", "--state", state, "--operator", "both"], capsys)
        assert code == 0
        reports = json.loads(out)["reports"]
        for operator in ("mermin", "svetlichny"):
            names = [n for n in CRITERION_NAMES if f"{operator}_{n}" in row]
            bounds = [r["bound"] for r in reports if r["operator"] == operator
                      and not r["criterion"].endswith("_tightest_applicable")]
            assert len(names) == len(bounds) > 1, operator
            for name, bound in zip(names, bounds):
                assert row[f"{operator}_{name}"] == bound, (operator, name)
        code, _, err = run(["scan", "--state", state, "--scan-axis", "visibility",
                            "--range", "0,1.5,2"], capsys)
        assert code == 2 and "visibility must lie in [0, 1]" in err

    def test_nested_mixes_of_a_tstate_stay_at_the_coefficient_level(self, capsys):
        """Each white-noise step scales T by its visibility, at any depth: two steps
        at 0.5 are one at 0.25, and a visibility scan wraps its spec in one more."""
        state = "tstate:1,0,0,0,1,0,0,0,1"
        code, out, err = run(["bound", "--state", f"mix:mix:{state}:0.5:0.5"], capsys)
        assert code == 0, err
        nested = json.loads(out)
        code, out, _ = run(["bound", "--state", f"mix:{state}:0.25"], capsys)
        assert code == 0
        assert {**nested, "state": None} == {**json.loads(out), "state": None}
        code, out, err = run(["scan", "--state", f"mix:{state}:0.5", "--scan-axis",
                              "visibility", "--range", "0,1,3"], capsys)
        assert code == 0, err
        nested = json.loads(out)["rows"]
        code, out, _ = run(["scan", "--state", state, "--scan-axis", "visibility",
                            "--range", "0,0.5,3"], capsys)
        assert code == 0
        keys = ("index", "axis_value")
        assert ([{k: v for k, v in row.items() if k not in keys} for row in nested]
                == [{k: v for k, v in row.items() if k not in keys}
                    for row in json.loads(out)["rows"]])
        code, _, err = run(["bound", "--state", f"mix:mix:{state}:1.5:0.5"], capsys)
        assert code == 2 and "visibility must lie in [0, 1]" in err

    def test_window_flip_on_ghz_tensor(self, capsys):
        code, out, _ = run(["scan", "--state", f"tstate:{GHZ_TENSOR_27}",
                            "--operator", "mermin", "--scan-axis", "strength_all",
                            "--range", "0.7905,0.794,8",
                            "--criteria", "equal_strengths,tstate_general"], capsys)
        assert code == 0
        payload = json.loads(out)
        window = payload["windows"]["mermin_window"]
        assert abs(window["r_biased"] - (-3 + np.sqrt(21)) / 2) < 1e-12
        assert abs(window["r_unbiased"] - 2 ** (-1 / 3)) < 1e-12
        for row in payload["rows"]:
            r = row["axis_value"]
            assert row["mermin_tstate_general_violated"] == (r > window["r_biased"])
            assert row["mermin_equal_strengths_violated"] == (r > window["r_unbiased"])

    def test_visibility_scan_linear(self, capsys):
        code, out, _ = run(["scan", "--state", "ghz", "--operator", "mermin",
                            "--scan-axis", "visibility", "--range", "0,1,5",
                            "--criteria", "equal_strengths"], capsys)
        assert code == 0
        payload = json.loads(out)
        for row in payload["rows"]:
            assert abs(row["mermin_equal_strengths"] - 4.0 * row["axis_value"]) < 1e-9

    def test_angle_axis(self, capsys):
        code, out, _ = run(["scan", "--state", "ghz", "--operator", "mermin",
                            "--scan-axis", "angle_x", "--range",
                            f"0,{np.pi / 2},3", "--criteria", "unbiased_general"],
                           capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        # GHZ has degenerate singular values: orthogonal angles are optimal
        assert rows[-1]["mermin_unbiased_general"] >= rows[0]["mermin_unbiased_general"]
        assert abs(rows[-1]["mermin_unbiased_general"] - 4.0) < 1e-9

    @pytest.mark.parametrize("args,where", [
        (["--range", "0,1,2", "--angles", "9,1,1"], "--angles"),
        (["--range", "0,4,2"], "--range"),
    ])
    def test_angle_axis_out_of_range_exit_2(self, args, where, capsys):
        """The X entry of ``--angles`` is replaced by the axis but still checked."""
        code, out, err = run(["scan", "--state", "ghz", "--scan-axis", "angle_x", *args],
                             capsys)
        assert code == 2 and where in err and out == ""

    @UNWRITABLE_OUT
    def test_unwritable_out_exit_2(self, out, tmp_path, capsys):
        code, stdout, err = run(["scan", "--state", "ghz", "--scan-axis", "visibility",
                                 "--range", "0,1,2", "--out", str(tmp_path / out)], capsys)
        assert code == 2 and "--out" in err and stdout == ""


class TestVerify:
    def test_closed_form_suite_passes(self, capsys):
        code, out, _ = run(["verify", "--suite", "closed_form", "--budget", "100"],
                           capsys)
        assert code == 0
        assert "[PASS] closed_form" in out

    def test_brute_force_suite_passes(self, capsys):
        code, out, _ = run(["verify", "--suite", "brute_force_kl", "--budget", "100"],
                           capsys)
        assert code == 0
        assert "max deviation 0.000e+00" in out

    def test_invariance_suite_passes(self, capsys):
        code, out, _ = run(["verify", "--suite", "invariance", "--budget", "40"],
                           capsys)
        assert code == 0

    def test_worst_instance_reproduces(self, capsys):
        code, out, _ = run(["verify", "--suite", "closed_form", "--budget", "50",
                            "--seed", "3"], capsys)
        assert code == 0 and "[PASS] closed_form" in out
        match = re.search(r"max deviation (\S+) .*; worst instance (\d+) \(seed 3\)$",
                          out.strip())
        assert match, out
        # the first index + 1 instances of the same seed hold the worst one
        code, prefix, _ = run(["verify", "--suite", "closed_form", "--seed", "3",
                               "--budget", str(int(match.group(2)) + 1)], capsys)
        assert f"max deviation {match.group(1)} " in prefix

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_budget_below_one_exit_2(self, budget, capsys):
        code, out, err = run(["verify", "--suite", "all", "--budget", budget], capsys)
        assert code == 2 and "--budget" in err and "PASS" not in out

    def test_negative_seed_exit_2(self, capsys):
        code, out, err = run(["verify", "--suite", "all", "--seed", "-1"], capsys)
        assert code == 2 and "--seed" in err and "PASS" not in out

    def test_tightness_suite_passes(self, capsys):
        code, out, _ = run(["verify", "--suite", "tightness", "--budget", "6"],
                           capsys)
        assert code == 0

    def test_tightness_suite_reports_sweeps_and_caps(self, capsys):
        code, out, _ = run(["verify", "--suite", "tightness", "--budget", "6"], capsys)
        assert code == 0
        match = re.search(r"; (\d+) see-saw calls stopped at the 300-sweep cap, the longest "
                          r"took (\d+) sweeps; worst instance", out)
        assert match, out
        assert match.group(1) == "0" and 2 <= int(match.group(2)) < 300
