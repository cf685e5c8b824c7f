"""CLI behavior: output formats, exit codes, scans, verify suites."""

import csv
import io
import json

import numpy as np

from bell3q import Strengths, decompose, ghz_state, svetlichny_bound_unbiased
from bell3q.cli import main

GHZ_TENSOR_27 = ",".join(str(x) for x in
                         [1, 0, 0, 0, -1, 0, 0, 0, 0,
                          0, 0, -1, -1, 0, 0, 0, 0, 0,
                          0, 0, 0, 0, 0, 0, 0, 0, 0])


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

    def test_bad_angles_exit_2(self, capsys):
        code, _, err = run(["bound", "--state", "ghz", "--angles", "9,0,0"], capsys)
        assert code == 2 and "angles" in err

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
        achieved = svetlichny_bound_unbiased(decompose(ghz_state()).t_tensor,
                                             Strengths.uniform(1.0), report["angles"])
        assert abs(achieved.bound_value - report["bound"]) < 1e-12 * report["bound"]


class TestScan:
    def test_single_step_matches_bound(self, capsys):
        code, out, _ = run(["scan", "--state", "ghz", "--operator", "mermin",
                            "--scan-axis", "strength_all", "--range", "0.9,0.9,1",
                            "--criteria", "equal_strengths"], capsys)
        assert code == 0
        row = json.loads(out)["rows"][0]
        code, out, _ = run(["bound", "--state", "ghz", "--operator", "mermin",
                            "--strengths", ",".join(["0.9"] * 6),
                            "--criteria", "equal_strengths"], capsys)
        bound = json.loads(out)["reports"][0]["bound"]
        assert abs(row["mermin_equal_strengths"] - bound) < 1e-12

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

    def test_tightness_suite_passes(self, capsys):
        code, out, _ = run(["verify", "--suite", "tightness", "--budget", "6"],
                           capsys)
        assert code == 0
