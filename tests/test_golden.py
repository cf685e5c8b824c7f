"""CLI stdout, byte for byte, against files under ``tests/golden/``.

A refactor must leave every byte of these outputs unchanged.  The files were
written with numpy 2.4.6 on OpenBLAS 0.3.31; another BLAS or LAPACK build
may break last-bit ties differently, so a mismatch there first calls for a
look at the diff, not for new files.  Scans that print biased-window
endpoints are not in the set.

A change that moves output on purpose rewrites the files with
``python tests/test_golden.py`` and says which bytes moved and why.
"""

from pathlib import Path

import pytest

from bell3q import cli
from bell3q.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
RANDOM7 = ["bound", "--state", "random:7", "--strengths", "0.9,0.8,0.7,0.6,0.5,0.4",
           "--operator", "both"]

COMMANDS = {
    "bound_ghz.json": ["bound", "--state", "ghz", "--strengths", "1,1,1,1,1,1",
                       "--operator", "both"],
    "bound_gghz_oracle.json": ["bound", "--state", "gghz:0.6", "--operator", "mermin",
                               "--angles", "optimal", "--oracle-restarts", "20"],
    "bound_random7.json": RANDOM7,
    "bound_random7.csv": RANDOM7 + ["--format", "csv"],
    "bound_mix_w_grid.json": ["bound", "--state", "mix:w:0.5",
                              "--strengths", "0.9,0.6,0.8,0.8,0.7,0.7", "--operator", "both"],
    "bound_tstate_biased.json": ["bound", "--state", "tstate:0.3,0,0,0,0.2,0,0,0,0",
                                 "--strengths", "0.9,0.3,0.5,0.5,0.5,0.5", "--operator", "both",
                                 "--biases", "0,0.7,0.5,-0.5,0.5,0.5"],
    "bound_ghz_angles.json": ["bound", "--state", "ghz", "--angles", "0.3,1.2,2.0",
                              "--operator", "both"],
    "scan_ghz_visibility.json": ["scan", "--state", "ghz", "--operator", "mermin",
                                 "--scan-axis", "visibility", "--range", "0,1,21"],
    "scan_ghz_angle_x.json": ["scan", "--state", "ghz", "--operator", "both",
                              "--scan-axis", "angle_x", "--range", "0,3.14,7"],
    "scan_gghz_strength.csv": ["scan", "--state", "gghz:0.4", "--operator", "both",
                               "--scan-axis", "strength_all", "--range", "0.3,1,8",
                               "--format", "csv"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name, capsys):
    assert main(COMMANDS[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


def test_shared_parser_keeps_no_state(capsys):
    """One process, one parser: every request, a rejected one, then every request
    in reverse order, each still byte-identical to its golden file."""
    assert cli._build_parser() is cli._build_parser()
    for name in COMMANDS:
        test_stdout_matches_golden(name, capsys)
    with pytest.raises(SystemExit) as info:
        main(["bound"])  # --state missing
    assert info.value.code == 2
    capsys.readouterr()
    for name in reversed(COMMANDS):
        test_stdout_matches_golden(name, capsys)


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(argv)
        (GOLDEN / name).write_text(buf.getvalue())
