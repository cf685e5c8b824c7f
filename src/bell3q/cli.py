"""Command-line front end.

Subcommands:

* ``bound``: compute the requested closed-form criteria for one state and
  measurement configuration, optionally attaching a see-saw oracle value.
* ``scan``: sweep one axis (all six strengths, white-noise visibility, or
  the X relative angle) and emit one row per grid point.
* ``verify``: run a seeded verification suite; nonzero exit on failure.

States are given in a mini-grammar: ``ghz``, ``gghz:<theta>``, ``w``,
``mix:<spec>:<v>``, ``tstate:<9 or 27 comma floats>``, ``random:<seed>``.
A ``tstate`` spec is evaluated at the coefficient level, so correlation
tensors whose bare T-state operator is unphysical can still be scanned for
their bound values; the report carries the physicality flag.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 criterion/state incompatibility.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from .observables import OPERATORS
from .oracle import SeeSawConfig, bias_optimize, see_saw_maximize
from .pauli import decompose, decomposition_from_t, reconstruct
from .reports import BoundReport, Strengths
from .states import StateSpec, build, is_tstate, parse_state_spec
from .suites import SUITES, run_suite

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_INCOMPATIBLE = 3

DEGENERACY_RTOL = 1e-9


class ConfigError(Exception):
    pass


class IncompatibleError(Exception):
    pass


def _parse_floats(text: str, n: int, what: str) -> tuple:
    parts = [p for p in text.split(",") if p != ""]
    if len(parts) != n:
        raise ConfigError(f"{what} needs {n} comma-separated values, got {len(parts)}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _state_context(spec: StateSpec):
    """Decomposition plus physicality info; tstate specs stay coefficient-level."""
    if spec.kind == "tstate":
        decomp = decomposition_from_t(np.asarray(spec.t_tensor).reshape(3, 3, 3))
        rebuilt = reconstruct(decomp)
        return decomp, {"physical": bool(rebuilt.is_physical),
                        "min_eigenvalue": rebuilt.min_eigenvalue}
    state = build(spec)
    return decompose(state), {"physical": True, "min_eigenvalue": state.min_eigenvalue}


def _svals(decomp):
    from .smallmat import singular_values_3x9
    vals = singular_values_3x9(decomp.t_matrix).values
    return float(vals[0]), float(vals[1])


# criterion labels are shared by both operators
CRITERION_NAMES = ("unbiased_general", "equal_strengths", "orthogonal_sufficient",
                   "six_variant", "tstate_general", "x_asymmetric", "degenerate_smax")


def _applicable(name: str, strengths: Strengths, tstate: bool, s1: float, s2: float,
                has_bias: bool) -> bool:
    equal = strengths.equal_per_side
    yz_equal = (abs(strengths.ry - strengths.ryp) <= 1e-12
                and abs(strengths.rz - strengths.rzp) <= 1e-12)
    degenerate = abs(s1 - s2) <= DEGENERACY_RTOL * max(1.0, s1)
    if name in ("unbiased_general", "orthogonal_sufficient", "six_variant"):
        return not has_bias
    if name == "equal_strengths":
        return equal and not has_bias
    if name == "tstate_general":
        return tstate
    if name == "x_asymmetric":
        return yz_equal and strengths.rx >= strengths.rxp and not (has_bias and not tstate)
    if name == "degenerate_smax":
        return degenerate and not (has_bias and not tstate)
    raise ConfigError(f"unknown criterion {name!r}")


def _resolve_angles(angles_arg, decomp, strengths, operator: str, grid: int = 64):
    """Explicit triple, or the best angles for this strength pattern.

    With equal per-side strengths the closed-form optimal-angle family is
    used; otherwise the closed-form bound is maximized on a grid^3 angle
    grid.
    """
    if angles_arg and angles_arg != "optimal":
        tx, ty, tz = _parse_floats(angles_arg, 3, "--angles")
        for a in (tx, ty, tz):
            if not (0.0 <= a <= np.pi + 1e-12):
                raise ConfigError("angles must lie in [0, pi]")
        return (tx, ty, tz), "explicit"
    s1, s2 = _svals(decomp)
    op = OPERATORS[operator]
    if strengths.equal_per_side:
        return op.closed_form("equal_strength_angles")(s1, s2), "optimal"
    ang, _ = op.closed_form("optimal_angles")(decomp.t_matrix, strengths, resolution=grid)
    return ang, "grid"


def _compute_report(name: str, operator: str, decomp, strengths: Strengths,
                    angles, tstate: bool) -> BoundReport:
    t, st = decomp.t_matrix, strengths
    s1, _ = _svals(decomp)
    if name not in CRITERION_NAMES:
        raise ConfigError(f"unknown criterion {name!r} for operator {operator}")
    closed_form = OPERATORS[operator].closed_form(name)
    if name in ("unbiased_general", "tstate_general"):
        return closed_form(t, st, angles)
    if name == "equal_strengths":
        return closed_form(t, st.rx, st.ry, st.rz)
    if name == "orthogonal_sufficient":
        value, _ = closed_form(t, st)
        return BoundReport(value, f"{operator}_orthogonal_sufficient",
                           achieving_angles=(np.pi / 2, np.pi / 2, np.pi / 2),
                           notes="violation certificate, not an upper bound")
    if name == "six_variant":
        value, _ = closed_form(t, st, angles)
        return BoundReport(value, f"{operator}_six_variant",
                           achieving_angles=tuple(angles),
                           notes="criterion for the six exchanged operators")
    if name == "x_asymmetric":
        return closed_form(t, st.rx, st.rxp, st.ry, st.rz, tstate=tstate)
    return closed_form(st, s1, tstate=tstate)  # the last criterion, degenerate_smax


_NO_ORACLE = {"orthogonal_sufficient", "six_variant"}
_ANGLE_SPECIFIC = {"unbiased_general", "tstate_general"}


def _attach_oracle(name: str, operator: str, report: BoundReport, decomp,
                   strengths: Strengths, biases, restarts: int, seed: int,
                   tstate: bool) -> BoundReport:
    if name in _NO_ORACLE:
        return report
    constraints = report.achieving_angles if name in _ANGLE_SPECIFIC else None
    config = SeeSawConfig(restarts=restarts, seed=seed, angle_constraints=constraints)
    if name == "tstate_general" and tstate:
        result = bias_optimize(decomp, strengths, operator, config)
    else:
        result = see_saw_maximize(decomp, strengths, biases, operator, config)
    return report.with_oracle(result.value)


def _report_dict(operator: str, report: BoundReport) -> dict:
    return {
        "criterion": report.criterion,
        "operator": operator,
        "bound": report.bound_value,
        "angles": list(report.achieving_angles) if report.achieving_angles else None,
        "oracle": report.oracle_value,
        "gap": report.gap,
        "violated": bool(report.bound_value > OPERATORS[operator].classical_limit),
        "notes": report.notes,
    }


def _emit(payload: dict, fmt: str, out_path):
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2, separators=(",", ": "))
    else:
        rows = payload["reports"] if "reports" in payload else payload["rows"]
        cols = sorted({k for row in rows for k in row})
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cols)
        for row in rows:
            cells = []
            for c in cols:
                v = row.get(c)
                if isinstance(v, float):
                    cells.append("%.17g" % v)
                elif isinstance(v, (list, tuple)):
                    cells.append(";".join("%.17g" % x for x in v))
                else:
                    cells.append("" if v is None else str(v))
            writer.writerow(cells)
        text = buf.getvalue()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _operators(arg: str) -> list[str]:
    if arg == "both":
        return list(OPERATORS)
    if arg in OPERATORS:
        return [arg]
    raise ConfigError("--operator must be mermin, svetlichny or both")


def cmd_bound(args) -> int:
    spec = parse_state_spec(args.state)
    decomp, state_info = _state_context(spec)
    strengths = Strengths.from_iterable(_parse_floats(args.strengths, 6, "--strengths"))
    biases = np.array(_parse_floats(args.biases, 6, "--biases")) if args.biases else np.zeros(6)
    if np.any(np.abs(biases) > 1.0 - strengths.as_array() + 1e-12):
        raise ConfigError("each |bias| must satisfy |bias| <= 1 - strength")
    has_bias = bool(np.any(np.abs(biases) > 0))
    tstate = is_tstate(decomp)
    s1, s2 = _svals(decomp)

    reports = []
    for operator in _operators(args.operator):
        if args.criteria == "all-applicable":
            names = [n for n in CRITERION_NAMES
                     if _applicable(n, strengths, tstate, s1, s2, has_bias)]
            if not names:
                raise IncompatibleError(
                    "no criterion applies: biased observables require a T-state")
        else:
            names = [n.strip() for n in args.criteria.split(",") if n.strip()]
            for n in names:
                if n not in CRITERION_NAMES:
                    raise ConfigError(f"unknown criterion {n!r}")
                if not _applicable(n, strengths, tstate, s1, s2, has_bias):
                    raise IncompatibleError(
                        f"criterion {n!r} does not apply to this state/configuration")
        angles, _ = _resolve_angles(args.angles, decomp, strengths, operator,
                                    grid=args.angle_grid)
        op_reports = []
        for name in names:
            report = _compute_report(name, operator, decomp, strengths, angles, tstate)
            if args.oracle_restarts:
                report = _attach_oracle(name, operator, report, decomp, strengths,
                                        biases, args.oracle_restarts, args.seed, tstate)
            op_reports.append((name, report))
        bound_like = [r for n, r in op_reports if n not in _NO_ORACLE]
        if bound_like:
            tightest = min(bound_like, key=lambda r: r.bound_value)
            op_reports.append(("tightest_applicable", BoundReport(
                tightest.bound_value, f"{operator}_tightest_applicable",
                achieving_angles=tightest.achieving_angles,
                notes=f"aggregate: min over applicable bounds (from {tightest.criterion})")))
        reports.extend(_report_dict(operator, r) for _, r in op_reports)

    payload = {
        "state": args.state,
        "config": {
            "strengths": list(strengths.as_array()),
            "biases": list(biases),
            "angles": args.angles or "optimal",
            "operator": args.operator,
            "criteria": args.criteria,
            "seed": args.seed,
            "state_physical": state_info["physical"],
            "state_min_eigenvalue": state_info["min_eigenvalue"],
            "t_singular_values": [s1, s2],
        },
        "reports": reports,
    }
    _emit(payload, args.format, args.out)
    return EXIT_OK


def cmd_scan(args) -> int:
    lo, hi, steps = args.range.split(",")
    lo, hi, steps = float(lo), float(hi), int(steps)
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    grid = np.linspace(lo, hi, steps) if steps > 1 else np.array([lo])

    spec = parse_state_spec(args.state)
    operators = _operators(args.operator)
    rows = []
    meta: dict = {}

    for index, value in enumerate(grid):
        if args.scan_axis == "strength_all":
            strengths = Strengths.uniform(float(value))
            decomp, _ = _state_context(spec)
            angles_arg = args.angles
        elif args.scan_axis == "visibility":
            mixed = StateSpec(kind="mix", base=spec, visibility=float(value))
            decomp, _ = _state_context(mixed)
            strengths = Strengths.from_iterable(
                _parse_floats(args.strengths, 6, "--strengths"))
            angles_arg = args.angles
        elif args.scan_axis == "angle_x":
            decomp, _ = _state_context(spec)
            strengths = Strengths.from_iterable(
                _parse_floats(args.strengths, 6, "--strengths"))
            base = _parse_floats(args.angles, 3, "--angles") if args.angles and args.angles != "optimal" \
                else (np.pi / 2, np.pi / 2, np.pi / 2)
            angles_arg = f"{value},{base[1]},{base[2]}"
        else:
            raise ConfigError("--scan-axis must be strength_all, visibility or angle_x")

        tstate = is_tstate(decomp)
        s1, s2 = _svals(decomp)
        has_bias = False
        row = {"index": index, "axis_value": float(value)}
        for operator in operators:
            names = [n for n in CRITERION_NAMES
                     if _applicable(n, strengths, tstate, s1, s2, has_bias)] \
                if args.criteria == "all-applicable" else \
                [n.strip() for n in args.criteria.split(",") if n.strip()]
            angles, _ = _resolve_angles(angles_arg, decomp, strengths, operator,
                                        grid=args.angle_grid)
            for name in names:
                if not _applicable(name, strengths, tstate, s1, s2, has_bias):
                    raise IncompatibleError(f"criterion {name!r} does not apply")
                report = _compute_report(name, operator, decomp, strengths, angles, tstate)
                row[f"{operator}_{name}"] = report.bound_value
                row[f"{operator}_{name}_violated"] = bool(
                    report.bound_value > OPERATORS[operator].classical_limit)
        rows.append(row)

        if index == 0 and args.scan_axis == "strength_all" and tstate:
            p = float(np.hypot(s1, s2))
            for operator in operators:
                if p > OPERATORS[operator].window_threshold:
                    ru, rb = OPERATORS[operator].closed_form("biased_window")(p)
                    meta[f"{operator}_window"] = {"r_unbiased": ru, "r_biased": rb}

    payload = {"state": args.state,
               "config": {"scan_axis": args.scan_axis, "range": [lo, hi, steps],
                          "operator": args.operator, "criteria": args.criteria},
               "windows": meta, "rows": rows}
    _emit(payload, args.format, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    all_passed = True
    for name in names:
        result = run_suite(name, args.seed, args.budget)
        all_passed &= result.passed
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {result.name}: max deviation {result.max_deviation:.3e} "
              f"(tolerance {result.tolerance:.0e}, {result.instances} instances, "
              f"{result.seconds:.2f}s) - {result.detail}")
    return EXIT_OK if all_passed else EXIT_PROPERTY_FAILURE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bell3q",
        description="Bounds on Mermin and Svetlichny operators for three-qubit "
                    "states under biased, weak dichotomic measurements.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--state", required=True,
                       help="ghz | gghz:<theta> | w | mix:<spec>:<v> | "
                            "tstate:<9|27 floats> | random:<seed>")
        p.add_argument("--strengths", default="1,1,1,1,1,1",
                       help="six strengths rx,rxp,ry,ryp,rz,rzp in [0,1]")
        p.add_argument("--biases", default=None, help="six biases (default zero)")
        p.add_argument("--angles", default=None,
                       help="tx,ty,tz in [0,pi] or 'optimal' (default)")
        p.add_argument("--operator", default="both",
                       choices=[*OPERATORS, "both"])
        p.add_argument("--criteria", default="all-applicable",
                       help="comma list of criteria or 'all-applicable'")
        p.add_argument("--oracle-restarts", type=int, default=0,
                       help="attach a see-saw oracle with this many restarts")
        p.add_argument("--angle-grid", type=int, default=64,
                       help="grid resolution per axis for optimal-angle search")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", default="json", choices=["json", "csv"])

    p_bound = sub.add_parser("bound", help="compute bounds for one configuration")
    common(p_bound)

    p_scan = sub.add_parser("scan", help="sweep one axis and tabulate bounds")
    common(p_scan)
    p_scan.add_argument("--scan-axis", required=True,
                        choices=["strength_all", "visibility", "angle_x"])
    p_scan.add_argument("--range", required=True, help="lo,hi,steps")

    p_verify = sub.add_parser("verify", help="run a seeded verification suite")
    p_verify.add_argument("--suite", required=True,
                          choices=sorted(SUITES) + ["all"])
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--budget", type=int, default=200)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bound":
            return cmd_bound(args)
        if args.command == "scan":
            return cmd_scan(args)
        return cmd_verify(args)
    except IncompatibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
