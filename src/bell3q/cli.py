"""Command-line front end.

Subcommands:

* ``bound``: compute the requested closed-form criteria for one state and
  measurement configuration, optionally attaching a see-saw oracle value.
* ``scan``: sweep one axis (all six strengths, white-noise visibility, or
  the X relative angle) and emit one row per grid point.
* ``verify``: run a seeded verification suite; nonzero exit on failure.

States are given in a mini-grammar: ``ghz``, ``gghz:<theta>``, ``w``,
``mix:<spec>:<v>``, ``tstate:<9 or 27 comma floats>``, ``random:<seed>``.
A ``tstate`` spec, bare or inside ``mix:``, is evaluated at the coefficient
level, so correlation tensors whose bare T-state operator is unphysical can
still be scanned for their bound values; the report carries the physicality
flag.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 criterion/state incompatibility.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
from dataclasses import replace

import numpy as np

from .mermin import _degenerate, _t_svals
from .observables import OPERATORS, angles_in_range
from .oracle import SeeSawConfig, bias_optimize, see_saw_maximize
from .pauli import decompose, decomposition_from_t, reconstruct
from .reports import BoundReport, Strengths
from .states import StateSpec, build, is_tstate, parse_state_spec
from .suites import SUITES, run_suite

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_INCOMPATIBLE = 3


class ConfigError(Exception):
    pass


class IncompatibleError(Exception):
    pass


def _parse_floats(text: str, n: int, what: str) -> tuple:
    parts = text.split(",")
    if len(parts) != n:
        raise ConfigError(f"{what} needs {n} comma-separated values, got {len(parts)}")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{what}: values must be finite, got {text!r}")
    return values


def _unmix_tstate(spec: StateSpec) -> StateSpec:
    """A white-noise mix of a tstate spec, at any depth, as that tstate spec with T
    scaled by each visibility in turn (noise scales T by v, marginals stay 0)."""
    if spec.kind == "mix":
        base = _unmix_tstate(spec.base)
        if base.kind == "tstate":
            return replace(base, t_tensor=tuple(spec.visibility * np.array(base.t_tensor)))
    return spec


def _state_context(spec: StateSpec):
    """Decomposition, physicality info, T-state flag and (s1, s2) of T, computed
    once per state; tstate specs, and white-noise mixes of one, stay coefficient-level."""
    spec = _unmix_tstate(spec)
    if spec.kind == "tstate":
        decomp = decomposition_from_t(np.asarray(spec.t_tensor).reshape(3, 3, 3))
        rebuilt = reconstruct(decomp)
        info = {"physical": bool(rebuilt.is_physical),
                "min_eigenvalue": rebuilt.min_eigenvalue}
    else:
        state = build(spec)
        decomp = decompose(state)
        info = {"physical": True, "min_eigenvalue": state.min_eigenvalue}
    return decomp, info, is_tstate(decomp), _t_svals(decomp.t_matrix)


# Both operators share the criterion labels.  Each row holds the conditions
# (see _select_criteria) a request must meet and the oracle: "free" is the
# see-saw over all settings, "angles" the see-saw held at the row's angles,
# "bias" the bias enumeration held there.  None gets no oracle and is never
# the tightest applicable bound: orthogonal_sufficient is a violation
# certificate, and six_variant bounds the operator and its six exchanged
# variants at the row's angles, not the operator alone.
CRITERIA = {
    "unbiased_general": ({"unbiased"}, "angles"),
    "equal_strengths": ({"unbiased", "equal_strengths"}, "free"),
    "orthogonal_sufficient": ({"unbiased"}, None),
    "six_variant": ({"unbiased"}, None),
    "tstate_general": ({"tstate"}, "bias"),
    "x_asymmetric": ({"x_asymmetric"}, "free"),
    "degenerate_smax": ({"degenerate"}, "free"),
}
CRITERION_NAMES = tuple(CRITERIA)


def _select_criteria(arg: str, strengths: Strengths, on_tstate: bool, s1: float, s2: float,
                     has_bias: bool) -> list[str]:
    """The criteria named by ``--criteria``; each must exist and apply.  Biased
    observables are handled only on T-states: elsewhere they meet no condition."""
    st = strengths
    conditions = {
        "unbiased": not has_bias, "equal_strengths": st.equal_per_side, "tstate": on_tstate,
        "x_asymmetric": (abs(st.ry - st.ryp) <= 1e-12 and abs(st.rz - st.rzp) <= 1e-12
                         and st.rx >= st.rxp),
        "degenerate": _degenerate(s1, s2)}
    met = {c for c, holds in conditions.items() if holds and (on_tstate or not has_bias)}
    if arg == "all-applicable":
        names = [n for n, (needs, _) in CRITERIA.items() if needs <= met]
        if not names:
            raise IncompatibleError("no criterion applies: biased observables require a T-state")
        return names
    names = [n.strip() for n in arg.split(",") if n.strip()]
    if not names:
        raise ConfigError(f"--criteria names no criterion: {arg!r}")
    for n in names:
        if n not in CRITERIA:
            raise ConfigError(f"unknown criterion {n!r}")
        if not CRITERIA[n][0] <= met:
            raise IncompatibleError(
                f"criterion {n!r} does not apply to this state/configuration")
    return names


def _check_at_least(value: int, option: str, least: int = 0) -> None:
    if value < least:
        raise ConfigError(f"{option} must be an integer >= {least}, got {value}")


def _check_angles(values, what: str):
    if not angles_in_range(values):
        raise ConfigError(f"{what}: angles must lie in [0, pi]")
    return values


def _parse_angles(text):
    """``--angles`` as a triple checked to lie in [0, pi], or None for the
    optimal angles."""
    if text in (None, "", "optimal"):
        return None
    return _check_angles(_parse_floats(text, 3, "--angles"), "--angles")


def _resolve_angles(angles, strengths, operator: str, s1: float, s2: float):
    """The explicit triple, or the best angles for this strength pattern.

    With equal per-side strengths the closed-form optimal-angle family is
    used; otherwise the closed-form bound is maximized over the angle cube by
    the seeded pattern search of ``Operator.grid_angles``.
    """
    if angles is not None:
        return angles
    op = OPERATORS[operator]
    if strengths.equal_per_side:
        return op.closed_form("equal_strength_angles")(s1, s2)
    return op.closed_form("optimal_angles")(s1, s2, strengths)[0]


def _compute_report(name: str, operator: str, strengths: Strengths,
                    angles, on_tstate: bool, s1: float, s2: float) -> BoundReport:
    st, op = strengths, OPERATORS[operator]
    if name == "unbiased_general":
        return op.unbiased(s1, s2, st, angles)
    if name == "tstate_general":
        return op.tstate(s1, s2, st, angles)
    if name == "six_variant":
        return op.six_variant(s1, s2, st, angles)
    closed_form = op.closed_form(name)
    if name == "equal_strengths":
        return closed_form(s1, s2, st.rx, st.ry, st.rz)
    if name == "orthogonal_sufficient":
        return closed_form(s1, s2, st)
    report = (closed_form(s1, s2, st.rx, st.rxp, st.ry, st.rz) if name == "x_asymmetric"
              else closed_form(st, s1))  # the last criterion, degenerate_smax
    return op.plus_bias_max(report, st) if on_tstate else report


def _evaluate(args, context, strengths: Strengths, angles, has_bias: bool = False,
              oracle=None) -> dict:
    """One state's {operator: [(criterion, report)]}: the angles are resolved
    once per operator, and with ``oracle`` = (biases, restarts, seed) each
    report carries its oracle value."""
    decomp, _, tstate, (s1, s2) = context
    names = _select_criteria(args.criteria, strengths, tstate, s1, s2, has_bias)
    evaluated = {}
    for operator in _operators(args.operator):
        resolved = _resolve_angles(angles, strengths, operator, s1, s2)
        evaluated[operator] = []
        for name in names:
            report = _compute_report(name, operator, strengths, resolved, tstate, s1, s2)
            if oracle and CRITERIA[name][1]:
                report = _attach_oracle(name, operator, report, decomp, strengths, *oracle)
            evaluated[operator].append((name, report))
    return evaluated


def _attach_oracle(name: str, operator: str, report: BoundReport, decomp,
                   strengths: Strengths, biases, restarts: int, seed: int) -> BoundReport:
    mode = CRITERIA[name][1]
    constraints = None if mode == "free" else report.achieving_angles
    config = SeeSawConfig(restarts=restarts, seed=seed, angle_constraints=constraints)
    result = (bias_optimize(decomp, strengths, operator, config) if mode == "bias"
              else see_saw_maximize(decomp, strengths, biases, operator, config))
    report = report.with_oracle(result.value)
    if result.hit_max_sweeps:
        notes = "; ".join(filter(None, (report.notes, "oracle stopped at its sweep cap")))
        report = replace(report, notes=notes)
    return report


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
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"--out {out_path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _operators(arg: str) -> list[str]:
    return list(OPERATORS) if arg == "both" else [arg]


def cmd_bound(args) -> int:
    _check_at_least(args.oracle_restarts, "--oracle-restarts")
    _check_at_least(args.seed, "--seed")
    context = _state_context(parse_state_spec(args.state))
    _, state_info, _, (s1, s2) = context
    strengths = Strengths.from_iterable(_parse_floats(args.strengths, 6, "--strengths"))
    biases = np.array(_parse_floats(args.biases, 6, "--biases")) if args.biases else np.zeros(6)
    if np.any(np.abs(biases) > 1.0 - strengths.as_array() + 1e-12):
        raise ConfigError("each |bias| must satisfy |bias| <= 1 - strength")
    has_bias = bool(np.any(np.abs(biases) > 0))

    reports = []
    oracle = (biases, args.oracle_restarts, args.seed) if args.oracle_restarts else None
    for operator, op_reports in _evaluate(args, context, strengths, _parse_angles(args.angles),
                                          has_bias, oracle).items():
        bound_like = [r for n, r in op_reports if CRITERIA[n][1]]
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
    lo, hi, steps = _parse_floats(args.range, 3, "--range")
    if not steps.is_integer() or steps < 1:
        raise ConfigError(f"--range steps must be an integer >= 1, got {steps!r}")
    steps = int(steps)
    grid = np.linspace(lo, hi, steps) if steps > 1 else np.array([lo])

    spec = parse_state_spec(args.state)
    axis = args.scan_axis
    angles = _parse_angles(args.angles)
    if axis != "visibility":
        context = _state_context(spec)
    strengths = Strengths.from_iterable(_parse_floats(args.strengths, 6, "--strengths"))
    if axis == "angle_x":
        _check_angles((lo, hi), "--range")
        base = angles or (np.pi / 2, np.pi / 2, np.pi / 2)
    rows = []
    meta: dict = {}

    for index, value in enumerate(grid):
        if axis == "strength_all":
            strengths = Strengths.uniform(float(value))
        elif axis == "visibility":
            context = _state_context(StateSpec(kind="mix", base=spec, visibility=float(value)))
        else:  # angle_x
            angles = (float(value), base[1], base[2])
        row = {"index": index, "axis_value": float(value)}
        for operator, op_reports in _evaluate(args, context, strengths, angles).items():
            for name, report in op_reports:
                cells = _report_dict(operator, report)
                row[f"{operator}_{name}"] = cells["bound"]
                row[f"{operator}_{name}_violated"] = cells["violated"]
        rows.append(row)

    _, _, tstate, (s1, s2) = context
    if axis == "strength_all" and tstate:
        p = float(np.hypot(s1, s2))
        for operator in _operators(args.operator):
            if p > OPERATORS[operator].window_threshold:
                ru, rb = OPERATORS[operator].biased_window(p)
                meta[f"{operator}_window"] = {"r_unbiased": ru, "r_biased": rb}

    payload = {"state": args.state,
               "config": {"scan_axis": args.scan_axis, "range": [lo, hi, steps],
                          "operator": args.operator, "criteria": args.criteria},
               "windows": meta, "rows": rows}
    _emit(payload, args.format, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    _check_at_least(args.budget, "--budget", 1)
    _check_at_least(args.seed, "--seed")
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    all_passed = True
    for name in names:
        result = run_suite(name, args.seed, args.budget)
        all_passed &= result.passed
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {result.name}: max deviation {result.max_deviation:.3e} "
              f"(tolerance {result.tolerance:.0e}, {result.instances} instances, "
              f"{result.seconds:.2f}s) - {result.detail}; "
              f"worst instance {result.worst_instance} (seed {args.seed})")
    return EXIT_OK if all_passed else EXIT_PROPERTY_FAILURE


@functools.cache  # argparse keeps no state between parse_args calls
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
        p.add_argument("--angles", default=None,
                       help="tx,ty,tz in [0,pi] or 'optimal' (default)")
        p.add_argument("--operator", default="both",
                       choices=[*OPERATORS, "both"])
        p.add_argument("--criteria", default="all-applicable",
                       help="comma list of criteria or 'all-applicable'")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", default="json", choices=["json", "csv"])

    p_bound = sub.add_parser("bound", help="compute bounds for one configuration")
    common(p_bound)
    p_bound.add_argument("--biases", default=None, help="six biases (default zero)")
    p_bound.add_argument("--oracle-restarts", type=int, default=0,
                         help="attach a see-saw oracle with this many restarts")
    p_bound.add_argument("--seed", type=int, default=0,
                         help="seed of the oracle's restart stream")

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


# Options whose value is a comma list of numbers.  argparse takes a token
# that starts with '-' for an option unless it is one plain negative number,
# so a list such as ``--biases -0.3,0,0,0,0,0`` is joined to its option, or
# to any abbreviation of it, as ``--biases=-0.3,0,0,0,0,0``, before parsing.
# An ambiguous abbreviation is then rejected by argparse, as with '='.
_NUMBER_LISTS = ("--strengths", "--angles", "--biases", "--range")
_NEGATIVE_LIST = re.compile(r"-(\d|\.|inf|nan)", re.IGNORECASE)


def _join_negative_lists(argv) -> list:
    joined = []
    for token in argv:
        option = joined[-1] if joined else ""
        if (len(option) > 2 and any(name.startswith(option) for name in _NUMBER_LISTS)
                and _NEGATIVE_LIST.match(token)):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_join_negative_lists(sys.argv[1:] if argv is None else argv))
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
