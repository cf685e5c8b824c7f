"""The three benchmark workloads: input generation, the timed call, the checks.

Every workload is a closed loop driven by one client in one process.  Its
inputs are drawn from ``--seed`` before timing and ``run`` is the only timed
part.  ``check`` runs on each output as soon as its timing is taken, outside
the timed region, and folds it into the workload's ``summary`` metrics, so no
output is kept and memory does not grow with throughput.  Calls into bell3q
go through module attributes (``mermin.mermin_bound_equal_strengths``, not a
name imported at load time), so the traced run's wrappers see them.

Where an instance's cost depends strongly on a drawn parameter (the spectrum
ratio s2/s1 sets how many see-saw sweeps an oracle call needs), the draws are
Latin-hypercube stratified in small blocks: each block covers every stratum
of every parameter once, so runs at different seeds time the same mix of easy
and near-degenerate instances.  The marginal distributions are unchanged.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass

import numpy as np

from bell3q import cli, mermin, oracle, pauli, states, suites, svetlichny
from bell3q.reports import Strengths

# a negative gap is an oracle value above the printed bound
NEGATIVE_GAP_RTOL = 1e-9
TIGHTNESS_GAP_TOL = 1e-4
REFERENCE_RTOL = 1e-9

# Check failures that are known library defects rather than benchmark faults.
# They are counted in ``failed`` and listed in the ledger, but do not make a
# run incorrect.  Remove an entry once the library fixes it.
KNOWN_DEFECTS = {
    # svetlichny_bound_equal_strengths is not an upper bound: at sharp
    # strengths the general closed form peaks at 4*s1 over angles, above
    # 2*sqrt(2)*sqrt(s1^2 + s2^2), and the free see-saw finds such settings.
    ("bound_oracle", "svetlichny_equal_strengths", "negative_gap"),
    # the see-saw stops at its sweep cap on near-degenerate spectra without
    # saying so, and can stop short of the bound by more than the tolerance
    ("tightness", "mermin_equal_strengths", "capped_short"),
    ("tightness", "svetlichny_equal_strengths", "capped_short"),
}

_PAULI_XYZ = (np.array([[0, 1], [1, 0]], dtype=complex),
              np.array([[0, -1j], [1j, 0]], dtype=complex),
              np.array([[1, 0], [0, -1]], dtype=complex))


def latin_hypercube(rng, n: int, dims: int) -> np.ndarray:
    """n points in [0, 1)^dims with exactly one point in each of the n equal
    strata of every dimension, in random order."""
    strata = np.argsort(rng.uniform(size=(n, dims)), axis=0)
    return (strata + rng.uniform(size=(n, dims))) / n


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _negative_gap(bound: float, value: float) -> bool:
    return bound - value < -NEGATIVE_GAP_RTOL * max(1.0, abs(bound))


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _parse_cli(output):
    """(payload, failure) for a captured ``bell3q`` run."""
    code, text = output
    if code != 0:
        return None, {"check": "exit_code", "exit_code": code}
    try:
        return json.loads(text), None
    except json.JSONDecodeError as exc:
        return None, {"check": "output_json", "error": str(exc)}


@dataclass(frozen=True)
class TightnessInstance:
    index: int
    operator: str
    r: tuple
    singular_values: tuple
    angles: tuple
    t: np.ndarray
    config: oracle.SeeSawConfig


class Tightness:
    """Acceptance criterion 6 in a loop: equal-strength bound, then a
    50-restart angle-constrained see-saw on an alignment-compatible tensor."""

    name = "tightness"
    nominal_rate = 3.2   # instances per second of the baseline, 2-core x86-64
    block = 16           # stratification block per operator
    restarts = 50

    def __init__(self, seed: int, count: int):
        rng = np.random.default_rng(seed)
        self.gaps, self.values, self.capped = [], [], 0
        self.instances = []
        while len(self.instances) < count:
            blocks = {op: latin_hypercube(rng, self.block, 6)
                      for op in ("mermin", "svetlichny")}
            for j in range(self.block):
                for op in ("mermin", "svetlichny"):
                    self.instances.append(self._make(rng, len(self.instances), op,
                                                     blocks[op][j]))
        del self.instances[count:]

    def _make(self, rng, index, operator, u):
        r = 0.3 + 0.7 * u[:3]
        s1 = 0.3 + 0.7 * u[3]
        s2 = 0.1 + (s1 - 0.1) * u[4]
        s3 = s2 * u[5]
        st = Strengths.equal(*r)
        if operator == "mermin":
            angles = mermin.equal_strength_angles(s1, s2)
            coeff = mermin.build_v_matrix(st, angles)
        else:
            angles = svetlichny.equal_strength_angles_svetlichny(s1, s2)
            coeff = svetlichny.build_w_matrix(st, angles)
        t = suites.saturable_tensor(rng, coeff, s1, s2, s3)
        config = oracle.SeeSawConfig(restarts=self.restarts,
                                     seed=int(rng.integers(0, 2**31)),
                                     angle_constraints=tuple(angles))
        return TightnessInstance(index, operator, tuple(float(x) for x in r),
                                 (s1, s2, s3), tuple(angles), t, config)

    def run(self, inst: TightnessInstance):
        if inst.operator == "mermin":
            bound = mermin.mermin_bound_equal_strengths(inst.t, *inst.r).bound_value
        else:
            bound = svetlichny.svetlichny_bound_equal_strengths(inst.t, *inst.r).bound_value
        decomp = pauli.decomposition_from_t(inst.t.reshape(3, 3, 3))
        result = oracle.see_saw_maximize(decomp, Strengths.equal(*inst.r), np.zeros(6),
                                         inst.operator, inst.config)
        return bound, result.value, result.sweeps, result.hit_max_sweeps

    def check(self, inst, output):
        bound, value, sweeps, capped = output
        gap = bound - value
        self.gaps.append(abs(gap))
        self.values.append(value)
        self.capped += capped
        numbers = {"criterion": f"{inst.operator}_equal_strengths", "bound": bound,
                   "oracle": value, "gap": gap, "sweeps": sweeps, "capped": capped}
        failures = []
        if abs(gap) >= TIGHTNESS_GAP_TOL:
            short = capped and gap > 0
            failures.append({"check": "capped_short" if short else "tightness_gap",
                             **numbers})
        if _negative_gap(bound, value):
            failures.append({"check": "negative_gap", **numbers})
        return failures

    def summary(self):
        if not self.values:
            return {}
        return {"oracle_gap_max": max(self.gaps),
                "oracle_capped_frac": self.capped / len(self.values),
                "oracle_value_mean": float(np.mean(self.values))}

    def describe(self, inst):
        return {"operator": inst.operator, "strengths": list(inst.r),
                "t_singular_values": list(inst.singular_values),
                "angles": list(inst.angles), "t_matrix": inst.t.ravel().tolist(),
                "oracle_restarts": inst.config.restarts, "oracle_seed": inst.config.seed}


@dataclass(frozen=True)
class CliInstance:
    index: int
    argv: tuple
    grid_angles: bool


def _strengths_of(argv) -> Strengths:
    return Strengths.from_iterable(
        float(x) for x in argv[argv.index("--strengths") + 1].split(","))


def _state_of(argv) -> str:
    return argv[argv.index("--state") + 1]


def _t_singular_values(spec: str) -> np.ndarray:
    decomp = pauli.decompose(states.build(states.parse_state_spec(spec)))
    return np.linalg.svd(decomp.t_matrix, compute_uv=False)


def _pair_value(closed_form, strengths, s, angles):
    plus, minus = closed_form(strengths, angles)
    return 0.5 * (s[0] + s[1]) * plus + 0.5 * (s[0] - s[1]) * minus


def refined_angle_max(closed_form, strengths: Strengths, s, angles,
                      rounds: int = 6, half: int = 4) -> float:
    """Maximum over angles of 0.5(s1+s2)P + 0.5(s1-s2)M with (P, M) from
    ``closed_form``, refined from ``angles`` on shrinking 9^3 grids (step
    pi/63, the 64^3 grid's spacing, then 4x finer each round)."""
    best = np.array(angles, dtype=float)
    best_value = float(_pair_value(closed_form, strengths, s, tuple(best)))
    step = np.pi / 63
    offsets = np.arange(-half, half + 1)
    for _ in range(rounds):
        axes = [np.clip(best[k] + step * offsets, 0.0, np.pi) for k in range(3)]
        grid = np.meshgrid(*axes, indexing="ij", sparse=True)
        values = _pair_value(closed_form, strengths, s, grid)
        at = np.unravel_index(int(np.argmax(values)), values.shape)
        if values[at] > best_value:
            best_value = float(values[at])
            best = np.array([axes[k][at[k]] for k in range(3)])
        step /= half
    return best_value


class Bound:
    """``bell3q bound`` in-process without an oracle, over the state grammar.

    Three requests in every four use equal per-side strengths (closed-form
    angles, the p50 path); the fourth uses unequal strengths (the 64^3 angle
    grid, the tail).
    """

    name = "bound"
    nominal_rate = 60.0
    kinds = ("random", "gghz", "mix:ghz", "mix:w")

    def __init__(self, seed: int, count: int):
        rng = np.random.default_rng(seed)
        self.shortfall = 0.0
        self.instances = []
        for i in range(count):
            # over 16 consecutive requests each (kind, strength pattern) pair occurs once
            kind = self.kinds[(i + i // 4) % 4]
            if kind == "random":
                spec = f"random:{int(rng.integers(0, 2**31))}"
            elif kind == "gghz":
                spec = f"gghz:{rng.uniform(0.0, np.pi / 2)!r}"
            else:
                spec = f"{kind}:{rng.uniform(0.2, 1.0)!r}"
            grid = i % 4 == 3
            if grid:
                s = rng.uniform(0.3, 1.0, 6)
            else:
                r = rng.uniform(0.3, 1.0, 3)
                s = (r[0], r[0], r[1], r[1], r[2], r[2])
            argv = ("bound", "--state", spec, "--strengths", _floats(s),
                    "--operator", "both")
            self.instances.append(CliInstance(i, argv, grid))

    def run(self, inst: CliInstance):
        return _run_cli(list(inst.argv))

    def _general_rows(self, inst, payload):
        strengths = _strengths_of(inst.argv)
        s = _t_singular_values(_state_of(inst.argv))
        for rep in payload["reports"]:
            if rep["criterion"].endswith("_unbiased_general"):
                yield rep, strengths, s

    def check(self, inst, output):
        payload, failure = _parse_cli(output)
        if failure:
            return [failure]
        failures = []
        for rep, strengths, s in self._general_rows(inst, payload):
            build = (mermin.build_v_matrix if rep["operator"] == "mermin"
                     else svetlichny.build_w_matrix)
            sv = np.linalg.svd(build(strengths, rep["angles"]), compute_uv=False)
            reference = float(s[0] * sv[0] + s[1] * sv[1])
            if abs(rep["bound"] - reference) > REFERENCE_RTOL * max(1.0, abs(rep["bound"])):
                failures.append({"check": "svd_reference", "criterion": rep["criterion"],
                                 "bound": rep["bound"], "reference": reference,
                                 "angles": rep["angles"]})
            if inst.grid_angles:
                closed_form = (mermin.i_plus_minus if rep["operator"] == "mermin"
                               else svetlichny.j_plus_minus)
                best = refined_angle_max(closed_form, strengths, s, rep["angles"])
                if best > 0:
                    self.shortfall = max(self.shortfall, (best - rep["bound"]) / best)
        return failures

    def summary(self):
        return {"angle_shortfall_max": self.shortfall}

    def describe(self, inst):
        return {"argv": list(inst.argv)}


def physical_tstate_tensor(rng, u) -> np.ndarray:
    """A 3x3x3 T-state tensor with singular-value ratios s2/s1 in [0.3, 0.7]
    and s3/s2 in [0, 1] set by ``u[0]`` and ``u[1]``, scaled to a fraction
    0.6 + 0.38 ``u[2]`` of the largest scale at which
    (1/8)(I + sum T_ijk s_i s_j s_k) stays positive.

    Above s2/s1 = 0.7 the oracle calls approach the sweep cap and a request
    costs 3-5x more.  That near-degenerate tail is ``tightness``'s to measure;
    here it would only add run-to-run variance to a workload meant for the
    per-row oracle cost.
    """
    q_left, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    q_right, _ = np.linalg.qr(rng.normal(size=(9, 3)))
    rho2 = 0.3 + 0.4 * u[0]
    s = np.array([1.0, rho2, rho2 * u[1]])
    t = ((q_left * s) @ q_right.T).reshape(3, 3, 3)
    op = sum(t[i, j, k] * np.kron(np.kron(_PAULI_XYZ[i], _PAULI_XYZ[j]), _PAULI_XYZ[k])
             for i in range(3) for j in range(3) for k in range(3))
    lowest = float(np.linalg.eigvalsh(op)[0])
    return t * (0.6 + 0.38 * u[2]) / -lowest


class BoundOracle:
    """``bell3q bound`` with the see-saw oracle attached, on physical T-states:
    a free see-saw at 2R rows and a biased, angle-constrained
    ``bias_optimize`` at 64R rows, with R = 2.

    Each state is requested twice in a row, once per operator, rather than
    once with ``--operator both``: the work is the same, and the doubled
    sample count steadies the median.  For the same reason R is 2, not 4: a
    request then takes about a quarter second.  The oracle still finds the
    Svetlichny negative gaps on most Svetlichny requests.
    """

    name = "bound_oracle"
    nominal_rate = 3.5
    block = 10
    restarts = 2

    def __init__(self, seed: int, count: int):
        rng = np.random.default_rng(seed)
        self.values = []
        self.instances = []
        while len(self.instances) < count:
            for u in latin_hypercube(rng, self.block, 6):
                t = physical_tstate_tensor(rng, u)
                states.t_state(t)  # every spec must pass the library's positivity check
                r = 0.3 + 0.7 * u[3:]
                common = ("bound", "--state", "tstate:" + _floats(t.ravel()),
                          "--strengths", _floats((r[0], r[0], r[1], r[1], r[2], r[2])),
                          "--criteria", "equal_strengths,tstate_general",
                          "--oracle-restarts", str(self.restarts),
                          "--seed", str(int(rng.integers(0, 2**31))))
                for operator in ("mermin", "svetlichny"):
                    self.instances.append(CliInstance(
                        len(self.instances), common + ("--operator", operator), False))
        del self.instances[count:]

    def run(self, inst: CliInstance):
        return _run_cli(list(inst.argv))

    def check(self, inst, output):
        payload, failure = _parse_cli(output)
        if failure:
            return [failure]
        self.values += [rep["oracle"] for rep in payload["reports"] if rep["oracle"] is not None]
        return [{"check": "negative_gap", "criterion": rep["criterion"],
                 "bound": rep["bound"], "oracle": rep["oracle"], "gap": rep["gap"],
                 "relative_gap": rep["gap"] / max(abs(rep["bound"]), 1e-300)}
                for rep in payload["reports"]
                if rep["oracle"] is not None and _negative_gap(rep["bound"], rep["oracle"])]

    def summary(self):
        return {"oracle_value_mean": float(np.mean(self.values))} if self.values else {}

    def describe(self, inst):
        return {"argv": list(inst.argv)}


WORKLOADS = {w.name: w for w in (Tightness, Bound, BoundOracle)}
