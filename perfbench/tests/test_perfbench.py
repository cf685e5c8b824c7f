"""Self-tests of the benchmark: span accounting, the tail percentile, the
workload checks and the traced run's layer wrappers.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import ROOT, LayerPatch, Span, Tracer, layer_metrics, self_times  # noqa: E402


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 6] > b [2, 4]; root > c [7, 9]
    spans = [Span(ROOT, "i", 0.0, 10.0, -1, 0),
             Span("cli", "a", 1.0, 6.0, 0, 0),
             Span("smallmat", "b", 2.0, 4.0, 1, 0),
             Span("mermin", "c", 7.0, 9.0, 0, 0)]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 2.0])
    metrics = layer_metrics(spans, plain_seconds=8.0)
    assert metrics["cli.self_ms"] == pytest.approx(3000.0)
    assert metrics["cli.share"] == pytest.approx(0.3)
    assert metrics["cli.svals_calls"] == 1.0
    assert metrics["smallmat.us_per_call"] == pytest.approx(2e6)
    assert metrics["trace.unattributed_frac"] == pytest.approx(0.3)
    assert metrics["trace.overhead_frac"] == pytest.approx(0.25)


def test_tracer_records_parents():
    tracer = Tracer()

    def inner():
        return 1

    def outer():
        return tracer.call("mermin", "inner", inner) + 1

    assert tracer.call(ROOT, "i", outer) == 2
    assert [(s.name, s.parent) for s in tracer.spans] == [("i", -1), ("inner", 0)]
    assert tracer.spans[1].start >= tracer.spans[0].start
    assert tracer.spans[1].end <= tracer.spans[0].end


@pytest.mark.parametrize("n, expected", [
    (10000, 99.9), (9999, 99.0), (1000, 99.0), (999, 95.0), (200, 95.0),
    (199, 90.0), (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0), (20, 50.0), (3, 50.0)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def test_percentile_interpolates():
    assert run.percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.5
    assert run.percentile([5.0], 99.0) == 5.0


def test_same_seed_same_inputs():
    a, b = workloads.Tightness(3, 4), workloads.Tightness(3, 4)
    assert all(np.array_equal(x.t, y.t) and x.config == y.config
               for x, y in zip(a.instances, b.instances))
    assert workloads.Bound(3, 8).instances == workloads.Bound(3, 8).instances
    assert workloads.Bound(3, 8).instances != workloads.Bound(4, 8).instances


def test_latin_hypercube_fills_every_stratum():
    points = workloads.latin_hypercube(np.random.default_rng(0), 8, 3)
    assert sorted(np.floor(points[:, 1] * 8).astype(int)) == list(range(8))


def test_tightness_check_rejects_gap_at_tolerance():
    wl = workloads.Tightness(5, 2)
    inst = wl.instances[0]
    assert wl.check(inst, (1.0, 1.0 - 1e-6, 30, False)) == []
    failures = wl.check(inst, (1.0, 1.0 - 2e-4, 30, False))
    assert [f["check"] for f in failures] == ["tightness_gap"]
    failures = wl.check(inst, (1.0, 1.0 - 2e-4, 200, True))
    assert [f["check"] for f in failures] == ["capped_short"]
    failures = wl.check(inst, (1.0, 1.0 + 1e-6, 30, False))
    assert [f["check"] for f in failures] == ["negative_gap"]


def test_bound_check_rejects_value_off_svd_reference():
    wl = workloads.Bound(5, 1)
    inst = wl.instances[0]
    code, text = wl.run(inst)
    assert wl.check(inst, (code, text)) == []
    payload = json.loads(text)
    for rep in payload["reports"]:
        if rep["criterion"] == "svetlichny_unbiased_general":
            rep["bound"] *= 1.0 + 1e-6
    failures = wl.check(inst, (code, json.dumps(payload)))
    assert [(f["check"], f["criterion"]) for f in failures] == [
        ("svd_reference", "svetlichny_unbiased_general")]
    assert wl.check(inst, (2, ""))[0]["check"] == "exit_code"


def test_bound_oracle_check_rejects_negative_gap():
    wl = workloads.BoundOracle(5, 1)
    inst = wl.instances[0]

    def output(bound, oracle):
        row = {"criterion": "mermin_equal_strengths", "operator": "mermin",
               "bound": bound, "oracle": oracle, "gap": bound - oracle}
        return 0, json.dumps({"reports": [row]})

    assert wl.check(inst, output(1.0, 0.999)) == []
    failures = wl.check(inst, output(1.0, 1.01))
    assert [(f["check"], f["criterion"]) for f in failures] == [
        ("negative_gap", "mermin_equal_strengths")]
    assert failures[0]["relative_gap"] == pytest.approx(-0.01)


def test_unknown_failures_make_a_run_incorrect():
    wl = workloads.BoundOracle(5, 1)
    inst = wl.instances[0]
    rows = [{"criterion": c, "operator": "svetlichny", "bound": 1.0, "oracle": 1.1,
             "gap": -0.1} for c in ("svetlichny_equal_strengths", "svetlichny_tstate_general")]
    ledger = run.Ledger(wl, seed=5)
    ledger.record(inst, (0, json.dumps({"reports": rows})), None, 1.0)
    ledger.record(inst, None, "ValueError: boom", 1.0)
    assert (ledger.failed, ledger.unexpected) == (2, 2)
    assert [e["known_defect"] for e in ledger.entries] == [True, False, False]
    assert ledger.entries[0]["input"]["argv"] == list(inst.argv)
    assert ledger.entries[2]["check"] == "raised"


def test_bound_oracle_states_are_physical_tstates():
    from bell3q import states
    wl = workloads.BoundOracle(7, 4)
    for inst in wl.instances:
        spec = states.parse_state_spec(inst.argv[inst.argv.index("--state") + 1])
        assert states.t_state(np.array(spec.t_tensor).reshape(3, 3, 3)).is_physical
    # each state is requested once per operator, back to back
    first, second = wl.instances[0].argv, wl.instances[1].argv
    assert first[:-1] == second[:-1] and (first[-1], second[-1]) == ("mermin", "svetlichny")


def test_layer_patch_records_and_restores():
    from bell3q import cli, mermin
    original, original_main = mermin.mermin_bound_unbiased, cli.main
    tracer = Tracer()
    wl = workloads.Bound(5, 4)
    with LayerPatch(tracer):
        assert mermin.mermin_bound_unbiased is not original
        tracer.call(ROOT, "bound", wl.run, (wl.instances[3],))
    assert mermin.mermin_bound_unbiased is original and cli.main is original_main
    metrics = layer_metrics(tracer.spans, plain_seconds=1.0)
    assert metrics["cli.calls"] == 1.0
    assert metrics["oracle.calls"] == 0.0
    assert metrics["angle_grid.points"] == 2 * 64 ** 3
    assert metrics["cli.svals_calls"] == metrics["smallmat.calls"] > 0
