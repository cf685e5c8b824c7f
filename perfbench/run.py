"""bell3q benchmark: seeded closed-loop workloads, checked outputs, named metrics.

Run from the repository root:

    python3 perfbench/run.py --workload tightness --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all       # every workload, one process each

``--trace 0`` times the workload untraced and reports the end-to-end metrics;
``--trace 1`` runs each instance once plain and once with every layer's
public functions wrapped in span recorders, and reports the per-layer
metrics.  Each run prints one JSON report line (provenance, every metric with
unit and direction, the failure ledger) and, last, the summary line
``{"correct", "attempted", "failed", "metrics"}``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import ROOT as ROOT_SPAN, LayerPatch, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
HELD_OUT_SEED = 104729   # not used while writing a change; claims must also hold here
DEFAULT_SECONDS = 50
WORKLOAD_NAMES = ("tightness", "bound", "bound_oracle")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
POOL_HEADROOM = 10   # inputs generated for 10x the baseline's instance rate
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 600

# name: (unit, better); the oracle and angle metrics exist only on the
# workloads that make those calls
END_TO_END = {
    "setup_s": ("s", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "latency_ms_p50": ("ms", "lower"),
    "latency_ms_tail": ("ms", "lower"),
    "failed_frac": ("fraction", "lower"),
    "oracle_gap_max": ("1", "lower"),
    "oracle_capped_frac": ("fraction", "lower"),
    "oracle_value_mean": ("1", "higher"),
    "angle_shortfall_max": ("fraction", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# The end-to-end metrics gated by BENCHMARK.json: defined on every workload,
# never 0, and steady across seeds.  The others are printed in the report.
GATED = ("setup_s", "throughput_per_s", "latency_ms_p50", "latency_ms_tail", "peak_rss_mb")


def tail_percentile(n: int) -> float:
    """Highest percentile on the ladder with at least ten of n samples beyond
    it; 50 when even the median has fewer.

    The benchmark applies it to the baseline's sample count at the run's
    length, not to each run's own count, so that a faster or slower program
    is compared at the same percentile.
    """
    for p in TAIL_LADDER:
        if round(n * (100.0 - p) / 100.0, 9) >= TAIL_MIN_BEYOND:
            return p
    return TAIL_LADDER[-1]


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile of a non-empty sequence."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def measure_setup(repeats: int = SETUP_REPEATS) -> float:
    """Median wall time of ``import bell3q`` in fresh interpreters, after one
    untimed import that leaves the byte-code cache warm."""
    code = ("import time; t = time.perf_counter(); import bell3q; "
            "print(repr(time.perf_counter() - t))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(repeats + 1):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "bell3q").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args, pool_size: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "instances_generated": pool_size,
    }


def _timed(workload, inst):
    t0 = time.perf_counter()
    try:
        out, error = workload.run(inst), None
    except Exception as exc:  # a raising instance is a failure to record, not a crash
        out, error = None, f"{type(exc).__name__}: {exc}"
    return out, error, time.perf_counter() - t0


class Ledger:
    """Checks each output once it is timed and records the failed instances."""

    def __init__(self, workload, seed: int):
        from workloads import KNOWN_DEFECTS
        self._known = KNOWN_DEFECTS
        self.workload, self.seed = workload, seed
        self.entries, self.latencies = [], []
        self.failed = self.unexpected = 0

    def record(self, inst, out, error, latency):
        self.latencies.append(latency)
        problems = ([{"check": "raised", "error": error}] if error is not None
                    else self.workload.check(inst, out))
        self.failed += bool(problems)
        for problem in problems:
            known = (self.workload.name, problem.get("criterion"),
                     problem["check"]) in self._known
            self.unexpected += not known
            self.entries.append({"workload": self.workload.name, "seed": self.seed,
                                 "index": inst.index, "known_defect": known, **problem,
                                 "input": self.workload.describe(inst)})


def run_plain(workload, ledger: Ledger, seconds: float) -> float:
    """Closed loop over the pool until ``seconds`` of instance time have
    passed; returns that time.  Checks between instances are not timed."""
    timed = 0.0
    for inst in workload.instances:
        out, error, latency = _timed(workload, inst)
        timed += latency
        ledger.record(inst, out, error, latency)
        if timed >= seconds:
            break
    return timed


def run_traced(workload, ledger: Ledger, seconds: float) -> dict:
    """Each instance once plain and once traced, alternating which goes first;
    returns the per-layer metrics of the traced copies."""
    tracer = Tracer()
    patch = LayerPatch(tracer)
    plain = timed = 0.0
    for k, inst in enumerate(workload.instances):
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if not traced:
                plain += _timed(workload, inst)[2]
                continue
            tracer.instance = k
            with patch:
                out, error, latency = tracer.call(ROOT_SPAN, workload.name, _timed,
                                                  (workload, inst))
            timed += latency
        ledger.record(inst, out, error, latency)
        if timed + plain >= seconds:
            break
    return layer_metrics(tracer.spans, plain)


def run_workload(args) -> int:
    from workloads import WORKLOADS  # imports bell3q and numpy before timing

    setup_s = None if args.trace else measure_setup()
    cls = WORKLOADS[args.workload]
    expected = cls.nominal_rate * args.seconds
    workload = cls(args.seed, int(POOL_HEADROOM * expected) + 1)
    # the input pool is the benchmark's, not the program's: keep it out of
    # the garbage collector's full passes, whose pauses would grow with it
    gc.collect()
    gc.freeze()
    ledger = Ledger(workload, args.seed)
    if args.trace:
        values = run_traced(workload, ledger, args.seconds)
    else:
        timed = run_plain(workload, ledger, args.seconds)
    attempted = len(ledger.latencies)

    report = {"provenance": provenance(args, len(workload.instances)),
              "attempted": attempted, "failed": ledger.failed,
              "unexpected_failures": ledger.unexpected,
              "pool_exhausted": attempted == len(workload.instances)}
    if args.trace:
        units = {name: _layer_unit(name) for name in values}
    else:
        latencies = ledger.latencies
        tail_p = tail_percentile(int(expected))
        values = {"setup_s": setup_s,
                  "throughput_per_s": attempted / timed,
                  "latency_ms_p50": 1e3 * percentile(latencies, 50.0),
                  "latency_ms_tail": 1e3 * percentile(latencies, tail_p),
                  "failed_frac": ledger.failed / attempted,
                  **workload.summary(),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = {name: END_TO_END[name][0] for name in values}
        report["latency_tail"] = {"percentile": tail_p, "samples": attempted,
                                  "beyond": sum(1e3 * lat > values["latency_ms_tail"]
                                                for lat in latencies)}
        report["timed_seconds"] = timed
        report["directions"] = {name: END_TO_END[name][1] for name in values}
    report["metrics"] = {name: {"value": values[name], "unit": units[name]}
                         for name in values}
    report["ledger"] = ledger.entries
    print(json.dumps({"report": report}))

    gated = values if args.trace else {name: values[name] for name in GATED}
    print(json.dumps({"correct": ledger.unexpected == 0, "attempted": attempted,
                      "failed": ledger.failed,
                      "metrics": {name: {"value": v, "unit": units[name]}
                                  for name, v in gated.items()}}))
    return 0


def _layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    if suffix.endswith("_ms"):
        return "ms"
    if suffix.endswith("_us") or suffix.startswith("us_"):
        return "us"
    if suffix.endswith(("frac", "share")):
        return "fraction"
    return "count"


def run_all(args) -> int:
    """Every workload in its own process, then one combined summary line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        summary = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= summary["correct"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in summary["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "bell3q" / "__init__.py").is_file():
        print(f"error: bell3q sources not found under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
