"""Benchmark for klotzcbi: one workload per process, one thread.

    python3 bench/run.py --workload assess --seed 1 --seconds 25 --trace 0

Runs whole rounds of the workload's operations until ``--seconds`` have
passed, checks every output, and prints one JSON object as its last
line: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end figures; with ``--trace 1``
the run alternates untraced and traced rounds, then calls each layer
directly, and reports the per-layer figures and the tracing overhead.
``--workload all`` runs every workload, each in its own process.  See
bench/README.md.
"""

import time

# Process start, as closely as Python can see it: the CPU time spent so
# far is interpreter start-up, which ran before this line.
_START = time.perf_counter() - time.process_time()

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import traceback

from checks import CheckFailed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("assess", "bound", "verify", "campaign")
#: Failures reported in full on stderr; the rest are only counted.
SHOWN_FAILURES = 5
#: Operation times are calibrated to a nominal machine speed: each is
#: multiplied by REF_NOMINAL / (current duration of ``reference_loop``),
#: re-read at most every REF_EVERY seconds.  On a shared machine the same
#: work takes up to 40% longer while neighbours are busy; the loop slows
#: with it and so cancels most of that, while a change to the library
#: leaves the loop untouched.
REF_NOMINAL = 1e-3
REF_EVERY = 0.25


def reference_loop() -> float:
    """Seconds for a fixed piece of interpreter work that calls no library code."""
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(4000):
        acc += math.sqrt(i) * 1.5
        table[i & 63] = acc
        _ = [i, acc, table]
    return time.perf_counter() - t0


class Calibration:
    """The current factor REF_NOMINAL / reference_loop(), read at most every REF_EVERY s."""

    def __init__(self) -> None:
        self._read_at = -math.inf
        self._factor = 1.0

    def factor(self) -> float:
        now = time.perf_counter()
        if now - self._read_at >= REF_EVERY:
            self._factor = REF_NOMINAL / min(reference_loop() for _ in range(3))
            self._read_at = time.perf_counter()
        return self._factor


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    worst = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


class Tally:
    """Attempts, failures and timings of the operations of one run."""

    def __init__(self) -> None:
        self.times: list[float] = []  # calibrated
        self.wall: list[float] = []
        self.executions = 0
        self.failed = 0
        self.wrong = 0

    def run(self, op, tracer, label: str, calibration: Calibration) -> None:
        before = calibration.factor()
        t0 = time.perf_counter()
        try:
            with tracer.op(label):
                out = op.run(tracer)
        except Exception:
            self._time(time.perf_counter() - t0, before, calibration)
            self._fail(op, traceback.format_exc())
            return
        self._time(time.perf_counter() - t0, before, calibration)
        self.executions += op.executions
        try:
            op.check(out)
        except CheckFailed as exc:
            self.wrong += 1
            self._fail(op, f"check failed: {exc}\n")
        except Exception:
            # a check that cannot even be evaluated has not confirmed the output
            self.wrong += 1
            self._fail(op, "check raised: " + traceback.format_exc())

    def _time(self, seconds: float, before: float, calibration: Calibration) -> None:
        # an operation longer than REF_EVERY is read again after it ends,
        # and scaled by the mean speed of the two readings
        self.wall.append(seconds)
        self.times.append(seconds * 0.5 * (before + calibration.factor()))

    def _fail(self, op, text: str) -> None:
        self.failed += 1
        if self.failed <= SHOWN_FAILURES:
            sys.stderr.write(f"[{type(op).__name__} {op.span}] {text}")


def measure(workload, seconds: float, tracer_for_round, first_round, min_rounds: int,
            ops_seen: list | None = None) -> list[Tally]:
    """Whole rounds until ``seconds`` pass; one tally per tracer kind.

    Operations run are appended to ``ops_seen`` when it is given.
    """
    tallies: dict[int, Tally] = {}
    calibration = Calibration()
    ops, index = first_round, 0
    start = time.perf_counter()
    while True:
        tracer = tracer_for_round(index)
        tally = tallies.setdefault(id(tracer), Tally())
        for op in ops:
            tally.run(op, tracer, f"op.{workload.name}", calibration)
        if ops_seen is not None:
            ops_seen.extend(ops)
        index += 1
        if index >= min_rounds and time.perf_counter() - start >= seconds:
            return list(tallies.values())
        ops = workload.round(index)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "klotzcbi", "__init__.py")):
        sys.stderr.write(f"bench: no library sources under {SRC}; run from a klotzcbi checkout\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)

    import klotzcbi

    if os.path.dirname(os.path.abspath(klotzcbi.__file__)) != os.path.join(SRC, "klotzcbi"):
        sys.stderr.write(f"bench: imported klotzcbi from {klotzcbi.__file__}, not from {SRC}\n")
        return 2
    import workloads
    from tracing import LAYER_METRICS, NullTracer, Tracer, layer_figures

    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        first = workload.round(0)
        setup_s = time.perf_counter() - _START
        if not args.trace:
            null = NullTracer()
            (tally,) = measure(workload, args.seconds, lambda i: null, first, 1)
            t = tally.times
            total = math.fsum(t)
            factor = total / math.fsum(tally.wall)  # the run's mean calibration
            metrics = {
                "setup_s": (setup_s * factor, "s"),
                "ops_per_s": (len(t) / total, "1/s"),
                "op_p50_ms": (statistics.median(t) * 1e3, "ms"),
                "op_p90_ms": (statistics.quantiles(t, n=10)[-1] * 1e3 if len(t) > 1 else t[0] * 1e3, "ms"),
                "executions_per_s": (tally.executions / total, "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            tallies = [tally]
            w = tally.wall
            sys.stderr.write(f"wall clock: setup_s={setup_s:.6g} ops_per_s={len(w) / math.fsum(w):.6g} "
                             f"op_p50_ms={statistics.median(w) * 1e3:.6g} calibration={factor:.4f}\n")
        else:
            # even rounds untraced, odd rounds traced: the overhead compares the two
            null, tracer = NullTracer(), Tracer()
            ops = []
            tallies = measure(workload, args.seconds, lambda i: tracer if i % 2 else null, first, 2, ops)
            import probes

            probes.run_probes(tracer, ops, args.seed, workdir)
            figures = layer_figures(tracer)
            metrics = {name: (figures[name]["value"], unit) for name, _, unit, _ in LAYER_METRICS}
            plain, traced = (statistics.fmean(x.times) for x in tallies)
            metrics["trace.overhead_pct"] = (100.0 * (traced / plain - 1.0), "%")
            tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"),
                         {"workload": args.workload, "seed": args.seed, "metrics": figures})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": all(x.wrong == 0 for x in tallies),
        "attempted": sum(len(x.times) for x in tallies),
        "failed": sum(x.failed for x in tallies),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
