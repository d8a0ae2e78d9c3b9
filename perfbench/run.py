"""sdnop benchmark: one workload per run, in one process, one caller.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; sdnop is imported from ./src.
With ``--trace 0`` the run sets up its inputs (three times, to report
the median set-up), runs whole rounds of operations for ``--seconds``
seconds (closed loop: the next operation starts when the previous one
returns) and reports the end-to-end metrics.  With ``--trace 1`` it
runs the same untraced loop, then replays the first round twice under
the tracer, each traced operation next to an untraced twin, reports the
per-layer metrics and the tracing overhead, and marks the run incorrect
if the two traced passes disagree on any exact count.

Every output is checked by independent code outside the timed region.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os
import time

T_START = time.perf_counter()

# One BLAS thread: the default pool doubles the CPU used per solve for the
# same wall time and changes the iterates in the last digits.  This must
# happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import clock  # noqa: E402
import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("solve", "sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2 ** 32:
        ap.error("--seed must lie in [0, 2**32)")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def import_sdnop():
    """Import the package from this checkout's source tree, or exit."""
    if not os.path.isfile(os.path.join(SRC, "sdnop", "__init__.py")):
        sys.exit(f"benchmark: no sdnop sources under {SRC}")
    sys.path.insert(0, SRC)
    import sdnop
    if not os.path.abspath(sdnop.__file__).startswith(SRC + os.sep):
        sys.exit(f"benchmark: sdnop imported from {sdnop.__file__}, "
                 f"not from {SRC}")


# Set-up runs this many times per run; setup_s takes the median.
SETUP_REPEATS = 3


class Tally:
    """Operations attempted and failed, timings, and check problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.times = {}    # key -> clock.SegmentMin

    def check(self, workload, key, rnd, result):
        attempted, failed, problems = workload.check(key, rnd, result)
        self.attempted += attempted
        self.failed += failed
        self.problems += [f"{workload.name} key {key} round {rnd}: {p}"
                          for p in problems]

    def time(self, key, interval, ticks):
        self.times.setdefault(key, clock.SegmentMin()).add(*interval, ticks)

    def op_seconds(self):
        """Mean over the round's inputs of each input's fastest time.

        The host's speed changes within a fraction of a second (other
        tenants share the CPU), which moves the median of a run, and
        even the fastest whole operation, by up to a quarter.  Each
        input's time is the sum of the fastest times of its segments
        between stamped calls (see ``clock``): the time the code takes
        when the host lets it run.  Inputs differ in cost, so each input
        gets its own estimate before the mean.
        """
        return statistics.fmean(b.seconds() for b in self.times.values())

    def describe(self):
        best = self.times.values()
        segs = [b.segments for b in best]
        reps = [b.repeats for b in best]
        return (f"  {len(segs)} inputs, {min(reps)}-{max(reps)} repeats, "
                f"{min(segs)}-{max(segs)} segments (longest "
                f"{1e3 * max(b.longest for b in best):.3g} ms), "
                f"{sum(b.misaligned for b in best)} misaligned repeats; "
                f"fastest whole operation "
                f"{statistics.fmean(b.fastest_whole for b in best):.6g} s")


def timed_loop(workload, seconds):
    tally = Tally()
    stamps = clock.Checkpoints()
    start = time.perf_counter()
    rnd = 0
    with stamps.installed():
        while rnd == 0 or time.perf_counter() - start < seconds:
            for key in workload.keys():
                stamps.clear()
                interval, result = workload.op(key, rnd)
                tally.time(key, interval, list(stamps.ticks))
                tally.check(workload, key, rnd, result)
            rnd += 1
    return tally, rnd


def traced_pass(workload, tally, untraced):
    """Replay round 0 under the tracer; checks run outside the tracer.

    Each traced operation follows an untraced run of the same operation,
    so the overhead compares two times taken moments apart.
    """
    tracer = tracing.Tracer()
    for key in workload.keys():
        (t0, t1), result = workload.op(key, 0)
        tally.check(workload, key, 0, result)
        untraced.setdefault(key, []).append(t1 - t0)
        with tracer.installed(), tracer.span("bench.op"):
            _, result = workload.op(key, 0)
        tally.check(workload, key, 0, result)
    return tracer


def trace_metrics(workload, setup_tracer, tally):
    """Per-layer metrics from two traced passes over round 0."""
    untraced = {}
    passes = [traced_pass(workload, tally, untraced) for _ in range(2)]
    sig = [tracing.signature(p.spans) for p in passes]
    if sig[0] != sig[1]:
        diff = sorted(str(k) for k in set(sig[0]) | set(sig[1])
                      if sig[0].get(k) != sig[1].get(k))
        tally.problems.append("traced passes disagree on counts: "
                              + ", ".join(diff[:5]))
    ops = len(workload.keys())
    per_pass = [tracing.layer_metrics(p.spans, ops) for p in passes]
    metrics = {k: statistics.fmean(m[k] for m in per_pass)
               for k in per_pass[0]}
    metrics.update(tracing.generator_metrics(setup_tracer.spans))
    traced = statistics.fmean(
        min(pair) for pair in zip(*(tracing.op_times(p.spans)
                                    for p in passes)))
    plain = statistics.fmean(min(ts) for ts in untraced.values())
    metrics["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
    passes[0].dump(os.path.join(OUT, f"spans-{workload.name}.json"))
    return metrics


def unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_per_newton_step"):
        return "1/step"
    if name.endswith("_dim"):
        return "dim"
    return "count"


def main(argv=None):
    args = parse_args(argv)
    import_sdnop()
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    import_s = time.perf_counter() - T_START
    setup_tracer = tracing.Tracer()
    setups = []
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if args.trace and rep == 0:
            with setup_tracer.installed():
                workload.setup()
        else:
            workload.setup()
        workload.op(next(iter(workload.keys())), 0)  # warm-up
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    tally, rounds = timed_loop(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        values = trace_metrics(workload, setup_tracer, tally)
    else:
        values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
                  "op_s": tally.op_seconds()}
    metrics = {k: {"value": v, "unit": unit(k)} for k, v in values.items()}

    print(tally.describe())
    for problem in tally.problems[:20]:
        print("CHECK FAILED:", problem, file=sys.stderr)
    print(f"workload {workload.name} seed {args.seed}: {rounds} rounds, "
          f"{tally.attempted} operations attempted, {tally.failed} failed, "
          f"{len(tally.problems)} check failures")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
