"""Benchmark of the nashblowup package.

Usage, from the repository root:

    python3 perfbench/run.py --workload curve-limits --seed 1 --seconds 36 --trace 0

One single-threaded process runs one workload (see perf_workloads.py) as a
closed loop with one client: each case (one CLI call or one library query)
starts when the previous one has returned.  A pass runs every case of the
workload's seeded inputs once.  Passes repeat while the next one is expected
to end within --seconds; there is always at least one.  The first pass's
outputs are checked after the timed loop, and every later pass must repeat
them exactly.

An op is what ops_per_s and the op latency percentiles count: one case,
except on curve-limits, where an op is the pass over all five curves and a
single curve is a case.  solve_s is the median pass time.  slowest_case_s
is the slowest case, and op_p50_ms and op_p95_ms are percentiles over the
ops of one pass, each case or op timed as its median over passes.

setup_s is the median of several set-ups, each a fresh import, input
generation and warm-up on seed-independent inputs.

--trace 0 reports the end-to-end metrics, with no tracing installed.  Their
times are read from a RefClock (ref_clock.py), in reference seconds: wall
seconds scaled by the processor's speed, measured while they run, so that
the machine's drift in speed does not show as a change of the package.  The
wall-clock solve time and the machine's speed are printed beside them.
--trace 1 runs exactly one pass with every public function of the package
wrapped (perf_tracer.py) and reports per-function calls, self time and
counts; the counts repeat exactly for a given seed.  Its times are in
reference seconds too, so that trace.solve_s minus an untraced solve_s is
the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when the run
completed, whether or not every output was correct, and 2 when the
package source is missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import perf_workloads as wl
from perf_tracer import Tracer
from ref_clock import RefClock

SETUP_REPEATS = 21


def load_spec() -> dict:
    """BENCHMARK.json: the metrics to report and their units."""
    with open(wl.HERE.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def set_up(workload, seed: int, clock):
    """Import the package, generate the inputs and warm up; timed."""
    wl.drop_package()
    gc.collect()  # start each set-up from the same heap
    start = clock()
    nb = wl.load_package()
    cases = workload.inputs(nb, seed)
    workload.warm_up(nb, cases)
    return clock() - start, nb, cases


def run_pass(workload, nb, cases, take, clock) -> list[float]:
    """Run every case once and return the latencies.  Each output (None where
    the case raised) goes to take(k, output) as soon as it is timed."""
    latencies = []
    for k, case in enumerate(cases):
        start = clock()
        try:
            out = workload.run(nb, case)
        except Exception:
            traceback.print_exc()
            out = None
        latencies.append(clock() - start)
        take(k, out)
    return latencies


def imported_from_source(nb) -> bool:
    if Path(nb.cli.__file__).resolve().is_relative_to(wl.SRC):
        return True
    print(f"imported the package from {nb.cli.__file__}, not {wl.SRC}", file=sys.stderr)
    return False


def check_outputs(workload, nb, cases, outputs: list) -> int:
    """Number of cases whose output is missing or wrong."""
    goldens = wl.load_goldens()
    failed = 0
    for k, (case, out) in enumerate(zip(cases, outputs)):
        try:
            reason = "raised" if out is None else workload.check(nb, case, out, goldens)
        except Exception:
            traceback.print_exc()
            reason = "check raised"
        if reason is not None:
            failed += 1
            print(f"case {k} failed: {reason}", file=sys.stderr)
    return failed


def percentile(values: list, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (wl.SRC / wl.PACKAGE / "__init__.py").is_file():
        print(f"package source not found under {wl.SRC}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]

    outputs, mismatched = [], []

    # the first pass is checked against the goldens; a later pass must repeat
    # it case by case and keeps no outputs, so memory does not grow with the
    # number of passes
    def keep(k, out):
        outputs.append(out)

    def compare(k, out):
        if out is None or out != outputs[k]:
            mismatched.append(k)

    with RefClock() as clock:
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            elapsed, nb, cases = set_up(workload, args.seed, clock.now)
            setups.append(elapsed)
        if not imported_from_source(nb):
            return 2
        tracer = Tracer(clock.now)
        start, ref_start = perf_counter(), clock.now()
        latencies, pass_times, wall_passes = [], [], []
        # traced, exactly one pass; else another pass only if it should end
        # within --seconds
        while not wall_passes or (
                not args.trace and perf_counter() - start + wall_passes[-1] <= args.seconds):
            pass_start = perf_counter()
            with tracer.installed() if args.trace else nullcontext():
                more = run_pass(workload, nb, cases, compare if latencies else keep, clock.now)
            wall_passes.append(perf_counter() - pass_start)
            latencies += more
            pass_times.append(sum(more))
        speed = (clock.now() - ref_start) / (perf_counter() - start)
    # before the output checks, which compute bases of their own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = check_outputs(workload, nb, cases, outputs) + len(mismatched)
    attempted = len(latencies)
    spec = load_spec()

    if args.trace:
        values = {"trace.solve_s": pass_times[0],
                  "trace.unspanned_s": pass_times[0] - tracer.root_s}
        for metric in spec["per_layer"]:
            if metric["name"] in values:
                continue
            # 'module.function.field', a field of FunctionStats or a counter
            name, field = metric["name"].rsplit(".", 1)
            st = tracer.stats.get(name)
            if field == "calls":
                values[metric["name"]] = st.calls if st else 0
            elif field == "self_s":
                values[metric["name"]] = st.self_s if st else 0.0
            else:
                values[metric["name"]] = st.counters.get(field, 0) if st else 0
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["per_layer"]}
        for line in tracer.table():
            print(line)
    else:
        per_op = workload.cases_per_op
        op_latencies = [sum(latencies[i:i + per_op])
                        for i in range(0, len(latencies), per_op)]
        # each op timed as its median over the passes, so that the
        # percentiles spread over the ops rather than over the moments of
        # the run at which they happened to run
        ops = len(cases) // per_op
        op_medians = [statistics.median(op_latencies[k::ops]) for k in range(ops)]
        values = {
            "solve_s": statistics.median(pass_times),
            "slowest_case_s": max(statistics.median(latencies[k::len(cases)])
                                  for k in range(len(cases))),
            "ops_per_s": len(op_latencies) / sum(op_latencies),
            "op_p50_ms": statistics.median(op_medians) * 1e3,
            "op_p95_ms": percentile(op_medians, 95) * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
        for name, (value, unit) in metrics.items():
            print(f"{name:16s} {value:14.6f} {unit}")
        print(f"{'samples':16s} {len(op_latencies):14d} ops, {len(latencies)} cases "
              f"in {len(pass_times)} passes; percentiles over {ops} ops")
    print(f"{'wall solve_s':16s} {statistics.median(wall_passes):14.6f} s of wall time, "
          f"at {speed:.3f} reference seconds per wall second")
    print(f"{'fail_ratio':16s} {failed / attempted:14.6f} ({failed} of {attempted} cases)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
