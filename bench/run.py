"""Benchmark runner for wittcycles.

    python3 bench/run.py --workload nf-levels --seed 1 --seconds 20 --trace 0

Runs a fixed, seeded number of whole rounds of one workload in this
process, checks every output, and prints one JSON object as its last
line: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  The program is imported from ``src/`` next to this
directory; without it the run exits with code 1 before measuring.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Seconds one round takes on the reference machine (Python 3.11.7,
# sympy 1.14.0 with pure-Python ground types, 2 cores).  A run does
# round(seconds / ROUND_SECONDS) rounds, so its work depends on --seconds
# alone and never on how fast this machine happens to be.
ROUND_SECONDS = {"nf-levels": 26.0, "gate-trials": 0.133, "curves-reciprocity": 0.475}
# p90 needs at least ten timed operations beyond it.
MIN_TIMED_OPS = 110
SETUP_PROBES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="set up and exit; used to time set-up in a fresh process")
    return p.parse_args(argv)


def import_program():
    if not os.path.isfile(os.path.join(SRC, "wittcycles", "__init__.py")):
        sys.exit("bench: no wittcycles package under %s" % SRC)
    sys.path.insert(0, SRC)
    import wittcycles
    if os.path.dirname(os.path.dirname(os.path.abspath(wittcycles.__file__))) != SRC:
        sys.exit("bench: wittcycles was imported from %s" % wittcycles.__file__)


def rounds_for(workload, seconds, ops_per_round):
    rounds = max(1, round(seconds / ROUND_SECONDS[workload]))
    return max(rounds, math.ceil(MIN_TIMED_OPS / ops_per_round))


def build(workload, seed, seconds):
    """The corpus: the operations of every round, in order."""
    import workloads
    if workload not in workloads.WORKLOADS:
        sys.exit("bench: unknown workload %r" % workload)
    ops = workloads.round_ops(workload, seed, 0)
    for r in range(1, rounds_for(workload, seconds, len(ops))):
        ops += workloads.round_ops(workload, seed, r)
    return ops


def setup_probe(args):
    """A function that times one fresh process which imports the program
    and builds this run's corpus, from interpreter start to exit."""
    argv = [sys.executable, os.path.abspath(__file__), "--probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]

    def probe():
        t0 = time.perf_counter()
        # a blocking wait: with a timeout, Popen.wait polls in steps of up
        # to 50 ms, which would quantize the measurement
        with subprocess.Popen(argv, stdout=subprocess.DEVNULL) as child:
            code = child.wait()
        elapsed = time.perf_counter() - t0
        if code:
            sys.exit("bench: set-up probe exited with code %d" % code)
        return elapsed
    return probe


def environment():
    import sympy
    from sympy.external.gmpy import GROUND_TYPES
    return {"python": platform.python_version(), "sympy": sympy.__version__,
            "ground_types": GROUND_TYPES, "cores": os.cpu_count(),
            "hash_seed": os.environ.get("PYTHONHASHSEED")}


def run_ops(ops, tracer, probe):
    """Run every operation; returns (attempted, failed, wrong, latencies,
    total timed seconds, set-up times).  Checks run outside the timed span;
    the set-up probes, when given, are spread evenly over the run so that
    their median sees the machine as the operations do."""
    attempted = failed = wrong = 0
    latencies = []
    setups = []
    probe_at = {len(ops) * i // SETUP_PROBES for i in range(SETUP_PROBES)} \
        if probe else ()
    timed = 0.0
    perf = time.perf_counter
    for index, op in enumerate(ops):
        if index in probe_at:
            setups.append(probe())
        attempted += 1
        if tracer:
            tracer.begin()
        t0 = perf()
        try:
            result = op.run()
            error = None
        except Exception as exc:  # a failed operation, not a failed run
            error = exc
        dt = perf() - t0
        if tracer:
            tracer.end(op.kind)
        timed += dt
        if error is not None:
            failed += 1
            print("failed: %s: %s" % (op.kind, type(error).__name__))
            continue
        try:
            ok = op.check(result)
        except Exception as exc:  # malformed output is a wrong output
            print("check raised on %s: %r" % (op.kind, exc))
            ok = False
        if not ok:
            failed += 1
            wrong += 1
            print("wrong: %s" % op.kind)
            continue
        latencies.append(dt)
    return attempted, failed, wrong, latencies, timed, setups


def main(argv=None):
    args = parse_args(argv)
    import_program()
    ops = build(args.workload, args.seed, args.seconds)
    if args.probe:
        os._exit(0)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    tracer = probe = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    else:
        probe = setup_probe(args)
    attempted, failed, wrong, lat, timed, setups = run_ops(ops, tracer, probe)
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, "trace-%s-%d.jsonl" % (args.workload, args.seed)))
        units = {"calls": "count", "frac_results": "count", "self_s": "s"}
        metrics = {name: {"value": value, "unit": units[name.rpartition(".")[2]]}
                   for name, value in tracer.metrics().items()}
    else:
        if len(lat) < 2:
            sys.exit("bench: only %d operations succeeded" % len(lat))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": (attempted - failed) / timed, "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
            "op_p90_ms": {"value": statistics.quantiles(lat, n=10)[-1] * 1e3,
                          "unit": "ms"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    print("timed %.3f s over %d operations, %d failed" % (timed, attempted, failed))
    for name, m in metrics.items():
        print("%-36s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
