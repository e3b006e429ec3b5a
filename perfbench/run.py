"""Benchmark of bandtopo: certified invariants, a CLI phase sweep and the
paper's constructions, each checked against independent references.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. With ``--workload`` it runs that workload in
this process and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Without it, it runs
every workload, each in its own process, and prints each one's result.

``--trace 0`` times whole passes and reports the end-to-end metrics.
``--trace 1`` makes one untraced pass, then one pass with every layer of the
package wrapped, and reports the per-layer metrics and the tracing overhead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# one BLAS thread: the matrices are 4x4 and 8x8, and threading them measures
# OpenBLAS, not the program
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NAMES = ("z2-random", "km-sweep", "split-frame")
SETUP_REPEATS = 3  # set-ups per pass of an untraced run; the median is reported
IMPORT_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import bandtopo from this checkout's sources; returns the median time
    of IMPORT_REPEATS imports, each in a fresh interpreter."""
    if not os.path.isfile(os.path.join(SRC, "bandtopo", "__init__.py")):
        sys.exit(f"run.py: no bandtopo sources under {SRC}; run from a checkout root")
    # leave no bytecode behind, so that every run of a fresh checkout
    # compiles the package the same way
    sys.dont_write_bytecode = True
    timer = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
             "t = time.perf_counter(); import bandtopo; print(time.perf_counter() - t)")
    times = [
        float(subprocess.run([sys.executable, "-B", "-c", timer, SRC], check=True,
                             stdout=subprocess.PIPE, text=True).stdout)
        for _ in range(IMPORT_REPEATS)
    ]
    sys.path.insert(0, SRC)
    import bandtopo

    if os.path.dirname(os.path.abspath(bandtopo.__file__)) != os.path.join(SRC, "bandtopo"):
        sys.exit(f"run.py: imported bandtopo from {bandtopo.__file__}, not from {SRC}")
    return statistics.median(times)


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Totals:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, ops, problems):
        from workloads import tally

        attempted, failed = tally(ops, problems)
        self.attempted += attempted
        self.failed += failed
        self.problems += [f"{name}: {msg}" for name, msgs in problems.items() for msg in msgs]


def one_pass(workload, spec, totals, tracer=None, setup_repeats=1):
    """Set up, run the timed calls, check; returns (setup s, wall s, stage s).

    The set-up is made ``setup_repeats`` times and its median time returned;
    the last set-up's inputs are used. A tracer, if given, is installed for
    the set-up and the timed calls only, not for the oracles and checks."""
    setups = []
    for _ in range(setup_repeats - 1):
        started = time.perf_counter()
        spare = workload.setup(spec)
        setups.append(time.perf_counter() - started)
        workload.cleanup(spare)
    if tracer is not None:
        tracer.install()
    try:
        started = time.perf_counter()
        inputs = workload.setup(spec)
        setups.append(time.perf_counter() - started)
        started = time.perf_counter()
        ops = workload.run(inputs)
        wall_s = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.uninstall()
    from workloads import describe

    for op in ops:
        print(f"    {describe(op)}")
    try:
        oracles = workload.oracles(spec, inputs, ops)
        totals.add(ops, workload.check(spec, inputs, ops, oracles))
    finally:
        workload.cleanup(inputs)
    stages = {stage: sum(op.seconds for op in ops if op.stage == stage)
              for stage in workload.stages}
    return statistics.median(setups), wall_s, stages


def make_workload(name):
    from workloads import KmSweep, WORKLOADS

    if name == "km-sweep":
        return KmSweep(os.path.join(ROOT, ".perfbench_out"))
    return WORKLOADS[name]()


def run_workload(args):
    import_s = import_package()
    workload = make_workload(args.workload)
    started = time.perf_counter()
    spec = workload.generate(args.seed)
    print(f"{args.workload}: inputs for seed {args.seed} chosen in "
          f"{time.perf_counter() - started:.2f} s", flush=True)
    totals = Totals()

    if args.trace:
        from layertrace import Tracer

        _, untraced_wall, stages = one_pass(workload, spec, totals)
        tracer = Tracer()
        _, traced_wall, _ = one_pass(workload, spec, totals, tracer)
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        for stage in ("chern", "delta", "wilson_z2", "sweep", "split", "frame", "equivalence"):
            metrics[f"stage.{stage}_s"] = (stages.get(stage, 0.0), "s")
        print(f"  untraced wall {untraced_wall:.3f} s, traced wall {traced_wall:.3f} s")
    else:
        setups, walls, stage_runs = [], [], []
        started = time.perf_counter()
        while True:
            setup_s, wall_s, stages = one_pass(workload, spec, totals,
                                               setup_repeats=SETUP_REPEATS)
            setups.append(setup_s)
            walls.append(wall_s)
            stage_runs.append(stages)
            print(f"  pass {len(walls)}: set-up {setup_s:.3f} s, timed {wall_s:.3f} s, "
                  + ", ".join(f"{k} {v:.3f} s" for k, v in stages.items()), flush=True)
            if time.perf_counter() - started >= args.seconds:
                break
        metrics = {
            "setup_s": (import_s + statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        for stage in workload.stages:
            print(f"  {stage}_s = {statistics.median(s[stage] for s in stage_runs):.4f} s"
                  f" (median of {len(walls)} passes)")

    for problem in totals.problems:
        print(f"  FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  attempted {totals.attempted}, failed {totals.failed}")
    result = {
        "correct": not totals.problems,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args):
    """Every workload, each in a fresh process of its own."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            print(f"{name}: exited with code {proc.returncode}")
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
