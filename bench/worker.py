"""Child process of the benchmark: drives one workload through ginv.cli.

    python3 bench/worker.py --workload W --seed S --setup
        imports ginv, validates every config of W, prints "ready" and exits;
        the parent times this from process start (setup_s).
    python3 bench/worker.py --workload W --seed S --seconds T --trace 0|1 --out DIR
        runs passes over W's configs for at least T seconds, times the
        reference mix before and after each pass, and prints one JSON line
        with the pass and reference times, checks, digests and trace counters.

run.py starts it with ginv's source tree on PYTHONPATH and the BLAS and
OpenMP thread counts pinned to 1; it is not meant to be started by hand.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import workloads  # noqa: E402

def digest(path):
    """sha256 of the result file re-serialised without wall_time_s."""
    with open(path) as fh:
        result = json.load(fh)
    result.pop("wall_time_s", None)
    text = json.dumps(result, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(cli, configs, out_dir, unit):
    """One timed pass: run, write and check every config in order."""
    outcomes = []
    gc.collect()  # leave no garbage of the previous pass to this one
    start = time.perf_counter()
    for i, config in enumerate(configs):
        t0 = time.perf_counter()
        path = os.path.join(out_dir, f"config{i}.json")
        try:
            result = cli.run(config)
            cli.write_result(result, path)
            problems = checks.problems(config, result)
        except Exception as exc:  # a failing config must not stop the pass
            result = None
            problems = [f"raised {type(exc).__name__}: {exc}"]
        outcomes.append((result, path, problems, time.perf_counter() - t0))
    wall = time.perf_counter() - start

    units = busy = 0.0
    configs_out = []
    for config, (result, path, problems, seconds) in zip(configs, outcomes):
        amount = checks.work(config, result)[unit] if result else 0
        if amount:
            units += amount
            busy += seconds
        configs_out.append({
            "seconds": seconds,
            "problems": problems,
            "digest": digest(path) if result is not None else None,
        })
    return {
        "wall_s": wall,
        "work_per_s": units / busy if busy else 0.0,
        "configs": configs_out,
    }


def reference():
    """Seconds of the reference mix, timed in a child process now."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "calibrate.py")
    out = subprocess.run([sys.executable, script], capture_output=True, text=True,
                         check=True, timeout=60)
    return float(out.stdout)


def blas_info():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".")
    args = parser.parse_args()

    from ginv import cli

    configs = workloads.configs(args.workload, args.seed)
    for config in configs:
        cli.validate_config(dict(config))
    if args.setup:
        print("ready", flush=True)
        return 0

    import numpy as np

    from tracer import Tracer

    unit = workloads.WORK_UNITS[args.workload]
    tracer = Tracer() if args.trace else None
    passes = []
    refs = [reference()]
    start = time.perf_counter()
    while True:
        traced = bool(tracer) and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            record = run_pass(cli, configs, args.out, unit)
        finally:
            if traced:
                tracer.uninstall()
        record["traced"] = traced
        record["trace"] = tracer.snapshot() if traced else None
        passes.append(record)
        refs.append(reference())
        enough = time.perf_counter() - start >= args.seconds
        if enough and (not tracer or len(passes) >= 2):
            break

    print(json.dumps({
        "ginv_file": os.path.abspath(cli.__file__),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "configs": configs,
        "passes": passes,
        "reference_s": refs,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
