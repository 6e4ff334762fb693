"""The ginv benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload mc_small_d --seed 1 --seconds 20 --trace 0

Run it from the repository root. It drives ginv through its public API
(ginv.cli.run and ginv.cli.write_result) from one process, one config at a
time: a closed loop with one caller. Workloads are listed in workloads.py;
config seeds derive from --seed. Every result is checked against closed
forms (checks.py); a config that raises or fails a check counts as failed.

With --trace 0 it reports the end-to-end metrics, measured untraced; pass
times are rescaled to a nominal machine speed by a fixed reference mix
(calibrate.py) timed between the passes of the same run. With
--trace 1 it alternates untraced and traced passes and reports per-layer
counts and self times (tracer.py), the share of the pass the traced spans
do not cover, and the tracing overhead.

It prints a table, then one JSON line with the keys correct, attempted,
failed and metrics, and writes the full record (environment, per-pass
samples, per-config result digests) to .bench_out/. It exits 2, printing
no result, when the checkout holds no ginv source tree.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_RUNS = 7  # timed fresh interpreters per run, after one warm-up
# Median time of the reference mix (calibrate.py) on the machine the baseline
# was taken on: 2 vCPUs of an Intel Xeon at 2.1 GHz, numpy 2.4.6, OpenBLAS
# on 1 thread.
REFERENCE_NOMINAL_S = 0.7
WORKER_TIMEOUT_S = 150
MODULES = ("tensor", "groups", "observables", "datasets", "models", "analysis",
           "train", "cli")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "work_per_s": "1/s",
}

# Per-layer metrics of the traced run. Counts and computed bytes are per
# pass and repeat exactly; times are medians over the traced passes.
PER_LAYER = {
    "groups.sample.calls": "count",
    "groups.sample.s": "s",
    "groups.commutant_analysis.calls": "count",
    "groups.commutant_analysis.s": "s",
    "groups.commutant_analysis.constraint_bytes": "B_computed",
    "tensor.expectation_copies.calls": "count",
    "tensor.expectation_copies.s": "s",
    "tensor.expectation_copies.obs_bytes": "B_computed",
    "tensor.partial_trace.calls": "count",
    "tensor.partial_trace.s": "s",
    "tensor.tensor_power.calls": "count",
    "tensor.tensor_power.s": "s",
    "tensor.tensor_power.bytes": "B_computed",
    "tensor.expm_hermitian.calls": "count",
    "tensor.expm_hermitian.s": "s",
    "tensor.is_unitary.calls": "count",
    "tensor.is_unitary.s": "s",
    "models.evaluate.calls": "count",
    "models.evaluate.s": "s",
    "models.conjugated_observable.calls": "count",
    "models.conjugated_observable.s": "s",
    "models.dressings": "count",
    "models.dressing_reuse": "ratio",
    "models.estimate_with_shots.calls": "count",
    "models.estimate_with_shots.s": "s",
    "models.estimate_with_shots.shots": "count",
    "observables.build.calls": "count",
    "observables.build.s": "s",
    "observables.build.bytes": "B_computed",
    "observables.oracle.calls": "count",
    "observables.oracle.s": "s",
    "datasets.generate.calls": "count",
    "datasets.generate.s": "s",
    "datasets.generate.items": "count",
    "datasets.graph_state.calls": "count",
    "datasets.graph_state.s": "s",
    "analysis.empirical_moments.calls": "count",
    "analysis.empirical_moments.s": "s",
    "analysis.empirical_moments.samples": "count",
    "analysis.classify.calls": "count",
    "analysis.classify.s": "s",
    "analysis.classify.items": "count",
    "analysis.concentration_experiment.calls": "count",
    "analysis.concentration_experiment.s": "s",
    "train.optimize.calls": "count",
    "train.optimize.s": "s",
    "train.loss_evals": "count",
    "cli.validate_config.s": "s",
    "cli.write_result.s": "s",
    "cli.write_result.bytes": "B",
    "untraced_share": "%",
    "trace_overhead_s": "s",
    "src.lines": "count",
    **{f"{m}.lines": "count" for m in MODULES},
}


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def describe_tail(values):
    """The highest order statistic with ten samples above it, as text."""
    if len(values) < 11:
        return "n/a (under 11 samples)"
    n = len(values)
    return f"p{100.0 * (n - 10) / n:.0f} {sorted(values)[n - 11]:.4f}"


def child_env(src):
    env = dict(os.environ)
    env.pop("GINV_THREADS", None)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = src
    return env


def measure_setup(cmd, env):
    """Seconds from starting a fresh interpreter to its "ready" line."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=WORKER_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0 or line.strip() != "ready":
        fail(f"setup probe exited with {proc.returncode}")
    return elapsed


def source_lines(src):
    counts = {}
    total = 0
    for name in sorted(os.listdir(os.path.join(src, "ginv"))):
        if name.endswith(".py"):
            with open(os.path.join(src, "ginv", name)) as fh:
                lines = sum(1 for _ in fh)
            total += lines
            module = name[:-3]
            if module in MODULES:
                counts[f"{module}.lines"] = lines
    counts["src.lines"] = total
    return counts


def per_layer(report, src):
    """Per-layer metrics from the traced and untraced passes."""
    traced = [p for p in report["passes"] if p["traced"]]
    plain = [p for p in report["passes"] if not p["traced"]]
    values = {}
    for name in PER_LAYER:
        samples = [p["trace"].get(name, 0) for p in traced]
        values[name] = statistics.median(samples)
    values["untraced_share"] = statistics.median(
        100.0 * (p["wall_s"] - p["trace"]["traced_s"]) / p["wall_s"] for p in traced
    )
    values["trace_overhead_s"] = statistics.median(
        p["wall_s"] for p in traced
    ) - statistics.median(p["wall_s"] for p in plain)
    values.update(source_lines(src))
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ginv", "cli.py")):
        fail(f"no ginv source tree at {src}; run from the repository root")
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {sorted(workloads.WORKLOADS)}")
    loadavg = os.getloadavg()
    env = child_env(src)
    out_dir = os.path.join(root, ".bench_out", f"{args.workload}-seed{args.seed}")
    os.makedirs(out_dir, exist_ok=True)
    worker = [sys.executable, os.path.join(HERE, "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed)]

    setup = [measure_setup(worker + ["--setup"], env) for _ in range(SETUP_RUNS + 1)][1:]
    try:
        proc = subprocess.run(
            worker + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--out", out_dir],
            env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"worker did not finish within {WORKER_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        fail(f"worker exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if os.path.dirname(report["ginv_file"]) != os.path.join(src, "ginv"):
        fail(f"imported ginv from {report['ginv_file']}, not from {src}")

    # A config fails when it raised, failed a check, or its result digest
    # differs from the first pass (results must repeat at a fixed seed).
    first = [c["digest"] for c in report["passes"][0]["configs"]]
    attempted = failed = 0
    failures = []
    for index, record in enumerate(report["passes"]):
        for config, outcome, ref in zip(report["configs"], record["configs"], first):
            problems = list(outcome["problems"])
            if outcome["digest"] != ref:
                problems.append("result digest differs from the first pass")
            attempted += 1
            if problems:
                failed += 1
                failures.append({"pass": index, "config": config, "problems": problems})

    plain = [p for p in report["passes"] if not p["traced"]]
    walls = [p["wall_s"] for p in plain]
    rates = [p["work_per_s"] for p in plain]
    # The shared machine's speed drifts by tens of percent over minutes.
    # Pass times are rescaled to the nominal speed by the reference mix
    # timed between the passes of the same run.
    reference = statistics.median(report["reference_s"])
    scale = REFERENCE_NOMINAL_S / reference
    if args.trace:
        metrics = per_layer(report, src)
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": scale * statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": report["peak_rss_kib"] / 1024.0,
            "work_per_s": statistics.median(rates) / scale,
        }
        units = END_TO_END

    env_record = {
        "python": report["python"],
        "numpy": report["numpy"],
        "blas": report["blas"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": loadavg,
        "platform": platform.platform(),
        "threads": {name: env[name] for name in THREAD_VARS},
        "GINV_THREADS": None,
    }
    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env_record,
        "setup_s": setup,
        "reference_s": report["reference_s"],
        "passes": report["passes"],
        "configs": report["configs"],
        "failures": failures,
        "metrics": metrics,
    }
    path = os.path.join(root, ".bench_out",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(full, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env: python {python}, numpy {numpy}, blas {blas}, nproc {nproc}, "
          "loadavg {loadavg_at_start}, BLAS/OpenMP threads 1, GINV_THREADS unset"
          .format(**env_record))
    for config, outcome in zip(report["configs"], report["passes"][0]["configs"]):
        status = "ok" if not outcome["problems"] else "FAIL " + "; ".join(outcome["problems"])
        print(f"  {outcome['digest'] or '-':.16}  {outcome['seconds']:8.3f} s  "
              f"{json.dumps(config, sort_keys=True)}  {status}")
    for fault in failures[:10]:
        print(f"  failed: pass {fault['pass']} {fault['config']}: {fault['problems']}")
    print(f"  reference mix {reference:.4f} s, median of {len(report['reference_s'])}; "
          f"nominal {REFERENCE_NOMINAL_S} s, so pass times scale by {scale:.4f}")
    if not args.trace:
        wall_tail, setup_tail = describe_tail(walls), describe_tail(setup)
        print(f"  {'wall_s':<18} {metrics['wall_s']:12.4f} s    median at nominal speed; "
              f"raw median {statistics.median(walls):.4f}, raw tail {wall_tail}, "
              f"n={len(walls)}")
        print(f"  {'setup_s':<18} {metrics['setup_s']:12.4f} s    median; tail {setup_tail}, "
              f"n={len(setup)}")
        print(f"  {'peak_rss_mb':<18} {metrics['peak_rss_mb']:12.1f} MiB")
        print(f"  {'fail_frac':<18} {failed / attempted:12.4f}      ({failed}/{attempted})")
        print(f"  {'work_per_s':<18} {metrics['work_per_s']:12.1f} 1/s  median "
              f"{workloads.WORK_UNITS[args.workload]} at nominal speed, raw "
              f"{statistics.median(rates):.1f}; n={len(rates)}")
    else:
        for name, value in metrics.items():
            print(f"  {name:<44} {value:16.6g} {PER_LAYER[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
