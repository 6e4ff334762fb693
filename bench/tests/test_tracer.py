"""Self-test of the benchmark's tracer, checks and metric lists.

    python3 -m pytest bench/tests -q      (from the repository root)
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import digest, reference  # noqa: E402

from ginv import analysis, cli, models, observables  # noqa: E402

# Small configs with known totals: 2 x 50 concentration draws; 10 dataset
# unitaries and 20 moment draws; 6 items x 2 local Haar factors; 8 purity
# items drawn without the group samplers.
CONFIGS = [
    {"experiment": "concentration", "family": "conventional_odd_y",
     "n_min": 1, "n_max": 2, "samples": 50, "seed": 3},
    {"experiment": "time_reversal_dynamics", "n": 2, "samples": 10,
     "mc_samples": 20, "seed": 4},
    {"experiment": "entanglement", "n": 2, "measure": "meyer_wallach",
     "samples": 6, "seed": 5},
    {"experiment": "purity", "n": 1, "samples": 8, "seed": 6},
]
SAMPLE_CALLS = 2 * 50 + 10 + 20 + 6 * 2
CLASSIFIED = 10 + 6 + 8


def run_all(tmp_path, tracer=None):
    digests = []
    if tracer:
        tracer.install()
    try:
        for i, config in enumerate(CONFIGS):
            result = cli.run(config)
            assert checks.problems(config, result) == []
            path = tmp_path / f"{i}.json"
            cli.write_result(result, str(path))
            digests.append(digest(path))
    finally:
        if tracer:
            tracer.uninstall()
    return digests


def test_traced_counts_match_known_totals(tmp_path):
    tracer = Tracer()
    run_all(tmp_path, tracer)
    snap = tracer.snapshot()
    assert snap["groups.sample.calls"] == SAMPLE_CALLS
    assert snap["analysis.classify.calls"] == 3
    assert snap["analysis.classify.items"] == CLASSIFIED
    assert snap["datasets.generate.items"] == CLASSIFIED
    assert snap["analysis.empirical_moments.calls"] == 3
    assert snap["analysis.empirical_moments.samples"] == 2 * 50 + 20
    # exact classification of every item, the entanglement oracle
    # comparison, and the H2 moment draws, which also check unitarity
    assert snap["models.evaluate.calls"] == CLASSIFIED + 6 + 20
    assert snap["tensor.is_unitary.calls"] == 10 + 20
    assert snap["cli.validate_config.calls"] == len(CONFIGS)
    assert snap["cli.write_result.calls"] == len(CONFIGS)
    self_total = sum(v for k, v in snap.items() if k.endswith(".s"))
    assert self_total == pytest.approx(snap["traced_s"], rel=1e-9)


def test_wrappers_reach_names_bound_by_from_import():
    tracer = Tracer()
    bound = {
        "cli.classify": lambda: cli.classify,
        "cli.empirical_moments": lambda: cli.empirical_moments,
        "cli.evaluate": lambda: cli.evaluate,
        "cli.commutant_analysis": lambda: cli.commutant_analysis,
        "analysis.evaluate": lambda: analysis.evaluate,
        "analysis.expectation_copies": lambda: analysis.expectation_copies,
        "analysis.conjugated_observable": lambda: analysis.conjugated_observable,
        "models.expectation_copies": lambda: models.expectation_copies,
        "models.is_unitary": lambda: models.is_unitary,
        "ENTANGLEMENT_MEASURES": lambda: observables.ENTANGLEMENT_MEASURES["ntangle"],
    }
    originals = {name: get() for name, get in bound.items()}
    tracer.install()
    try:
        for name, get in bound.items():
            assert getattr(get(), "__wrapped_by_bench__", False), name
    finally:
        tracer.uninstall()
    for name, get in bound.items():
        assert get() is originals[name], name


def test_traced_and_untraced_results_are_identical(tmp_path):
    assert run_all(tmp_path, Tracer()) == run_all(tmp_path)


def test_dressing_reuse_counts_repeated_dressings():
    tracer = Tracer()
    tracer.install()
    try:
        cli.run({"experiment": "ancilla", "n": 1, "samples": 5, "seed": 0})
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    assert snap["models.dressings"] == 5
    assert snap["models.dressing_reuse"] == pytest.approx(1 / 5)


def test_checks_reject_wrong_results():
    config = {"experiment": "commutant", "group": "unitary", "d": 2, "k": 3,
              "seed": 1}
    result = cli.run(config)
    assert checks.problems(config, result) == []
    result["dimension"] = 6
    assert checks.problems(config, result)
    config = dict(CONFIGS[0])
    result = cli.run(config)
    result["concentration"]["rows"][1]["empirical_var"] *= 2.5
    assert checks.problems(config, result)


def test_commutant_closed_forms():
    assert [checks.unitary_commutant_dim(d, k) for d, k in
            ((4, 2), (2, 3), (2, 4), (4, 3), (2, 6))] == [2, 5, 14, 6, 132]
    assert checks.orthogonal_commutant_dim(4, 2) == 3
    assert checks.orthogonal_commutant_dim(4, 3) == 15
    assert checks.qubit_permutation_commutant_dim(4, 1) == 35
    assert checks.qubit_permutation_commutant_dim(3, 1) == 20


def test_every_workload_config_validates():
    for name in workloads.WORKLOADS:
        for config in workloads.configs(name, 0):
            cli.validate_config(dict(config))
            assert config["experiment"] in checks.CHECKS


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "commutant",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_reference_mix_times_itself_in_a_child():
    assert 0.0 < reference() < 60.0
