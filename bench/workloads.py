"""The benchmark's workloads: fixed lists of `ginv run` configs.

Every config seed is derived from the workload seed given on the command
line, so the same seed gives the same inputs. This module imports neither
numpy nor ginv, so the parent process stays light.
"""

import hashlib

# Each entry is the config handed to ginv.cli.run, minus its seed.
WORKLOADS = {
    # >100k Haar draws of tiny matrices: sampling and per-draw Python
    # overhead dominate, dense kernels are trivial, no commutant work.
    "mc_small_d": [
        {"experiment": "concentration", "family": "conventional_odd_y",
         "n_min": 1, "n_max": 3, "samples": 20000},
        {"experiment": "concentration", "family": "enhanced_bell",
         "n_min": 1, "n_max": 3, "samples": 20000},
        {"experiment": "time_reversal_dynamics", "n": 3},
    ],
    # Few draws against 4^n-dimensional observables: the dense
    # expectation kernel dominates, sampling is minor.
    "mc_large_d": [
        {"experiment": "concentration", "family": "enhanced_bell",
         "n_min": 4, "n_max": 4, "samples": 4000},
        {"experiment": "concentration", "family": "enhanced_bell",
         "n_min": 5, "n_max": 5, "samples": 500},
        {"experiment": "concentration", "family": "conventional_odd_y",
         "n_min": 5, "n_max": 5, "samples": 5000},
    ],
    # Per-item work: observable construction, shot estimation, dataset
    # generation and finite-difference training; little Haar sampling.
    "classify_shots": [
        {"experiment": "purity", "n": 4, "samples": 40, "shots": 100},
        {"experiment": "entanglement", "n": 4, "measure": "meyer_wallach",
         "samples": 40, "shots": 100},
        {"experiment": "entanglement", "n": 4, "measure": "ntangle", "b": 0.95},
        {"experiment": "time_reversal_states", "n": 4, "shots": 200,
         "mc_samples": 200},
        {"experiment": "time_reversal_dynamics", "n": 3, "shots": 200,
         "mc_samples": 200},
        {"experiment": "graph", "g0": "cycle4", "g1": "star4"},
        {"experiment": "ancilla", "n": 2},
    ],
    # The stacked-SVD commutant solver and nothing else.
    "commutant": [
        {"experiment": "commutant", "group": "unitary", "d": 4, "k": 2},
        {"experiment": "commutant", "group": "orthogonal", "d": 4, "k": 2},
        {"experiment": "commutant", "group": "local_unitary", "n": 2, "k": 2},
        {"experiment": "commutant", "group": "unitary", "d": 2, "k": 3},
        {"experiment": "commutant", "group": "unitary", "d": 2, "k": 4},
        {"experiment": "commutant", "group": "symmetric", "n": 4, "k": 1},
    ],
}

# Name of the throughput each workload reports as work_per_s.
WORK_UNITS = {
    "mc_small_d": "mc_samples_per_s",
    "mc_large_d": "mc_samples_per_s",
    "classify_shots": "items_per_s",
    "commutant": "elements_per_s",
}


def config_seed(workload, seed, index):
    """32-bit seed of config ``index``, derived from the workload seed."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def configs(workload, seed):
    """The workload's configs with their derived seeds."""
    return [
        dict(cfg, seed=config_seed(workload, seed, i))
        for i, cfg in enumerate(WORKLOADS[workload])
    ]
