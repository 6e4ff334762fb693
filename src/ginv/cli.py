"""Command-line experiment runner.

    ginv run --experiment purity --n 2 --b 0.5 --samples 100 --seed 7
    ginv report result.json --format csv

Each run writes one self-contained JSON result (schema 1). Results are
byte-identical across reruns of the same config except for the wall_time_s
field. Exit codes: 0 success, 2 config validation error, 3 runtime error.
"""

import argparse
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict

import numpy as np

from . import __version__, analysis, datasets, models, observables
from .analysis import (
    MidpointRule,
    ThresholdRule,
    classify,
    concentration_experiment,
    empirical_moments,
)
from .groups import (
    MAX_COMMUTANT_DIM,
    LocalUnitarySampler,
    OrthogonalSampler,
    SymmetricSampler,
    UnitarySampler,
    commutant_analysis,
)
from .models import IdentityAnsatz, ModelSpec, evaluate, swap_test_model
from .tensor import bell_state, dm, kron, random_statevector, zero_state
from .train import TrainConfig, graph_invariant_model, optimize


class ConfigError(ValueError):
    """Invalid or unknown experiment configuration."""


GRAPH_PRESETS = {
    "triangle": datasets.Graph(3, {(0, 1), (1, 2), (0, 2)}),
    "path3": datasets.Graph(3, {(0, 1), (1, 2)}),
    "cycle4": datasets.Graph(4, {(0, 1), (1, 2), (2, 3), (0, 3)}),
    "star4": datasets.Graph(4, {(0, 1), (0, 2), (0, 3)}),
}

# Per-experiment config schema: field -> (type, default). None means required.
SCHEMAS = {
    "purity": {"n": (int, 2), "b": (float, 0.5), "samples": (int, 100)},
    "time_reversal_states": {
        "n": (int, 2),
        "samples": (int, 200),
        "observable": (str, "odd_y"),  # odd_y | bell
        "eps": (float, None),
        "mc_samples": (int, 20000),
    },
    "time_reversal_dynamics": {
        "n": (int, 3),
        "samples": (int, 200),
        "eps": (float, 0.1),
        "mc_samples": (int, 20000),
    },
    "entanglement": {
        "n": (int, 3),
        "b": (float, 0.5),
        "measure": (str, "meyer_wallach"),
        "samples": (int, 100),
    },
    "graph": {
        "g0": (str, "triangle"),
        "g1": (str, "path3"),
        "t": (float, 1.0),
        "samples": (int, 100),
        "iterations": (int, 60),
        "learning_rate": (float, 0.5),
    },
    "commutant": {
        "group": (str, "unitary"),  # unitary | orthogonal | local_unitary | symmetric
        "n": (int, None),
        "d": (int, 4),  # ignored by local_unitary/symmetric, which need --n
        "k": (int, 2),
        "trials": (int, 20),
    },
    "concentration": {
        "family": (str, "conventional_odd_y"),
        "n_min": (int, 1),
        "n_max": (int, 5),
        "samples": (int, 20000),
    },
    "ancilla": {"n": (int, 1), "samples": (int, 50)},
}

COMMON_FIELDS = {"experiment", "seed", "shots", "output"}

# Fields that take an explicit null besides those whose default is null:
# a null commutant d means d = 2**n.
NULLABLE = {("commutant", "d")}

# Smallest value of each count field; below it a run fails or reports nothing.
# Purity and entanglement samples have none: one item names the absent class.
MINIMUMS = {
    "purity": {"n": 1},
    "time_reversal_states": {"n": 1, "samples": 1, "mc_samples": 2},
    "time_reversal_dynamics": {"n": 1, "samples": 1, "mc_samples": 2},
    "entanglement": {"n": 1},
    "graph": {"samples": 1, "iterations": 1},
    "commutant": {"n": 1, "d": 1, "k": 1, "trials": 1},
    "concentration": {"n_min": 1, "samples": 2},
    "ancilla": {"n": 1, "samples": 1},
}

# Every field `ginv run` takes as a flag, with its type.
RUN_FIELDS = {"seed": int, "shots": int} | {
    name: typ for schema in SCHEMAS.values() for name, (typ, _) in schema.items()
}


def validate_config(raw):
    """Normalise a raw config dict against the experiment schema."""
    if "experiment" not in raw:
        raise ConfigError("missing required field 'experiment'")
    experiment = raw["experiment"]
    if experiment not in SCHEMAS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; choose from {sorted(SCHEMAS)}"
        )
    schema = SCHEMAS[experiment]
    unknown = set(raw) - COMMON_FIELDS - set(schema)
    if unknown:
        raise ConfigError(f"unknown config fields for {experiment}: {sorted(unknown)}")
    config = {
        "experiment": experiment,
        "seed": _coerce("seed", int, raw.get("seed", 0)),
        "shots": _coerce("shots", int, raw.get("shots", 0)),
    }
    if config["shots"] < 0:
        raise ConfigError("shots must be >= 0")
    for name, (typ, default) in schema.items():
        value = raw.get(name, default)
        if value is None and default is not None and (experiment, name) not in NULLABLE:
            raise ConfigError(f"field {name}: expected a value, got null")
        config[name] = None if value is None else _coerce(name, typ, value)
        low = MINIMUMS[experiment].get(name)
        if low is not None and config[name] is not None and config[name] < low:
            raise ConfigError(f"field {name}: must be >= {low}, got {config[name]}")
    if experiment == "concentration" and config["n_min"] > config["n_max"]:
        raise ConfigError(
            f"need n_min <= n_max, got n_min={config['n_min']}, n_max={config['n_max']}"
        )
    if experiment == "commutant":
        d, k = _group_degree(config["group"], config["n"], config["d"]), config["k"]
        # in logarithms, so that a huge k is refused without computing d^k
        if k * math.log2(d) > math.log2(MAX_COMMUTANT_DIM):
            raise ConfigError(
                f"commutant too large: d^k = {d}^{k} exceeds {MAX_COMMUTANT_DIM}"
            )
    return config


def _coerce(name, typ, value):
    """typ(value); a numeric field refuses booleans, an int field also
    non-integral floats, a float field NaN and infinities."""
    fractional = isinstance(value, float) and not value.is_integer()
    if typ is int and (isinstance(value, bool) or fractional):
        raise ConfigError(f"field {name}: expected an integer, got {value!r}")
    if typ is float and isinstance(value, bool):
        raise ConfigError(f"field {name}: expected a number, got {value!r}")
    try:
        value = typ(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field {name}: {exc}") from exc
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"field {name}: expected a finite number, got {value!r}")
    return value


# Group name -> (sampler, size field). U(d) and O(d) act on d dimensions,
# 2**n when d is null; local unitaries and permutations act on n qubits.
SAMPLERS = {
    "unitary": (UnitarySampler, "d"),
    "orthogonal": (OrthogonalSampler, "d"),
    "local_unitary": (LocalUnitarySampler, "n"),
    "symmetric": (SymmetricSampler, "n"),
}


def _group_degree(group, n, d):
    """Dimension the group's elements act on, from --n and --d."""
    if group not in SAMPLERS:
        raise ConfigError(f"unknown group {group!r}")
    if SAMPLERS[group][1] == "n":
        if n is None:
            raise ConfigError(f"{group} group needs --n")
        return 2**n
    if n is not None and d is not None and d != 2**n:
        raise ConfigError(
            f"{group} group: --n {n} means d = {2**n}, but d = {d}; pass --d {2**n}"
        )
    if d is None and not n:
        raise ConfigError(f"{group} group needs --d or --n")
    return 2**n if d is None else d


def _resolve_graph(name):
    if name in GRAPH_PRESETS:
        return GRAPH_PRESETS[name]
    try:
        d = json.loads(name)
        return datasets.Graph(d["n"], {tuple(e) for e in d["edges"]})
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(
            f"graph {name!r} is neither a preset {sorted(GRAPH_PRESETS)} "
            f'nor inline JSON {{"n": ..., "edges": [[j, k], ...]}} ({exc})'
        ) from exc


# ---------------------------------------------------------------------------
# Experiment runners. Each returns a JSON-serialisable payload.


def run_purity(config, rng):
    n = config["n"]
    data = datasets.purity_dataset(n, config["samples"], config["b"], rng)
    model = ModelSpec("H1", 2, IdentityAnsatz(4**n), observables.swap_operator(n))
    report = classify(data, model, MidpointRule(), shots=config["shots"], rng=rng)
    return {"classification": asdict(report)}


def run_time_reversal_states(config, rng):
    n = config["n"]
    d = 2**n
    data = datasets.time_reversal_state_dataset(n, config["samples"], rng)
    if config["observable"] == "bell":
        model = ModelSpec("H1", 2, IdentityAnsatz(d * d), observables.bell_projector(n))
        c = 1.0 / d
    elif config["observable"] == "odd_y":
        obs, _ = observables.pauli_string("Y" + "I" * (n - 1))
        model = ModelSpec("H1", 1, IdentityAnsatz(d), obs)
        c = 0.0
    else:
        raise ConfigError(f"observable must be odd_y or bell, got {config['observable']!r}")
    eps = config["eps"]
    if eps is None:
        # tight for exact values, half the class value under shot noise
        eps = 1.0 / (2 * d) if config["shots"] > 0 else 1e-8
    report = classify(data, model, ThresholdRule(c, eps), shots=config["shots"], rng=rng)
    moments = empirical_moments(
        model,
        UnitarySampler(d, config["seed"] + 1),
        dm(zero_state(n)),
        config["mc_samples"],
    )
    return {
        "classification": asdict(report),
        "moments": asdict(moments),
        "threshold": {"c": c, "eps": eps},
    }


def run_time_reversal_dynamics(config, rng):
    n = config["n"]
    d = 2**n
    data = datasets.time_reversal_dynamics_dataset(n, config["samples"], rng)
    model = ModelSpec(
        "H2",
        2,
        IdentityAnsatz(d * d),
        observables.bell_projector(n),
        psi_in=bell_state(n),
    )
    report = classify(
        data, model, ThresholdRule(1.0, config["eps"]), shots=config["shots"], rng=rng
    )
    moments = empirical_moments(
        model,
        UnitarySampler(d, config["seed"] + 1),
        None,
        config["mc_samples"],
    )
    return {
        "classification": asdict(report),
        "moments": asdict(moments),
    }


def run_entanglement(config, rng):
    n = config["n"]
    measure = config["measure"]
    data = datasets.entanglement_dataset(n, config["samples"], config["b"], measure, rng)
    obs = observables.entanglement_observable(measure, n)
    model = ModelSpec("H1", 2, IdentityAnsatz(4**n), obs)
    report = classify(data, model, MidpointRule(), shots=config["shots"], rng=rng)
    oracle = observables.ENTANGLEMENT_MEASURES[measure]
    max_oracle_dev = max(
        abs(evaluate(model, item.state) - oracle(item.state)) for item in data
    )
    return {
        "classification": asdict(report),
        "max_oracle_deviation": max_oracle_dev,
    }


def run_graph(config, rng):
    g0 = _resolve_graph(config["g0"])
    g1 = _resolve_graph(config["g1"])
    t = config["t"]
    if g0.n != g1.n:
        raise ConfigError("reference graphs must have the same node count")
    n = g0.n
    # One representative per class suffices: the trained model is exactly
    # permutation-invariant, so its value is constant on each class.
    reps = [
        datasets.LabeledState(datasets.graph_state(g0, t), 0),
        datasets.LabeledState(datasets.graph_state(g1, t), 1),
    ]
    trainable = graph_invariant_model(n)
    train_config = TrainConfig(config["learning_rate"], config["iterations"])
    result = optimize(trainable, reps, train_config)
    h0 = trainable.value_fn(result.theta, reps[0].state)
    h1 = trainable.value_fn(result.theta, reps[1].state)
    test = datasets.graph_dataset(g0, g1, config["samples"], t, rng)
    midpoint = (h0 + h1) / 2
    correct = 0
    for item in test:
        value = trainable.value_fn(result.theta, item.state)
        pred = int(value > midpoint) if h1 >= h0 else int(value <= midpoint)
        correct += pred == item.label
    return {
        "final_loss": result.loss_trace[-1],
        "loss_trace": result.loss_trace,
        "theta": [float(x) for x in result.theta],
        "class_values": {"0": h0, "1": h1},
        "gap": abs(h1 - h0),
        "test_accuracy": correct / len(test),
    }


def run_commutant(config, rng):
    group, n = config["group"], config["n"]
    sampler, size = SAMPLERS[group]
    degree = n if size == "n" else _group_degree(group, n, config["d"])
    report = commutant_analysis(
        sampler(degree, config["seed"]), config["k"], n_samples=config["trials"]
    )
    return {
        "dimension": report.dimension,
        "gap_ratio": None if np.isinf(report.gap_ratio) else report.gap_ratio,
        "cutoff": report.cutoff,
        "ambiguous": report.ambiguous,
        "start_dimension": report.start_dimension,
    }


def run_concentration(config, rng):
    result = concentration_experiment(
        config["family"],
        range(config["n_min"], config["n_max"] + 1),
        config["samples"],
        seed=config["seed"],
    )
    return {"concentration": asdict(result)}


def run_ancilla(config, rng):
    n = config["n"]
    u = models.swap_test_unitary(n)
    z_anc = models.ancilla_observable(observables.PAULI["Z"], n).matrix
    z_swap = kron(observables.PAULI["Z"], observables.swap_operator(n).matrix)
    conj_dev = float(np.abs(u.conj().T @ z_anc @ u - z_swap).max())
    model = swap_test_model(n)
    purity_dev = 0.0
    for _ in range(config["samples"]):
        psi = random_statevector(2**n, rng)
        rho = dm(psi)
        purity_dev = max(purity_dev, abs(evaluate(model, rho) - 1.0))
    return {"conjugation_deviation": conj_dev, "max_purity_deviation": purity_dev}


RUNNERS = {
    "purity": run_purity,
    "time_reversal_states": run_time_reversal_states,
    "time_reversal_dynamics": run_time_reversal_dynamics,
    "entanglement": run_entanglement,
    "graph": run_graph,
    "commutant": run_commutant,
    "concentration": run_concentration,
    "ancilla": run_ancilla,
}


def run(config):
    """Execute one experiment config; returns the full result dict."""
    config = validate_config(dict(config))
    rng = np.random.default_rng(config["seed"])
    start = time.perf_counter()
    payload = RUNNERS[config["experiment"]](config, rng)
    elapsed = time.perf_counter() - start
    result = {
        "schema": 1,
        "version": __version__,
        "config": {k: v for k, v in config.items() if k != "output"},
    }
    result.update(payload)
    result["wall_time_s"] = elapsed
    return result


def write_result(result, path):
    """Atomic JSON write; a failed run never leaves a partial file, and
    NaN or an infinity is a ValueError, since standard JSON has neither."""
    text = json.dumps(result, sort_keys=True, indent=2, allow_nan=False)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Reporting


def _md_table(headers, rows):
    lines = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    lines += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def format_report(result, fmt):
    if "concentration" in result:
        conc = result["concentration"]
        if fmt == "csv":
            return analysis.concentration_to_csv(conc)
        rows = [(r["n"], r["empirical_var"], r["analytic_var"]) for r in conc["rows"]]
        body = _md_table(["n", "empirical_var", "analytic_var"], rows)
        slope = "none (one n, nothing to fit)" if conc["slope"] is None else repr(conc["slope"])
        return body + f"\nlog2 slope: {slope}\n"
    if "classification" in result:
        rep = result["classification"]
        con = rep["confusion"]
        if fmt == "csv":
            lines = ["metric,value"]
            lines += [f"accuracy,{rep['accuracy']!r}"]
            lines += [f"mean_label_{k},{v!r}" for k, v in sorted(rep["class_means"].items())]
            lines += [f"{k},{v}" for k, v in sorted(con.items())]
            return "\n".join(lines) + "\n"
        table = _md_table(
            ["", "pred 1", "pred 0"],
            [
                ("true 1", con["tp"], con["fn"]),
                ("true 0", con["fp"], con["tn"]),
            ],
        )
        return table + f"\naccuracy: {rep['accuracy']!r}\n"
    if "moments" in result or "dimension" in result or "conjugation_deviation" in result:
        flat = {
            k: v
            for k, v in result.items()
            if k not in ("schema", "version", "config", "wall_time_s")
        }
        rows = sorted(_flatten(flat).items())
        if fmt == "csv":
            return "key,value\n" + "\n".join(f"{k},{v}" for k, v in rows) + "\n"
        return _md_table(["key", "value"], rows)
    raise ConfigError("result file contains no reportable payload")


def _flatten(d, prefix=""):
    out = {}
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        elif isinstance(v, list):
            out[key] = ";".join(str(x) for x in v)
        else:
            out[key] = v
    return out


# ---------------------------------------------------------------------------
# Entry point


def build_parser():
    parser = argparse.ArgumentParser(prog="ginv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one experiment")
    runp.add_argument("--config", help="JSON config file (flags override it)")
    runp.add_argument("--experiment", choices=sorted(SCHEMAS))
    for name, typ in RUN_FIELDS.items():
        runp.add_argument("--" + name.replace("_", "-"), dest=name, type=typ)
    runp.add_argument("--output", "-o", help="result path (default result.json)")

    repp = sub.add_parser("report", help="format a result file")
    repp.add_argument("result", help="result JSON produced by 'ginv run'")
    repp.add_argument("--format", choices=("csv", "md"), default="csv")
    repp.add_argument("--output", "-o", help="write here instead of stdout")
    return parser


def _cmd_run(args):
    raw = {}
    if args.config:
        with open(args.config) as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        raw.update(loaded)
    for key in ("experiment", *RUN_FIELDS):
        value = getattr(args, key)
        if value is not None:
            raw[key] = value
    output = args.output or raw.pop("output", None) or "result.json"
    raw.pop("output", None)
    result = run(raw)
    write_result(result, output)
    print(f"wrote {output}")
    return 0


def _cmd_report(args):
    with open(args.result) as fh:
        try:
            result = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"result file is not valid JSON: {exc}") from exc
    text = format_report(result, args.format)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_report(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
