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

from . import __version__, analysis, datasets, observables
from .analysis import (
    MidpointRule,
    ThresholdRule,
    classify,
    concentration_experiment,
    empirical_moments,
)
from .groups import (
    LocalUnitarySampler,
    OrthogonalSampler,
    SymmetricSampler,
    UnitarySampler,
    commutant_analysis,
    commutant_excess,
)
from .models import ModelSpec, evaluate, swap_test_model
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

# Per-experiment config schema: field -> (type, default, minimum), a None
# minimum meaning no bound. Below it a count fails a run or reports nothing
# (one purity or entanglement sample: an absent class; one commutant trial:
# one element's commutant), and a negative eps labels no item 1. A None
# default is kept as null, except the commutant d, derived from n.
SCHEMAS = {
    "purity": {
        "n": (int, 2, 1),
        "b": (float, 0.5, None),
        "samples": (int, 100, 2),
        "shots": (int, 0, 0),
    },
    "time_reversal_states": {
        "n": (int, 2, 1),
        "samples": (int, 200, 1),
        "observable": (str, "odd_y", None),
        "eps": (float, None, 0),
        "mc_samples": (int, 20000, 2),
        "shots": (int, 0, 0),
    },
    "time_reversal_dynamics": {
        "n": (int, 3, 1),
        "samples": (int, 200, 1),
        "eps": (float, 0.1, 0),
        "mc_samples": (int, 20000, 2),
        "shots": (int, 0, 0),
    },
    "entanglement": {
        "n": (int, 3, 1),
        "b": (float, 0.5, None),
        "measure": (str, "meyer_wallach", None),
        "samples": (int, 100, 2),
        "shots": (int, 0, 0),
    },
    "graph": {
        "g0": (str, "triangle", None),
        "g1": (str, "path3", None),
        "t": (float, 1.0, None),
        "samples": (int, 100, 1),
        "iterations": (int, 60, 1),
        "learning_rate": (float, 0.5, None),
    },
    "commutant": {
        "group": (str, "unitary", None),
        "n": (int, None, 1),
        "d": (int, None, 1),
        "k": (int, 2, 1),
        "trials": (int, 20, 2),
    },
    "concentration": {
        "family": (str, "conventional_odd_y", None),
        "n_min": (int, 1, 1),
        "n_max": (int, 5, None),
        "samples": (int, 20000, 2),
    },
    "ancilla": {"n": (int, 1, 1), "samples": (int, 50, 1)},
}

COMMON_FIELDS = {"experiment", "seed", "output"}

# Every field `ginv run` takes as a flag, with its type.
RUN_FIELDS = {"seed": int} | {
    name: typ for schema in SCHEMAS.values() for name, (typ, *_) in schema.items()
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
    config = {"experiment": experiment, "seed": _coerce("seed", int, raw.get("seed", 0))}
    if config["seed"] < 0:
        raise ConfigError(f"field seed: must be >= 0, got {config['seed']}")
    for name, (typ, default, low) in schema.items():
        value = raw.get(name, default)
        if value is None and default is not None:
            raise ConfigError(f"field {name}: expected a value, got null")
        config[name] = None if value is None else _coerce(name, typ, value)
        if low is not None and config[name] is not None and config[name] < low:
            raise ConfigError(f"field {name}: must be >= {low}, got {config[name]}")
        choices = CHOICES.get((experiment, name), ())
        if choices and config[name] not in choices:
            raise ConfigError(
                f"field {name}: expected one of {sorted(choices)}, got {config[name]!r}"
            )
    if experiment == "concentration" and config["n_min"] > config["n_max"]:
        raise ConfigError(
            f"need n_min <= n_max, got n_min={config['n_min']}, n_max={config['n_max']}"
        )
    if experiment == "commutant":
        group, n, d, k = config["group"], config["n"], config["d"], config["k"]
        if SAMPLERS[group][1] == "n" and n is None:
            raise ConfigError(f"{group} group needs --n")
        # the cap is checked on log2 d, from --n before 2**n is formed
        bits = n if n is not None else math.log2(d or 4)
        if excess := commutant_excess(bits, k, group == "symmetric"):
            raise ConfigError(f"commutant too large: {excess}")
        if n is not None and d is not None and d != 2**n:
            raise ConfigError(
                f"{group} group: --n {n} means d = {2**n}, but d = {d}; pass --d {2**n}"
            )
        config["d"] = d or (4 if n is None else 2**n)
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


# Group name -> (sampler, size field). U(d) and O(d) act on d dimensions;
# local unitaries and permutations act on n qubits, d = 2**n.
SAMPLERS = {
    "unitary": (UnitarySampler, "d"),
    "orthogonal": (OrthogonalSampler, "d"),
    "local_unitary": (LocalUnitarySampler, "n"),
    "symmetric": (SymmetricSampler, "n"),
}


# Fields that take one of a fixed set of names.
CHOICES = {
    ("time_reversal_states", "observable"): ("odd_y", "bell"),
    ("entanglement", "measure"): observables.ENTANGLEMENT_MEASURES,
    ("commutant", "group"): SAMPLERS,
    ("concentration", "family"): analysis.CONCENTRATION_FAMILIES,
}


def _resolve_graph(name):
    if name in GRAPH_PRESETS:
        return GRAPH_PRESETS[name]
    try:
        d = json.loads(name)
        numbers = [d["n"], *(j for e in d["edges"] for j in e)]
        if any(isinstance(j, bool) or not isinstance(j, int) for j in numbers):
            raise TypeError("the node count and edge endpoints must be integers")
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
    # a target purity outside [1/d, 1) is refused before any item
    try:
        data = datasets.purity_dataset(n, config["samples"], config["b"], rng)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    model = ModelSpec("H1", observables.swap_operator(n))
    report = classify(data, model, MidpointRule(), shots=config["shots"], rng=rng)
    return {"classification": asdict(report)}


def run_time_reversal_states(config, rng):
    n = config["n"]
    d = 2**n
    data = datasets.time_reversal_state_dataset(n, config["samples"], rng)
    if config["observable"] == "bell":
        model = ModelSpec("H1", observables.bell_projector(n))
        c = 1.0 / d
    else:
        model = ModelSpec("H1", observables.pauli_string("Y" + "I" * (n - 1)))
        c = 0.0
    eps = config["eps"]
    if eps is None:
        # tight for exact values, half the class value under shot noise
        eps = 1.0 / (2 * d) if config["shots"] > 0 else 1e-8
    report = classify(data, model, ThresholdRule(c, eps), shots=config["shots"], rng=rng)
    moments = empirical_moments(
        model,
        UnitarySampler(d, config["seed"] + 1),
        zero_state(n),
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
    model = ModelSpec("H2", observables.bell_projector(n), psi_in=bell_state(n))
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
    # a target outside the measure's attainable range is refused before any item
    try:
        data = datasets.entanglement_dataset(n, config["samples"], config["b"], measure, rng)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    obs = observables.entanglement_observable(measure, n)
    model = ModelSpec("H1", obs)
    report = classify(data, model, MidpointRule(), shots=config["shots"], rng=rng)
    # the oracle takes partial traces, a route independent of the observable's
    values = np.array([evaluate(model, rho) for rho in data.inputs])
    oracle_values = observables.ENTANGLEMENT_MEASURES[measure](data.inputs)
    return {
        "classification": asdict(report),
        "max_oracle_deviation": float(np.abs(values - oracle_values).max()),
    }


def run_graph(config, rng):
    g0 = _resolve_graph(config["g0"])
    g1 = _resolve_graph(config["g1"])
    t = config["t"]
    # a learning rate <= 0, then the dataset's checks of the reference graphs,
    # are refused before any training
    try:
        train_config = TrainConfig(config["learning_rate"], config["iterations"])
        test = datasets.graph_dataset(g0, g1, config["samples"], t, rng)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # One representative per class suffices: the trained model is exactly
    # permutation-invariant, so its value is constant on each class.
    reps = datasets.Dataset(
        np.array([datasets.graph_state(g0, t), datasets.graph_state(g1, t)]), np.array([0, 1])
    )
    trainable = graph_invariant_model(g0.n)
    result = optimize(trainable, reps, train_config)
    h0, h1 = (float(h) for h in trainable.value_fn(result.theta, reps.inputs))
    midpoint = (h0 + h1) / 2
    values = trainable.value_fn(result.theta, test.inputs)
    pred = values > midpoint if h1 >= h0 else values <= midpoint
    return {
        "final_loss": result.loss_trace[-1],
        "loss_trace": result.loss_trace,
        "theta": [float(x) for x in result.theta],
        "class_values": {"0": h0, "1": h1},
        "gap": abs(h1 - h0),
        "test_accuracy": float(np.mean(pred == test.labels)),
    }


def run_commutant(config, rng):
    sampler, size = SAMPLERS[config["group"]]
    report = commutant_analysis(
        sampler(config[size], config["seed"]), config["k"], n_samples=config["trials"]
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
    model = swap_test_model(n)
    # the paper's claim on the dense circuit, once: U^dag (Z x 1) U = Z x SWAP
    u = model.unitary
    z_swap = kron(observables.PAULI["Z"], observables.swap_operator(n).matrix)
    conj_dev = float(np.abs(u.conj().T @ model.observable.matrix @ u - z_swap).max())
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
        "config": config,
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
    """The report of a result; a file without the fields that a ginv result
    of its kind has is a config error."""
    try:
        if "schema" not in result:
            raise KeyError("schema")
        return _report(result, fmt)
    except (LookupError, TypeError, AttributeError) as exc:
        raise ConfigError(
            f"result file is not a ginv result: {type(exc).__name__}: {exc}"
        ) from exc


def _report(result, fmt):
    if "concentration" in result:
        conc = result["concentration"]
        if fmt == "csv":
            lines = ["n,empirical_var,analytic_var"]
            for r in conc["rows"]:
                av = "" if r["analytic_var"] is None else repr(r["analytic_var"])
                lines.append(f"{r['n']},{r['empirical_var']!r},{av}")
            return "\n".join(lines) + "\n"
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
    flat = {
        k: v
        for k, v in result.items()
        if k not in ("schema", "version", "config", "wall_time_s")
    }
    rows = sorted(_flatten(flat).items())
    if fmt == "csv":
        return "key,value\n" + "\n".join(f"{k},{v}" for k, v in rows) + "\n"
    return _md_table(["key", "value"], rows)


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


def _read_json(path, what):
    """The JSON value of an input file; a file that cannot be opened or
    parsed is a config error."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} file is not valid JSON: {exc}") from exc


def _check_output(path):
    """Refuse, before any work, an output that is a directory or not in one."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise ConfigError(f"output {path} is a directory or its parent directory is missing")


def _cmd_run(args):
    raw = {}
    if args.config:
        loaded = _read_json(args.config, "config")
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        raw.update(loaded)
    for key in ("experiment", *RUN_FIELDS):
        value = getattr(args, key)
        if value is not None:
            raw[key] = value
    output = args.output or raw.pop("output", None) or "result.json"
    raw.pop("output", None)
    _check_output(output)
    result = run(raw)
    write_result(result, output)
    print(f"wrote {output}")
    return 0


def _cmd_report(args):
    if args.output:
        _check_output(args.output)
    result = _read_json(args.result, "result")
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
