"""Correctness checks for one `ginv run` result, against closed forms.

``problems(config, result)`` returns a list of messages, empty when the
result is correct. Theory values are computed here, independently of ginv.

Statistical checks use a band of four standard errors:

* a mean of N draws with variance s^2 lies within 4 s / sqrt(N) of the
  closed form; s is exact where the variance is known, a Bhatia-Davis
  bound (M - mu)(mu - m) for shot estimates of a spectrum in [m, M], and
  the sample deviation where neither is available;
* a sample variance of N draws lies within 4 sigma^2 sqrt((kappa - 1) / N)
  of the closed form sigma^2, where kappa bounds the kurtosis of the
  draws: 3 for the odd-Y family (its Gaussian limit) and 9 for the Bell
  family (the exponential limit of |psi^T psi|^2 d). Both bounds hold for
  d = 2..32 in 4e5-draw Monte Carlo.
"""

import math

EXACT = 1e-9  # deviation allowed of exact (non-sampled) quantities
BISECTION = 1e-5  # entanglement datasets hit their target measure to 1e-6
SIGMAS = 4.0
KURTOSIS_BOUND = {"conventional_odd_y": 3.0, "enhanced_bell": 9.0}

# Spectrum [m, M] of each entanglement observable.
SPECTRUM = {
    "meyer_wallach": (0.0, 4.0),
    "impurity": (0.0, 4.0),
    "concentratable": (0.0, 1.0),
    "ntangle": (0.0, 1.0),
}


# ---------------------------------------------------------------------------
# Closed forms


def _partitions(k, max_parts):
    """Partitions of k into at most max_parts parts, largest part first."""
    def rec(rest, largest, parts):
        if rest == 0:
            yield parts
            return
        if len(parts) == max_parts:
            return
        for p in range(min(rest, largest), 0, -1):
            yield from rec(rest - p, p, parts + [p])

    return list(rec(k, k, []))


def _standard_tableaux(shape):
    """f^lambda by the hook length formula."""
    hooks = 1
    cols = [sum(1 for r in shape if r > c) for c in range(shape[0])]
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j - 1) + (cols[j] - i - 1) + 1
    return math.factorial(sum(shape)) // hooks


def unitary_commutant_dim(d, k):
    """Schur-Weyl: sum of (f^lambda)^2 over partitions of k with <= d rows."""
    return sum(_standard_tableaux(p) ** 2 for p in _partitions(k, d))


def orthogonal_commutant_dim(d, k):
    """Brauer: (2k - 1)!! diagrams, independent when d >= k."""
    if d < k:
        return None
    return math.prod(range(1, 2 * k, 2))


def qubit_permutation_commutant_dim(n, k):
    """Orbits of S_n on n-letter words over the 4^k (row, column) symbols."""
    return math.comb(n + 4**k - 1, n)


def commutant_theory(config):
    group, k = config["group"], config["k"]
    if group == "unitary":
        return unitary_commutant_dim(config.get("d") or 2 ** config["n"], k)
    if group == "orthogonal":
        return orthogonal_commutant_dim(config.get("d") or 2 ** config["n"], k)
    if group == "local_unitary":
        return unitary_commutant_dim(2, k) ** config["n"]
    if group == "symmetric":
        return qubit_permutation_commutant_dim(config["n"], k)
    return None


def odd_y_var(d):
    """Variance of <psi| Y x 1 |psi> over Haar psi: 1/(d+1)."""
    return 1.0 / (d + 1)


def bell_mean(d):
    """Mean of the Bell-projector model over Haar inputs: 2/(d(d+1))."""
    return 2.0 / (d * (d + 1))


def bell_var(d):
    """Variance of |psi^T psi|^2 / d over Haar psi: 4(d-1)/(d^2 (d+1)^2 (d+3))."""
    return 4.0 * (d - 1) / (d**2 * (d + 1) ** 2 * (d + 3))


# ---------------------------------------------------------------------------
# Check helpers; each returns a message or None


def _near(name, value, expected, tol):
    if value is None or abs(value - expected) > tol:
        return f"{name} = {value!r}, expected {expected!r} within {tol:.3g}"
    return None


def _mean_band(name, mean, expected, var, count):
    se = math.sqrt(var / count)
    if abs(mean - expected) > SIGMAS * se:
        return (
            f"{name} = {mean!r} is {abs(mean - expected) / se:.2f} standard "
            f"errors from {expected!r} (se {se:.3g})"
        )
    return None


def _var_band(name, var, expected, count, kurtosis):
    width = SIGMAS * expected * math.sqrt((kurtosis - 1.0) / count)
    if abs(var - expected) > width:
        return f"{name} = {var!r}, expected {expected!r} within {width:.3g}"
    return None


def _all_near(name, values, expected, tol):
    worst = max((abs(v - expected) for v in values), default=0.0)
    if worst > tol:
        return f"{name}: a value deviates {worst:.3g} from {expected!r}"
    return None


def _sample_var(values):
    m = sum(values) / len(values)
    return sum((v - m) ** 2 for v in values) / (len(values) - 1)


def _by_class(classification):
    values, labels = classification["values"], classification["labels"]
    return (
        [v for v, y in zip(values, labels) if y == 0],
        [v for v, y in zip(values, labels) if y == 1],
    )


def _class_mean(name, values, expected, var):
    """Mean of per-item values; ``var`` None means use the sample variance."""
    if var is None:
        var = _sample_var(values)
    return _mean_band(name, sum(values) / len(values), expected, var, len(values))


def _moments(moments, mean, var, count):
    out = [_near("moments.analytic_mean", moments["analytic_mean"], mean, EXACT)]
    out.append(_near("moments.samples", moments["samples"], count, 0))
    out.append(_mean_band(
        "moments.empirical_mean", moments["empirical_mean"], mean,
        moments["empirical_var"] if var is None else var, count,
    ))
    return out


# ---------------------------------------------------------------------------
# Per-experiment checks


def _concentration(config, result):
    family = config["family"]
    rows = result["concentration"]["rows"]
    ns = list(range(config["n_min"], config["n_max"] + 1))
    out = [_near("concentration.rows", len(rows), len(ns), 0)]
    count = config["samples"]
    for n, row in zip(ns, rows):
        d = 2**n
        out.append(_near(f"rows[n={n}].n", row["n"], n, 0))
        if family == "conventional_odd_y":
            expected = odd_y_var(d)
            out.append(_near(f"rows[n={n}].analytic_var", row["analytic_var"],
                             expected, EXACT * expected))
        elif family == "enhanced_bell":
            expected = bell_var(d)
        else:
            return [f"no check for family {family!r}"]
        out.append(_var_band(f"rows[n={n}].empirical_var", row["empirical_var"],
                             expected, count, KURTOSIS_BOUND[family]))
    return out


def _time_reversal_states(config, result):
    if config.get("observable", "odd_y") != "odd_y":
        return [f"no check for observable {config['observable']!r}"]
    d, shots = 2 ** config["n"], config.get("shots", 0)
    v0, v1 = _by_class(result["classification"])
    haar = odd_y_var(d)
    # label 1 states are real, so the imaginary observable reads exactly 0
    if shots:
        out = [
            _class_mean("class 1 mean", v1, 0.0, 1.0 / shots),
            _class_mean("class 0 mean", v0, 0.0, (1.0 - haar) / shots + haar),
        ]
    else:
        out = [
            _all_near("class 1 values", v1, 0.0, EXACT),
            _class_mean("class 0 mean", v0, 0.0, haar),
        ]
    moments = result["moments"]
    out += _moments(moments, 0.0, haar, config.get("mc_samples", 20000))
    out.append(_near("moments.analytic_var", moments["analytic_var"], haar,
                     EXACT * haar))
    out.append(_var_band("moments.empirical_var", moments["empirical_var"], haar,
                         moments["samples"], KURTOSIS_BOUND["conventional_odd_y"]))
    return out


def _time_reversal_dynamics(config, result):
    d = 2 ** config["n"]
    v0, v1 = _by_class(result["classification"])
    # orthogonal W gives W W^T = 1, so the Bell overlap of label 1 is 1
    out = [
        _all_near("class 1 values", v1, 1.0, EXACT),
        _class_mean("class 0 mean", v0, bell_mean(d), None),
    ]
    out += _moments(result["moments"], bell_mean(d), None,
                    config.get("mc_samples", 20000))
    return out


def _purity(config, result):
    b, shots = config.get("b", 0.5), config.get("shots", 0)
    v0, v1 = _by_class(result["classification"])
    out = [_all_near("class 1 values", v1, 1.0, EXACT)]
    if shots:
        # a SWAP shot reads +1 with probability (1 + b)/2
        out.append(_class_mean("class 0 mean", v0, b, (1.0 - b * b) / shots))
    else:
        out.append(_all_near("class 0 values", v0, b, EXACT))
    return out


def _entanglement(config, result):
    measure = config.get("measure", "meyer_wallach")
    b, shots = config.get("b", 0.5), config.get("shots", 0)
    v0, v1 = _by_class(result["classification"])
    # products are symmetric under every SWAP_j: the measures read 0 there,
    # the signed-sum ntangle reads 1
    product = 1.0 if measure == "ntangle" else 0.0
    out = [
        _near("max_oracle_deviation", result["max_oracle_deviation"], 0.0, EXACT),
        _all_near("class 0 values", v0, product, EXACT),
    ]
    if shots:
        lo, hi = SPECTRUM[measure]
        out.append(_class_mean("class 1 mean", v1, b, (hi - b) * (b - lo) / shots))
    else:
        out.append(_all_near("class 1 values", v1, b, BISECTION))
    return out


def _graph(config, result):
    return [_near("test_accuracy", result["test_accuracy"], 1.0, 0.0)]


def _commutant(config, result):
    expected = commutant_theory(config)
    if expected is None:
        return [f"no closed form for {config['group']} k={config['k']}"]
    return [_near("dimension", result["dimension"], expected, 0)]


def _ancilla(config, result):
    return [
        _near("conjugation_deviation", result["conjugation_deviation"], 0.0, EXACT),
        _near("max_purity_deviation", result["max_purity_deviation"], 0.0, EXACT),
    ]


CHECKS = {
    "concentration": _concentration,
    "time_reversal_states": _time_reversal_states,
    "time_reversal_dynamics": _time_reversal_dynamics,
    "purity": _purity,
    "entanglement": _entanglement,
    "graph": _graph,
    "commutant": _commutant,
    "ancilla": _ancilla,
}


def problems(config, result):
    """Messages for every way ``result`` disagrees with theory; [] if none."""
    out = []
    for key in ("experiment", "seed"):
        if result["config"].get(key) != config[key]:
            out.append(f"config.{key} = {result['config'].get(key)!r}, "
                       f"submitted {config[key]!r}")
    check = CHECKS.get(config["experiment"])
    if check is None:
        return out + [f"no check for experiment {config['experiment']!r}"]
    return out + [p for p in check(config, result) if p]


def work(config, result):
    """Work done by one result, keyed by the throughput it counts toward."""
    experiment = config["experiment"]
    draws = items = elements = 0
    if experiment == "concentration":
        draws = config["samples"] * (config["n_max"] - config["n_min"] + 1)
    if "moments" in result:
        draws += result["moments"]["samples"]
    if "classification" in result:
        items = len(result["classification"]["values"])
    if experiment == "graph":
        items = config.get("samples", 100)
    if experiment == "commutant":
        if config["group"] == "symmetric":
            elements = max(1, config["n"] - 1)
        else:
            elements = config.get("trials", 20)
    return {"mc_samples_per_s": draws, "items_per_s": items,
            "elements_per_s": elements}
