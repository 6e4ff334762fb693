"""Haar-moment formulas, concentration experiments, and classification.

Closed forms implemented here:

  mean over Haar conjugations of a single-copy model:   Tr[O] / d
  variance for a traceless O on Haar-scrambled input:
      Tr[O^2] (Tr[rho_in^2] / (d^2-1) - 1 / (d (d^2-1)))
  mean of the Bell-projector model over Haar inputs:    2 / (d (d+1))
  its variance over Haar pure inputs:  4 (d-1) / (d^2 (d+1)^2 (d+3))

Every formula has a Monte-Carlo companion (empirical_moments); the
statistical acceptance window is four standard errors throughout.
"""

import csv
import io
from dataclasses import asdict, dataclass, field

import numpy as np

from .datasets import LabeledUnitary
from .groups import OrthogonalSampler, UnitarySampler, block_count
from .models import (
    IdentityAnsatz,
    ModelSpec,
    conjugated_observable,
    estimate_with_shots,
    evaluate,
)
from .observables import bell_projector, pauli_string

# expectation_copies stays bound here for bench/tracer.py, which wraps it by name
from .tensor import dm, expectation_copies, purity, zero_state  # noqa: F401


@dataclass
class MomentReport:
    analytic_mean: float | None
    analytic_var: float | None
    empirical_mean: float
    empirical_var: float
    stderr: float
    samples: int


@dataclass
class ClassificationReport:
    rule: dict
    class_means: dict
    confusion: dict  # keys tp, fp, tn, fn (label 1 is positive)
    accuracy: float
    p_c_given_0: float | None = None
    misclassification_bound: float | None = None
    cantelli: float | None = None
    values: list = field(default_factory=list, repr=False)
    labels: list = field(default_factory=list, repr=False)


def haar_mean_conventional(obs, d):
    """Mean of Tr[V rho V^dag O] over Haar V: Tr[O]/d, independent of rho."""
    return float(np.real(np.trace(obs.matrix))) / d


def haar_var_time_reversal(obs, rho_in, d):
    """Variance of a traceless single-copy model over Haar-scrambled rho_in."""
    tr_o = np.real(np.trace(obs.matrix))
    if abs(tr_o) > 1e-10:
        raise ValueError(f"observable must be traceless, Tr[O] = {tr_o}")
    tr_o2 = float(np.real(np.trace(obs.matrix @ obs.matrix)))
    p_in = purity(rho_in)
    return tr_o2 * (p_in / (d**2 - 1) - 1.0 / (d * (d**2 - 1)))


def haar_mean_enhanced_bell(d):
    """Mean of the Bell-projector model over Haar-scrambled pure inputs."""
    return 2.0 / (d * (d + 1))


def haar_var_enhanced_bell(d):
    """Variance of the Bell-projector model |psi^T psi|^2 / d over Haar pure inputs."""
    return 4.0 * (d - 1) / (d**2 * (d + 1) ** 2 * (d + 3))


def misclassification_probability(p_c_given_0):
    """P(0|c) = P(c|0) / (1 + P(c|0)) for balanced classes."""
    if not 0.0 <= p_c_given_0 <= 1.0:
        raise ValueError("probability outside [0, 1]")
    return p_c_given_0 / (1.0 + p_c_given_0)


def cantelli_bound(variance, delta):
    """One-sided tail bound Var / (Var + delta^2)."""
    if variance < 0 or delta <= 0:
        raise ValueError("need variance >= 0 and delta > 0")
    return variance / (variance + delta**2)


def _registered_moments(model, sampler, template):
    """Closed-form moments for recognised (model, sampler) pairs, else Nones.

    Conjugation keeps Tr[O] and Tr[O^2], so the k = 1 forms read the
    undressed observable; the Bell forms need an identity ansatz.
    """
    mean = var = None
    d = sampler.dim
    obs = model.observable
    if model.hclass == "H1" and model.copies == 1 and sampler.kind in (
        "unitary",
        "local_unitary",
    ):
        mean = haar_mean_conventional(obs, d)
        if (
            sampler.kind == "unitary"
            and template is not None
            and abs(np.real(np.trace(obs.matrix))) < 1e-10
        ):
            var = haar_var_time_reversal(obs, template, d)
    elif (
        sampler.kind == "unitary"
        and obs.kind == "bell"
        and isinstance(model.ansatz, IdentityAnsatz)
    ):
        # twirling the Bell projector over W x W gives (1 + SWAP)/(d(d+1)),
        # so the closed-form mean needs a symmetric-subspace input: a
        # swap-symmetric psi_in for H2, or any pure template for H1 (psi x
        # psi is automatically symmetric)
        if model.hclass == "H2":
            psi = model.psi_in
            sym = np.real(np.vdot(psi, psi.reshape(d, d).T.ravel()))
            if abs(sym - 1.0) < 1e-9:
                mean = haar_mean_enhanced_bell(d)
        elif (
            model.hclass == "H1"
            and template is not None
            and abs(purity(template) - 1.0) < 1e-9
        ):
            mean = haar_mean_enhanced_bell(d)
            var = haar_var_enhanced_bell(d)
    return mean, var


def _h1_values(obs, sampler, template, samples):
    """Values of the H1 observable over ``samples`` draws, a chunk at a time.

    A chunk holds as many draws as one sampler block, so it is conjugated
    by one batched product and scored by one expectation call.
    """
    chunk = block_count(sampler.dim)
    values = np.empty(samples)
    for start in range(0, samples, chunk):
        v = np.array([sampler.sample() for _ in range(min(chunk, samples - start))])
        x = v @ template @ v.conj().swapaxes(-1, -2)
        values[start : start + len(v)] = obs.expectation(x)
    return values


def empirical_moments(model, sampler, input_template, samples):
    """Monte-Carlo mean/variance of the model over group-scrambled inputs.

    For H1/H3 models each draw conjugates ``input_template`` by a sampled
    element; for H2 models the sampled element itself is the input.
    Analytic fields are filled when a closed form is registered for the
    (model, sampler) combination.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if model.hclass == "H1":
        obs = conjugated_observable(model)
        values = _h1_values(obs, sampler, input_template, samples)
    else:
        def value_of(v):
            if model.hclass == "H2":
                return evaluate(model, v)
            return evaluate(model, v @ input_template @ v.conj().T)

        draws = (value_of(sampler.sample()) for _ in range(samples))
        values = np.fromiter(draws, float, samples)
    mean, var = _registered_moments(model, sampler, input_template)
    std = float(values.std(ddof=1))
    return MomentReport(
        analytic_mean=mean,
        analytic_var=var,
        empirical_mean=float(values.mean()),
        empirical_var=float(values.var(ddof=1)),
        stderr=std / np.sqrt(samples),
        samples=samples,
    )


@dataclass
class ThresholdRule:
    """Assign label 1 when the value lands in [c - eps, c + eps]."""

    c: float
    eps: float


@dataclass
class MidpointRule:
    """Threshold halfway between the two class means."""


def _rule_dict(rule):
    d = {"kind": type(rule).__name__.removesuffix("Rule").lower()}
    d.update(asdict(rule))
    return d


def classify(dataset, model, rule, shots=0, rng=None):
    """Run the model over a labeled dataset and score a decision rule.

    With shots = 0 the exact expectation is used; otherwise each value is
    a finite-shot estimate drawn from ``rng``. A class absent from the
    dataset has mean None; the midpoint rule needs both classes.
    """
    if not isinstance(rule, (ThresholdRule, MidpointRule)):
        raise ValueError(f"unknown rule {rule!r}")
    if shots > 0 and rng is None:
        raise ValueError("shots > 0 needs a random generator rng")
    labels = np.array([item.label for item in dataset])
    absent = [c for c in (0, 1) if not (labels == c).any()]
    if absent and not isinstance(rule, ThresholdRule):
        raise ValueError(
            f"{type(rule).__name__} needs both classes; label {absent[0]} is absent"
        )
    values = []
    for item in dataset:
        x = item.unitary if isinstance(item, LabeledUnitary) else item.state
        if shots > 0:
            values.append(estimate_with_shots(model, x, shots, rng).estimate)
        else:
            values.append(evaluate(model, x))
    values = np.array(values)
    m0, m1 = (
        None if c in absent else float(values[labels == c].mean()) for c in (0, 1)
    )

    if isinstance(rule, ThresholdRule):
        pred = (np.abs(values - rule.c) <= rule.eps).astype(int)
    else:
        thr = (m0 + m1) / 2
        pred = (values > thr).astype(int) if m1 >= m0 else (values <= thr).astype(int)

    tp = int(((pred == 1) & (labels == 1)).sum())
    tn = int(((pred == 0) & (labels == 0)).sum())
    fp = int(((pred == 1) & (labels == 0)).sum())
    fn = int(((pred == 0) & (labels == 1)).sum())
    accuracy = (tp + tn) / len(labels)

    p_c0 = bound = cant = None
    if 0 not in absent:
        p_c0 = float((pred[labels == 0] == 1).mean())
        bound = misclassification_probability(p_c0)
        if isinstance(rule, ThresholdRule):
            var0 = float(values[labels == 0].var(ddof=1)) if tn + fp > 1 else 0.0
            delta = abs(m0 - rule.c)
            if delta > 0:
                cant = cantelli_bound(var0, delta)
    return ClassificationReport(
        rule=_rule_dict(rule),
        class_means={"0": m0, "1": m1},
        confusion={"tp": tp, "fp": fp, "tn": tn, "fn": fn},
        accuracy=accuracy,
        p_c_given_0=p_c0,
        misclassification_bound=bound,
        cantelli=cant,
        values=[float(v) for v in values],
        labels=[int(x) for x in labels],
    )


# ---------------------------------------------------------------------------
# Concentration experiments


@dataclass
class ConcentrationRow:
    n: int
    empirical_var: float
    analytic_var: float | None


@dataclass
class ConcentrationResult:
    family: str
    rows: list
    slope: float | None  # None when one n leaves nothing to fit
    samples: int


def _conventional_family(n, seed, label_class):
    obs, _ = pauli_string("Y" + "I" * (n - 1))
    model = ModelSpec("H1", 1, IdentityAnsatz(2**n), obs)
    sampler = _class_sampler(n, seed, label_class)
    template = dm(zero_state(n))
    analytic = (
        haar_var_time_reversal(obs, template, 2**n) if label_class == 0 else 0.0
    )
    return model, sampler, template, analytic


def _enhanced_family(n, seed, label_class):
    model = ModelSpec("H1", 2, IdentityAnsatz(4**n), bell_projector(n))
    sampler = _class_sampler(n, seed, label_class)
    template = dm(zero_state(n))
    analytic = haar_var_enhanced_bell(2**n) if label_class == 0 else 0.0
    return model, sampler, template, analytic


def _class_sampler(n, seed, label_class):
    if label_class == 0:
        return UnitarySampler(2**n, seed)
    return OrthogonalSampler(2**n, seed)


CONCENTRATION_FAMILIES = {
    "conventional_odd_y": _conventional_family,
    "enhanced_bell": _enhanced_family,
}


def concentration_experiment(family, n_range, samples, seed=0, label_class=0):
    """Per-n model variance over group-scrambled inputs, with log2 slope.

    ``family`` is a name from CONCENTRATION_FAMILIES.
    """
    builder = CONCENTRATION_FAMILIES.get(family)
    if builder is None:
        raise ValueError(f"unknown concentration family {family!r}")
    rows = []
    for n in n_range:
        model, sampler, template, analytic = builder(n, seed + n, label_class)
        report = empirical_moments(model, sampler, template, samples)
        rows.append(ConcentrationRow(n, report.empirical_var, analytic))
    ns = np.array([r.n for r in rows], dtype=float)
    evs = np.array([max(r.empirical_var, 1e-300) for r in rows])
    slope = float(np.polyfit(ns, np.log2(evs), 1)[0]) if len(rows) > 1 else None
    return ConcentrationResult(family=family, rows=rows, slope=slope, samples=samples)


# ---------------------------------------------------------------------------
# Report serialization


def concentration_to_csv(result):
    """One row per n from a ConcentrationResult in its asdict form."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "empirical_var", "analytic_var"])
    for row in result["rows"]:
        av = row["analytic_var"]
        writer.writerow([row["n"], repr(row["empirical_var"]), "" if av is None else repr(av)])
    return buf.getvalue()
