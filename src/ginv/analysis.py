"""Haar-moment formulas, concentration experiments, and classification.

Closed forms implemented here:

  mean over Haar conjugations of a single-copy model:   Tr[O] / d
  variance for a traceless O on Haar-scrambled input:
      Tr[O^2] (Tr[rho_in^2] / (d^2-1) - 1 / (d (d^2-1)))
  mean of the Bell-projector model over Haar inputs:    2 / (d (d+1))
  its variance over Haar pure inputs:  4 (d-1) / (d^2 (d+1)^2 (d+3))

Every formula has a Monte-Carlo companion (empirical_moments); the
statistical acceptance window is four standard errors throughout. A pure
input is passed as its unit vector psi, a mixed one as its density matrix.
Under the Haar-unitary sampler a vector is scrambled by drawing the Haar
state V psi directly (a normalised complex Gaussian vector), with no
unitary formed; a density matrix, and any input under the other groups, is
conjugated by each sampled element.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from .groups import LocalUnitarySampler, UnitarySampler, block_count
from .models import ModelSpec, conjugated_observable, estimate_with_shots, evaluate
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
    """Variance of a traceless single-copy model over Haar-scrambled rho_in,
    a density matrix or the vector of a pure input (purity 1)."""
    tr_o = np.real(np.trace(obs.matrix))
    if abs(tr_o) > 1e-10:
        raise ValueError(f"observable must be traceless, Tr[O] = {tr_o}")
    tr_o2 = float(np.real(np.trace(obs.matrix @ obs.matrix)))
    p_in = 1.0 if np.ndim(rho_in) == 1 else purity(rho_in)
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


def _registered_moments(model, sampler, input_state):
    """Closed-form moments for recognised (model, sampler) pairs, else Nones.

    Conjugation keeps Tr[O] and Tr[O^2], so the single-copy forms read the
    undressed observable; the Bell forms need a model without a unitary.
    """
    mean = var = None
    d = sampler.dim
    obs = model.observable
    unitary = isinstance(sampler, UnitarySampler)
    if model.hclass == "H1" and obs.copies == 1 and (
        unitary or isinstance(sampler, LocalUnitarySampler)
    ):
        mean = haar_mean_conventional(obs, d)
        if (
            unitary
            and input_state is not None
            and abs(np.real(np.trace(obs.matrix))) < 1e-10
        ):
            var = haar_var_time_reversal(obs, input_state, d)
    elif unitary and obs.kind == "bell" and model.unitary is None:
        # twirling the Bell projector over W x W gives (1 + SWAP)/(d(d+1)),
        # so the closed-form mean needs a symmetric-subspace input: a
        # swap-symmetric psi_in for H2, or any pure input for H1 (psi x
        # psi is automatically symmetric): a vector, or a density matrix
        # of purity 1 to 1e-9
        if model.hclass == "H2":
            psi = model.psi_in
            sym = np.real(np.vdot(psi, psi.reshape(d, d).T.ravel()))
            if abs(sym - 1.0) < 1e-9:
                mean = haar_mean_enhanced_bell(d)
        elif model.hclass == "H1" and input_state is not None and (
            np.ndim(input_state) == 1 or abs(purity(input_state) - 1.0) < 1e-9
        ):
            mean = haar_mean_enhanced_bell(d)
            var = haar_var_enhanced_bell(d)
    return mean, var


def _h1_values(obs, sampler, input_state, samples):
    """Values of the H1 observable over ``samples`` draws, a chunk at a time.

    A chunk holds as many draws as one sampler block and is scored by one
    call. Under a UnitarySampler a pure input, passed as its vector psi, is
    scrambled to the Haar state V psi, drawn without forming V; the chunk
    stays a stack of vectors, sized as a block of states, and is scored by
    ``obs.pure_values``. Anything else is conjugated by the sampled
    elements in one batched product and scored by ``obs.expectation``: a
    density matrix as it is, a vector under another sampler as |psi><psi|.
    """
    pure = np.ndim(input_state) == 1
    haar_states = pure and isinstance(sampler, UnitarySampler)
    rho = dm(input_state) if pure else input_state
    chunk = block_count(sampler.dim, rank=1 if haar_states else 2)
    draw = sampler.sample
    values = np.empty(samples)
    for start in range(0, samples, chunk):
        count = min(chunk, samples - start)
        if haar_states:
            x = obs.pure_values(np.array([draw(input_state) for _ in range(count)]))
        else:
            v = np.array([draw() for _ in range(count)])
            x = obs.expectation(v @ rho @ v.conj().swapaxes(-1, -2))
        values[start : start + count] = x
    return values


def empirical_moments(model, sampler, input_state, samples):
    """Monte-Carlo mean/variance of the model over group-scrambled inputs.

    ``input_state`` is held as the caller holds it: the unit vector psi of
    a pure input, the (d, d) density matrix of a mixed one, or None for H2,
    where the sampled element itself is the input. H1 and H3 draws
    conjugate the input (a vector as |psi><psi|) by a sampled element,
    except that an H1 model under a UnitarySampler with a vector input
    draws Haar states V psi (``sampler.sample(psi)``) instead, with the
    same distribution and no QR per draw, and values them as vectors
    (``Observable.pure_values``). H1 draws are scored a chunk at a time,
    H2 and H3 draws one ``evaluate`` call each.
    Analytic fields are filled when a closed form is registered for the
    (model, sampler) combination. A vector input whose norm is not 1 to
    1e-9 is a ValueError, raised before any draw.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if np.ndim(input_state) == 1 and abs((norm := np.linalg.norm(input_state)) - 1.0) > 1e-9:
        raise ValueError(f"a pure input must be a unit vector, got norm {norm:.12g}")
    if model.hclass == "H1":
        obs = conjugated_observable(model)
        values = _h1_values(obs, sampler, input_state, samples)
    else:
        h2, values = model.hclass == "H2", np.empty(samples)
        rho = dm(input_state) if np.ndim(input_state) == 1 else input_state
        for i in range(samples):
            v = sampler.sample()
            values[i] = evaluate(model, v if h2 else v @ rho @ v.conj().T)
    mean, var = _registered_moments(model, sampler, input_state)
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
    """Run the model over a Dataset's inputs, states or unitaries as its
    hclass reads them, and score a decision rule.

    With shots = 0 the exact expectation is used, one ``evaluate`` an item;
    otherwise the values are the level-count estimates that one
    ``estimate_with_shots`` call draws from ``rng``. A class absent from the
    dataset has mean None; the midpoint rule needs both classes.
    """
    if not isinstance(rule, (ThresholdRule, MidpointRule)):
        raise ValueError(f"unknown rule {rule!r}")
    if shots > 0 and rng is None:
        raise ValueError("shots > 0 needs a random generator rng")
    labels = dataset.labels
    absent = [c for c in (0, 1) if not (labels == c).any()]
    if absent and not isinstance(rule, ThresholdRule):
        raise ValueError(
            f"{type(rule).__name__} needs both classes; label {absent[0]} is absent"
        )
    values = (estimate_with_shots(model, dataset.inputs, shots, rng) if shots > 0
              else np.array([evaluate(model, x) for x in dataset.inputs]))
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


# Family name -> the observable on n qubits. Each row's analytic variance is
# the one empirical_moments registers for that observable.
CONCENTRATION_FAMILIES = {
    "conventional_odd_y": lambda n: pauli_string("Y" + "I" * (n - 1)),
    "enhanced_bell": bell_projector,
}


def concentration_experiment(family, n_range, samples, seed=0):
    """Per-n model variance over Haar-scrambled |0>, with log2 slope.

    ``family`` is a name from CONCENTRATION_FAMILIES; the draws at n come
    from a UnitarySampler seeded seed + n. The pure input |0> is passed as
    its vector, so each draw is a Haar state, with no unitary formed.
    """
    builder = CONCENTRATION_FAMILIES.get(family)
    if builder is None:
        raise ValueError(f"unknown concentration family {family!r}")
    rows = []
    for n in n_range:
        model = ModelSpec("H1", builder(n))
        sampler = UnitarySampler(2**n, seed + n)
        report = empirical_moments(model, sampler, zero_state(n), samples)
        rows.append(ConcentrationRow(n, report.empirical_var, report.analytic_var))
    ns = np.array([r.n for r in rows], dtype=float)
    evs = np.array([max(r.empirical_var, 1e-300) for r in rows])
    slope = float(np.polyfit(ns, np.log2(evs), 1)[0]) if len(rows) > 1 else None
    return ConcentrationResult(family=family, rows=rows, slope=slope, samples=samples)

