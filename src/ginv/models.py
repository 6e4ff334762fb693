"""Hypothesis classes, their exact values, and finite-shot estimation.

Three model families share one evaluation surface:

  H1: Tr[U (rho^(x k)) U^dag O]            (k = O.copies copies of a state)
  H2: |<Phi|(W x W)|Psi_in>|^2                (input is a unitary W)
  H3: Tr[U (|0><0| x rho x rho) U^dag (O_anc x 1 x 1)]     (one ancilla qubit)

A model is its observable O and an optional fixed unitary U (the identity
when absent); the conjugated observable U^dag O U is what determines the
model's symmetry. An H2 model is the paper's Bell-basis measurement: its O
is the Bell projector |Phi><Phi|, undressed. ``swap_test_unitary`` is the
H3 swap-test circuit in closed form; an H3 value is Tr[(rho x rho) B] for B
the ancilla-|0> block of U^dag O U, scored by the two-copy kernel
``expectation_copies``. Shots take the parallel swap test for an H1 swap
polynomial, else the two levels of the observable at its exact value.
"""

from dataclasses import dataclass, field

import numpy as np

from .groups import block_count
from .observables import PAULI, Observable, swap_operator
from .tensor import ATOL, expectation_copies, is_unitary, kron


@dataclass(eq=False)
class ModelSpec:
    """A hypothesis-class model: a measurement, optionally dressed by a
    fixed unitary U acting before it."""

    hclass: str
    observable: Observable
    psi_in: np.ndarray | None = None
    unitary: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.hclass not in ("H1", "H2", "H3"):
            raise ValueError(f"unknown hypothesis class {self.hclass!r}")
        dim = self.observable.dim
        if self.unitary is not None:
            self.unitary = np.asarray(self.unitary)
            if self.unitary.shape != (dim, dim):
                raise ValueError(
                    f"unitary shape {self.unitary.shape} != observable dim {dim}"
                )
            if not is_unitary(self.unitary):
                raise ValueError("model unitary is not unitary")
        if self.hclass == "H2":
            if self.observable.copies != 2:
                raise ValueError("H2 models act on two copies of the register")
            if self.observable.kind != "bell" or self.unitary is not None:
                raise ValueError("an H2 model measures the Bell projector, undressed")
            if self.psi_in is None or len(self.psi_in) != dim:
                raise ValueError("H2 requires a 2n-qubit input state psi_in")


def conjugated_observable(model):
    """The dressed measurement U^dag O U as an Observable."""
    if model.unitary is None:
        return model.observable
    u = model.unitary
    m = u.conj().T @ model.observable.matrix @ u
    return Observable(
        m,
        copies=model.observable.copies,
        qubits_per_copy=model.observable.qubits_per_copy,
        tag=f"{model.observable.tag}~",
    )


def evaluate(model, x):
    """Exact model value on a density matrix (H1, H3) or unitary (H2); an
    H2 value is the Bell projector's, read from one d x d product."""
    x = np.asarray(x)
    obs = model.observable if model.unitary is None else conjugated_observable(model)
    if model.hclass == "H1":
        return obs.expectation(x)
    d = x.shape[0]
    if model.hclass == "H2":
        if d * d != obs.dim:
            raise ValueError(f"H2 expects a {int(np.sqrt(obs.dim))}-dim unitary")
        if not is_unitary(x):
            raise ValueError("H2 input must be unitary")
        # <Phi|(W x W)|psi> = tr(W M W^T) / sqrt(d), M = psi_in as d x d, and
        # tr(W M W^T) = sum((W M) * W)
        return float(abs((x @ model.psi_in.reshape(d, d)).ravel() @ x.ravel()) ** 2 / d)
    # H3: the ancilla's |0><0| in front of rho x rho keeps the top-left block
    if 2 * d * d != obs.dim:
        raise ValueError(f"input dim {d} incompatible with H3 observable")
    return expectation_copies(x, 2, obs.matrix[: d * d, : d * d])


def swap_test_unitary(n):
    """The swap test (H x 1) CSWAP (H x 1) on 2n+1 qubits, in closed form:
    the real [[1 + S, 1 - S], [1 - S, 1 + S]] / 2, S the register SWAP.

    Conjugating Z on the ancilla by this circuit gives Z x SWAP, so an
    H3 model measuring the ancilla returns Tr[rho^2].
    """
    s = swap_operator(n).matrix.real
    one = np.eye(4**n)
    return np.block([[one + s, one - s], [one - s, one + s]]) / 2


def ancilla_observable(o, n):
    """O x 1 x 1 measuring only the ancilla qubit of an H3 register."""
    m = kron(np.asarray(o), np.eye(4**n))
    return Observable(m, copies=1, qubits_per_copy=2 * n + 1, tag="ancilla")


def swap_test_model(n):
    """H3 purity model: swap-test circuit with a Z ancilla measurement."""
    return ModelSpec("H3", ancilla_observable(PAULI["Z"], n), unitary=swap_test_unitary(n))


def _shot_distribution(model, obs, stack):
    """Levels of the dressed observable obs and their (N, L) probabilities
    on a stack: the parallel swap test for an H1 swap polynomial, else the
    two levels hi > lo of the model's observable, hi with probability
    (v - lo) / (hi - lo) at the exact value v: H1's stacked ``obs.expectation``,
    else ``evaluate`` per item, which checks each H2 input."""
    if obs.kind == "swap" and model.hclass == "H1":
        return obs.shot_distribution(stack)
    if model.observable.levels is None:
        raise ValueError(f"{model.observable.tag}: shots need an H1 swap polynomial "
                         "or an observable with two levels, and it has more")
    hi, lo = model.observable.levels
    v = obs.expectation(stack) if model.hclass == "H1" else [evaluate(model, x) for x in stack]
    p = np.clip((np.asarray(v) - lo) / (hi - lo), 0, 1) if hi - lo > ATOL else np.ones(len(v))
    return np.array([hi, lo]), np.stack([p, 1.0 - p], axis=1)


def estimate_with_shots(model, x, shots, rng):
    """Unbiased finite-shot estimates of the items of an (N, d, d) stack:
    the counts of ``shots`` levels per item, one ``rng.multinomial`` call per
    chunk of ``block_count`` items of the input, the stream of one call per
    item. Raises ValueError, before any draw, for an observable that is
    neither an H1 swap polynomial nor two-level."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    x = np.asarray(x)
    if x.ndim != 3:
        raise ValueError(f"shots take an (N, d, d) stack of inputs, got shape {x.shape}")
    obs = conjugated_observable(model)
    chunk = block_count(x.shape[-1])
    estimates = np.empty(len(x))
    for start in range(0, len(x), chunk):
        levels, probs = _shot_distribution(model, obs, x[start : start + chunk])
        # an item must draw the same in any chunk: multinomial skips a zero
        # level but draws for a rounding residue of zero, and a row sum, unlike
        # a matrix product, adds in one order for any chunk
        counts = rng.multinomial(shots, np.where(probs > 1e-12, probs, 0.0))
        estimates[start : start + chunk] = np.sum(counts * levels, axis=1) / shots
    return estimates
