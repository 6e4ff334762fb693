"""Hypothesis classes, their exact values, and finite-shot estimation.

  H1: Tr[rho^(x k) O]                          (k = O.copies copies of a state)
  H2: |<Phi|(W x W)|Psi_in>|^2                (input is a unitary W)
  H3: Tr[U (|0><0| x rho x rho) U^dag (O x 1 x 1)]     (U the swap test)

A model is its observable; none carries a dense unitary. H2 is the paper's
Bell-basis measurement. H3 measures a 2 x 2 O on the ancilla of the swap test
(Buhrman, Cleve, Watrous, de Wolf, quant-ph/0102001), which on the two input
copies is the swap polynomial that ``conjugated_observable`` returns. Shots
take the parallel swap test for an H1 swap polynomial, else the two levels
of the observable at its exact value.
"""

from dataclasses import dataclass

import numpy as np

from .groups import block_count
from .observables import PAULI, AncillaObservable, Observable, SwapPolynomial

# expectation_copies stays bound here for bench/tracer.py, which wraps it by name
from .tensor import ATOL, expectation_copies, is_unitary  # noqa: F401


@dataclass(eq=False)
class ModelSpec:
    """A hypothesis-class model: its class and the measurement it makes."""

    hclass: str
    observable: Observable
    psi_in: np.ndarray | None = None

    def __post_init__(self):
        if self.hclass not in ("H1", "H2", "H3"):
            raise ValueError(f"unknown hypothesis class {self.hclass!r}")
        if (self.hclass == "H3") != (self.observable.kind == "ancilla"):
            raise ValueError("an H3 model, and only an H3 model, measures an ancilla observable")
        if self.hclass == "H2":
            if self.observable.kind != "bell":
                raise ValueError("an H2 model measures the Bell projector")
            if self.psi_in is None or len(self.psi_in) != self.observable.dim:
                raise ValueError("H2 requires a 2n-qubit input state psi_in")


def conjugated_observable(model):
    """What the model measures on its input copies: its observable for H1
    and H2; for H3 the ancilla-|0> block of the swap test's U^dag (O x 1) U,
    O_00 (1 + SWAP)/2 + O_11 (1 - SWAP)/2, a new swap polynomial. The X and
    Y parts of O have no diagonal block, so they drop out."""
    if model.hclass != "H3":
        return model.observable
    o, n = model.observable.o.real, model.observable.n
    terms = [((), (o[0, 0] + o[1, 1]) / 2), (range(n), (o[0, 0] - o[1, 1]) / 2)]
    return SwapPolynomial(terms, n, "swap_test")


def evaluate(model, x):
    """Exact model value on a density matrix (H1, H3) or unitary (H2); an
    H2 value is the Bell projector's, read from one d x d product."""
    x = np.asarray(x)
    if model.hclass != "H2":
        return conjugated_observable(model).expectation(x)
    d = x.shape[0]
    if d * d != model.observable.dim:
        raise ValueError(f"H2 expects a {int(np.sqrt(model.observable.dim))}-dim unitary")
    if not is_unitary(x):
        raise ValueError("H2 input must be unitary")
    # <Phi|(W x W)|psi> = tr(W M W^T) / sqrt(d), M = psi_in as d x d, and
    # tr(W M W^T) = sum((W M) * W)
    return float(abs((x @ model.psi_in.reshape(d, d)).ravel() @ x.ravel()) ** 2 / d)


def swap_test_circuit(v):
    """The swap test U = [[1 + S, 1 - S], [1 - S, 1 + S]] / 2, real and its own
    inverse, on a (..., 2, d, d) stack of vectors (a, b), ancilla axis first,
    S the register swap as a transpose: U (a, b) = (p + s, p - s) / 2, p = a + b, s = S(a - b)."""
    a, b = np.moveaxis(v, -3, 0)
    p, s = a + b, (a - b).swapaxes(-1, -2)
    return np.stack([p + s, p - s], axis=-3) / 2


def swap_test_model(n):
    """H3 purity model: the swap test with a Z ancilla measurement."""
    return ModelSpec("H3", AncillaObservable(PAULI["Z"], n))


def _shot_distribution(model, obs, stack):
    """Levels of the measured observable obs and their (N, L) probabilities on
    a stack: the parallel swap test for an H1 swap polynomial, else the two
    levels hi > lo of the model's observable, hi with probability (v - lo) /
    (hi - lo) at the exact value v: the stacked ``obs.expectation`` for H1
    and H3, else ``evaluate`` per item, which checks each H2 input."""
    if obs.kind == "swap" and model.hclass == "H1":
        return obs.shot_distribution(stack)
    if model.observable.levels is None:
        raise ValueError(f"{model.observable.tag}: shots need an H1 swap polynomial "
                         "or an observable with two levels, and it has more")
    hi, lo = model.observable.levels
    v = obs.expectation(stack) if model.hclass != "H2" else [evaluate(model, x) for x in stack]
    p = np.clip((np.asarray(v) - lo) / (hi - lo), 0, 1) if hi - lo > ATOL else np.ones(len(v))
    return np.array([hi, lo]), np.stack([p, 1.0 - p], axis=1)


def estimate_with_shots(model, x, shots, rng):
    """Unbiased finite-shot estimates of the items of an (N, d, d) stack:
    the counts of ``shots`` levels per item, one ``rng.multinomial`` call per
    chunk of ``block_count`` items of the input, the stream of one call per
    item. Raises ValueError, before any draw, for an observable that is
    neither an H1 swap polynomial nor two-level.

    Each row's cumulative sums are rounded to multiples of 2^-40, so rounding
    noise cannot redraw counts where ``rng.multinomial`` branches, at a conditional
    probability of exactly 1/2, as dyadic swap-test values do. Rounding sums, not
    entries, keeps the sum of all but the last entry at most 1 and a rounding
    residue at 0. A sum within rounding of a grid midpoint still moves."""
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
        # an item must draw the same in any chunk: a cumulative sum along a
        # row, unlike a matrix product, adds in one order for any chunk
        grid = np.round(np.cumsum(probs, axis=1) * 2.0**40) / 2.0**40
        counts = rng.multinomial(shots, np.diff(grid, axis=1, prepend=0.0))
        estimates[start : start + chunk] = np.sum(counts * levels, axis=1) / shots
    return estimates
