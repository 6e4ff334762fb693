"""Hypothesis classes, ansatz constructors, and finite-shot estimation.

Three model families share one evaluation surface:

  H1: Tr[U (rho^(x k)) U^dag O]                      (k copies of a state)
  H2: Tr[U (W^(x 2)) |Psi_in><Psi_in| (...)^dag U^dag O]   (input is a unitary)
  H3: Tr[U (|0><0| x rho x rho) U^dag (O_anc x 1 x 1)]     (one ancilla qubit)

An ansatz realises the trainable unitary U(theta); the conjugated
observable U^dag O U is what actually determines the model's symmetry.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import tensor
from .datasets import Graph, graph_terms
from .observables import PAULI, Observable, swap_operator
# expectation_copies stays bound here for bench/tracer.py, which wraps it by name
from .tensor import (  # noqa: F401
    basis_state,
    dm,
    expectation_copies,
    expectation_factors,
    expm_hermitian,
    is_unitary,
    kron,
)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


class Ansatz:
    """Base: a parameterised unitary of fixed dimension."""

    dim = None
    n_params = 0

    def realize(self, theta):
        raise NotImplementedError


@dataclass
class IdentityAnsatz(Ansatz):
    dim: int
    n_params = 0

    def realize(self, theta):
        _check_params(self, theta)
        return np.eye(self.dim, dtype=complex)


@dataclass
class FixedUnitaryAnsatz(Ansatz):
    matrix: np.ndarray = field(repr=False)
    n_params = 0

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix)
        if not is_unitary(self.matrix):
            raise ValueError("fixed ansatz matrix is not unitary")

    @property
    def dim(self):
        return self.matrix.shape[0]

    def realize(self, theta):
        _check_params(self, theta)
        return self.matrix


@dataclass
class LayeredAnsatz(Ansatz):
    """Product of exp(-i theta_j G_j) over Hermitian generators G_j.

    Factors are applied left to right: realize(theta) = e^{-i t_0 G_0}
    e^{-i t_1 G_1} ... One parameter per generator.
    """

    generators: list = field(repr=False)

    def __post_init__(self):
        self.generators = [np.asarray(g) for g in self.generators]
        for g in self.generators:
            if not tensor.is_hermitian(g):
                raise ValueError("layered ansatz generators must be Hermitian")

    @property
    def dim(self):
        return self.generators[0].shape[0]

    @property
    def n_params(self):
        return len(self.generators)

    def realize(self, theta):
        theta = _check_params(self, theta)
        u = np.eye(self.dim, dtype=complex)
        for t, g in zip(theta, self.generators):
            u = u @ expm_hermitian(g, t)
        return u


@dataclass
class QGCNNAnsatz(Ansatz):
    """Graph-convolutional ansatz: P repetitions of Q tied-weight layers.

    Each layer evolves under H_q = W_q sum_{(j,k) in E} Z_j Z_k
    + B_q sum_v X_v for a time eta_pq. Tying the weights across vertices
    makes every generator commute with the graph's automorphisms.
    Parameters pack as [eta (P*Q, p-major), W (Q), B (Q)].
    """

    graph: Graph
    p_layers: int
    q_generators: int

    @property
    def dim(self):
        return 2**self.graph.n

    @property
    def n_params(self):
        return self.p_layers * self.q_generators + 2 * self.q_generators

    @cached_property
    def _terms(self):
        """The graph's ZZ and X sums, built on the first realize."""
        return graph_terms(self.graph)

    def realize(self, theta):
        theta = _check_params(self, theta)
        p, q = self.p_layers, self.q_generators
        eta = theta[: p * q].reshape(p, q)
        w = theta[p * q : p * q + q]
        b = theta[p * q + q :]
        zz, xs = self._terms
        u = np.eye(self.dim, dtype=complex)
        for pi in range(p):
            for qi in range(q):
                u = u @ expm_hermitian(w[qi] * zz + b[qi] * xs, eta[pi, qi])
        return u


def _check_params(ansatz, theta):
    theta = np.zeros(ansatz.n_params) if theta is None else np.atleast_1d(theta)
    if len(theta) != ansatz.n_params:
        raise ValueError(
            f"{type(ansatz).__name__} expects {ansatz.n_params} parameters, "
            f"got {len(theta)}"
        )
    return np.asarray(theta, dtype=float)


@dataclass
class ModelSpec:
    """A hypothesis-class model: ansatz, measurement, and copy count."""

    hclass: str
    copies: int
    ansatz: Ansatz
    observable: Observable
    psi_in: np.ndarray | None = None

    def __post_init__(self):
        if self.hclass not in ("H1", "H2", "H3"):
            raise ValueError(f"unknown hypothesis class {self.hclass!r}")
        dim = self.observable.dim
        if self.ansatz.dim != dim:
            raise ValueError(
                f"ansatz dim {self.ansatz.dim} != observable dim {dim}"
            )
        if self.hclass == "H2":
            if self.copies != 2:
                raise ValueError("H2 models act on two copies of the register")
            if self.psi_in is None or len(self.psi_in) != dim:
                raise ValueError("H2 requires a 2n-qubit input state psi_in")
        if self.hclass == "H3" and self.copies != 2:
            raise ValueError("H3 models act on an ancilla plus two copies")


def conjugated_observable(model, theta=None):
    """The dressed measurement U^dag(theta) O U(theta) as an Observable."""
    if isinstance(model.ansatz, IdentityAnsatz) and theta is None:
        return model.observable
    u = model.ansatz.realize(theta)
    m = u.conj().T @ model.observable.matrix @ u
    return Observable(
        m,
        copies=model.observable.copies,
        qubits_per_copy=model.observable.qubits_per_copy,
        tag=f"{model.observable.tag}~",
    )


def evaluate(model, x, theta=None):
    """Exact model value on a density matrix (H1, H3) or unitary (H2)."""
    x = np.asarray(x)
    obs = conjugated_observable(model, theta)
    if model.hclass == "H1":
        return obs.expectation(x)
    if model.hclass == "H2":
        d = x.shape[0]
        if d * d != obs.dim:
            raise ValueError(f"H2 expects a {int(np.sqrt(obs.dim))}-dim unitary")
        if not is_unitary(x):
            raise ValueError("H2 input must be unitary")
        m = model.psi_in.reshape(d, d)
        if obs.kind == "bell":
            # <Phi|(W x W)|psi> = tr(W M W^T) / sqrt(d) for the Bell state Phi
            return float(abs(np.trace(x @ m @ x.T)) ** 2 / d)
        phi = (x @ m @ x.T).ravel()  # (W x W)|psi> via row-major vec
        return float(np.real(phi.conj() @ obs.matrix @ phi))
    # H3: ancilla |0><0| in front of two copies of the input state.
    d = x.shape[0]
    if 2 * d * d != obs.dim:
        raise ValueError(f"input dim {d} incompatible with H3 observable")
    return expectation_factors([dm(basis_state(2, 0)), x, x], obs.matrix)


def swap_test_unitary(n):
    """Hadamard / controlled-register-SWAP / Hadamard on 2n+1 qubits.

    Conjugating Z on the ancilla by this circuit gives Z x SWAP, so an
    H3 model measuring the ancilla returns Tr[rho^2].
    """
    d2 = 4**n
    cswap = np.zeros((2 * d2, 2 * d2), dtype=complex)
    cswap[:d2, :d2] = np.eye(d2)
    cswap[d2:, d2:] = swap_operator(n).matrix
    h_anc = kron(HADAMARD, np.eye(d2))
    return h_anc @ cswap @ h_anc


def ancilla_observable(o_single, n):
    """O x 1 x 1 measuring only the ancilla qubit of an H3 register."""
    m = kron(np.asarray(o_single), np.eye(4**n))
    return Observable(m, copies=1, qubits_per_copy=2 * n + 1, tag="ancilla")


def swap_test_model(n, o_single=None):
    """H3 purity model: swap-test circuit with a Z ancilla measurement."""
    o_single = PAULI["Z"] if o_single is None else np.asarray(o_single)
    return ModelSpec(
        hclass="H3",
        copies=2,
        ansatz=FixedUnitaryAnsatz(swap_test_unitary(n)),
        observable=ancilla_observable(o_single, n),
    )


@dataclass
class ShotEstimate:
    estimate: float
    stderr: float


def _input_state(model, x):
    """The undressed state sigma with model value Tr[sigma U^dag O U]."""
    if model.hclass == "H1":
        return tensor.tensor_power(x, model.copies)
    if model.hclass == "H2":
        d = x.shape[0]
        return dm((x @ model.psi_in.reshape(d, d) @ x.T).ravel())
    return tensor.kron_all([dm(basis_state(2, 0)), x, x])


def _shot_distribution(model, x, theta):
    """Levels of the dressed observable and their probabilities: 1 and 0
    for the Bell projector, the parallel swap test for a swap polynomial on
    two copies, else the eigenbasis of U^dag O U on the undressed input."""
    obs = conjugated_observable(model, theta)
    if obs.kind == "bell":
        p = min(max(evaluate(model, x, theta), 0.0), 1.0)
        return np.array([1.0, 0.0]), np.array([p, 1.0 - p])
    if obs.kind == "swap" and model.hclass == "H1":
        return obs.shot_distribution(x)
    w, vecs = obs.eigh
    probs = np.real(np.sum(vecs.conj() * (_input_state(model, x) @ vecs), axis=0))
    probs = np.clip(probs, 0.0, None)
    return w, probs / probs.sum()


def estimate_with_shots(model, x, shots, rng, theta=None):
    """Unbiased finite-shot estimate: ``shots`` levels of the dressed
    observable drawn by one ``rng.choice`` call."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    levels, probs = _shot_distribution(model, np.asarray(x), theta)
    outcomes = rng.choice(levels, size=shots, p=probs)
    estimate = float(outcomes.mean())
    stderr = float(outcomes.std(ddof=1) / np.sqrt(shots)) if shots > 1 else 0.0
    return ShotEstimate(estimate, stderr)
