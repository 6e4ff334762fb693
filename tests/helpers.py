"""States, models and checks that only the tests use."""

from dataclasses import dataclass
from itertools import combinations, permutations
from math import factorial, prod

import numpy as np

from ginv import groups
from ginv.datasets import Graph, graph_terms
from ginv.groups import _adjacent_transpositions, permutation_operator
from ginv.observables import Observable, swap_operator
from ginv.tensor import ATOL, expm_hermitian, tensor_power


def random_density_matrix(dim, rng, rank=None):
    """Random full-rank (or rank-limited) density matrix."""
    rank = dim if rank is None else rank
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def expectation(rho, obs):
    """Real expectation value Tr[rho obs] for Hermitian obs."""
    rho = np.asarray(rho)
    obs = np.asarray(obs)
    if rho.shape != obs.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {obs.shape}")
    return float(np.real(np.einsum("ij,ji->", rho, obs)))


def dressed(observable, u):
    """The dense observable U^dag O U that O measures after a fixed unitary U."""
    return Observable(u.conj().T @ observable.matrix @ u, observable.copies,
                      observable.qubits_per_copy, f"{observable.tag}~")


def swap_test_unitary(n):
    """The swap test (H x 1) CSWAP (H x 1) on 2n+1 qubits as a dense matrix,
    the real [[1 + S, 1 - S], [1 - S, 1 + S]] / 2, S the register SWAP.

    Conjugating Z on the ancilla by this circuit gives Z x SWAP, so an
    H3 model measuring the ancilla returns Tr[rho^2].
    """
    s = swap_operator(n).matrix.real
    one = np.eye(4**n)
    return np.block([[one + s, one - s], [one - s, one + s]]) / 2


def check_density_matrix(rho):
    """Raise ValueError unless rho is Hermitian, unit trace, and PSD, each to ATOL."""
    rho = np.asarray(rho)
    if np.abs(rho - rho.conj().T).max() > ATOL:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > ATOL:
        raise ValueError(f"density matrix trace {np.trace(rho)} != 1")
    if np.linalg.eigvalsh(rho).min() < -ATOL:
        raise ValueError("density matrix has a negative eigenvalue")


def graph_classes(n):
    """One graph per isomorphism class on n nodes, each the edge set whose
    mask (bit i for the i-th node pair) is the smallest over all n!
    relabellings. Masks are taken in increasing order, so the first one not
    yet reached is its class's smallest; its images then mark the class."""
    pairs = list(combinations(range(n), 2))
    slot = {pair: i for i, pair in enumerate(pairs)}
    moves = np.array([[slot[tuple(sorted((p[j], p[k])))] for j, k in pairs]
                      for p in permutations(range(n))], dtype=np.int64)
    seen = np.zeros(2 ** len(pairs), dtype=bool)
    classes = []
    for mask in range(len(seen)):
        if not seen[mask]:
            bits = mask >> np.arange(len(pairs)) & 1
            seen[(bits << moves).sum(axis=1)] = True
            classes.append(Graph(n, {pair for pair, bit in zip(pairs, bits) if bit}))
    return classes


def ghz_state(n):
    """(|0...0> + |1...1>)/sqrt(2)."""
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = psi[-1] = 1 / np.sqrt(2)
    return psi


def relabel(graph, perm):
    """The graph with node j renamed perm[j]."""
    return Graph(graph.n, {(perm[j], perm[k]) for j, k in graph.edges})


def qgcnn_unitary(graph, theta, p_layers, q_generators):
    """Graph-convolutional ansatz: P repetitions of Q tied-weight layers.

    Each layer evolves under H_q = W_q sum_{(j,k) in E} Z_j Z_k
    + B_q sum_v X_v for a time eta_pq. Tying the weights across vertices
    makes every generator commute with the graph's automorphisms.
    Parameters pack as [eta (P*Q, p-major), W (Q), B (Q)].
    """
    p, q = p_layers, q_generators
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if len(theta) != p * q + 2 * q:
        raise ValueError(
            f"QGCNN with P={p}, Q={q} expects {p * q + 2 * q} parameters, "
            f"got {len(theta)}"
        )
    eta = theta[: p * q].reshape(p, q)
    w = theta[p * q : p * q + q]
    b = theta[p * q + q :]
    zz, xs = graph_terms(graph)
    u = np.eye(2**graph.n, dtype=complex)
    for pi in range(p):
        for qi in range(q):
            u = u @ expm_hermitian(w[qi] * zz + b[qi] * xs, eta[pi, qi])
    return u


@dataclass
class InvarianceReport:
    max_deviation: float
    tol: float
    trials: int
    passed: bool


def check_invariance(h, sampler, probe_state, trials=50, tol=1e-9):
    """Max deviation |h(V rho V^dag) - h(rho)| over sampled V.

    ``h`` is any callable taking a density matrix.
    """
    probe = np.asarray(probe_state)
    if sampler.dim != probe.shape[0]:
        raise ValueError(
            f"sampler degree {sampler.dim} != probe dimension {probe.shape[0]}"
        )
    base = h(probe)
    worst = 0.0
    for _ in range(trials):
        v = sampler.sample()
        worst = max(worst, abs(h(v @ probe @ v.conj().T) - base))
    return InvarianceReport(worst, tol, trials, worst < tol)


def check_equivariance(u, sampler, k, trials=50, tol=1e-9):
    """Max Frobenius norm of [u, V^(x k)] over sampled V."""
    u = np.asarray(u)
    if u.shape[0] != sampler.dim**k:
        raise ValueError(f"operator dim {u.shape[0]} != {sampler.dim}^{k}")
    worst = 0.0
    for _ in range(trials):
        vk = tensor_power(sampler.sample(), k)
        worst = max(worst, float(np.linalg.norm(u @ vk - vk @ u)))
    return InvarianceReport(worst, tol, trials, worst < tol)


def adjacent_transposition_generators(n):
    """Matrices for the transpositions (i, i+1) on n qubits.

    S_1 is trivial; its generator list is just the identity.
    """
    if n == 1:
        return [np.eye(2, dtype=complex)]
    return [permutation_operator(p) for p in _adjacent_transpositions(n)]


def commutant_every_step(elements, k):
    """Oracle of ``groups.commutant_analysis`` for normal elements: the same
    eigenframe start and steps, but every step factorised by one QR and one
    SVD, however small its commutators."""
    stack = np.array(elements)
    start, q = next((i, q) for i, v in enumerate(stack)
                    if (q := groups._eigenframe(v)) is not None)
    frame = q.conj().T @ stack @ q
    labels = groups._block_labels(np.diagonal(tensor_power(frame[start], k)))
    basis = groups._start_basis(labels)
    start_dimension, gap_ratio, ambiguous = len(basis), float("inf"), False
    for t in np.roll(frame, -(start + 1), axis=0):
        if not len(basis):
            break
        a = tensor_power(t, k)
        commutators = a @ basis
        commutators -= basis @ a
        commutators = commutators.reshape(len(basis), -1)
        _, s, vh = np.linalg.svd(np.linalg.qr(commutators.T, mode="r"))
        null = s <= groups._CUTOFF
        if null.any() and not null.all():
            above, below = s[~null].min(), s[null].max()
            if below > groups._ROUNDING:
                gap_ratio = min(gap_ratio, float(above / below))
            ambiguous |= bool(above - below < 10 * groups._CUTOFF)
        basis = np.tensordot(vh[null].conj(), basis, axes=1)
    return groups.CommutantReport(len(basis), start_dimension, gap_ratio, groups._CUTOFF, ambiguous)


def _partitions(k, largest=None):
    """Partitions of k as non-increasing tuples."""
    largest = k if largest is None else largest
    if k == 0:
        yield ()
        return
    for first in range(min(k, largest), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest


def _hook_length_dimension(shape):
    """f^lambda = k! / prod of hook lengths (dimension of the S_k irrep)."""
    conjugate = [sum(1 for row in shape if row > j) for j in range(shape[0])]
    hooks = prod(
        shape[i] - j + conjugate[j] - i - 1
        for i in range(len(shape))
        for j in range(shape[i])
    )
    return factorial(sum(shape)) // hooks


def schur_weyl_commutant_dimension(d, k):
    """dim Comm{V^(x k) : V in U(d)} = sum over lambda |- k, <= d rows, of (f^lambda)^2."""
    return sum(
        _hook_length_dimension(shape) ** 2
        for shape in _partitions(k)
        if len(shape) <= d
    )
