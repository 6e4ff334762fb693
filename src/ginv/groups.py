"""Symmetry-group samplers and numerical invariance machinery.

Four group kinds are supported: the full unitary group U(d), the real
orthogonal group O(d), products of single-qubit unitaries, and qubit
permutations. Samplers own a seeded random stream and are deterministic
per seed; they are not meant to be shared across threads.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .tensor import bell_state, dm, kron_all, tensor_power


# One stacked draw fills 64 KiB, at most 256 elements: enough to amortise the
# per-call cost of small QR factorisations while peak memory stays flat.
BLOCK_BYTES = 64 * 1024
MAX_BLOCK = 256


def block_count(d):
    """How many d x d complex matrices fill one block: 1 to MAX_BLOCK."""
    return max(1, min(MAX_BLOCK, BLOCK_BYTES // (16 * d * d)))


def haar_unitary(d, rng, count=None):
    """Haar-random element of U(d), or a (count, d, d) stack of them.

    Complex Ginibre matrix orthonormalised by QR, with the R diagonal
    phases folded back in so the distribution is exactly invariant
    (Mezzadri, math-ph/0609050). A stack takes the same normals, in the
    same order, as ``count`` single draws and equals them bit for bit.
    """
    shape = () if count is None else (count,)
    g = rng.standard_normal(shape + (2, d, d))
    z = (g[..., 0, :, :] + 1j * g[..., 1, :, :]) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (ph / np.abs(ph))[..., None, :]


def haar_orthogonal(d, rng, count=None):
    """Haar-random element of O(d) (real Ginibre QR with sign correction).

    With ``count``, a (count, d, d) stack equal to ``count`` single draws.
    """
    shape = () if count is None else (count,)
    q, r = np.linalg.qr(rng.standard_normal(shape + (d, d)))
    s = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    s[s == 0] = 1.0
    return (q * s[..., None, :]).astype(complex)


class GroupSampler:
    """Base class: a seeded source of group elements of fixed degree."""

    kind = "abstract"

    def __init__(self, dim, seed=0):
        self.dim = int(dim)
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        self._block = ()
        self._next = 0

    def sample(self):
        raise NotImplementedError

    def _from_block(self, draw):
        """Next element of a stacked ``draw``, refilled a block at a time.

        The stream is the one single draws would give, since a stack
        consumes the normals of its elements in order.
        """
        if self._next == len(self._block):
            self._block = draw(self.dim, self._rng, count=block_count(self.dim))
            self._next = 0
        self._next += 1
        return self._block[self._next - 1]

    def take(self, count):
        return [self.sample() for _ in range(count)]

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, seed={self.seed})"


class UnitarySampler(GroupSampler):
    kind = "unitary"

    def sample(self):
        return self._from_block(haar_unitary)


class OrthogonalSampler(GroupSampler):
    kind = "orthogonal"

    def sample(self):
        return self._from_block(haar_orthogonal)


class LocalUnitarySampler(GroupSampler):
    """Products V_1 x ... x V_n of independent Haar 2x2 unitaries."""

    kind = "local_unitary"

    def __init__(self, n, seed=0):
        self.n = int(n)
        super().__init__(2**self.n, seed)

    def sample(self):
        return kron_all([haar_unitary(2, self._rng) for _ in range(self.n)])


class SymmetricSampler(GroupSampler):
    """Uniformly random qubit permutations of n qubits."""

    kind = "symmetric"

    def __init__(self, n, seed=0):
        self.n = int(n)
        super().__init__(2**self.n, seed)

    def sample(self):
        perm = self._rng.permutation(self.n)
        return permutation_operator(perm, target="qubits").matrix

    def generators(self):
        """Exact adjacent-transposition generators of S_n."""
        return adjacent_transposition_generators(self.n)


@dataclass
class PermutationOp:
    """A permutation of tensor factors together with its dense matrix."""

    perm: tuple
    target: str  # "copies" or "qubits"
    matrix: np.ndarray = field(repr=False)


def permutation_operator(perm, target="copies", qubits_per_copy=1):
    """Dense operator permuting tensor factors.

    Factor i is moved to slot perm[i], so P (psi_0 x ... x psi_{m-1})
    places psi_{perm^-1(j)} at slot j. With target="qubits" each factor
    is one qubit; with target="copies" each factor is a register of
    ``qubits_per_copy`` qubits.
    """
    perm = tuple(int(p) for p in perm)
    m = len(perm)
    if sorted(perm) != list(range(m)):
        raise ValueError(f"{perm} is not a permutation of 0..{m - 1}")
    if target not in ("copies", "qubits"):
        raise ValueError(f"unknown target {target!r}")
    q = 2**qubits_per_copy if target == "copies" else 2
    dim = q**m
    matrix = np.zeros((dim, dim), dtype=complex)
    shifts = [q ** (m - 1 - t) for t in range(m)]
    for a in range(dim):
        digits = [(a // shifts[t]) % q for t in range(m)]
        b = sum(digits[t] * shifts[perm[t]] for t in range(m))
        matrix[b, a] = 1.0
    return PermutationOp(perm=perm, target=target, matrix=matrix)


def adjacent_transposition_generators(n):
    """Matrices for the transpositions (i, i+1) on n qubits.

    S_1 is trivial; its generator list is just the identity.
    """
    if n == 1:
        return [np.eye(2, dtype=complex)]
    gens = []
    for i in range(n - 1):
        p = list(range(n))
        p[i], p[i + 1] = p[i + 1], p[i]
        gens.append(permutation_operator(p, target="qubits").matrix)
    return gens


def brauer_basis_k2(n):
    """Spanning set of the k=2 commutant of O(2^n).

    Returns [identity, register SWAP, Bell projector] on 2n qubits; each
    commutes with V x V for every orthogonal V.
    """
    d = 2**n
    swap = permutation_operator((1, 0), target="copies", qubits_per_copy=n).matrix
    return [np.eye(d * d, dtype=complex), swap, dm(bell_state(n))]


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


@dataclass
class CommutantReport:
    dimension: int
    singular_values: np.ndarray = field(repr=False)
    gap_ratio: float
    cutoff: float
    ambiguous: bool


MAX_COMMUTANT_DIM = 64  # largest d^k the dense constraint solver accepts

_RANK_RTOL = 1e-8


def _commutation_constraints(element, k):
    """Rows of W -> vec(A W - W A) for A = element^(x k), row-major vec."""
    a = tensor_power(element, k)
    dd = a.shape[0]
    eye = np.eye(dd)
    return np.kron(a, eye) - np.kron(eye, a.T)


def _stacked_singular_spectrum(blocks):
    """Singular values of the vertical stack of constraint blocks.

    Blocks are folded in one at a time, keeping only the scaled row basis
    (S V^h) between steps so memory stays bounded; this preserves the
    stack's singular spectrum up to far-below-cutoff truncation error.
    """
    basis = None
    s = None
    for block in blocks:
        stack = block if basis is None else np.vstack([basis, block])
        _, s, vh = np.linalg.svd(stack, full_matrices=False)
        keep = s > s[0] * 1e-12
        basis = s[keep, None] * vh[keep]
    return s


def commutant_analysis(group, k, n_samples=20):
    """Dimension of {W : [W, V^(x k)] = 0 for all V} with rank diagnostics.

    ``group`` is a GroupSampler or an explicit list of group-element
    matrices. SymmetricSampler instances contribute their exact
    adjacent-transposition generators instead of random draws.
    """
    if isinstance(group, SymmetricSampler):
        elements = group.generators()
    elif isinstance(group, GroupSampler):
        elements = group.take(n_samples)
    else:
        elements = [np.asarray(g) for g in group]
    if not elements:
        raise ValueError("need at least one group element")
    d = elements[0].shape[0]
    if d**k > MAX_COMMUTANT_DIM:
        raise ValueError(
            f"system too large: d^k = {d**k} exceeds {MAX_COMMUTANT_DIM}"
        )
    s = _stacked_singular_spectrum(
        _commutation_constraints(el, k) for el in elements
    )
    cutoff = float(_RANK_RTOL * s[0])
    rank = int((s > cutoff).sum())
    dim = len(s) - rank
    if dim == 0 or s[rank] == 0.0:
        gap_ratio = float("inf")
    else:
        gap_ratio = float(s[rank - 1] / s[rank])
    ambiguous = bool(0 < rank < len(s) and (s[rank - 1] - s[rank]) < 10 * cutoff)
    if ambiguous:
        warnings.warn(
            f"commutant rank ambiguous: singular values straddle the cutoff "
            f"({s[rank - 1]:.3e} vs {s[rank]:.3e})",
            RuntimeWarning,
        )
    return CommutantReport(dim, s, gap_ratio, cutoff, ambiguous)


def commutant_dimension(group, k, n_samples=20):
    """Dimension of the k-th order commutant (see commutant_analysis)."""
    return commutant_analysis(group, k, n_samples=n_samples).dimension
