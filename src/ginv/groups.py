"""Symmetry-group samplers and numerical invariance machinery.

Four group kinds are supported: the full unitary group U(d), the real
orthogonal group O(d), products of single-qubit unitaries, and qubit
permutations. Samplers own a seeded random stream and are deterministic
per seed; they are not meant to be shared across threads.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .observables import bell_projector, swap_operator
from .tensor import kron_all, tensor_power


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
        return permutation_operator(perm, target="qubits")

    def generators(self):
        """Exact adjacent-transposition generators of S_n."""
        return adjacent_transposition_generators(self.n)


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
    return matrix


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
        gens.append(permutation_operator(p, target="qubits"))
    return gens


def brauer_basis_k2(n):
    """Spanning set of the k=2 commutant of O(2^n).

    Returns [identity, register SWAP, Bell projector] on 2n qubits; each
    commutes with V x V for every orthogonal V.
    """
    return [np.eye(4**n, dtype=complex), swap_operator(n).matrix, bell_projector(n).matrix]


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
    start_dimension: int  # size of the block-diagonal space the solve starts from
    gap_ratio: float
    cutoff: float
    ambiguous: bool


MAX_COMMUTANT_DIM = 64  # largest d^k the commutant solver accepts

# Absolute cutoff on the singular values of W -> A W - W A over an
# orthonormal basis: for a unitary A the commutator of a unit-norm W has
# norm at most 2, so the cutoff needs no scaling with the spectrum.
_CUTOFF = 1e-8
# Largest norm of V V^H - V^H V for a normal V, and of the off-diagonal
# part of q^H V q for q to count as V's eigenframe.
_FRAME_TOL = 1e-9
# Weight of the anti-Hermitian part in _eigenframe. Unit eigenvalues e^(ia),
# e^(ib) collide only if a + b = 2 arctan(sqrt 2) mod 2 pi, no rational
# multiple of pi (its cosine is -1/3), so roots of unity never collide.
_ALPHA = np.sqrt(2)


def _eigenframe(v):
    """Unitary q with q^H v q diagonal to _FRAME_TOL, or None.

    For a normal v the Hermitian parts X = (v + v^H)/2 and
    Y = (v - v^H)/2i commute, so the eigenvectors of X + alpha Y
    diagonalise v unless alpha maps two eigenvalues of v onto one.
    """
    x = (v + v.conj().T) / 2
    y = (v - v.conj().T) / 2j
    _, q = np.linalg.eigh(x + _ALPHA * y)
    t = q.conj().T @ v @ q
    if np.linalg.norm(t - np.diag(np.diagonal(t))) > _FRAME_TOL:
        return None
    return q


def _block_labels(products):
    """Label of each tensor index: the first index of its block.

    Indices whose eigenvalue products lie within _CUTOFF of each other share
    a block, and so do chains of them, so a block is merged, never split.
    """
    linked = np.abs(products[:, None] - products[None, :]) <= _CUTOFF
    while True:
        closure = (linked.astype(np.int64) @ linked) > 0
        if (closure == linked).all():
            return np.argmax(linked, axis=1)
        linked = closure


def _start_basis(labels):
    """Orthonormal basis of the block-diagonal matrices: one elementary
    matrix E_ab per index pair (a, b) in the same block."""
    rows, cols = np.nonzero(labels[:, None] == labels[None, :])
    basis = np.zeros((len(rows), len(labels), len(labels)), dtype=complex)
    basis[np.arange(len(rows)), rows, cols] = 1.0
    return basis


def commutant_analysis(group, k, n_samples=20):
    """Dimension of {W : [W, V^(x k)] = 0 for all V} with rank diagnostics.

    ``group`` is a GroupSampler or an explicit list of unitary group-element
    matrices. SymmetricSampler instances contribute their exact
    adjacent-transposition generators instead of random draws.

    The solve works in an eigenframe q of one element V_0, the first that
    has one, where the commutant of V_0^(x k) lies in the block-diagonal
    matrices whose blocks group the tensor indices by equal eigenvalue
    products; ``start_dimension`` counts them. Each element, V_0 included,
    then restricts that space to the nullspace of W -> A W - W A, A the
    element's tensor power in the frame q^(x k). ``gap_ratio`` is the
    smallest ratio, over these steps, of the smallest singular value above
    the cutoff to the largest one at or below it. Raises ValueError for an
    element that is not normal.
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
    stack = np.array(elements)
    drift = np.linalg.norm(stack @ stack.conj().swapaxes(1, 2)
                           - stack.conj().swapaxes(1, 2) @ stack, axis=(1, 2))
    if drift.max() > _FRAME_TOL:
        raise ValueError(f"group element {int(drift.argmax())} is not normal")
    for start, v in enumerate(stack):
        q = _eigenframe(v)
        if q is not None:
            break
    else:
        raise ValueError("no group element could be diagonalised to "
                         f"{_FRAME_TOL:g}; pass a better conditioned element")
    frame = q.conj().T @ stack @ q
    basis = _start_basis(_block_labels(np.diagonal(tensor_power(frame[start], k))))
    start_dimension = len(basis)
    gap_ratio = float("inf")
    straddles = []
    # The start element goes last: by then the others have shrunk the space,
    # and its own step only removes products merged across the cutoff.
    for t in np.roll(frame, -(start + 1), axis=0):
        if not len(basis):
            break
        a = tensor_power(t, k)
        commutators = a @ basis
        commutators -= basis @ a
        commutators = commutators.reshape(len(basis), -1)
        # R of a QR has the singular values and right vectors of the
        # commutator map and is r x r, which the SVD then handles cheaply.
        _, s, vh = np.linalg.svd(np.linalg.qr(commutators.T, mode="r"))
        null = s <= _CUTOFF
        if null.any() and not null.all():
            above, below = s[~null].min(), s[null].max()
            if below > 0:
                gap_ratio = min(gap_ratio, float(above / below))
            if above - below < 10 * _CUTOFF:
                straddles.append((above, below))
        basis = np.tensordot(vh[null].conj(), basis, axes=1)
    ambiguous = bool(straddles)
    if ambiguous:
        above, below = straddles[0]
        warnings.warn(
            f"commutant rank ambiguous: singular values straddle the cutoff "
            f"({above:.3e} vs {below:.3e})",
            RuntimeWarning,
        )
    return CommutantReport(len(basis), start_dimension, gap_ratio, _CUTOFF, ambiguous)
