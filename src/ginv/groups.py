"""Symmetry-group samplers and the commutant of their tensor powers.

Four groups are supported: the full unitary group U(d), the real
orthogonal group O(d), products of single-qubit unitaries, and qubit
permutations. Each sampler draws a stack of elements at once
(``draw(count)``) from a seeded random stream, deterministic per seed; it
is not meant to be shared across threads.
"""

import itertools
import math
import warnings
import weakref
from dataclasses import dataclass

import numpy as np

from .tensor import kron_all, random_statevector, tensor_power


# One stacked draw fills 64 KiB, at most 256 elements: enough to amortise the
# per-call cost of small QR factorisations while peak memory stays flat.
BLOCK_BYTES = 64 * 1024
MAX_BLOCK = 256


def block_count(d, rank=2):
    """How many complex elements of 16 d^rank bytes fill one block: 1 to
    MAX_BLOCK. Rank 2 is a d x d matrix, rank 1 a state of dimension d."""
    return max(1, min(MAX_BLOCK, BLOCK_BYTES // (16 * d**rank)))


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
    if d == 2:  # a single draw as a stack of one, for the stacked draw's bits
        return _haar_u2(z.reshape(-1, 2, 2)).reshape(z.shape)
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (ph / np.abs(ph))[..., None, :]


def _haar_u2(z):
    """Q of the phase-fixed QR of a (count, 2, 2) stack z by Gram-Schmidt:
    q0 = z_0 / ||z_0||, q1 = (r / |r|) w, w = (-conj q0[1], conj q0[0]), r = w^H z_1."""
    a = z[:, :, 0]
    q = np.empty_like(z)
    q[:, :, 0] = a / np.sqrt((a.real**2 + a.imag**2).sum(axis=1))[:, None]
    phase = q[:, 0, 0] * z[:, 1, 1] - q[:, 1, 0] * z[:, 0, 1]
    phase /= np.abs(phase)
    q[:, 0, 1] = -phase * q[:, 1, 0].conj()
    q[:, 1, 1] = phase * q[:, 0, 0].conj()
    return q


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
    """Base class: a seeded source of group elements of fixed degree.

    A subclass defines ``draw(count)``: the next ``count`` elements of the
    stream as a (count, d, d) stack, equal bit for bit to ``count`` single
    draws. ``sample()`` hands them out one at a time, a block of ``draw`` at
    a time; a ``draw`` after it starts after that whole block.
    """

    def __init__(self, dim, seed=0):
        self.dim = int(dim)
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        self._elements = self._rows(self.draw, 2)

    def sample(self):
        return next(self._elements)

    def _rows(self, draw, rank):
        """The rows of ``draw(count)`` one at a time, a block drawn when one runs out,
        sized by ``rank`` as in ``block_count`` (2 matrices, 1 states). A stack takes
        its rows' randomness in order, so each stream is the one single draws give;
        elements and states are separate generators, so they may be interleaved.
        ``draw`` is held weakly: a strong reference would close a cycle through the
        sampler, which keeps a dropped sampler and its blocks until a collection."""
        draw, count = weakref.WeakMethod(draw), block_count(self.dim, rank)
        return (row for _ in itertools.count() for row in draw()(count))


class UnitarySampler(GroupSampler):
    def __init__(self, dim, seed=0):
        super().__init__(dim, seed)
        self._states = self._rows(self._draw_states, 1)

    def draw(self, count):
        return haar_unitary(self.dim, self._rng, count)

    def _draw_states(self, count):
        return random_statevector(self.dim, self._rng, count)

    def sample(self, psi=None):
        """The next Haar-random V from a block of ``draw``; given a unit
        vector psi, the next Haar state V psi instead.

        V psi has the law of a normalised complex Gaussian vector whatever
        psi is, so no V is formed: the states come from their own block of
        ``random_statevector`` draws, sized by the 16 d bytes of a state.
        """
        if psi is None:
            return next(self._elements)
        shape = psi.shape if isinstance(psi, np.ndarray) else np.shape(psi)
        if shape != (self.dim,):
            raise ValueError(f"psi must be a vector of dimension {self.dim}, got shape {shape}")
        return next(self._states)


class OrthogonalSampler(GroupSampler):
    def draw(self, count):
        return haar_orthogonal(self.dim, self._rng, count)


class LocalUnitarySampler(GroupSampler):
    """Products V_1 x ... x V_n of independent Haar 2x2 unitaries."""

    def __init__(self, n, seed=0):
        self.n = int(n)
        super().__init__(2**self.n, seed)

    def draw(self, count):
        """All ``count * n`` factors in one stack, one product per element."""
        factors = haar_unitary(2, self._rng, count * self.n).reshape(count, self.n, 2, 2)
        return np.array([kron_all(f) for f in factors]).reshape(count, self.dim, self.dim)


class SymmetricSampler(GroupSampler):
    """Uniformly random qubit permutations of n qubits."""

    def __init__(self, n, seed=0):
        self.n = int(n)
        super().__init__(2**self.n, seed)

    def draw(self, count):
        perms = [self._rng.permutation(self.n) for _ in range(count)]
        return permutation_operator(np.reshape(perms, (count, self.n)))


def permutation_index(perm):
    """Index map of a qubit permutation: P e_a = e_idx[a].

    Qubit i is moved to slot perm[i]. ``perm`` may also be a stack (..., m)
    of permutations, giving a stack (..., 2^m) of index maps.
    """
    perm = np.asarray(perm, dtype=np.int64)
    m = perm.shape[-1]
    if (np.sort(perm, axis=-1) != np.arange(m)).any():
        raise ValueError(f"{perm.tolist()} is not a permutation of 0..{m - 1}")
    bits = np.arange(2**m)[:, None] >> np.arange(m - 1, -1, -1) & 1
    return 2 ** (m - 1 - perm) @ bits.T


def permutation_operator(perm):
    """Dense operator permuting qubits, or a (..., 2^m, 2^m) stack of them
    for a stack of permutations.

    Qubit i is moved to slot perm[i], so P (psi_0 x ... x psi_{m-1})
    places psi_{perm^-1(j)} at slot j; see ``permutation_index``.
    """
    idx = permutation_index(perm)
    matrix = np.zeros(idx.shape + idx.shape[-1:], dtype=complex)
    np.put_along_axis(matrix, idx[..., None, :], 1.0, axis=-2)
    return matrix


def _adjacent_transpositions(n):
    """The transpositions (i, i+1) of n letters, as permutations."""
    for i in range(n - 1):
        p = np.arange(n)
        p[[i, i + 1]] = i + 1, i
        yield p


@dataclass
class CommutantReport:
    dimension: int
    start_dimension: int  # size of the space the solve or the count starts from
    gap_ratio: float
    cutoff: float | None  # None for an exact orbit count
    ambiguous: bool


MAX_COMMUTANT_DIM = 64  # largest d^k the commutant solver accepts
MAX_ORBIT_PAIRS = 2**20  # largest d^(2k) the symmetric-group orbit count accepts


def commutant_excess(bits, k, orbits=False):
    """Why the commutant of degree d = 2^bits on k copies is over its cap,
    else None.

    The solve is capped at d^k <= MAX_COMMUTANT_DIM, the orbit count at
    d^(2k) <= MAX_ORBIT_PAIRS pair-index entries. The test takes bits =
    log2 d, so that a huge k or qubit count is refused without forming d^k
    or 2^n. The message writes d in decimal up to 2^32 and (2^bits) beyond.
    """
    if orbits:
        name, power, cap = "d^(2k)", 2 * k, MAX_ORBIT_PAIRS
    else:
        name, power, cap = "d^k", k, MAX_COMMUTANT_DIM
    if power * bits <= math.log2(cap):
        return None
    d = round(2**bits) if bits <= 32 else f"(2^{bits:.15g})"
    return f"{name} = {d}^{power} exceeds {cap}"

# Absolute cutoff on the singular values of W -> A W - W A over an
# orthonormal basis: for a unitary A the commutator of a unit-norm W has
# norm at most 2, so the cutoff needs no scaling with the spectrum.
_CUTOFF = 1e-8
# A null singular value at or below this is an exact zero read through rounding
# (near 1e-15 at d^k <= 64), whose digits move with the BLAS thread count.
_ROUNDING = 1e-12
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

    ``group`` is a GroupSampler, whose ``draw(n_samples)`` gives the
    elements, or an explicit list of unitary group-element matrices. For a
    SymmetricSampler the dimension is counted exactly, as the number of
    orbits on index pairs (``_orbit_count``), and nothing is drawn.

    The solve works in an eigenframe q of one element V_0, the first that
    has one, where the commutant of V_0^(x k) lies in the block-diagonal
    matrices whose blocks group the tensor indices by equal eigenvalue
    products; ``start_dimension`` counts them. Each element, V_0 included,
    then restricts that space to the nullspace of W -> A W - W A, A the
    element's tensor power in the frame q^(x k). ``gap_ratio`` is the
    smallest ratio, over these steps, of the smallest singular value above
    the cutoff to the largest one at or below it; a step whose null values
    are all at rounding level (``_ROUNDING``) adds nothing to it. A step
    whose commutators have a Frobenius norm within the cutoff keeps the
    basis unfactorised: every singular value is at most that norm, so the
    step could only rotate the basis, and it adds nothing to ``gap_ratio``.
    ``ambiguous`` and a RuntimeWarning flag a straddled cutoff and O(d)
    draws all of det +1.

    Raises ValueError, before any element is drawn or solved, for k < 1, an
    explicit element that is not a square matrix of the first one's
    dimension, and a d^k over the cap; and for an element that is not
    normal.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if isinstance(group, SymmetricSampler):
        return _orbit_count(group.n, k)
    elements = None
    if isinstance(group, GroupSampler):
        dim = group.dim
    else:
        elements = [np.asarray(g) for g in group]
        for i, g in enumerate(elements):
            if g.ndim != 2 or g.shape[0] != g.shape[1]:
                raise ValueError(f"group element {i} has shape {g.shape}, not a square matrix")
            if g.shape != elements[0].shape:
                raise ValueError(f"group element {i} has dimension {g.shape[0]}, "
                                 f"element 0 has {elements[0].shape[0]}")
        dim = elements[0].shape[0] if elements else 1  # an empty list is refused below
    if excess := commutant_excess(math.log2(dim), k):
        raise ValueError(f"system too large: {excess}")
    if elements is None:
        elements = group.draw(max(n_samples, 0))
    if not len(elements):
        raise ValueError("need at least one group element")
    stack = np.asarray(elements)
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
        if np.vdot(commutators, commutators).real <= _CUTOFF**2:
            continue  # no singular value exceeds the Frobenius norm: all null
        # R of a QR has the singular values and right vectors of the
        # commutator map and is r x r, which the SVD then handles cheaply.
        _, s, vh = np.linalg.svd(np.linalg.qr(commutators.T, mode="r"))
        null = s <= _CUTOFF
        if null.any() and not null.all():
            above, below = s[~null].min(), s[null].max()
            if below > _ROUNDING:
                gap_ratio = min(gap_ratio, float(above / below))
            if above - below < 10 * _CUTOFF:
                straddles.append((above, below))
        basis = np.tensordot(vh[null].conj(), basis, axes=1)
    problems = [f"commutant rank ambiguous: singular values straddle the cutoff "
                f"({above:.3e} vs {below:.3e})" for above, below in straddles[:1]]
    # elements of det +1 generate at most SO(d), whose commutant can be larger
    if isinstance(group, OrthogonalSampler) and (np.linalg.det(stack) > 0).all():
        problems.append(f"every O({dim}) element drawn has det +1, so the solve may have "
                        f"found the commutant of SO({dim}); draw more trials")
    for problem in problems:
        warnings.warn(problem, RuntimeWarning)
    return CommutantReport(len(basis), start_dimension, gap_ratio, _CUTOFF, bool(problems))


def _orbit_count(n, k):
    """Commutant dimension of S_n acting on (2^n)^(x k) by qubit permutations.

    A permutation representation commutes exactly with the span of the
    indicators of its group's orbits on index pairs (a, b), so the
    dimension is the number of those orbits. Each pair index of
    V^(x k) x V^(x k) is labelled by the smallest index in its orbit, found
    by min-label propagation: one gather per adjacent transposition, which
    acts by the same qubit permutation on all 2k registers, then pointer
    jumping, until a pass changes nothing.
    """
    if excess := commutant_excess(n, k, orbits=True):
        raise ValueError(f"system too large: {excess}")
    d = 2**n
    gathers = [np.ix_(*[permutation_index(p)] * (2 * k)) for p in _adjacent_transpositions(n)]
    shape = (d,) * (2 * k)
    labels = np.arange(d ** (2 * k))
    while True:
        before = labels
        for gather in gathers:
            labels = np.minimum(labels, labels.reshape(shape)[gather].ravel())
        while not np.array_equal(jumped := labels[labels], labels):
            labels = jumped
        if np.array_equal(labels, before):
            break
    roots = np.count_nonzero(labels == np.arange(labels.size))
    return CommutantReport(int(roots), labels.size, float("inf"), None, False)
