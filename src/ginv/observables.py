"""Invariant measurement operators and their reduced-purity oracles.

An observable acts on k copies of an n-qubit register; copy A occupies
qubits 0..n-1 and copy B qubits n..2n-1 of the doubled register. The
function that makes it fixes its kind: a swap polynomial, the Bell
projector, a Pauli string or a dense matrix. Structured kinds are valued
from the state itself and build their dense ``matrix`` on first access.

A swap polynomial reads every reduced purity Tr[rho_a^2] from one
Pauli-weight transform of the state (``subset_purities``), or, when each
of its terms acts on at most one qubit, from the entries of the one-qubit
marginals. The same transform, without the identity, gives the moments
``xyz_moments`` of state vectors that value a tensor power of a Bloch axis
(a.sigma)^(x n) as a polynomial in a. ``Observable.pure_values`` values a
stack of pure states from the vectors, O(d) a state for a Pauli string and
the Bell projector, through |s><s| for the other kinds. Each
entanglement observable has a companion ``*_oracle`` evaluating the same
quantity from partial traces (``subset_purity``), an independent route;
the runner and the tests hold the two against each other.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from . import tensor
from .tensor import ATOL, bell_state, dm, kron_all, num_qubits, partial_trace

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


# eq=False: == is identity, not a comparison of (first built) dense matrices
@dataclass(eq=False)
class Observable:
    """A Hermitian operator on k copies of an n-qubit register, held dense."""

    matrix: np.ndarray = field(repr=False)
    copies: int
    qubits_per_copy: int
    tag: str
    kind = "dense"

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix)
        if self.matrix.shape != (self.dim, self.dim):
            raise ValueError(f"{self.tag}: dimension {self.matrix.shape} != {self.dim}")
        if not tensor.is_hermitian(self.matrix):
            raise ValueError(f"{self.tag}: matrix is not Hermitian")

    @property
    def dim(self):
        return (2**self.qubits_per_copy) ** self.copies

    def expectation(self, rho):
        """Tr[rho^(x copies) O] for one register state, or per state of a
        (B, d, d) stack; a single state is scored as a stack of one."""
        rho = np.asarray(rho)
        if rho.shape[-1] != 2**self.qubits_per_copy:
            raise ValueError(f"input dim {rho.shape[-1]} != 2^{self.qubits_per_copy}")
        values = self._values(rho if rho.ndim == 3 else rho[None])
        return values if rho.ndim == 3 else float(values[0])

    def _values(self, stack):
        return tensor.expectation_copies(stack, self.copies, self.matrix)

    def pure_values(self, states):
        """Tr[(|s><s|)^(x copies) O] per unit vector s of a (B, d) stack."""
        states = np.asarray(states)
        if states.ndim != 2 or states.shape[-1] != 2**self.qubits_per_copy:
            raise ValueError(f"states shape {states.shape} is not (B, 2^{self.qubits_per_copy})")
        return self._pure_values(states)

    def _pure_values(self, states):
        return self._values(dm(states))

    @cached_property
    def levels(self):
        """(hi, lo), the extreme eigenvalues of a matrix with at most two
        distinct ones (to ATOL), from one eigvalsh, else None; U^dag O U keeps them."""
        w = np.linalg.eigvalsh(self.matrix)
        hi, lo = float(w[-1]), float(w[0])
        return (hi, lo) if np.all(np.minimum(hi - w, w - lo) <= ATOL) else None


class SwapPolynomial(Observable):
    """sum_a c_a SWAP_a over qubit subsets a, SWAP_a = prod_{j in a} SWAP_j,
    valued sum_a c_a Tr[rho_a^2]; ``coeffs`` is indexed by the bit mask of a,
    with bit n-1-j for qubit j."""

    kind = "swap"

    def __init__(self, terms, n, tag):
        """From (qubits of a, c_a) pairs; repeated subsets add up."""
        self.coeffs = np.zeros(2**n)
        for qubits, c in terms:
            if any(not 0 <= j < n for j in qubits):
                raise ValueError(f"qubit index in {list(qubits)} out of range for n={n}")
            self.coeffs[sum(1 << (n - 1 - j) for j in qubits)] += c
        self.copies, self.qubits_per_copy, self.tag = 2, n, tag

    @cached_property
    def matrix(self):
        d = 2**self.qubits_per_copy
        x, y = np.divmod(np.arange(d * d), d)
        m = np.zeros((d * d, d * d), dtype=complex)
        for a in np.flatnonzero(self.coeffs):
            # SWAP_a exchanges the bits in a between the copies' indices x, y
            m[(x & ~a | y & a) * d + (y & ~a | x & a), x * d + y] += self.coeffs[a]
        return m

    @cached_property
    def _values(self):
        """The values of a (B, d, d) stack: a function on a route fixed by the masks."""
        masks = np.flatnonzero(self.coeffs)
        c = self.coeffs[masks]
        if masks.tolist() == [len(self.coeffs) - 1]:
            # a lone whole-register term needs only Tr[rho^2]
            return lambda stack: c[0] * np.real(np.einsum("bij,bji->b", stack, stack))
        if any(a & (a - 1) for a in masks):
            return lambda stack: subset_purities(stack)[:, masks] @ c
        purities = _one_qubit_purities(masks, len(self.coeffs))
        return lambda stack: purities(stack) @ c

    def shot_distribution(self, rho):
        """Levels f(z) = sum_a (-1)^{z.a} c_a and probabilities
        2^-n sum_a (-1)^{z.a} Tr[rho_a^2] of the parallel swap test outcomes
        z, projectors prod_j (1 + (-1)^{z_j} SWAP_j) / 2 (Beckey, Gigena,
        Coles, Cerezo, arXiv:2104.06923): two Walsh-Hadamard transforms.
        A (B, d, d) stack gets (B, 2^n) probabilities, one row per state."""
        n = self.qubits_per_copy
        probs = np.clip(subset_purities(rho) @ self._walsh / 2**n, 0.0, None)
        return self._walsh @ self.coeffs, probs / probs.sum(axis=-1, keepdims=True)

    @cached_property
    def _walsh(self):
        """The read-only (2^n, 2^n) Walsh-Hadamard matrix, entries +-1."""
        walsh = kron_all([np.array([[1.0, 1.0], [1.0, -1.0]])] * self.qubits_per_copy)
        walsh.flags.writeable = False
        return walsh


class BellProjector(Observable):
    """The Bell projector on 2n qubits, valued Tr[rho rho^T] / d."""

    kind = "bell"
    levels = (1.0, 0.0)

    def __init__(self, n):
        self.copies, self.qubits_per_copy, self.tag = 2, n, "bell_projector"

    @cached_property
    def matrix(self):
        return dm(bell_state(self.qubits_per_copy))

    def _values(self, stack):
        return np.real(np.einsum("bij,bij->b", stack, stack)) / stack.shape[-1]

    def _pure_values(self, states):
        # <Phi|s s> = s^T s / sqrt(d)
        return np.abs(np.einsum("bi,bi->b", states, states)) ** 2 / states.shape[-1]


class PauliString(Observable):
    """A tensor product of Pauli letters, qubit 0 first: P e_i = phase[i] e_flip[i],
    flip[i] = i ^ x, x the mask of the X and Y letters (bit n-1-j for qubit j),
    so a state is valued in O(d) by one gather (Aaronson, Gottesman, quant-ph/0406196)."""

    kind = "pauli"

    def __init__(self, word):
        self.copies, self.qubits_per_copy, self.tag = 1, len(word), word
        x = int("".join("01"[c in "XY"] for c in word), 2)
        # a letter's column sums are its column phases: I, X (1, 1), Y (i, -i), Z (1, -1)
        self.flip, self.phase = np.arange(self.dim) ^ x, kron_all([PAULI[c].sum(0) for c in word])
        self.levels = (1.0, 1.0) if set(word) == {"I"} else (1.0, -1.0)

    @cached_property
    def matrix(self):
        return kron_all([PAULI[c] for c in self.tag])

    def _values(self, stack):
        # Tr[rho P] = sum_i phase[i] rho[i, flip[i]]
        return np.real(stack[:, np.arange(len(self.flip)), self.flip] @ self.phase)

    def _pure_values(self, states):
        # <s|P|s> = sum_i phase[i] conj(s[flip[i]]) s[i]
        return np.real((states[:, self.flip].conj() * states) @ self.phase)


def _subsets(qubits):
    """Every subset of ``qubits``, the empty one first."""
    return [a for r in range(len(qubits) + 1) for a in combinations(qubits, r)]


def swap_operator(n):
    """Register SWAP between two copies of n qubits; <SWAP> = Tr[rho^2]."""
    return SwapPolynomial([(range(n), 1.0)], n, "swap")


def swap_j(j, n):
    """SWAP of the j-th qubits of the two copies; <swap_j> = Tr[rho_j^2]."""
    return SwapPolynomial([([j], 1.0)], n, f"swap_{j}")


def bell_projector(n):
    """Rank-1 projector onto the unit-normalised Bell state on 2n qubits."""
    return BellProjector(n)


def impurity_observable(j, n):
    """2(1 - SWAP_j); expectation is twice the impurity of the j-th marginal."""
    return SwapPolynomial([((), 2.0), ([j], -2.0)], n, f"impurity_{j}")


def meyer_wallach_observable(n):
    """(2/n) sum_j (1 - SWAP_j), the average single-qubit impurity measure."""
    terms = [((), 2.0)] + [([j], -2.0 / n) for j in range(n)]
    return SwapPolynomial(terms, n, "meyer_wallach")


def concentratable_observable(q_set, n):
    """1 - 2^-|Q| prod_{j in Q} (1 + SWAP_j) for a nonempty qubit subset Q.

    Expectation equals 1 - 2^-|Q| sum_{a subset of Q} Tr[rho_a^2].
    """
    q_set = sorted(set(int(q) for q in q_set))
    if not q_set:
        raise ValueError("concentratable observable requires a nonempty subset")
    terms = [((), 1.0)] + [(a, -(0.5 ** len(q_set))) for a in _subsets(q_set)]
    return SwapPolynomial(terms, n, f"concentratable_{q_set}")


def ntangle_observable(n):
    """1 - 2^-n prod_j (1 - SWAP_j); a signed-purity entanglement measure."""
    terms = [((), 1.0)] + [(a, -((-1) ** len(a)) / 2**n) for a in _subsets(range(n))]
    return SwapPolynomial(terms, n, "ntangle")


def pauli_string(word):
    """Tensor product of Pauli operators, e.g. "YZX", as a PauliString."""
    word = word.upper()
    if not word or any(c not in PAULI for c in word):
        raise ValueError(f"invalid Pauli string {word!r}")
    return PauliString(word)


def hermitize(a, copies=1):
    """Hermitian and anti-Hermitian parts (A + A^dag)/2 and i(A - A^dag)/2.

    Both parts commute with everything A commutes with, so they stay
    inside any commutant containing A.
    """
    a = np.asarray(a)
    n = num_qubits(a.shape[0]) // copies
    re = (a + a.conj().T) / 2
    im = 1j * (a - a.conj().T) / 2
    return (
        Observable(re, copies=copies, qubits_per_copy=n, tag="hermitize_re"),
        Observable(im, copies=copies, qubits_per_copy=n, tag="hermitize_im"),
    )


# Per qubit, the entries (00, 01, 10, 11) of an operator over its (row bit,
# column bit) pair map to its weights on I, X, Y, Z. Y's factor i is left
# out: it makes a weight i^k times a real one, and leaves its square.
_PAULI_WEIGHTS = np.array(
    [[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0], [0.0, 1.0, -1.0, 0.0], [1.0, 0.0, 0.0, -1.0]]
)
# Per qubit, the squared weights that Tr[rho_a^2] sums: I's alone for a qubit
# outside a (row 0), half of all four for a qubit inside a (row 1).
_SUPPORT = np.array([[1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.5, 0.5]])


def subset_purities(rho):
    """Tr[rho_a^2] of every qubit subset a of a Hermitian n-qubit rho, or per
    state of a (B, d, d) stack: shape (2^n,) or (B, 2^n), indexed by the bit
    mask of a, with bit n-1-j for qubit j.

    Tr[rho_a^2] = 2^-|a| sum_{P supported in a} Tr[rho P]^2 over Pauli strings
    P. The 4^n weights come from ``_pauli_weights``; their squares then go
    through n per-qubit 2 x 4 support maps. No step loops over subsets.
    """
    rho = np.ascontiguousarray(rho, dtype=complex)
    d = rho.shape[-1]
    n = num_qubits(d)
    x = _pauli_weights(rho.reshape(-1, d, d), _PAULI_WEIGHTS)
    b = x.shape[1]
    squares = x[..., 0] ** 2 + x[..., 1] ** 2
    for j in range(n):
        squares = np.matmul(_SUPPORT, squares.reshape(2**j, 4, -1))
    purities = squares.reshape(2**n, b).T
    return purities if rho.ndim == 3 else purities[0]


def _pauli_weights(stack, letters):
    """Weights of a contiguous complex (B, d, d) stack on the n-qubit Pauli
    strings over ``letters``, rows of ``_PAULI_WEIGHTS``: shape (r^n, B, 2),
    real and imaginary parts, with r letters and string p at the base-r
    number of its letters, qubit 0 first. The weight is Tr[rho p] / i^(Y
    count of p).

    One per-qubit map over the qubit's axis of 4 entries per step, applied to
    the real and imaginary parts at once; no step loops over strings.
    """
    b, d = len(stack), stack.shape[-1]
    n = num_qubits(d)
    # axes (r_1, c_1, ..., r_n, c_n, state, real/imaginary): one axis of 4 per qubit
    t = stack.view(np.float64).reshape((b,) + (2,) * (2 * n + 1))
    order = [a for j in range(n) for a in (1 + j, 1 + n + j)] + [0, 2 * n + 1]
    x = t.transpose(order).reshape(4**n, -1)
    for j in range(n):
        x = np.matmul(letters, x.reshape(len(letters) ** j, 4, -1))
    return x.reshape(-1, b, 2)


def xyz_counts(n):
    """The letter counts (kx, ky, kz), kx + ky + kz = n, of the strings in
    {X, Y, Z}^n, in the order of ``xyz_moments``: kx, then ky, ascending.
    Shape ((n+1)(n+2)/2, 3)."""
    kx, ky = np.divmod(np.arange((n + 1) ** 2), n + 1)
    keep = kx + ky <= n
    return np.stack([kx[keep], ky[keep], n - kx[keep] - ky[keep]], axis=1)


def xyz_moments(states):
    """S_k(psi) = sum of Re <psi|p|psi> over the strings p in {X, Y, Z}^n
    with the letter counts k, for each k of ``xyz_counts(n)``, of one n-qubit
    state vector or per vector of a (B, d) stack: shape (T,) or (B, T),
    T = (n+1)(n+2)/2.

    A tensor power of a Bloch axis is a polynomial in it:
    <psi|(a.sigma)^(x n)|psi> = sum_k a_x^kx a_y^ky a_z^kz S_k(psi). The 3^n
    weights come from the Pauli-weight transform without the identity, of
    |psi><psi| formed one block of states at a time.
    """
    states = np.asarray(states, dtype=complex)
    d = states.shape[-1]
    n = num_qubits(d)
    stack = states.reshape(-1, d)
    # letters as base-3 digits, qubit 0 first: 0 = X, 1 = Y, 2 = Z
    digits = np.arange(3**n)[:, None] // 3 ** np.arange(n - 1, -1, -1) % 3
    kx, ky = (digits == 0).sum(axis=1), (digits == 1).sum(axis=1)
    # Re Tr[rho p] = Re(i^ky (w_re + i w_im)): w_re, -w_im, -w_re, w_im by ky mod 4
    re, im = np.array([1.0, 0.0, -1.0, 0.0])[ky % 4], np.array([0.0, -1.0, 0.0, 1.0])[ky % 4]
    # each string adds to the column of its counts: one 0/1 matrix product
    _, column = np.unique(kx * (n + 1) + ky, return_inverse=True)
    group = np.zeros((column.max() + 1, 3**n))
    group[column, np.arange(3**n)] = 1.0
    # blocks of about 2^18 entries of |s><s| keep the transform's copies to 4 MiB
    step = max(1, 2**18 // (d * d))
    blocks = []
    for i in range(0, len(stack), step):
        s = stack[i:i + step]
        x = _pauli_weights(dm(s), _PAULI_WEIGHTS[1:])
        blocks.append(group @ (x[..., 0] * re[:, None] + x[..., 1] * im[:, None]))
    moments = np.concatenate(blocks, axis=1).T
    return moments if states.ndim == 2 else moments[0]


def _one_qubit_purities(masks, d):
    """Tr[rho_a^2] at masks a of at most one qubit, as a function of a (B, d, d)
    stack: p0^2 + p1^2 + 2|c|^2 from the diagonal sums p0, p1 and off-diagonal
    sum c of each one-qubit marginal, one gather for all masks; Tr[rho]^2 at a = 0."""
    bits = np.maximum(masks, 1)  # the empty mask's row is replaced
    low = np.array([np.flatnonzero((np.arange(d) & a) == 0) for a in bits])
    high, empty = low + bits[:, None], masks == 0

    def purities(stack):
        diag = np.real(np.diagonal(stack, axis1=1, axis2=2))
        p0, p1 = diag[:, low].sum(axis=2), diag[:, high].sum(axis=2)
        c = stack[:, low, high].sum(axis=2)
        result = p0**2 + p1**2 + 2 * (c.real**2 + c.imag**2)
        result[:, empty] = diag.sum(axis=1)[:, None] ** 2
        return result

    return purities


def subset_purity(rho, subset):
    """Tr[rho_a^2] of the marginal on ``subset`` by a partial trace, per
    state of a stack; the oracles' route."""
    reduced = partial_trace(rho, subset)
    purity = np.real(np.einsum("...ij,...ji->...", reduced, reduced))
    return purity if purity.ndim else float(purity)


def impurity_oracle(rho, j):
    return 2.0 * (1.0 - subset_purity(rho, [j]))


def meyer_wallach_oracle(rho):
    n = num_qubits(rho.shape[-1])
    return (2.0 / n) * sum(1.0 - subset_purity(rho, [j]) for j in range(n))


def concentratable_oracle(rho, q_set):
    q_set = sorted(set(q_set))
    if not q_set:
        raise ValueError("concentratable oracle requires a nonempty subset")
    return 1.0 - sum(subset_purity(rho, a) for a in _subsets(q_set)) / 2 ** len(q_set)


def ntangle_oracle(rho):
    n = num_qubits(rho.shape[-1])
    total = sum((-1) ** len(a) * subset_purity(rho, a) for a in _subsets(range(n)))
    return 1.0 - total / 2**n


ENTANGLEMENT_MEASURES = {
    "impurity": lambda rho: impurity_oracle(rho, 0),
    "meyer_wallach": meyer_wallach_oracle,
    "concentratable": lambda rho: concentratable_oracle(
        rho, range(num_qubits(rho.shape[-1]))
    ),
    "ntangle": ntangle_oracle,
}


def entanglement_observable(measure, n):
    """Observable for a named entanglement measure tag."""
    if measure == "impurity":
        return impurity_observable(0, n)
    if measure == "meyer_wallach":
        return meyer_wallach_observable(n)
    if measure == "concentratable":
        return concentratable_observable(range(n), n)
    if measure == "ntangle":
        return ntangle_observable(n)
    raise ValueError(f"unknown entanglement measure {measure!r}")
