"""Invariant measurement operators and their reduced-purity oracles.

An observable acts on k copies of an n-qubit register; copy A occupies
qubits 0..n-1 and copy B qubits n..2n-1 of the doubled register. The
function that makes it fixes its kind: a swap polynomial, the Bell
projector, or a dense matrix. The structured kinds are valued from the
state itself and build their dense ``matrix`` on first access.

Each entanglement observable has a companion ``*_oracle`` evaluating the
same quantity from reduced-state purities via partial traces; tests hold
the two routes against each other.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from . import tensor
from .tensor import ATOL, bell_state, dm, kron_all, num_qubits, pair_layout, partial_trace

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass
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
        if not tensor.is_hermitian(self.matrix, ATOL):
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
        return tensor.expectation_copies(stack, self.copies, self._operand)

    @cached_property
    def _operand(self):
        """The matrix as expectation_copies reads it, in pair layout at k = 2."""
        return pair_layout(self.matrix) if self.copies == 2 else self.matrix


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

    def _values(self, stack):
        masks = np.flatnonzero(self.coeffs)
        return self.coeffs[masks] @ self._purities(stack, masks)

    def _purities(self, stack, masks):
        """Tr[rho_a^2] per subset mask (rows) and state (columns)."""
        n = self.qubits_per_copy
        subsets = ([j for j in range(n) if a >> (n - 1 - j) & 1] for a in masks)
        return np.array([subset_purity(stack, s) for s in subsets]).reshape(len(masks), -1)

    def shot_distribution(self, rho):
        """Levels f(z) = sum_a (-1)^{z.a} c_a and probabilities
        2^-n sum_a (-1)^{z.a} Tr[rho_a^2] of the parallel swap test outcomes
        z, projectors prod_j (1 + (-1)^{z_j} SWAP_j) / 2 (Beckey, Gigena,
        Coles, Cerezo, arXiv:2104.06923): two Walsh-Hadamard transforms."""
        n = self.qubits_per_copy
        walsh = kron_all([np.array([[1.0, 1.0], [1.0, -1.0]])] * n)
        purities = self._purities(np.asarray(rho)[None], np.arange(2**n))[:, 0]
        probs = np.clip(walsh @ purities / 2**n, 0.0, None)
        return walsh @ self.coeffs, probs / probs.sum()


class BellProjector(Observable):
    """The Bell projector on 2n qubits, valued Tr[rho rho^T] / d."""

    kind = "bell"

    def __init__(self, n):
        self.copies, self.qubits_per_copy, self.tag = 2, n, "bell_projector"

    @cached_property
    def matrix(self):
        return dm(bell_state(self.qubits_per_copy))

    def _values(self, stack):
        return np.real(np.einsum("bij,bij->b", stack, stack)) / stack.shape[-1]


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
    """Tensor product of Pauli operators, e.g. "YZX".

    Returns (observable, odd_y) where odd_y flags an odd number of Y
    factors, i.e. a purely imaginary (skew-symmetric times i) operator.
    """
    word = word.upper()
    if not word or any(c not in PAULI for c in word):
        raise ValueError(f"invalid Pauli string {word!r}")
    m = kron_all([PAULI[c] for c in word])
    odd_y = word.count("Y") % 2 == 1
    obs = Observable(m, copies=1, qubits_per_copy=len(word), tag=word)
    return obs, odd_y


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


def ghz_state(n):
    """(|0...0> + |1...1>)/sqrt(2)."""
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = psi[-1] = 1 / np.sqrt(2)
    return psi


def w_state(n):
    """Equal superposition of the n single-excitation basis states."""
    psi = np.zeros(2**n, dtype=complex)
    for j in range(n):
        psi[2 ** (n - 1 - j)] = 1 / np.sqrt(n)
    return psi


def subset_purity(rho, subset):
    """Tr[rho_a^2] of the marginal on ``subset``, per state of a stack."""
    reduced = partial_trace(rho, subset)
    purity = np.real(np.einsum("...ij,...ji->...", reduced, reduced))
    return purity if purity.ndim else float(purity)


def impurity_oracle(rho, j):
    return 2.0 * (1.0 - subset_purity(rho, [j]))


def meyer_wallach_oracle(rho):
    n = num_qubits(rho.shape[0])
    return (2.0 / n) * sum(1.0 - subset_purity(rho, [j]) for j in range(n))


def concentratable_oracle(rho, q_set):
    q_set = sorted(set(q_set))
    if not q_set:
        raise ValueError("concentratable oracle requires a nonempty subset")
    return 1.0 - sum(subset_purity(rho, a) for a in _subsets(q_set)) / 2 ** len(q_set)


def ntangle_oracle(rho):
    n = num_qubits(rho.shape[0])
    total = sum((-1) ** len(a) * subset_purity(rho, a) for a in _subsets(range(n)))
    return 1.0 - total / 2**n


ENTANGLEMENT_MEASURES = {
    "impurity": lambda rho: impurity_oracle(rho, 0),
    "meyer_wallach": meyer_wallach_oracle,
    "concentratable": lambda rho: concentratable_oracle(
        rho, range(num_qubits(rho.shape[0]))
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
