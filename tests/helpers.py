"""States and checks that only the tests use."""

import numpy as np

from ginv import groups
from ginv.groups import _adjacent_transpositions, permutation_operator
from ginv.tensor import ATOL, is_hermitian, tensor_power


def random_density_matrix(dim, rng, rank=None):
    """Random full-rank (or rank-limited) density matrix."""
    rank = dim if rank is None else rank
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def check_density_matrix(rho, tol=None):
    """Raise ValueError unless rho is Hermitian, unit trace, and PSD."""
    tol = ATOL if tol is None else tol
    rho = np.asarray(rho)
    if not is_hermitian(rho, tol):
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > tol:
        raise ValueError(f"density matrix trace {np.trace(rho)} != 1")
    if np.linalg.eigvalsh(rho).min() < -tol:
        raise ValueError("density matrix has a negative eigenvalue")


def ghz_state(n):
    """(|0...0> + |1...1>)/sqrt(2)."""
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = psi[-1] = 1 / np.sqrt(2)
    return psi


def adjacent_transposition_generators(n):
    """Matrices for the transpositions (i, i+1) on n qubits.

    S_1 is trivial; its generator list is just the identity.
    """
    if n == 1:
        return [np.eye(2, dtype=complex)]
    return [permutation_operator(p, target="qubits") for p in _adjacent_transpositions(n)]


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
            if below > 0:
                gap_ratio = min(gap_ratio, float(above / below))
            ambiguous |= bool(above - below < 10 * groups._CUTOFF)
        basis = np.tensordot(vh[null].conj(), basis, axes=1)
    return groups.CommutantReport(len(basis), start_dimension, gap_ratio, groups._CUTOFF, ambiguous)
