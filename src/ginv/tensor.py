"""Dense complex linear algebra kernel for few-qubit simulation.

Operators are plain (d, d) complex numpy arrays, pure states are length-d
complex vectors. Qubit 0 is the leftmost (most significant) tensor factor,
so ``kron(a, b)`` applies ``a`` to qubit 0. Everything here is a pure
function of its inputs; arrays are never mutated.
"""

import math

import numpy as np

# Global Hermiticity / PSD / trace tolerance. Single knob by design.
ATOL = 1e-10

# tensor_power refuses allocations beyond this many bytes.
MEMORY_CAP_BYTES = 2 * 1024**3


class MemoryCapError(ValueError):
    """Requested tensor power would exceed MEMORY_CAP_BYTES."""


def kron(a, b):
    """Tensor product of two operators (dimensions multiply)."""
    return np.kron(np.asarray(a), np.asarray(b))


def kron_all(mats):
    """Left-to-right tensor product of a sequence of operators."""
    out = np.asarray(mats[0])
    for m in mats[1:]:
        out = np.kron(out, np.asarray(m))
    return out


def num_qubits(dim):
    """Exact log2 of a power-of-two dimension."""
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def tensor_power(rho, k):
    """k-fold tensor product rho x rho x ... x rho.

    Raises MemoryCapError when the (d^k, d^k) result would exceed the
    configured memory cap.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    d = rho.shape[0]
    nbytes = (d**k) ** 2 * 16
    if nbytes > MEMORY_CAP_BYTES:
        raise MemoryCapError(
            f"tensor power of dimension {d}^{k} needs {nbytes} bytes, "
            f"cap is {MEMORY_CAP_BYTES}"
        )
    out = np.asarray(rho)
    for _ in range(k - 1):
        out = np.kron(out, rho)
    return out


def partial_trace(rho, keep):
    """Trace out all qubits not in ``keep``, of one operator or a stack.

    ``keep`` is an iterable of qubit indices into the m-qubit operator
    ``rho`` (or each operator of a (B, d, d) stack); the result acts on the
    kept qubits in ascending index order. An empty ``keep`` returns the
    (1, 1) matrix [[trace]].
    """
    rho = np.asarray(rho)
    m = num_qubits(rho.shape[-1])
    keep = sorted(set(int(q) for q in keep))
    if keep and (keep[0] < 0 or keep[-1] >= m):
        raise ValueError(f"keep indices {keep} out of range for {m} qubits")
    t = rho.reshape(rho.shape[:-2] + (2,) * (2 * m))
    row = list(range(m))
    # Traced qubits share the row index so einsum sums them out.
    col = [m + q if q in keep else q for q in range(m)]
    out_idx = [q for q in keep] + [m + q for q in keep]
    reduced = np.einsum(t, [...] + row + col, [...] + out_idx)
    dk = 2 ** len(keep)
    return reduced.reshape(rho.shape[:-2] + (dk, dk))


def is_hermitian(a, tol=None):
    a = np.asarray(a)
    tol = ATOL if tol is None else tol
    return a.shape[0] == a.shape[1] and np.abs(a - a.conj().T).max() <= tol


def is_unitary(a, tol=1e-9):
    a = np.asarray(a)
    if a.shape[0] != a.shape[1]:
        return False
    d = a.shape[0]
    return np.linalg.norm(a @ a.conj().T - np.eye(d)) <= tol


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


def expm_hermitian(h, t=1.0):
    """Unitary exp(-i t h) of a Hermitian generator, via eigendecomposition."""
    h = np.asarray(h)
    if not is_hermitian(h):
        raise ValueError("expm_hermitian requires a Hermitian input")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def expectation(rho, obs):
    """Real expectation value Tr[rho obs] for Hermitian obs."""
    rho = np.asarray(rho)
    obs = np.asarray(obs)
    if rho.shape != obs.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {obs.shape}")
    return float(np.real(np.einsum("ij,ji->", rho, obs)))


def expectation_copies(rho, k, obs):
    """Tr[rho^(x k) obs] for one state, or per state of a (B, d, d) stack.

    A single state is scored as a stack of one. At k = 2 a stack is one
    matrix product against obs in its pair layout; ``obs`` may be given as
    ``pair_layout(obs)``, which that product reads without copying the d^4
    entries again.
    """
    rho = np.asarray(rho)
    obs = np.asarray(obs)
    if rho.ndim == 2:
        return float(expectation_copies(rho[None], k, obs)[0])
    d = rho.shape[-1]
    if obs.shape not in ((d**k, d**k), (d,) * 2 * k):
        raise ValueError(f"observable shape {obs.shape} does not act on {d}^{k}")
    if k == 1:
        return np.real(np.einsum("bij,ji->b", rho, obs))
    if k == 2:
        # sum rho_b[i,r] rho_b[j,s] obs[(r,s),(i,j)] = a_b^T m a_b with
        # a_b = rho_b as a vector over (i,r), m[(i,r),(j,s)] = obs[(r,s),(i,j)]
        a = rho.reshape(len(rho), d * d)
        m = obs.reshape((d,) * 4).transpose(2, 0, 3, 1).reshape(d * d, d * d)
        return np.real(np.einsum("bx,bx->b", a @ m, a))
    obs = obs.reshape(d**k, d**k)
    return np.array([expectation(tensor_power(r, k), obs) for r in rho])


def pair_layout(obs):
    """A (d^2, d^2) two-copy observable as a (d, d, d, d) view.

    The view holds obs[(r,s),(i,j)] at [r, s, i, j], but its memory runs in
    (i, r, j, s) order, the matrix a stacked k = 2 expectation_copies
    multiplies by. Building it copies obs once.
    """
    obs = np.asarray(obs)
    d = math.isqrt(obs.shape[0])
    o4 = obs.reshape(d, d, d, d)
    return np.ascontiguousarray(o4.transpose(2, 0, 3, 1)).transpose(1, 3, 0, 2)


def expectation_factors(factors, obs):
    """Tr[(f_1 x f_2 x ...) obs] contracted factor by factor."""
    obs = np.asarray(obs)
    dims = [f.shape[0] for f in factors]
    t = obs.reshape(dims + dims)
    m = len(factors)
    # obs row index i_j pairs with factor col, obs col index l_j with row.
    operands = []
    for j, f in enumerate(factors):
        operands.extend([f, [m + j, j]])
    operands.extend([t, list(range(2 * m)), []])
    return float(np.real(np.einsum(*operands)))


def purity(rho):
    rho = np.asarray(rho)
    return float(np.real(np.einsum("ij,ji->", rho, rho)))


def dm(psi):
    """Rank-1 density matrix |psi><psi|."""
    psi = np.asarray(psi)
    return np.outer(psi, psi.conj())


def basis_state(dim, index):
    e = np.zeros(dim, dtype=complex)
    e[index] = 1.0
    return e


def zero_state(n):
    """|0...0> on n qubits."""
    return basis_state(2**n, 0)


def plus_state(n):
    """|+...+> on n qubits."""
    return np.full(2**n, 2 ** (-n / 2), dtype=complex)


def bell_state(n):
    """Unit-normalised maximally entangled state on 2n qubits.

    1/sqrt(d) sum_j |j>|j> with d = 2^n.
    """
    d = 2**n
    psi = np.zeros(d * d, dtype=complex)
    psi[np.arange(d) * d + np.arange(d)] = 1.0 / np.sqrt(d)
    return psi


def random_statevector(dim, rng):
    """Haar-random pure state (normalised complex Gaussian vector)."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density_matrix(dim, rng, rank=None):
    """Random full-rank (or rank-limited) density matrix."""
    rank = dim if rank is None else rank
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho)
