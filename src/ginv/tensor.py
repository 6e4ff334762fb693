"""Dense complex linear algebra kernel for few-qubit simulation.

Operators are plain (d, d) complex numpy arrays, pure states are length-d
complex vectors. Qubit 0 is the leftmost (most significant) tensor factor,
so ``kron(a, b)`` applies ``a`` to qubit 0. Everything here is a pure
function of its inputs; arrays are never mutated.
"""

from functools import lru_cache

import numpy as np

# Global Hermiticity tolerance. Single knob by design.
ATOL = 1e-10


def kron(a, b):
    """Tensor product of two operators, or of two state vectors.

    The outer product of the entries, reshaped: each entry is the same
    single multiply numpy's kron makes, so the result equals it bit for bit,
    without that function's per-call axis bookkeeping.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim == b.ndim == 1:
        return (a[:, None] * b[None, :]).reshape(-1)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"kron takes two vectors or two matrices, got {a.shape} and {b.shape}")
    out = a[:, None, :, None] * b[None, :, None, :]
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def kron_all(mats):
    """Left-to-right tensor product of a sequence of operators or vectors."""
    out = np.asarray(mats[0])
    for m in mats[1:]:
        out = kron(out, m)
    return out


def num_qubits(dim):
    """Exact log2 of a power-of-two dimension."""
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def tensor_power(rho, k):
    """k-fold tensor product rho x rho x ... x rho."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return kron_all([rho] * k)


def partial_trace(rho, keep):
    """Trace out all qubits not in ``keep``, of one operator or a stack.

    ``keep`` is an iterable of qubit indices into the m-qubit operator
    ``rho`` (or each operator of a (B, d, d) stack); the result acts on the
    kept qubits in ascending index order. An empty ``keep`` returns the
    (1, 1) matrix [[trace]].
    """
    rho = np.asarray(rho)
    m = num_qubits(rho.shape[-1])
    keep = tuple(sorted(set(int(q) for q in keep)))
    if keep and (keep[0] < 0 or keep[-1] >= m):
        raise ValueError(f"keep indices {list(keep)} out of range for {m} qubits")
    t = rho.reshape(rho.shape[:-2] + (2,) * (2 * m))
    in_idx, out_idx = _trace_indices(m, keep)
    reduced = np.einsum(t, [..., *in_idx], [..., *out_idx])
    dk = 2 ** len(keep)
    return reduced.reshape(rho.shape[:-2] + (dk, dk))


@lru_cache(maxsize=None)
def _trace_indices(m, keep):
    """partial_trace's einsum indices (row + col, out) for m qubits."""
    row = tuple(range(m))
    # Traced qubits share the row index so einsum sums them out.
    col = tuple(m + q if q in keep else q for q in range(m))
    return row + col, keep + tuple(m + q for q in keep)


def is_hermitian(a):
    a = np.asarray(a)
    return a.shape[0] == a.shape[1] and np.abs(a - a.conj().T).max() <= ATOL


def is_unitary(a):
    """Whether a is a square matrix with ||a a^dag - 1||_F <= 1e-9. A real a
    takes a real product, cast to complex (an integer a must not raise); 1
    comes off its diagonal through a flat view. The norm is summed from that
    residual: expanded as ||a a^dag||^2 - 2 Re tr + d it cancels past 1e-18."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    r = np.asarray(np.dot(a, a.conj().T), dtype=complex)
    diagonal = r.ravel()[:: len(r) + 1]  # a view, not a copy written back
    diagonal -= 1.0
    return bool(np.vdot(r, r).real <= 1e-18)


def expm_hermitian(h, t=1.0):
    """Unitary exp(-i t h) of a Hermitian generator, via eigendecomposition."""
    h = np.asarray(h)
    if not is_hermitian(h):
        raise ValueError("expm_hermitian requires a Hermitian input")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def expectation_copies(rho, k, obs):
    """Tr[rho^(x k) obs], k = 1 or 2, for one state or each of a (B, d, d) stack.

    A single state is scored as a stack of one. At k = 2 a stack is one
    matrix product against obs with its indices regrouped by copy.
    """
    if k not in (1, 2):
        raise ValueError(f"expectation_copies takes 1 or 2 copies, got k = {k}")
    rho = np.asarray(rho)
    obs = np.asarray(obs)
    if rho.ndim == 2:
        return float(expectation_copies(rho[None], k, obs)[0])
    d = rho.shape[-1]
    if obs.shape != (d**k, d**k):
        raise ValueError(f"observable shape {obs.shape} does not act on {d}^{k}")
    if k == 1:
        return np.real(np.einsum("bij,ji->b", rho, obs))
    # sum rho_b[i,r] rho_b[j,s] obs[(r,s),(i,j)] = a_b^T m a_b with
    # a_b = rho_b as a vector over (i,r), m[(i,r),(j,s)] = obs[(r,s),(i,j)]
    a = rho.reshape(len(rho), d * d)
    m = obs.reshape((d,) * 4).transpose(2, 0, 3, 1).reshape(d * d, d * d)
    return np.real(np.einsum("bx,bx->b", a @ m, a))


def purity(rho):
    rho = np.asarray(rho)
    return float(np.real(np.einsum("ij,ji->", rho, rho)))


def dm(psi):
    """Rank-1 density matrix |psi><psi| of a pure state, held as its vector,
    or one per vector of a stack: (..., d) -> (..., d, d)."""
    psi = np.asarray(psi)
    return psi[..., :, None] * psi[..., None, :].conj()


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


def random_statevector(dim, rng, count=None):
    """Haar-random pure state, or a (count, dim) stack of them.

    A normalised complex Gaussian vector: it has the distribution of V psi
    for Haar-random V and any unit psi (Mezzadri, math-ph/0609050). A stack
    takes the normals of ``count`` single draws in the same order, real
    parts then imaginary parts per state, and equals them to rounding; a
    single draw is normalised as it always was, so it keeps its bits.
    """
    shape = () if count is None else (count,)
    g = rng.standard_normal(shape + (2, dim))
    v = g[..., 0, :] + 1j * g[..., 1, :]
    if count is None:
        return v / np.linalg.norm(v)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)
