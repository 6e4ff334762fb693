"""Labeled dataset generators and the graph encoding.

Each dataset is two group orbits, one per label. Purity (U(d) orbits of a
pure state and of a depolarised one), time-reversal states (O(d) and U(d)
orbits of |0>^n), time-reversal dynamics (O(d) and U(d) themselves) and
multipartite entanglement (local-unitary orbits of a fixed-measure state
and of |0>^n) fill one loop, ``_orbits``. A graph dataset holds S_n orbits of
two graph states: |+>^n evolved under an Ising-plus-field Hamiltonian on the
graph, kept as vectors.

Each generator returns one Dataset; generation is deterministic per seed.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations

import numpy as np

from .groups import haar_orthogonal, haar_unitary, permutation_index
from .observables import ENTANGLEMENT_MEASURES
from .tensor import (
    dm,
    expm_hermitian,
    kron_all,
    plus_state,
    random_statevector,
    zero_state,
)


@dataclass(eq=False)
class Dataset:
    """N labeled inputs and their int labels. The inputs are an (N, d, d)
    stack of density matrices, of unitaries for the time-reversal dynamics,
    or an (N, d) stack of pure state vectors for the graph task."""

    inputs: np.ndarray = field(repr=False)
    labels: np.ndarray

    def __len__(self):
        return len(self.labels)


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset

    def __post_init__(self):
        edges = frozenset(tuple(sorted((int(j), int(k)))) for j, k in self.edges)
        for j, k in edges:
            if j == k:
                raise ValueError(f"self-loop at node {j}")
            if not (0 <= j < self.n and 0 <= k < self.n):
                raise ValueError(f"edge ({j},{k}) out of range for n={self.n}")
        object.__setattr__(self, "edges", edges)


def _balanced_labels(count, rng):
    labels = np.array([1] * ((count + 1) // 2) + [0] * (count // 2))
    rng.shuffle(labels)
    return labels


def _orbits(count, d, rng, item):
    """The union of two group orbits: ``count`` d x d inputs, their balanced
    labels drawn first, then each row ``item(label)``, an element of that
    label's orbit drawn from the shared rng, in item order."""
    data = Dataset(np.empty((count, d, d), dtype=complex), _balanced_labels(count, rng))
    for row, label in zip(data.inputs, data.labels):
        row[:] = item(label)
    return data


def mixed_fraction_for_purity(b, d):
    """Pure-state weight p with Tr[(p psi + (1-p) I/d)^2] = b.

    The purity of the depolarised family is p^2 (1 - 1/d) + 1/d, so p is
    the nonnegative root of that quadratic. b = 1/d (maximally mixed,
    p = 0) is allowed; b = 1 is not, since label-1 owns the pure states.
    """
    if not (1.0 / d <= b < 1.0):
        raise ValueError(f"target purity {b} outside [1/{d}, 1)")
    return float(np.sqrt((b - 1.0 / d) / (1.0 - 1.0 / d)))


def purity_dataset(n, count, b, rng):
    """Pure Haar states (label 1) vs depolarised states of purity b (label 0)."""
    d = 2**n
    p = mixed_fraction_for_purity(b, d)

    def item(label):
        rho = dm(random_statevector(d, rng))
        return rho if label == 1 else p * rho + (1.0 - p) * np.eye(d) / d

    return _orbits(count, d, rng, item)


def time_reversal_state_dataset(n, count, rng):
    """|0>^n evolved by Haar orthogonal (label 1) vs Haar unitary (label 0).
    V|0> is the first column of V's Ginibre draw over its norm: no QR."""
    d = 2**n

    def item(label):  # the whole draw of haar_*, so that later items read the same normals
        g = rng.standard_normal((d, d) if label else (2, d, d))
        v = g[:, 0] if label else g[0, :, 0] + 1j * g[1, :, 0]
        return dm(v / np.linalg.norm(v))

    return _orbits(count, d, rng, item)


def time_reversal_dynamics_dataset(n, count, rng):
    """Haar orthogonal unitaries (label 1) vs Haar unitaries (label 0)."""
    d = 2**n
    return _orbits(count, d, rng, lambda label: (haar_orthogonal if label else haar_unitary)(d, rng))


# Slack of the attainable-range check: a target this close to an end of the
# range is taken as that end.
RANGE_SLACK = 1e-6


def _target_state(measure_fn, n, b):
    """The state on the |0>^n-GHZ path whose measure is b, in closed form.

    Every proper nonempty marginal of sqrt(1 - w)|0..0> + sqrt(w)|1..1> is
    diag(1 - w, w), of purity p = 1 - 2w(1 - w): 1 at the product end, 1/2
    at GHZ. Each measure is affine in the reduced purities (Beckey et al.,
    arXiv:2104.06923), hence affine in p, so its values at the two ends fix
    p, and w = (1 - sqrt(2p - 1)) / 2. A constant measure (odd-n ntangle,
    n = 1) takes the GHZ end.
    """
    d = 2**n
    # |GHZ><GHZ| from its four corners: the outer product of the rounded
    # vector leaves ~1e-16 in the ends, and a constant 0 would print as dust
    rho_ghz = np.zeros((d, d), dtype=complex)
    rho_ghz[np.ix_([0, -1], [0, -1])] = 0.5
    product, ghz = measure_fn(dm(zero_state(n))), measure_fn(rho_ghz)
    low, high = sorted((product, ghz))
    if not low - RANGE_SLACK <= b <= high + RANGE_SLACK:
        raise ValueError(
            f"target measure {b} outside attainable range [{low:.6g}, {high:.6g}]"
        )
    # 2p - 1 = (b - ghz) / (product - ghz): 0 at GHZ, 1 at the product end
    s = np.clip((b - ghz) / (product - ghz), 0.0, 1.0) if high - low > RANGE_SLACK else 0.0
    w = (1.0 - np.sqrt(s)) / 2
    psi = np.zeros(d, dtype=complex)
    psi[0], psi[-1] = np.sqrt(1.0 - w), np.sqrt(w)
    return psi


def entanglement_dataset(n, count, b, measure, rng):
    """States of fixed measure b (label 1) vs product states (label 0).

    Label 0 items are random single-qubit product states (measure 0 for
    impurity / meyer_wallach / concentratable; the signed-sum ntangle
    operator evaluates to 1 on products instead); label 1 items are the
    state of measure b on the |0>^n-GHZ path (``_target_state``), then
    scrambled by a measure-preserving random local unitary.
    """
    if measure not in ENTANGLEMENT_MEASURES:
        raise ValueError(f"unknown entanglement measure {measure!r}")
    bases = (zero_state(n), _target_state(ENTANGLEMENT_MEASURES[measure], n, b))
    # A random local unitary either scrambles the fixed-measure state
    # (measure-preserving) or turns |0>^n into a random product state.
    return _orbits(count, 2**n, rng, lambda label: dm(
        kron_all([haar_unitary(2, rng) for _ in range(n)]) @ bases[label]))


def graph_terms(g):
    """(sum_{(j,k) in E} Z_j Z_k, sum_j X_j) on the graph's n qubits.

    Both come from one bit table b of the basis states: Z_j Z_k is the
    diagonal (1 - 2 b_j)(1 - 2 b_k), and X_j maps a to a ^ (1 << (n-1-j)).
    """
    dim = 2**g.n
    index = np.arange(dim)
    signs = 1 - 2 * (index[:, None] >> np.arange(g.n - 1, -1, -1) & 1)
    zz = np.diag(sum((signs[:, j] * signs[:, k] for j, k in g.edges), np.zeros(dim)))
    xs = np.zeros((dim, dim), dtype=complex)
    for j in range(g.n):
        xs[index ^ (1 << (g.n - 1 - j)), index] = 1.0
    return zz.astype(complex), xs


@lru_cache(maxsize=2)
def graph_state(g, t):
    """|+>^n evolved for time t under H = sum_{(j,k) in E} Z_j Z_k + sum_j X_j,
    as a read-only state vector; the last two (graph, t) pairs are kept for
    the life of the process, so a run's two reference states are evolved once."""
    psi = expm_hermitian(sum(graph_terms(g)), t) @ plus_state(g.n)
    psi.flags.writeable = False
    return psi


def _orbit_distance(psi0, psi1, n):
    """min_P ||rho1 - P rho0 P^T|| over qubit permutations P, for the pure
    states rho = |psi><psi|.

    ||rho1 - P rho0 P^T||^2 = 2 - 2 |<psi1|P psi0>|^2 for unit vectors, so
    the nearest P has the largest overlap. The index maps of the P are built
    and gathered from psi0 about 2^20 entries at a time; the norm is taken
    only for the nearest P, from its density matrices, since the overlap
    form loses the small distances to cancellation.
    """
    perms = np.array(list(permutations(range(n))))
    best, idx = -1.0, None
    for block in np.array_split(perms, max(1, len(perms) * 2**n >> 20)):
        maps = permutation_index(block, target="qubits")
        overlaps = np.abs(psi0[maps] @ psi1.conj())
        j = np.argmax(overlaps)
        if overlaps[j] > best:
            best, idx = overlaps[j], maps[j]
    return float(np.linalg.norm(dm(psi1) - dm(psi0[idx])))


def graph_dataset(g0, g1, count, t, rng):
    """State vectors encoding random relabelings of two non-isomorphic graphs.

    Each item is the state psi of g0 or g1 evolved for time t, relabelled by
    a random qubit permutation P: P psi, gathered by P's index map. It equals
    the state of the relabelled graph, since H(relabel(g)) = P H(g) P^T and
    P |+>^n = |+>^n; the label records which reference graph. One scan of all
    n! relabellings refuses a pair whose states it cannot tell apart, which
    holds for every isomorphic pair.
    """
    if g0.n != g1.n:
        raise ValueError("reference graphs must have the same node count")
    n = g0.n
    if n > 8:
        raise ValueError(f"the scan of all n! relabellings is limited to n <= 8, got n = {n}")
    # t (|E| + n) bounds t ||H||; past the float range exp(-i t H) is NaN
    if not all(np.isfinite(t * (len(g.edges) + g.n)) for g in (g0, g1)):
        raise ValueError(f"evolution time t={t} overflows t ||H|| for these graphs")
    refs = np.array([graph_state(g0, t), graph_state(g1, t)])
    if _orbit_distance(*refs, n) < 1e-6:
        raise ValueError(
            f"the reference graphs are isomorphic, or evolution time t={t} "
            "does not distinguish the reference graphs"
        )
    labels = _balanced_labels(count, rng)
    perms = np.array([rng.permutation(n) for _ in range(count)])
    # (P psi)[idx[a]] = psi[a], so gather by the inverse map
    inverse = permutation_index(np.argsort(perms, axis=1), target="qubits")
    return Dataset(refs[labels[:, None], inverse], labels)
