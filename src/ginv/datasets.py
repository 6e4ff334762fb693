"""Labeled dataset generators and the graph encoding.

Four generators: purity (pure vs fixed mixed purity), time-reversal
states (real vs Haar random), time-reversal dynamics (orthogonal vs Haar
unitaries), and multipartite entanglement (product vs fixed measure
value). Graphs are encoded by evolving |+>^n under an Ising-plus-field
Hamiltonian whose coupling topology is the graph.

Generation is deterministic per seed.
"""

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .groups import haar_orthogonal, haar_unitary, permutation_operator
from .observables import (
    ENTANGLEMENT_MEASURES,
    PAULI,
    Observable,
    ghz_state,
)
from .tensor import (
    dm,
    expm_hermitian,
    kron_all,
    plus_state,
    random_statevector,
    zero_state,
)


@dataclass
class LabeledState:
    state: np.ndarray = field(repr=False)
    label: int
    provenance: dict = field(default_factory=dict)


@dataclass
class LabeledUnitary:
    unitary: np.ndarray = field(repr=False)
    label: int


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

    def relabel(self, perm):
        return Graph(self.n, {(perm[j], perm[k]) for j, k in self.edges})


def _balanced_labels(count, rng):
    labels = np.array([1] * ((count + 1) // 2) + [0] * (count // 2))
    rng.shuffle(labels)
    return labels


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
    items = []
    for label in _balanced_labels(count, rng):
        psi = random_statevector(d, rng)
        if label == 1:
            state = dm(psi)
        else:
            state = p * dm(psi) + (1.0 - p) * np.eye(d) / d
        items.append(
            LabeledState(state, int(label), {"generator": "purity", "b": b, "p": p})
        )
    return items


def time_reversal_state_dataset(n, count, rng):
    """|0>^n evolved by Haar orthogonal (label 1) vs Haar unitary (label 0)."""
    d = 2**n
    zero = zero_state(n)
    items = []
    for label in _balanced_labels(count, rng):
        v = haar_orthogonal(d, rng) if label == 1 else haar_unitary(d, rng)
        items.append(
            LabeledState(dm(v @ zero), int(label), {"generator": "time_reversal_states"})
        )
    return items


def time_reversal_dynamics_dataset(n, count, rng):
    """Haar orthogonal unitaries (label 1) vs Haar unitaries (label 0)."""
    d = 2**n
    items = []
    for label in _balanced_labels(count, rng):
        w = haar_orthogonal(d, rng) if label == 1 else haar_unitary(d, rng)
        items.append(LabeledUnitary(w, int(label)))
    return items


def _ghz_interpolation(n, alpha):
    v = np.cos(alpha) * zero_state(n) + np.sin(alpha) * ghz_state(n)
    return v / np.linalg.norm(v)


def _bisect_measure(measure_fn, n, b, tol=1e-6, max_iter=200):
    lo, hi = 0.0, np.pi / 2
    f_lo = measure_fn(dm(_ghz_interpolation(n, lo)))
    f_hi = measure_fn(dm(_ghz_interpolation(n, hi)))
    if not (min(f_lo, f_hi) - tol <= b <= max(f_lo, f_hi) + tol):
        raise ValueError(
            f"target measure {b} outside attainable range [{f_lo:.6g}, {f_hi:.6g}]"
        )
    increasing = f_hi >= f_lo
    for _ in range(max_iter):
        mid = (lo + hi) / 2
        f_mid = measure_fn(dm(_ghz_interpolation(n, mid)))
        if abs(f_mid - b) <= tol:
            return mid
        if (f_mid < b) == increasing:
            lo = mid
        else:
            hi = mid
    # Interval exhausted; endpoint is within tolerance by the bracket check.
    return (lo + hi) / 2


def entanglement_dataset(n, count, b, measure, rng):
    """States of fixed measure b (label 1) vs product states (label 0).

    Label 0 items are random single-qubit product states (measure 0 for
    impurity / meyer_wallach / concentratable; the signed-sum ntangle
    operator evaluates to 1 on products instead); label 1 items
    interpolate |0>^n with GHZ_n so the chosen measure equals b, then are
    scrambled by a measure-preserving random local unitary.
    """
    if measure not in ENTANGLEMENT_MEASURES:
        raise ValueError(f"unknown entanglement measure {measure!r}")
    measure_fn = ENTANGLEMENT_MEASURES[measure]
    alpha = _bisect_measure(measure_fn, n, b)
    base = _ghz_interpolation(n, alpha)
    items = []
    for label in _balanced_labels(count, rng):
        # A random local unitary either scrambles the fixed-measure state
        # (measure-preserving) or turns |0>^n into a random product state.
        local = kron_all([haar_unitary(2, rng) for _ in range(n)])
        psi = local @ (base if label == 1 else zero_state(n))
        items.append(
            LabeledState(
                dm(psi),
                int(label),
                {"generator": "entanglement", "measure": measure, "b": b, "alpha": alpha},
            )
        )
    return items


def graph_terms(g):
    """(sum_{(j,k) in E} Z_j Z_k, sum_j X_j) on the graph's n qubits."""

    def pauli_sum(pauli, site_sets):
        total = np.zeros((2**g.n, 2**g.n), dtype=complex)
        for sites in site_sets:
            total += kron_all([PAULI[pauli if j in sites else "I"] for j in range(g.n)])
        return total

    return pauli_sum("Z", sorted(g.edges)), pauli_sum("X", [(j,) for j in range(g.n)])


def graph_hamiltonian(g):
    """H = sum_{(j,k) in E} Z_j Z_k + sum_j X_j on the graph's n qubits."""
    zz, xs = graph_terms(g)
    return Observable(zz + xs, copies=1, qubits_per_copy=g.n, tag="graph_hamiltonian")


def is_isomorphic(g0, g1):
    """Exact brute force over all n! vertex bijections (n <= 8)."""
    if g0.n != g1.n:
        return False
    if g0.n > 8:
        raise ValueError("brute-force isomorphism limited to n <= 8")
    if len(g0.edges) != len(g1.edges):
        return False
    for perm in permutations(range(g0.n)):
        if g0.relabel(perm).edges == g1.edges:
            return True
    return False


def graph_state(g, t):
    """|+>^n evolved for time t under the graph Hamiltonian, as a density matrix."""
    w = expm_hermitian(graph_hamiltonian(g).matrix, t)
    psi = w @ plus_state(g.n)
    return dm(psi)


def _orbit_distance(rho0, rho1, n):
    """min_P ||rho1 - P rho0 P|| over qubit permutations P."""
    best = np.inf
    for perm in permutations(range(n)):
        p = permutation_operator(perm, target="qubits")
        idx = np.argmax(p, axis=0)  # P rho P^T via row/col gather
        best = min(best, float(np.linalg.norm(rho1 - rho0[np.ix_(idx, idx)])))
    return best


def graph_dataset(g0, g1, count, t, rng):
    """States encoding random relabelings of two non-isomorphic graphs.

    Each item evolves |+>^n for time t under the Hamiltonian of a random
    relabeling of g0 or g1; the label records which reference graph.
    """
    if is_isomorphic(g0, g1):
        raise ValueError("reference graphs are isomorphic")
    if g0.n != g1.n:
        raise ValueError("reference graphs must have the same node count")
    n = g0.n
    ref0 = graph_state(g0, t)
    ref1 = graph_state(g1, t)
    if _orbit_distance(ref0, ref1, n) < 1e-6:
        raise ValueError(
            f"evolution time t={t} does not distinguish the reference graphs"
        )
    refs = (g0, g1)
    items = []
    for label in _balanced_labels(count, rng):
        perm = rng.permutation(n)
        g = refs[label].relabel(perm)
        items.append(
            LabeledState(
                graph_state(g, t),
                int(label),
                {"generator": "graph", "t": t, "perm": [int(x) for x in perm]},
            )
        )
    return items
