from itertools import permutations

import numpy as np
import pytest

from ginv import datasets as ds
from ginv import observables as obs
from ginv.groups import haar_orthogonal, haar_unitary, permutation_index, permutation_operator
from ginv.models import ModelSpec, evaluate
from ginv.tensor import (
    bell_state,
    dm,
    kron_all,
    plus_state,
    purity,
    random_statevector,
    zero_state,
)
from ginv.train import graph_invariant_model
from helpers import expectation, ghz_state, relabel


TRIANGLE = ds.Graph(3, {(0, 1), (1, 2), (0, 2)})
PATH3 = ds.Graph(3, {(0, 1), (1, 2)})
CYCLE4 = ds.Graph(4, {(0, 1), (1, 2), (2, 3), (0, 3)})
STAR4 = ds.Graph(4, {(0, 1), (0, 2), (0, 3)})


def test_dataset_is_one_input_stack_and_its_labels():
    data = ds.purity_dataset(2, 7, 0.5, np.random.default_rng(0))
    assert len(data) == 7
    assert data.inputs.shape == (7, 4, 4) and data.inputs.dtype == complex
    assert data.labels.shape == (7,)
    assert set(data.labels.tolist()) == {0, 1}


def test_purity_dataset_minimum_purity_is_maximally_mixed():
    data = ds.purity_dataset(1, 10, 0.5, np.random.default_rng(0))
    for rho in data.inputs[data.labels == 0]:
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_purity_dataset_quadratic_root_oracle():
    # oracle: recompute Tr[rho^2] of the constructed mixed states
    assert abs(ds.mixed_fraction_for_purity(0.625, 2) - 0.5) < 1e-12
    for n, b in ((1, 0.625), (2, 0.7), (3, 0.3)):
        data = ds.purity_dataset(n, 20, b, np.random.default_rng(1))
        for rho in data.inputs[data.labels == 0]:
            assert abs(purity(rho) - b) < 1e-12


def test_purity_dataset_label1_pure():
    data = ds.purity_dataset(2, 30, 0.7, np.random.default_rng(2))
    for rho in data.inputs[data.labels == 1]:
        assert abs(purity(rho) - 1.0) < 1e-10


def test_purity_dataset_rejects_bad_target():
    with pytest.raises(ValueError):
        ds.purity_dataset(1, 4, 0.4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        ds.purity_dataset(1, 4, 1.0, np.random.default_rng(0))


def test_purity_dataset_balanced_and_seed_stable():
    a = ds.purity_dataset(1, 11, 0.6, np.random.default_rng(3))
    b = ds.purity_dataset(1, 11, 0.6, np.random.default_rng(3))
    assert np.array_equal(a.labels, b.labels)
    assert a.labels.sum() == 6  # ceil(11/2) ones
    assert np.array_equal(a.inputs, b.inputs)


def test_time_reversal_states_real_amplitudes():
    data = ds.time_reversal_state_dataset(2, 40, np.random.default_rng(4))
    assert np.abs(data.inputs[data.labels == 1].imag).max() < 1e-12


def test_time_reversal_states_odd_y_null():
    y_string = obs.pauli_string("YI")
    assert np.abs(y_string.matrix.real).max() < 1e-15  # one Y: purely imaginary
    data = ds.time_reversal_state_dataset(2, 40, np.random.default_rng(5))
    for rho in data.inputs[data.labels == 1]:
        assert abs(expectation(rho, y_string.matrix)) < 1e-10


def test_time_reversal_states_haar_moments():
    # oracle: second-moment formula Var = Tr[O^2](Tr[rho_in^2]/(d^2-1)
    # - 1/(d(d^2-1))) = 1/(d+1) for a pure input and an involution O
    n = 1
    d = 2**n
    count = 5000
    data = ds.time_reversal_state_dataset(n, 2 * count, np.random.default_rng(6))
    y = obs.pauli_string("Y")
    vals = np.array([expectation(rho, y.matrix) for rho in data.inputs[data.labels == 0]])
    stderr = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean()) < 4 * stderr
    assert abs(vals.var(ddof=1) - 1 / (d + 1)) < 0.1 / (d + 1)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_time_reversal_states_equal_the_haar_draws_they_read(n):
    # each item reads V|0> from the normals of one haar_orthogonal (label 1)
    # or haar_unitary (label 0) call, with no QR, and leaves the stream where
    # those calls would
    rng, twin = np.random.default_rng(8), np.random.default_rng(8)
    data = ds.time_reversal_state_dataset(n, 30, rng)
    assert np.array_equal(data.labels, ds._balanced_labels(30, twin))
    d, zero = 2**n, zero_state(n)
    for rho, label in zip(data.inputs, data.labels):
        v = (haar_orthogonal if label else haar_unitary)(d, twin) @ zero
        np.testing.assert_allclose(rho, dm(v), rtol=0, atol=1e-14)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_time_reversal_dynamics_labels():
    data = ds.time_reversal_dynamics_dataset(2, 30, np.random.default_rng(7))
    for w, label in zip(data.inputs, data.labels):
        if label == 1:
            assert np.abs(w.imag).max() < 1e-12
            assert np.linalg.norm(w @ w.T - np.eye(4)) < 1e-9
        else:
            assert np.linalg.norm(w @ w.T - np.eye(4)) > 1e-3


def test_entanglement_dataset_product_states_have_zero_measure():
    data = ds.entanglement_dataset(3, 20, 0.5, "meyer_wallach", np.random.default_rng(8))
    assert np.abs(obs.meyer_wallach_oracle(data.inputs[data.labels == 0])).max() < 1e-9


def test_entanglement_dataset_hits_target_measure():
    # the signed-sum ntangle operator lives on [0.75, 1] at n=2 (products
    # sit at 1); the other measures vanish on products
    targets = {"meyer_wallach": 0.3, "concentratable": 0.2, "impurity": 0.3, "ntangle": 0.8}
    for measure, b in targets.items():
        data = ds.entanglement_dataset(2, 10, b, measure, np.random.default_rng(9))
        values = obs.ENTANGLEMENT_MEASURES[measure](data.inputs)
        product = 1.0 if measure == "ntangle" else 0.0
        assert np.abs(values[data.labels == 1] - b).max() < 1e-12, measure
        assert np.abs(values[data.labels == 0] - product).max() < 1e-9, measure


@pytest.mark.parametrize("measure", sorted(obs.ENTANGLEMENT_MEASURES))
@pytest.mark.parametrize("n", range(2, 7))
def test_entanglement_dataset_hits_every_attainable_target(measure, n):
    # oracle: the partial-trace measure of every label-1 item, at both ends
    # of the range (|0>^n and GHZ) and at three interior points
    fn = obs.ENTANGLEMENT_MEASURES[measure]
    product, ghz = fn(dm(zero_state(n))), fn(dm(ghz_state(n)))
    for s in (0.0, 0.2, 0.5, 0.9, 1.0):
        b = product + s * (ghz - product)
        data = ds.entanglement_dataset(n, 4, b, measure, np.random.default_rng(n))
        values = fn(data.inputs[data.labels == 1])
        assert np.abs(values - b).max() < 1e-12, (measure, n, s)


def test_entanglement_dataset_ghz_endpoint():
    # oracle: at the top of the range every label-1 item is GHZ up to local
    # unitaries, so each one-qubit marginal is maximally mixed
    b = obs.meyer_wallach_oracle(dm(ghz_state(3)))
    data = ds.entanglement_dataset(3, 6, b, "meyer_wallach", np.random.default_rng(10))
    label1 = data.inputs[data.labels == 1]
    assert np.abs(obs.meyer_wallach_oracle(label1) - b).max() < 1e-12
    for j in range(3):
        assert np.abs(obs.subset_purity(label1, [j]) - 0.5).max() < 1e-12


def test_entanglement_dataset_local_conjugation_preserves_measure():
    # conjugation by local unitaries is already applied per item; the
    # measure of every label-1 item must still match the unscrambled state's
    data = ds.entanglement_dataset(2, 10, 0.8, "ntangle", np.random.default_rng(11))
    base = obs.ntangle_oracle(dm(ds._target_state(obs.ntangle_oracle, 2, 0.8)))
    assert np.abs(obs.ntangle_oracle(data.inputs[data.labels == 1]) - base).max() < 1e-12


def test_entanglement_dataset_unattainable_target():
    with pytest.raises(ValueError):
        ds.entanglement_dataset(2, 4, 1.5, "meyer_wallach", np.random.default_rng(0))
    with pytest.raises(ValueError):
        ds.entanglement_dataset(1, 4, 0.5, "meyer_wallach", np.random.default_rng(0))


def test_graph_terms_relabeling_conjugation():
    # oracle: H(P g) = P H(g) P^T for the permutation matrix P
    perm = (2, 0, 1)
    p = permutation_operator(perm, target="qubits")
    h = sum(ds.graph_terms(PATH3))
    h_relabeled = sum(ds.graph_terms(relabel(PATH3, perm)))
    np.testing.assert_allclose(h_relabeled, p @ h @ p.T, atol=1e-12)


def _kron_terms(g):
    """The graph terms as sums of dense Pauli Kronecker products."""
    def pauli_sum(pauli, site_sets):
        return sum((kron_all([obs.PAULI[pauli if j in sites else "I"] for j in range(g.n)])
                    for sites in site_sets), np.zeros((2**g.n, 2**g.n), dtype=complex))
    return pauli_sum("Z", sorted(g.edges)), pauli_sum("X", [(j,) for j in range(g.n)])


@pytest.mark.parametrize("g", [TRIANGLE, PATH3, ds.Graph(4, {(0, 3), (1, 2), (0, 2)}),
                               ds.Graph(5, set()), ds.Graph(1, set()), ds.Graph(2, {(0, 1)})])
def test_graph_terms_equal_pauli_kronecker_sums(g):
    for got, want in zip(ds.graph_terms(g), _kron_terms(g)):
        assert got.dtype == complex
        np.testing.assert_array_equal(got, want)


def test_orbit_distance_equals_dense_conjugation():
    rng = np.random.default_rng(14)
    graphs = {3: (TRIANGLE, PATH3), 4: (CYCLE4, STAR4)}
    for n in (3, 4):
        perms = [permutation_operator(p, target="qubits") for p in permutations(range(n))]
        states = [random_statevector(2**n, rng) for _ in range(7)]
        # random pairs, a pair 1e-7 apart after a relabelling, whose distance
        # the overlap form would lose to cancellation, and two graph states
        near = perms[1] @ states[6] + 1e-7 * states[5]
        pairs = [(states[0], states[1]), (states[2], states[3]), (states[4], states[5]),
                 (states[6], near / np.linalg.norm(near)),
                 tuple(ds.graph_state(g, 0.7) for g in graphs[n])]
        for psi0, psi1 in pairs:
            rho0, rho1 = dm(psi0), dm(psi1)
            dense = min(np.linalg.norm(rho1 - p @ rho0 @ p.T) for p in perms)
            assert abs(ds._orbit_distance(psi0, psi1, n) - dense) < 1e-12
        # zero, not rounding, on a relabelled copy of a state with no
        # symmetry (a graph state's automorphisms tie its overlaps to rounding)
        for psi in states:
            p = perms[rng.integers(len(perms))]
            assert ds._orbit_distance(psi, p @ psi, n) == 0.0


def test_orbit_distance_finds_the_nearest_permutation_past_the_first_block():
    # at n = 8 the 8! index maps go in 9 blocks; the reversal is the last
    # permutation, so the nearest one sits in the last block
    rng = np.random.default_rng(18)
    n = 8
    psi = random_statevector(2**n, rng)
    moved = psi[permutation_index(np.arange(n)[::-1], target="qubits")]
    near = moved + 1e-7 * random_statevector(2**n, rng)
    near /= np.linalg.norm(near)
    assert ds._orbit_distance(psi, moved, n) == 0.0
    dense = np.linalg.norm(dm(near) - dm(moved))
    assert abs(ds._orbit_distance(psi, near, n) - dense) < 1e-12


def test_graph_validation():
    with pytest.raises(ValueError):
        ds.Graph(2, {(0, 0)})
    with pytest.raises(ValueError):
        ds.Graph(2, {(0, 2)})


def test_graph_state_t_zero_is_fiduciary():
    state = ds.graph_state(TRIANGLE, 0.0)
    np.testing.assert_allclose(state, plus_state(3), atol=1e-12)


def test_graph_state_is_kept_read_only_and_equals_the_taylor_series():
    # oracle: exp(-i t H)|+>^n summed term by term, with H the Pauli
    # Kronecker sums
    psi = ds.graph_state(TRIANGLE, 0.9)
    assert ds.graph_state(TRIANGLE, 0.9) is psi
    assert psi.shape == (8,)
    with pytest.raises(ValueError, match="read-only"):
        psi[0] = 0.0
    h = sum(_kron_terms(TRIANGLE))
    want = term = plus_state(3)
    for k in range(1, 60):
        term = (-0.9j / k) * (h @ term)
        want = want + term
    np.testing.assert_allclose(psi, want, rtol=0, atol=1e-12)


def test_graph_dataset_rejects_indistinguishable_time():
    with pytest.raises(ValueError, match="does not distinguish the reference graphs"):
        ds.graph_dataset(TRIANGLE, PATH3, 4, 0.0, np.random.default_rng(0))


def test_graph_dataset_rejects_isomorphic_references():
    with pytest.raises(ValueError, match="isomorphic"):
        ds.graph_dataset(TRIANGLE, relabel(TRIANGLE, (1, 2, 0)), 4, 1.0, np.random.default_rng(0))


@pytest.mark.parametrize("g0,g1", [
    (TRIANGLE, PATH3),
    (ds.Graph(4, {(0, 1), (1, 2), (2, 3), (0, 3)}), ds.Graph(4, {(0, 1), (0, 2), (0, 3)})),
    (ds.Graph(5, {(0, 1), (1, 2), (2, 3), (3, 4)}), ds.Graph(5, {(0, 4), (1, 4), (2, 4), (3, 4)})),
])
def test_graph_dataset_items_equal_relabelled_graph_states(g0, g1):
    # oracle: the state of the relabelled graph, built from its Hamiltonian
    # graph, with the permutation replayed from a twin generator
    t = 0.7
    rng, twin = np.random.default_rng(15), np.random.default_rng(15)
    data = ds.graph_dataset(g0, g1, 12, t, rng)
    assert set(data.labels.tolist()) == {0, 1}
    assert data.inputs.shape == (12, 2**g0.n) and data.inputs.dtype == complex
    ds._balanced_labels(12, twin)
    for psi, label in zip(data.inputs, data.labels):
        g = relabel((g0, g1)[label], twin.permutation(g0.n))
        np.testing.assert_allclose(psi, ds.graph_state(g, t), rtol=0, atol=1e-12)


def test_graph_dataset_draws_labels_then_one_permutation_per_item():
    rng, twin = np.random.default_rng(16), np.random.default_rng(16)
    data = ds.graph_dataset(TRIANGLE, PATH3, 5, 1.0, rng)
    labels = ds._balanced_labels(5, twin)
    assert np.array_equal(data.labels, labels)
    for psi, label in zip(data.inputs, labels):
        g = relabel((TRIANGLE, PATH3)[label], twin.permutation(3))
        np.testing.assert_allclose(psi, ds.graph_state(g, 1.0), rtol=0, atol=1e-12)
    # the generator drew nothing else: both streams are at the same point
    assert rng.random() == twin.random()


def test_graph_dataset_refuses_exactly_the_isomorphic_pairs():
    # oracle: a relabelling that maps one edge set onto the other
    rng = np.random.default_rng(17)
    pairs = list(permutations(range(4), 2))
    outcomes = set()
    for _ in range(40):
        g0, g1 = (ds.Graph(4, {pairs[i] for i in rng.choice(12, size=3, replace=False)})
                  for _ in range(2))
        isomorphic = any(relabel(g0, p).edges == g1.edges for p in permutations(range(4)))
        try:
            ds.graph_dataset(g0, g1, 2, 1.0, np.random.default_rng(0))
            refused = False
        except ValueError as exc:
            refused = "isomorphic" in str(exc)
        assert refused == isomorphic
        outcomes.add(refused)
    assert outcomes == {True, False}


def test_fiduciary_state_is_permutation_invariant():
    plus = plus_state(3)
    for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        p = permutation_operator(perm, target="qubits")
        np.testing.assert_array_equal(p @ plus, plus)


def test_graph_dataset_invariant_model_constant_per_class():
    data = ds.graph_dataset(TRIANGLE, PATH3, 12, 1.0, np.random.default_rng(12))
    model = graph_invariant_model(3)
    theta = np.array([0.4, 0.8, 0.3])
    values = {0: set(), 1: set()}
    for psi, label in zip(data.inputs, data.labels):
        values[label].add(round(model.value_fn(theta, psi), 9))
    assert len(values[0]) == 1 and len(values[1]) == 1


def test_graph_dataset_conjugation_oracle():
    # P rho P vs rho agree under any A^(x n) observable
    rng = np.random.default_rng(13)
    rho = dm(ds.graph_dataset(TRIANGLE, PATH3, 2, 1.0, rng).inputs[0])
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a = a + a.conj().T
    a3 = kron_all([a] * 3)
    p = permutation_operator((1, 2, 0), target="qubits")
    conj = p @ rho @ p.T
    assert abs(expectation(conj, a3) - expectation(rho, a3)) < 1e-10



# task: a model, its task's dataset from a generator, and the labels whose
# group leaves the model invariant; every other label is a U(d) orbit
ORBIT_CASES = {
    "purity": (ModelSpec("H1", obs.swap_operator(4)),
               lambda rng: ds.purity_dataset(4, 40, 0.5, rng), (0, 1)),
    "concentratable": (ModelSpec("H1", obs.entanglement_observable("concentratable", 5)),
                       lambda rng: ds.entanglement_dataset(5, 40, 0.3, "concentratable", rng),
                       (0, 1)),
    "meyer_wallach": (ModelSpec("H1", obs.entanglement_observable("meyer_wallach", 4)),
                      lambda rng: ds.entanglement_dataset(4, 40, 0.5, "meyer_wallach", rng),
                      (0, 1)),
    "states_bell": (ModelSpec("H1", obs.bell_projector(3)),
                    lambda rng: ds.time_reversal_state_dataset(3, 40, rng), (1,)),
    "states_odd_y": (ModelSpec("H1", obs.pauli_string("YII")),
                     lambda rng: ds.time_reversal_state_dataset(3, 40, rng), (1,)),
    "dynamics": (ModelSpec("H2", obs.bell_projector(3), psi_in=bell_state(3)),
                 lambda rng: ds.time_reversal_dynamics_dataset(3, 40, rng), (1,)),
    "graph": (graph_invariant_model(4),
              lambda rng: ds.graph_dataset(CYCLE4, STAR4, 40, 1.0, rng), (0, 1)),
}


@pytest.mark.parametrize("task", sorted(ORBIT_CASES))
def test_invariant_model_is_constant_on_each_orbit(task):
    # the paper's invariance theorem, exactly: a model invariant under a
    # class's group takes one value on that class's orbit, while a U(d)
    # orbit of the time-reversal tasks spreads
    model, generate, invariant = ORBIT_CASES[task]
    data = generate(np.random.default_rng(14))
    if isinstance(model, ModelSpec):
        values = np.array([evaluate(model, x) for x in data.inputs])
    else:
        values = model.value_fn(model.theta0, data.inputs)
    for label in (0, 1):
        spread = np.ptp(values[data.labels == label])
        assert spread < 1e-12 if label in invariant else spread > 1e-3, (label, spread)
