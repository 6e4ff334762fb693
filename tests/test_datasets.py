from itertools import permutations

import numpy as np
import pytest

from ginv import datasets as ds
from ginv import observables as obs
from ginv.groups import permutation_operator
from ginv.tensor import dm, expectation, kron_all, plus_state, purity, random_density_matrix


TRIANGLE = ds.Graph(3, {(0, 1), (1, 2), (0, 2)})
PATH3 = ds.Graph(3, {(0, 1), (1, 2)})


def test_purity_dataset_minimum_purity_is_maximally_mixed():
    items = ds.purity_dataset(1, 10, 0.5, np.random.default_rng(0))
    for item in items:
        if item.label == 0:
            np.testing.assert_allclose(item.state, np.eye(2) / 2, atol=1e-12)


def test_purity_dataset_quadratic_root_oracle():
    # oracle: recompute Tr[rho^2] of the constructed mixed states
    items = ds.purity_dataset(1, 20, 0.625, np.random.default_rng(1))
    assert abs(items[0].provenance["p"] - 0.5) < 1e-12
    for item in items:
        target = 0.625 if item.label == 0 else 1.0
        assert abs(purity(item.state) - target) < 1e-9


def test_purity_dataset_label1_pure():
    items = ds.purity_dataset(2, 30, 0.7, np.random.default_rng(2))
    for item in items:
        if item.label == 1:
            assert abs(purity(item.state) - 1.0) < 1e-10


def test_purity_dataset_rejects_bad_target():
    with pytest.raises(ValueError):
        ds.purity_dataset(1, 4, 0.4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        ds.purity_dataset(1, 4, 1.0, np.random.default_rng(0))


def test_purity_dataset_balanced_and_seed_stable():
    a = ds.purity_dataset(1, 11, 0.6, np.random.default_rng(3))
    b = ds.purity_dataset(1, 11, 0.6, np.random.default_rng(3))
    assert [i.label for i in a] == [i.label for i in b]
    assert sum(i.label for i in a) == 6  # ceil(11/2) ones
    for x, y in zip(a, b):
        assert np.array_equal(x.state, y.state)


def test_time_reversal_states_real_amplitudes():
    items = ds.time_reversal_state_dataset(2, 40, np.random.default_rng(4))
    for item in items:
        if item.label == 1:
            assert np.abs(item.state.imag).max() < 1e-12


def test_time_reversal_states_odd_y_null():
    y_string, flag = obs.pauli_string("YI")
    assert flag
    items = ds.time_reversal_state_dataset(2, 40, np.random.default_rng(5))
    for item in items:
        if item.label == 1:
            assert abs(expectation(item.state, y_string.matrix)) < 1e-10


def test_time_reversal_states_haar_moments():
    # oracle: second-moment formula Var = Tr[O^2](Tr[rho_in^2]/(d^2-1)
    # - 1/(d(d^2-1))) = 1/(d+1) for a pure input and an involution O
    n = 1
    d = 2**n
    count = 5000
    items = ds.time_reversal_state_dataset(n, 2 * count, np.random.default_rng(6))
    y = obs.pauli_string("Y")[0]
    vals = np.array(
        [expectation(i.state, y.matrix) for i in items if i.label == 0]
    )
    stderr = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean()) < 4 * stderr
    assert abs(vals.var(ddof=1) - 1 / (d + 1)) < 0.1 / (d + 1)


def test_time_reversal_dynamics_labels():
    items = ds.time_reversal_dynamics_dataset(2, 30, np.random.default_rng(7))
    for item in items:
        w = item.unitary
        if item.label == 1:
            assert np.abs(w.imag).max() < 1e-12
            assert np.linalg.norm(w @ w.T - np.eye(4)) < 1e-9
        else:
            assert np.linalg.norm(w @ w.T - np.eye(4)) > 1e-3


def test_entanglement_dataset_product_states_have_zero_measure():
    items = ds.entanglement_dataset(3, 20, 0.5, "meyer_wallach", np.random.default_rng(8))
    for item in items:
        if item.label == 0:
            assert abs(obs.meyer_wallach_oracle(item.state)) < 1e-9


def test_entanglement_dataset_hits_target_measure():
    # the signed-sum ntangle operator lives on [0.75, 1] at n=2 (products
    # sit at 1); the other measures vanish on products
    targets = {"meyer_wallach": 0.3, "concentratable": 0.2, "impurity": 0.3, "ntangle": 0.8}
    for measure, b in targets.items():
        items = ds.entanglement_dataset(2, 10, b, measure, np.random.default_rng(9))
        fn = obs.ENTANGLEMENT_MEASURES[measure]
        for item in items:
            if item.label == 1:
                assert abs(fn(item.state) - b) < 1e-5, measure
            elif measure != "ntangle":
                assert abs(fn(item.state)) < 1e-9, measure
            else:
                assert abs(fn(item.state) - 1.0) < 1e-9


def test_entanglement_dataset_ghz_endpoint():
    b = obs.meyer_wallach_oracle(dm(obs.ghz_state(3)))
    items = ds.entanglement_dataset(3, 6, b, "meyer_wallach", np.random.default_rng(10))
    assert abs(items[0].provenance["alpha"] - np.pi / 2) < 0.01
    for item in items:
        if item.label == 1:
            assert abs(obs.meyer_wallach_oracle(item.state) - b) < 1e-5


def test_entanglement_dataset_local_conjugation_preserves_measure():
    # conjugation by local unitaries is already applied per item; the
    # measure of every label-1 item must still match the interpolant's
    items = ds.entanglement_dataset(2, 10, 0.8, "ntangle", np.random.default_rng(11))
    alpha = items[0].provenance["alpha"]
    base = obs.ntangle_oracle(dm(ds._ghz_interpolation(2, alpha)))
    for item in items:
        if item.label == 1:
            assert abs(obs.ntangle_oracle(item.state) - base) < 1e-9


def test_entanglement_dataset_unattainable_target():
    with pytest.raises(ValueError):
        ds.entanglement_dataset(2, 4, 1.5, "meyer_wallach", np.random.default_rng(0))
    with pytest.raises(ValueError):
        ds.entanglement_dataset(1, 4, 0.5, "meyer_wallach", np.random.default_rng(0))


def test_graph_hamiltonian_empty_graph():
    g = ds.Graph(2, set())
    expected = kron_all([obs.PAULI["X"], obs.PAULI["I"]]) + kron_all(
        [obs.PAULI["I"], obs.PAULI["X"]]
    )
    np.testing.assert_allclose(ds.graph_hamiltonian(g).matrix, expected)


def test_graph_hamiltonian_single_edge():
    g = ds.Graph(2, {(0, 1)})
    expected = (
        kron_all([obs.PAULI["Z"], obs.PAULI["Z"]])
        + kron_all([obs.PAULI["X"], obs.PAULI["I"]])
        + kron_all([obs.PAULI["I"], obs.PAULI["X"]])
    )
    np.testing.assert_allclose(ds.graph_hamiltonian(g).matrix, expected)


def test_graph_hamiltonian_relabeling_conjugation():
    # oracle: H(P g) = P H(g) P for the permutation matrix P
    perm = (2, 0, 1)
    p = permutation_operator(perm, target="qubits")
    h = ds.graph_hamiltonian(PATH3).matrix
    h_relabeled = ds.graph_hamiltonian(PATH3.relabel(perm)).matrix
    np.testing.assert_allclose(h_relabeled, p @ h @ p.T, atol=1e-12)


def _kron_terms(g):
    """The graph terms as sums of dense Pauli Kronecker products."""
    def pauli_sum(pauli, site_sets):
        return sum((kron_all([obs.PAULI[pauli if j in sites else "I"] for j in range(g.n)])
                    for sites in site_sets), np.zeros((2**g.n, 2**g.n), dtype=complex))
    return pauli_sum("Z", sorted(g.edges)), pauli_sum("X", [(j,) for j in range(g.n)])


@pytest.mark.parametrize("g", [TRIANGLE, PATH3, ds.Graph(4, {(0, 3), (1, 2), (0, 2)}),
                               ds.Graph(5, set()), ds.Graph(1, set())])
def test_graph_terms_equal_pauli_kronecker_sums(g):
    for got, want in zip(ds.graph_terms(g), _kron_terms(g)):
        assert got.dtype == complex
        np.testing.assert_array_equal(got, want)


def test_orbit_distance_equals_dense_conjugation():
    rng = np.random.default_rng(14)
    n = 4
    perms = [permutation_operator(p, target="qubits") for p in permutations(range(n))]
    for _ in range(3):
        rho0, rho1 = (random_density_matrix(2**n, rng) for _ in range(2))
        dense = min(np.linalg.norm(rho1 - p @ rho0 @ p.T) for p in perms)
        assert abs(ds._orbit_distance(rho0, rho1, n) - dense) < 1e-12
        # zero, not rounding, on a relabelled copy
        p = perms[rng.integers(len(perms))]
        assert ds._orbit_distance(rho0, p @ rho0 @ p.T, n) == 0.0


def test_graph_validation():
    with pytest.raises(ValueError):
        ds.Graph(2, {(0, 0)})
    with pytest.raises(ValueError):
        ds.Graph(2, {(0, 2)})


def test_is_isomorphic():
    relabeled = TRIANGLE.relabel((2, 0, 1))
    assert ds.is_isomorphic(TRIANGLE, relabeled)
    assert not ds.is_isomorphic(TRIANGLE, PATH3)
    c4 = ds.Graph(4, {(0, 1), (1, 2), (2, 3), (0, 3)})
    star4 = ds.Graph(4, {(0, 1), (0, 2), (0, 3)})
    assert not ds.is_isomorphic(c4, star4)


def test_graph_state_t_zero_is_fiduciary():
    state = ds.graph_state(TRIANGLE, 0.0)
    np.testing.assert_allclose(state, dm(plus_state(3)), atol=1e-12)


def test_graph_dataset_rejects_indistinguishable_time():
    with pytest.raises(ValueError):
        ds.graph_dataset(TRIANGLE, PATH3, 4, 0.0, np.random.default_rng(0))


def test_graph_dataset_rejects_isomorphic_references():
    with pytest.raises(ValueError):
        ds.graph_dataset(TRIANGLE, TRIANGLE.relabel((1, 2, 0)), 4, 1.0, np.random.default_rng(0))


@pytest.mark.parametrize("g0,g1", [
    (TRIANGLE, PATH3),
    (ds.Graph(4, {(0, 1), (1, 2), (2, 3), (0, 3)}), ds.Graph(4, {(0, 1), (0, 2), (0, 3)})),
    (ds.Graph(5, {(0, 1), (1, 2), (2, 3), (3, 4)}), ds.Graph(5, {(0, 4), (1, 4), (2, 4), (3, 4)})),
])
def test_graph_dataset_items_equal_relabelled_graph_states(g0, g1):
    # oracle: the state of the relabelled graph, built from its Hamiltonian
    t = 0.7
    items = ds.graph_dataset(g0, g1, 12, t, np.random.default_rng(15))
    assert {item.label for item in items} == {0, 1}
    for item in items:
        g = (g0, g1)[item.label].relabel(item.provenance["perm"])
        np.testing.assert_allclose(item.state, ds.graph_state(g, t), rtol=0, atol=1e-12)


def test_graph_dataset_draws_labels_then_one_permutation_per_item():
    rng, twin = np.random.default_rng(16), np.random.default_rng(16)
    items = ds.graph_dataset(TRIANGLE, PATH3, 5, 1.0, rng)
    labels = ds._balanced_labels(5, twin)
    assert [item.label for item in items] == labels.tolist()
    assert [item.provenance["perm"] for item in items] == [
        twin.permutation(3).tolist() for _ in items
    ]


def test_is_isomorphic_equals_relabel_brute_force():
    rng = np.random.default_rng(17)
    pairs = list(permutations(range(4), 2))
    for _ in range(40):
        g0, g1 = (ds.Graph(4, {pairs[i] for i in rng.choice(12, size=3, replace=False)})
                  for _ in range(2))
        oracle = any(g0.relabel(p).edges == g1.edges for p in permutations(range(4)))
        assert ds.is_isomorphic(g0, g1) == oracle


def test_fiduciary_state_is_permutation_invariant():
    plus = plus_state(3)
    for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        p = permutation_operator(perm, target="qubits")
        np.testing.assert_array_equal(p @ plus, plus)


def test_graph_dataset_invariant_model_constant_per_class():
    from ginv.train import graph_invariant_model

    items = ds.graph_dataset(TRIANGLE, PATH3, 12, 1.0, np.random.default_rng(12))
    model = graph_invariant_model(3)
    theta = np.array([0.4, 0.8, 0.3])
    values = {0: set(), 1: set()}
    for item in items:
        values[item.label].add(round(model.value_fn(theta, item.state), 9))
    assert len(values[0]) == 1 and len(values[1]) == 1


def test_graph_dataset_conjugation_oracle():
    # P rho P vs rho agree under any A^(x n) observable
    rng = np.random.default_rng(13)
    item = ds.graph_dataset(TRIANGLE, PATH3, 2, 1.0, rng)[0]
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a = a + a.conj().T
    a3 = kron_all([a] * 3)
    p = permutation_operator((1, 2, 0), target="qubits")
    conj = p @ item.state @ p.T
    assert abs(expectation(conj, a3) - expectation(item.state, a3)) < 1e-10
