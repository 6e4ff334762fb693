import numpy as np
import pytest

from ginv import models
from ginv.datasets import Graph, graph_terms
from ginv.groups import haar_orthogonal, haar_unitary, permutation_operator
from ginv.models import (
    FixedUnitaryAnsatz,
    IdentityAnsatz,
    LayeredAnsatz,
    ModelSpec,
    QGCNNAnsatz,
    conjugated_observable,
    estimate_with_shots,
    evaluate,
    swap_test_model,
    swap_test_unitary,
)
from ginv.observables import PAULI, Observable, bell_projector, swap_operator
from ginv.tensor import (
    bell_state,
    dm,
    expectation_copies,
    expm_hermitian,
    kron,
    kron_all,
    purity,
    random_density_matrix,
    random_statevector,
    tensor_power,
)

C4 = Graph(4, {(0, 1), (1, 2), (2, 3), (0, 3)})
K3 = Graph(3, {(0, 1), (1, 2), (0, 2)})


def random_hermitian(d, rng):
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return h + h.conj().T


def test_realize_identity():
    np.testing.assert_array_equal(IdentityAnsatz(4).realize(None), np.eye(4))


def test_realize_qgcnn_zero_angles():
    ansatz = QGCNNAnsatz(K3, p_layers=2, q_generators=2)
    theta = np.zeros(ansatz.n_params)
    theta[-4:] = [1.0, 2.0, 0.5, 1.5]  # nonzero W's and B's, eta = 0
    np.testing.assert_allclose(ansatz.realize(theta), np.eye(8), atol=1e-12)


def test_realize_qgcnn_builds_graph_terms_once(monkeypatch):
    calls = []

    def counted(graph):
        calls.append(graph)
        return graph_terms(graph)

    monkeypatch.setattr(models, "graph_terms", counted)
    ansatz = QGCNNAnsatz(K3, p_layers=2, q_generators=2)
    rng = np.random.default_rng(17)
    thetas = [rng.standard_normal(ansatz.n_params) for _ in range(3)]
    first = [ansatz.realize(theta) for theta in thetas]
    assert calls == [K3]
    # a fresh ansatz per call gives the same bytes as the cached terms
    fresh = [QGCNNAnsatz(K3, 2, 2).realize(theta) for theta in thetas]
    for a, b in zip(first, fresh):
        np.testing.assert_array_equal(a, b)


def test_realize_qgcnn_edgeless_single_layer():
    # oracle: exp(-i pi/4 sum X_v) factorises into single-qubit exponentials
    edgeless = Graph(2, set())
    ansatz = QGCNNAnsatz(edgeless, p_layers=1, q_generators=1)
    theta = np.array([np.pi / 4, 0.7, 1.0])  # eta, W (irrelevant), B
    single = expm_hermitian(PAULI["X"], np.pi / 4)
    np.testing.assert_allclose(
        ansatz.realize(theta), kron(single, single), atol=1e-12
    )


def test_layered_ansatz_unitarity():
    rng = np.random.default_rng(0)
    gens = [random_hermitian(4, rng) for _ in range(3)]
    ansatz = LayeredAnsatz(gens)
    for _ in range(100):
        u = ansatz.realize(rng.standard_normal(3))
        assert np.linalg.norm(u @ u.conj().T - np.eye(4)) < 1e-9


def test_qgcnn_unitarity():
    rng = np.random.default_rng(1)
    ansatz = QGCNNAnsatz(K3, p_layers=2, q_generators=1)
    for _ in range(100):
        u = ansatz.realize(rng.standard_normal(ansatz.n_params))
        assert np.linalg.norm(u @ u.conj().T - np.eye(8)) < 1e-9


def test_ansatz_param_count_mismatch():
    with pytest.raises(ValueError):
        IdentityAnsatz(2).realize([0.1])
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        LayeredAnsatz([random_hermitian(2, rng)]).realize([0.1, 0.2])


def test_fixed_unitary_validation():
    with pytest.raises(ValueError):
        FixedUnitaryAnsatz(np.ones((2, 2)))


def test_evaluate_h1_swap_mixed():
    model = ModelSpec("H1", 2, IdentityAnsatz(4), swap_operator(1))
    assert abs(evaluate(model, np.eye(2) / 2) - 0.5) < 1e-12


def test_evaluate_h1_swap_is_purity():
    rng = np.random.default_rng(3)
    model = ModelSpec("H1", 2, IdentityAnsatz(16), swap_operator(2))
    for _ in range(10):
        rho = random_density_matrix(4, rng)
        assert abs(evaluate(model, rho) - purity(rho)) < 1e-10


def test_evaluate_h2_orthogonal_dynamics():
    rng = np.random.default_rng(4)
    for n in (1, 2):
        d = 2**n
        model = ModelSpec(
            "H2", 2, IdentityAnsatz(d * d), bell_projector(n), psi_in=bell_state(n)
        )
        for _ in range(20):
            w = haar_orthogonal(d, rng)
            assert abs(evaluate(model, w) - 1.0) < 1e-10


def test_evaluate_h2_matches_dense_oracle():
    # oracle: build (W x W)|psi><psi|(W x W)^dag densely and trace
    rng = np.random.default_rng(5)
    n, d = 1, 2
    model = ModelSpec(
        "H2", 2, IdentityAnsatz(4), bell_projector(1), psi_in=bell_state(1)
    )
    for _ in range(10):
        w = haar_unitary(d, rng)
        ww = kron(w, w)
        sigma = ww @ dm(bell_state(1)) @ ww.conj().T
        oracle = float(np.real(np.trace(sigma @ bell_projector(1).matrix)))
        assert abs(evaluate(model, w) - oracle) < 1e-12


def test_evaluate_h2_bell_reads_no_dense_matrix():
    # oracle: phi^H O phi for phi = (W x W)|psi_in>, O the dense Bell projector
    rng = np.random.default_rng(41)
    for n in (1, 2, 3):
        d = 2**n
        psi_in = random_statevector(d * d, rng)
        model = ModelSpec("H2", 2, IdentityAnsatz(d * d), bell_projector(n), psi_in=psi_in)
        dense = dm(bell_state(n))
        for w in (haar_unitary(d, rng), haar_orthogonal(d, rng)):
            phi = kron(w, w) @ psi_in
            oracle = float(np.real(phi.conj() @ dense @ phi))
            assert abs(evaluate(model, w) - oracle) < 1e-12
        assert "matrix" not in vars(model.observable)


def test_evaluate_h3_swap_test_pure():
    rng = np.random.default_rng(6)
    model = swap_test_model(1)
    psi = random_statevector(2, rng)
    assert abs(evaluate(model, dm(psi)) - 1.0) < 1e-10


def test_evaluate_h3_swap_test_purity_conjugation_oracle():
    # oracle: Tr[(|0><0| x rho x rho) Z x SWAP] = Tr[rho^2]
    rng = np.random.default_rng(7)
    for n in (1, 2):
        model = swap_test_model(n)
        for _ in range(5):
            rho = random_density_matrix(2**n, rng)
            assert abs(evaluate(model, rho) - purity(rho)) < 1e-10


def test_evaluate_input_kind_errors():
    model = ModelSpec("H1", 2, IdentityAnsatz(4), swap_operator(1))
    with pytest.raises(ValueError):
        evaluate(model, np.eye(4) / 4)  # wrong dimension
    h2 = ModelSpec("H2", 2, IdentityAnsatz(4), bell_projector(1), psi_in=bell_state(1))
    with pytest.raises(ValueError):
        evaluate(h2, np.ones((2, 2)))  # not unitary


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("H4", 1, IdentityAnsatz(2), swap_operator(1))
    with pytest.raises(ValueError):
        ModelSpec("H2", 2, IdentityAnsatz(4), bell_projector(1))  # no psi_in
    with pytest.raises(ValueError):
        ModelSpec("H1", 2, IdentityAnsatz(2), swap_operator(1))  # dim clash


def test_swap_test_unitary_conjugation_identity():
    for n in (1, 2):
        u = swap_test_unitary(n)
        z_anc = kron(PAULI["Z"], np.eye(4**n))
        z_swap = kron(PAULI["Z"], swap_operator(n).matrix)
        assert np.abs(u.conj().T @ z_anc @ u - z_swap).max() < 1e-10


def test_ancilla_measurement_eigenvector_condition():
    zero = np.array([1, 0], dtype=complex)
    np.testing.assert_allclose(PAULI["Z"] @ zero, zero)


def test_conjugated_observable_identity_ansatz():
    model = ModelSpec("H1", 2, IdentityAnsatz(4), swap_operator(1))
    assert conjugated_observable(model) is model.observable


def test_conjugated_observable_swap_test():
    model = swap_test_model(1)
    expected = kron(PAULI["Z"], swap_operator(1).matrix)
    np.testing.assert_allclose(conjugated_observable(model).matrix, expected, atol=1e-12)


def test_dual_path_consistency():
    # evaluate() against Tr[rho^(x k) U^dag O U] with the dense tensor power
    rng = np.random.default_rng(8)
    for _ in range(50):
        k = int(rng.integers(1, 3))
        n = 1
        d = 2**n
        obs = Observable(random_hermitian(d**k, rng), k, n, "random")
        ansatz = LayeredAnsatz([random_hermitian(d**k, rng) for _ in range(2)])
        theta = rng.standard_normal(2)
        model = ModelSpec("H1", k, ansatz, obs)
        rho = random_density_matrix(d, rng)
        direct = evaluate(model, rho, theta=theta)
        u = ansatz.realize(theta)
        dressed = u.conj().T @ obs.matrix @ u
        oracle = float(np.real(np.trace(tensor_power(rho, k) @ dressed)))
        assert abs(direct - oracle) < 1e-10


def test_qgcnn_permutation_equivariance():
    rng = np.random.default_rng(9)
    for graph, autos in (
        (C4, [(1, 2, 3, 0), (3, 2, 1, 0), (2, 3, 0, 1)]),
        (K3, [(1, 0, 2), (2, 0, 1), (0, 2, 1)]),
    ):
        ansatz = QGCNNAnsatz(graph, p_layers=2, q_generators=2)
        theta = rng.standard_normal(ansatz.n_params)
        u = ansatz.realize(theta)
        for perm in autos:
            relabeled = graph.relabel(perm)
            assert relabeled.edges == graph.edges  # sanity: really an automorphism
            p = permutation_operator(perm, target="qubits")
            assert np.linalg.norm(u @ p - p @ u) < 1e-9


def test_shots_projector_degenerate():
    rng = np.random.default_rng(10)
    model = ModelSpec(
        "H2", 2, IdentityAnsatz(4), bell_projector(1), psi_in=bell_state(1)
    )
    w = haar_orthogonal(2, rng)
    for shots in (1, 7, 100):
        est = estimate_with_shots(model, w, shots, rng)
        assert est.estimate == 1.0
        assert est.stderr == 0.0


def test_shots_swap_model_maximally_mixed():
    rng = np.random.default_rng(11)
    model = ModelSpec("H1", 2, IdentityAnsatz(4), swap_operator(1))
    est = estimate_with_shots(model, np.eye(2) / 2, 10000, rng)
    assert est.stderr > 0
    assert abs(est.estimate - 0.5) < 4 * est.stderr


def test_shots_unbiased():
    rng = np.random.default_rng(12)
    model = ModelSpec("H1", 2, IdentityAnsatz(4), swap_operator(1))
    rho = random_density_matrix(2, rng)
    exact = evaluate(model, rho)
    reps = 100
    shots = 200
    estimates = np.array(
        [estimate_with_shots(model, rho, shots, rng).estimate for _ in range(reps)]
    )
    combined_stderr = estimates.std(ddof=1) / np.sqrt(reps)
    assert abs(estimates.mean() - exact) < 4 * combined_stderr


def test_shots_variance_scaling():
    # doubling the shot count should roughly halve the estimator variance
    rng = np.random.default_rng(13)
    model = ModelSpec("H1", 2, IdentityAnsatz(4), swap_operator(1))
    rho = random_density_matrix(2, rng)
    reps = 300
    var = {}
    for shots in (128, 256):
        vals = np.array(
            [estimate_with_shots(model, rho, shots, rng).estimate for _ in range(reps)]
        )
        var[shots] = vals.var(ddof=1)
    ratio = var[128] / var[256]
    assert 1.4 < ratio < 2.9


class RecordingRng:
    """A generator that keeps every batch of eigenvalue outcomes it draws."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.outcomes = []

    def choice(self, *args, **kwargs):
        out = self._rng.choice(*args, **kwargs)
        self.outcomes.extend(out)
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("case", ["layered_swap", "swap_test"])
def test_shots_dressed_spectral_branch(case):
    rng = np.random.default_rng(16)
    if case == "layered_swap":
        gens = [random_hermitian(4, rng) for _ in range(2)]
        model = ModelSpec("H1", 2, LayeredAnsatz(gens), swap_operator(1))
        theta = rng.standard_normal(2)
    else:
        model = swap_test_model(1)
        theta = None
    rho = random_density_matrix(2, rng)
    # a dressed observable is dense: eigenvalue sampling
    assert conjugated_observable(model, theta).kind == "dense"
    shots = 20000
    draws = RecordingRng(17)
    est = estimate_with_shots(model, rho, shots, draws, theta=theta)
    assert len(draws.outcomes) == shots
    assert np.mean(draws.outcomes) == est.estimate
    eigenvalues = np.linalg.eigvalsh(model.observable.matrix)
    gaps = np.abs(np.subtract.outer(draws.outcomes, eigenvalues)).min(axis=1)
    assert gaps.max() < 1e-9
    assert abs(est.estimate - evaluate(model, rho, theta)) < 4 * est.stderr


def test_dense_shots_diagonalise_the_observable_once(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
    observable = Observable(random_hermitian(8, np.random.default_rng(21)), 1, 3, "dense")
    model = ModelSpec("H1", 1, IdentityAnsatz(8), observable)
    rng = np.random.default_rng(22)
    for _ in range(5):
        rho = random_density_matrix(8, rng)
        est = estimate_with_shots(model, rho, 4000, rng)
        assert abs(est.estimate - evaluate(model, rho)) < 5 * est.stderr
    assert len(calls) == 1
    w, vecs = observable.eigh
    np.testing.assert_allclose((vecs * w) @ vecs.conj().T, observable.matrix, atol=1e-12)
    for a in (w, vecs):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


@pytest.mark.parametrize("hclass", ["H1", "H2"])
def test_bell_shots_draw_the_bernoulli_stream(hclass):
    # oracle: outcome 1 exactly when a uniform draw falls below the value
    rng = np.random.default_rng(18)
    n, d = 2, 4
    if hclass == "H1":
        model = ModelSpec("H1", 2, IdentityAnsatz(d * d), bell_projector(n))
        inputs = [dm(random_statevector(d, rng)) for _ in range(20)]
        inputs += [dm(haar_orthogonal(d, rng)[:, 0])]  # value exactly 1/d
    else:
        model = ModelSpec(
            "H2", 2, IdentityAnsatz(d * d), bell_projector(n), psi_in=bell_state(n)
        )
        inputs = [haar_unitary(d, rng) for _ in range(20)] + [haar_orthogonal(d, rng)]
    for seed, x in enumerate(inputs):
        p = min(max(evaluate(model, x), 0.0), 1.0)
        old = (np.random.default_rng(seed).random(300) < p).astype(float)
        draws = RecordingRng(seed)
        est = estimate_with_shots(model, x, 300, draws)
        np.testing.assert_array_equal(draws.outcomes, old)
        assert est.estimate == old.mean()


def test_shots_requires_positive():
    model = ModelSpec("H1", 2, IdentityAnsatz(4), swap_operator(1))
    with pytest.raises(ValueError):
        estimate_with_shots(model, np.eye(2) / 2, 0, np.random.default_rng(0))
