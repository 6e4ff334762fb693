import numpy as np
import pytest

from ginv import models
from ginv.datasets import Dataset, Graph
from ginv.groups import haar_orthogonal, haar_unitary, permutation_operator
from ginv.models import (
    ModelSpec,
    ancilla_observable,
    conjugated_observable,
    estimate_with_shots,
    evaluate,
    swap_test_model,
    swap_test_unitary,
)
from ginv.observables import (
    PAULI,
    Observable,
    bell_projector,
    meyer_wallach_observable,
    pauli_string,
    swap_operator,
)
from ginv.tensor import (
    basis_state,
    bell_state,
    dm,
    expm_hermitian,
    is_unitary,
    kron,
    kron_all,
    purity,
    random_statevector,
    tensor_power,
)
from ginv.train import OptimizeResult, TrainableModel
from helpers import expectation, qgcnn_unitary, random_density_matrix, relabel

C4 = Graph(4, {(0, 1), (1, 2), (2, 3), (0, 3)})
K3 = Graph(3, {(0, 1), (1, 2), (0, 2)})


def random_hermitian(d, rng):
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return h + h.conj().T


def random_unitary(d, rng, generators=2):
    """A product of exp(-i t G) over random Hermitian generators G."""
    u = np.eye(d, dtype=complex)
    for _ in range(generators):
        u = u @ expm_hermitian(random_hermitian(d, rng), rng.standard_normal())
    return u


def test_realize_qgcnn_zero_angles():
    theta = np.zeros(2 * 2 + 2 * 2)
    theta[-4:] = [1.0, 2.0, 0.5, 1.5]  # nonzero W's and B's, eta = 0
    np.testing.assert_allclose(qgcnn_unitary(K3, theta, 2, 2), np.eye(8), atol=1e-12)


def test_realize_qgcnn_edgeless_single_layer():
    # oracle: exp(-i pi/4 sum X_v) factorises into single-qubit exponentials
    edgeless = Graph(2, set())
    theta = np.array([np.pi / 4, 0.7, 1.0])  # eta, W (irrelevant), B
    single = expm_hermitian(PAULI["X"], np.pi / 4)
    np.testing.assert_allclose(
        qgcnn_unitary(edgeless, theta, 1, 1), kron(single, single), atol=1e-12
    )


def test_qgcnn_unitarity():
    rng = np.random.default_rng(1)
    for _ in range(100):
        u = qgcnn_unitary(K3, rng.standard_normal(2 * 1 + 2 * 1), 2, 1)
        assert np.linalg.norm(u @ u.conj().T - np.eye(8)) < 1e-9


def test_ansatz_param_count_mismatch():
    # P*Q + 2Q parameters: 8 for P = Q = 2
    for count in (0, 7, 9):
        with pytest.raises(ValueError, match="expects 8 parameters"):
            qgcnn_unitary(K3, np.zeros(count), 2, 2)


def test_fixed_unitary_validation():
    with pytest.raises(ValueError, match="not unitary"):
        ModelSpec("H1", swap_operator(1), unitary=np.ones((4, 4)))
    for wrong in (np.eye(2), np.eye(4)[:, :2], np.ones(4), np.eye(16)):
        with pytest.raises(ValueError, match="!= observable dim 4"):
            ModelSpec("H1", swap_operator(1), unitary=wrong)
    u = random_unitary(4, np.random.default_rng(2))
    assert ModelSpec("H1", swap_operator(1), unitary=u).unitary is not None


def test_evaluate_h1_swap_mixed():
    model = ModelSpec("H1", swap_operator(1))
    assert abs(evaluate(model, np.eye(2) / 2) - 0.5) < 1e-12


def test_evaluate_h1_swap_is_purity():
    rng = np.random.default_rng(3)
    model = ModelSpec("H1", swap_operator(2))
    for _ in range(10):
        rho = random_density_matrix(4, rng)
        assert abs(evaluate(model, rho) - purity(rho)) < 1e-10


def test_evaluate_h2_orthogonal_dynamics():
    rng = np.random.default_rng(4)
    for n in (1, 2):
        d = 2**n
        model = ModelSpec("H2", bell_projector(n), psi_in=bell_state(n))
        for _ in range(20):
            w = haar_orthogonal(d, rng)
            assert abs(evaluate(model, w) - 1.0) < 1e-10


def test_evaluate_h2_matches_dense_oracle():
    # oracle: build (W x W)|psi><psi|(W x W)^dag densely and trace
    rng = np.random.default_rng(5)
    n, d = 1, 2
    model = ModelSpec("H2", bell_projector(1), psi_in=bell_state(1))
    for _ in range(10):
        w = haar_unitary(d, rng)
        ww = kron(w, w)
        sigma = ww @ dm(bell_state(1)) @ ww.conj().T
        oracle = float(np.real(np.trace(sigma @ bell_projector(1).matrix)))
        assert abs(evaluate(model, w) - oracle) < 1e-12


def test_evaluate_h2_bell_reads_no_dense_matrix():
    # oracle: phi^H O phi for phi = (W x W)|psi_in>, O the dense Bell
    # projector; psi_in is far from swap-symmetric (M != M^T), so the
    # one-product trace sum((W M) * W) is tested where W M W^T is not symmetric
    rng = np.random.default_rng(41)
    for n in (1, 2, 3):
        d = 2**n
        psi_in = random_statevector(d * d, rng)
        assert np.abs(psi_in.reshape(d, d) - psi_in.reshape(d, d).T).max() > 0.1
        model = ModelSpec("H2", bell_projector(n), psi_in=psi_in)
        dense = dm(bell_state(n))
        for w in (*haar_unitary(d, rng, count=10), haar_orthogonal(d, rng)):
            phi = kron(w, w) @ psi_in
            oracle = float(np.real(phi.conj() @ dense @ phi))
            assert abs(evaluate(model, w) - oracle) < 1e-12
        assert "matrix" not in vars(model.observable)


def test_h2_routes_check_each_input_once(monkeypatch):
    # the Bell value checks shape and unitarity once a call; shots read
    # each item's value through evaluate, so they check each item once too
    model = ModelSpec("H2", bell_projector(2), psi_in=bell_state(2))
    checks = []
    monkeypatch.setattr(models, "is_unitary", lambda w: checks.append(w) or is_unitary(w))
    w = haar_unitary(4, np.random.default_rng(43))
    evaluate(model, w)
    assert len(checks) == 1
    estimate_with_shots(model, np.array([w, w]), 10, np.random.default_rng(0))
    assert len(checks) == 3
    for bad, message in ((np.diag([1.0, 1.0, 1.0, 2.0]), "H2 input must be unitary"),
                         (np.eye(2), "H2 expects a 4-dim unitary")):
        with pytest.raises(ValueError, match=message):
            evaluate(model, bad)


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


def test_evaluate_h3_matches_dense_ancilla_oracle():
    # oracle: Tr[(|0><0| x rho x rho) U^dag (O x 1) U] on the whole register
    rng = np.random.default_rng(29)
    for n in (1, 2):
        u = swap_test_unitary(n)
        for _ in range(5):
            o = random_hermitian(2, rng)
            model = ModelSpec("H3", ancilla_observable(o, n), unitary=u)
            rho = random_density_matrix(2**n, rng)
            dressed = u.conj().T @ kron(o, np.eye(4**n)) @ u
            oracle = expectation(kron_all([dm(basis_state(2, 0)), rho, rho]), dressed)
            assert abs(evaluate(model, rho) - oracle) < 1e-12


def test_evaluate_input_kind_errors():
    model = ModelSpec("H1", swap_operator(1))
    with pytest.raises(ValueError):
        evaluate(model, np.eye(4) / 4)  # wrong dimension
    h2 = ModelSpec("H2", bell_projector(1), psi_in=bell_state(1))
    with pytest.raises(ValueError):
        evaluate(h2, np.ones((2, 2)))  # not unitary


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("H4", swap_operator(1))
    with pytest.raises(ValueError):
        ModelSpec("H2", bell_projector(1))  # no psi_in
    with pytest.raises(ValueError):
        ModelSpec("H1", swap_operator(1), unitary=np.eye(2))  # dim clash
    with pytest.raises(ValueError, match="two copies"):
        ModelSpec("H2", Observable(np.eye(4), 1, 2, "one copy"), psi_in=bell_state(1))


def test_h2_model_is_the_undressed_bell_projector():
    for obs in (swap_operator(1), Observable(np.eye(16), 2, 2, "dense")):
        with pytest.raises(ValueError, match="Bell projector, undressed"):
            ModelSpec("H2", obs, psi_in=bell_state(obs.qubits_per_copy))
    with pytest.raises(ValueError, match="Bell projector, undressed"):
        ModelSpec("H2", bell_projector(1), psi_in=bell_state(1), unitary=np.eye(4))


def test_swap_test_unitary_conjugation_identity():
    for n in (1, 2):
        u = swap_test_unitary(n)
        z_anc = kron(PAULI["Z"], np.eye(4**n))
        z_swap = kron(PAULI["Z"], swap_operator(n).matrix)
        assert np.abs(u.conj().T @ z_anc @ u - z_swap).max() < 1e-10


def test_swap_test_unitary_is_the_hadamard_cswap_product():
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    for n in (1, 2, 3):
        d2 = 4**n
        cswap = np.zeros((2 * d2, 2 * d2), dtype=complex)
        cswap[:d2, :d2] = np.eye(d2)
        cswap[d2:, d2:] = swap_operator(n).matrix
        h_anc = kron(h, np.eye(d2))
        u = swap_test_unitary(n)
        assert np.abs(u - h_anc @ cswap @ h_anc).max() <= 1e-15
        # real, with entries 0, +-1/2 and 1, so ModelSpec checks it by a real product
        assert u.dtype == np.float64
        assert set(np.unique(u)) <= {0.0, 0.5, -0.5, 1.0}


def test_ancilla_measurement_eigenvector_condition():
    zero = np.array([1, 0], dtype=complex)
    np.testing.assert_allclose(PAULI["Z"] @ zero, zero)


def test_conjugated_observable_identity_ansatz():
    # a model without a unitary measures its observable undressed
    model = ModelSpec("H1", swap_operator(1))
    assert conjugated_observable(model) is model.observable


def test_evaluate_dresses_only_a_model_with_a_unitary(monkeypatch):
    calls = []
    dress = models.conjugated_observable
    monkeypatch.setattr(models, "conjugated_observable", lambda m: calls.append(m) or dress(m))
    rho = random_density_matrix(2, np.random.default_rng(3))
    assert evaluate(ModelSpec("H1", swap_operator(1)), rho) == pytest.approx(purity(rho))
    assert calls == []
    h3 = swap_test_model(1)
    assert evaluate(h3, rho) == pytest.approx(purity(rho))
    assert calls == [h3]


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
        u = random_unitary(d**k, rng)
        model = ModelSpec("H1", obs, unitary=u)
        rho = random_density_matrix(d, rng)
        direct = evaluate(model, rho)
        dressed = u.conj().T @ obs.matrix @ u
        oracle = float(np.real(np.trace(tensor_power(rho, k) @ dressed)))
        assert abs(direct - oracle) < 1e-10


def test_qgcnn_permutation_equivariance():
    rng = np.random.default_rng(9)
    for graph, autos in (
        (C4, [(1, 2, 3, 0), (3, 2, 1, 0), (2, 3, 0, 1)]),
        (K3, [(1, 0, 2), (2, 0, 1), (0, 2, 1)]),
    ):
        u = qgcnn_unitary(graph, rng.standard_normal(2 * 2 + 2 * 2), 2, 2)
        for perm in autos:
            relabeled = relabel(graph, perm)
            assert relabeled.edges == graph.edges  # sanity: really an automorphism
            p = permutation_operator(perm)
            assert np.linalg.norm(u @ p - p @ u) < 1e-9


def level_scale(levels, shots):
    """(max - min) / (2 sqrt(shots)): the largest standard deviation a mean of
    ``shots`` draws from these levels can have."""
    return (np.max(levels) - np.min(levels)) / (2 * np.sqrt(shots))


def test_shots_projector_degenerate():
    rng = np.random.default_rng(10)
    model = ModelSpec("H2", bell_projector(1), psi_in=bell_state(1))
    w = haar_orthogonal(2, rng)
    for shots in (1, 7, 100):
        draws = RecordingRng(shots)
        np.testing.assert_array_equal(estimate_with_shots(model, w[None], shots, draws), [1.0])
        np.testing.assert_array_equal(draws.counts, [[[shots, 0]]])


def test_shots_swap_model_maximally_mixed():
    rng = np.random.default_rng(11)
    model = ModelSpec("H1", swap_operator(1))
    est = estimate_with_shots(model, np.eye(2)[None] / 2, 10000, rng)
    assert est.shape == (1,)
    assert abs(est[0] - 0.5) < 4 * level_scale([-1.0, 1.0], 10000)


def test_shots_unbiased():
    rng = np.random.default_rng(12)
    model = ModelSpec("H1", swap_operator(1))
    rho = random_density_matrix(2, rng)
    exact = evaluate(model, rho)
    reps = 100
    shots = 200
    estimates = estimate_with_shots(model, np.repeat(rho[None], reps, axis=0), shots, rng)
    assert abs(estimates.mean() - exact) < 4 * level_scale([-1.0, 1.0], shots) / np.sqrt(reps)


def test_shots_variance_scaling():
    # doubling the shot count should roughly halve the estimator variance
    rng = np.random.default_rng(13)
    model = ModelSpec("H1", swap_operator(1))
    rho = random_density_matrix(2, rng)
    stack = np.repeat(rho[None], 300, axis=0)
    var = {shots: estimate_with_shots(model, stack, shots, rng).var(ddof=1) for shots in (128, 256)}
    ratio = var[128] / var[256]
    assert 1.4 < ratio < 2.9


class RecordingRng:
    """A generator that keeps the level counts of every multinomial draw."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.counts = []

    def multinomial(self, *args, **kwargs):
        out = self._rng.multinomial(*args, **kwargs)
        self.counts.append(out)
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("case", ["layered_swap", "swap_test"])
def test_shots_dressed_spectral_branch(case):
    rng = np.random.default_rng(16)
    if case == "layered_swap":
        model = ModelSpec("H1", swap_operator(1), unitary=random_unitary(4, rng))
    else:
        model = swap_test_model(1)
    rho = random_density_matrix(2, rng)
    # a dressed observable is dense, and keeps the spectrum of O: two levels
    assert conjugated_observable(model).kind == "dense"
    eigenvalues = np.linalg.eigvalsh(model.observable.matrix)
    assert set(np.round(eigenvalues, 12)) == {-1.0, 1.0}
    shots = 20000
    draws = RecordingRng(17)
    est = estimate_with_shots(model, rho[None], shots, draws)
    (counts,) = draws.counts
    assert counts.shape == (1, 2) and counts.sum() == shots
    np.testing.assert_allclose(est, counts @ [1.0, -1.0] / shots, atol=1e-12)
    assert abs(est[0] - evaluate(model, rho)) < 4 * level_scale(eigenvalues, shots)


def test_dense_shots_diagonalise_the_observable_once(monkeypatch):
    # the levels come from one eigvalsh, cached on the observable, whether
    # it has two levels (read) or more (refused on every call)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
    rng = np.random.default_rng(21)
    u = random_unitary(8, rng)
    two = Observable(u @ np.diag([1.0] * 3 + [-2.0] * 5) @ u.conj().T, 1, 3, "two")
    model = ModelSpec("H1", two)
    for _ in range(5):
        rho = random_density_matrix(8, rng)
        est = estimate_with_shots(model, rho[None], 4000, rng)
        assert abs(est[0] - evaluate(model, rho)) < 5 * level_scale([1.0, -2.0], 4000)
    assert len(calls) == 1
    np.testing.assert_allclose(two.levels, (1.0, -2.0), atol=1e-12)
    three = ModelSpec("H1", Observable(random_hermitian(8, rng), 1, 3, "three"))
    for _ in range(3):
        with pytest.raises(ValueError, match="three: shots need"):
            estimate_with_shots(three, rho[None], 10, rng)
    assert len(calls) == 2 and three.observable.levels is None


@pytest.mark.parametrize("case", ["h1_dense"])
def test_shots_refuse_more_than_two_levels(case):
    # a dense observable with three or more levels has no two-level law:
    # refused before any value or draw, the generator untouched
    model, inputs = _shot_case(case, 2, np.random.default_rng(19))
    assert len(np.unique(np.round(np.linalg.eigvalsh(model.observable.matrix), 6))) > 2
    rng = np.random.default_rng(20)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="dense: shots need an H1 swap polynomial or an "
                                         "observable with two levels"):
        estimate_with_shots(model, inputs, 10, rng)
    assert rng.bit_generator.state == state


def test_shots_of_a_constant_observable_read_its_level():
    model = ModelSpec("H1", Observable(0.5 * np.eye(4), 1, 2, "constant"))
    rho = random_density_matrix(4, np.random.default_rng(30))
    est = estimate_with_shots(model, np.array([rho, rho]), 9, np.random.default_rng(0))
    np.testing.assert_array_equal(est, [0.5, 0.5])


@pytest.mark.parametrize("hclass", ["H1", "H2"])
def test_bell_shots_draw_the_bernoulli_stream(hclass):
    # oracle: the count of outcome 1 is one binomial draw at the exact value
    rng = np.random.default_rng(18)
    n, d = 2, 4
    if hclass == "H1":
        model = ModelSpec("H1", bell_projector(n))
        inputs = [dm(random_statevector(d, rng)) for _ in range(20)]
        inputs += [dm(haar_orthogonal(d, rng)[:, 0])]  # value exactly 1/d
    else:
        model = ModelSpec("H2", bell_projector(n), psi_in=bell_state(n))
        inputs = [haar_unitary(d, rng) for _ in range(20)] + [haar_orthogonal(d, rng)]
    for seed, x in enumerate(inputs):
        p = min(max(evaluate(model, x), 0.0), 1.0)
        ones = np.random.default_rng(seed).multinomial(300, [p, 1.0 - p])[0]
        draws = RecordingRng(seed)
        est = estimate_with_shots(model, x[None], 300, draws)
        np.testing.assert_array_equal(draws.counts, [[[ones, 300 - ones]]])
        assert est[0] == ones / 300


def _shot_case(case, n, rng):
    """A model on n qubits per copy and the inputs it reads: density
    matrices for H1, unitaries for H2."""
    d = 2**n
    if case == "pauli":
        model = ModelSpec("H1", pauli_string("Y" + "Z" * (n - 1)))
    elif case == "dressed":
        model = ModelSpec("H1", pauli_string("X" * n), unitary=random_unitary(d, rng))
    elif case == "swap":
        model = ModelSpec("H1", swap_operator(n))
    elif case == "meyer_wallach":
        model = ModelSpec("H1", meyer_wallach_observable(n))
    elif case == "h1_bell":
        model = ModelSpec("H1", bell_projector(n))
    elif case == "h2_bell":
        model = ModelSpec("H2", bell_projector(n), psi_in=bell_state(n))
    else:
        model = ModelSpec("H1", Observable(random_hermitian(d, rng), 1, n, "dense"))
    if model.hclass == "H2":
        return model, np.array([haar_unitary(d, rng) for _ in range(40)])
    # mixed states and pure ones, whose Bell values reach 0 and 1/d
    mixed = [random_density_matrix(d, rng) for _ in range(30)]
    return model, np.array(mixed + [dm(random_statevector(d, rng)) for _ in range(10)])


@pytest.mark.parametrize(
    "case", ["pauli", "dressed", "swap", "meyer_wallach", "h1_bell", "h2_bell"]
)
def test_stacked_shots_equal_the_per_item_loop(case):
    # oracle: one estimate_with_shots call per item at the same seed; 40
    # items at d = 16 span several chunks on every route
    model, inputs = _shot_case(case, 4, np.random.default_rng(23))
    shots = 50
    single, stacked = np.random.default_rng(24), np.random.default_rng(24)
    want = [estimate_with_shots(model, x[None], shots, single)[0] for x in inputs]
    np.testing.assert_array_equal(estimate_with_shots(model, inputs, shots, stacked), want)
    assert stacked.bit_generator.state == single.bit_generator.state


def test_stacked_shots_draw_one_multinomial_per_chunk_in_item_order(monkeypatch):
    model, inputs = _shot_case("swap", 2, np.random.default_rng(25))
    levels = model.observable.shot_distribution(inputs)[0]
    monkeypatch.setattr(models, "block_count", lambda d: 16)
    draws = RecordingRng(26)
    est = estimate_with_shots(model, inputs, 7, draws)
    assert [len(c) for c in draws.counts] == [16, 16, 8]
    counts = np.concatenate(draws.counts)
    assert (counts.sum(axis=1) == 7).all()
    np.testing.assert_array_equal(est, counts @ levels / 7)
    one = estimate_with_shots(model, inputs[:1], 1, np.random.default_rng(0))
    assert one.shape == (1,) and one[0] in levels


@pytest.mark.parametrize("shape", [(4, 4), (1, 2, 2, 2)])
def test_shots_take_a_stack_only(shape):
    model = ModelSpec("H1", swap_operator(1))
    with pytest.raises(ValueError, match=r"\(N, d, d\) stack .* shape \(" + str(shape[0])):
        estimate_with_shots(model, np.zeros(shape), 10, np.random.default_rng(0))


@pytest.mark.parametrize("case", ["swap", "h1_bell", "h2_bell", "pauli", "dressed", "swap_test"])
def test_shot_estimates_follow_the_level_law(case):
    # 2000 replicate estimates of one item: mean within four standard errors
    # of the exact value, variance (E[l^2] - v^2) / shots within a chi-square
    # band (Wilson-Hilferty quantiles at four standard deviations)
    rng = np.random.default_rng(28)
    if case == "swap_test":
        model, x = swap_test_model(2), random_density_matrix(4, rng)
    else:
        model, inputs = _shot_case(case, 2, rng)
        x = inputs[0]
    levels, probs = models._shot_distribution(model, conjugated_observable(model), x[None])
    v = evaluate(model, x)
    assert abs(probs[0] @ levels - v) < 1e-10
    reps, shots = 2000, 100
    var = (probs[0] @ levels**2 - v**2) / shots
    est = estimate_with_shots(model, np.repeat(x[None], reps, axis=0), shots, rng)
    assert abs(est.mean() - v) < 4 * np.sqrt(var / reps)
    k = reps - 1
    lo, hi = (k * (1 - 2 / (9 * k) + z * np.sqrt(2 / (9 * k))) ** 3 for z in (-4, 4))
    assert lo < k * est.var(ddof=1) / var < hi


def _undressed_state(model, x):
    """The state sigma with model value Tr[sigma U^dag O U], formed dense:
    rho^(x k) for H1, (W x W)|psi_in> for H2, |0><0| x rho x rho for H3."""
    if model.hclass == "H1":
        return tensor_power(x, model.observable.copies)
    if model.hclass == "H2":
        return dm(kron(x, x) @ model.psi_in)
    return kron_all([dm(basis_state(2, 0)), x, x])


@pytest.mark.parametrize(
    "case", ["pauli", "dressed", "layered_swap", "swap_test", "h1_bell", "h2_bell"]
)
def test_two_level_law_equals_the_born_weights(case):
    # oracle: the Born weights <v|sigma|v> over the eigenvectors v of the
    # dressed matrix U^dag O U on the undressed state sigma, summed per level
    rng = np.random.default_rng(31)
    if case in ("layered_swap", "swap_test"):
        model = (ModelSpec("H1", swap_operator(2), unitary=random_unitary(16, rng))
                 if case == "layered_swap" else swap_test_model(2))
        inputs = np.array([random_density_matrix(4, rng) for _ in range(10)]
                          + [dm(random_statevector(4, rng)) for _ in range(5)])
    else:
        model, inputs = _shot_case(case, 2, rng)
    levels, probs = models._shot_distribution(model, conjugated_observable(model), inputs)
    u = np.eye(model.observable.dim) if model.unitary is None else model.unitary
    w, vecs = np.linalg.eigh(u.conj().T @ model.observable.matrix @ u)
    level_of = np.abs(w[:, None] - levels[None, :]).argmin(axis=1)
    np.testing.assert_allclose(levels[level_of], w, atol=1e-10)
    assert len(levels) == 2 and levels[0] > levels[1]
    for x, p in zip(inputs, probs):
        born = np.real(np.sum(vecs.conj() * (_undressed_state(model, x) @ vecs), axis=0))
        np.testing.assert_allclose(np.bincount(level_of, born, minlength=2), p, rtol=0,
                                   atol=1e-12)


@pytest.mark.parametrize("stacked", [False, True])
def test_h2_shots_check_each_input(stacked):
    # shots read each item's value through evaluate, which checks it
    model = ModelSpec("H2", bell_projector(1), psi_in=bell_state(1))
    rng = np.random.default_rng(27)
    for bad, message in ((np.diag([1.0, 2.0]), "H2 input must be unitary"),
                         (np.eye(4), "H2 expects a 2-dim unitary")):
        with pytest.raises(ValueError, match=message):
            evaluate(model, bad)
        x = np.array([np.eye(bad.shape[0]), bad]) if stacked else bad[None]
        with pytest.raises(ValueError, match=message):
            estimate_with_shots(model, x, 10, rng)


def test_shots_requires_positive():
    model = ModelSpec("H1", swap_operator(1))
    with pytest.raises(ValueError):
        estimate_with_shots(model, np.eye(2)[None] / 2, 0, np.random.default_rng(0))


# Two equal builds of each kind; n = 2, so that a dense comparison is small.
EQUAL_BUILDS = {
    "swap": lambda: swap_operator(2),
    "pauli": lambda: pauli_string("YI"),
    "swap_test": lambda: swap_test_model(1),
    "dataset": lambda: Dataset(np.eye(2)[None] / 2, np.array([1])),
    "trainable": lambda: TrainableModel(np.dot, np.zeros(2)),
    "optimize_result": lambda: OptimizeResult(np.zeros(2), [0.0]),
}


@pytest.mark.parametrize("case", sorted(EQUAL_BUILDS))
def test_equality_is_identity(case):
    # == compares identities: no element-wise truth test of an array field,
    # and a structured observable builds no dense matrix to compare
    x, y = EQUAL_BUILDS[case](), EQUAL_BUILDS[case]()
    assert x == x and not x != x
    assert (x == y) is False and x != y
    if case in ("swap", "pauli"):
        assert "matrix" not in vars(x) and "matrix" not in vars(y)
