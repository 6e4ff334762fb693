import numpy as np
import pytest

from ginv import train
from ginv.datasets import Graph, LabeledState, graph_dataset, graph_state
from ginv.groups import permutation_operator
from ginv.models import IdentityAnsatz, ModelSpec, QGCNNAnsatz, evaluate
from ginv.observables import PAULI, swap_operator
from ginv.tensor import (
    dm,
    expectation_copies,
    expm_hermitian,
    kron_all,
    purity,
    random_density_matrix,
    random_statevector,
)
from ginv.train import (
    TrainConfig,
    TrainableModel,
    dataset_loss,
    finite_diff_gradient,
    graph_invariant_model,
    mse_labels,
    optimize,
)

TRIANGLE = Graph(3, {(0, 1), (1, 2), (0, 2)})
PATH3 = Graph(3, {(0, 1), (1, 2)})


def representatives(t=1.0):
    return [
        LabeledState(graph_state(TRIANGLE, t), 0),
        LabeledState(graph_state(PATH3, t), 1),
    ]


def test_finite_diff_quadratic():
    grad = finite_diff_gradient(lambda th: th[0] ** 2, np.array([1.0]), 1e-4)
    assert abs(grad[0] - 2.0) < 1e-7


def test_finite_diff_constant():
    grad = finite_diff_gradient(lambda th: 3.0, np.array([0.3, -0.2]), 1e-4)
    np.testing.assert_array_equal(grad, np.zeros(2))


def test_finite_diff_richardson_order():
    # convergence-order oracle: central differences have O(step^2) error,
    # so successive step-halving differences shrink by ~4. The observable
    # must not commute with the layer generator (a swap-symmetric one
    # makes the value constant in theta), hence Z x 1.
    rng = np.random.default_rng(0)
    ansatz = QGCNNAnsatz(Graph(2, {(0, 1)}), p_layers=1, q_generators=1)
    rho = dm(random_statevector(4, rng))
    fixed = rng.standard_normal(3)
    from ginv.observables import PAULI
    from ginv.tensor import kron

    obs = kron(PAULI["Z"], PAULI["I"])

    def f(th):
        theta = fixed.copy()
        theta[0] = th[0]
        u = ansatz.realize(theta)
        return float(np.real(np.trace(u @ rho @ u.conj().T @ obs)))

    x = np.array([0.7])
    g = {h: finite_diff_gradient(f, x, h)[0] for h in (0.4, 0.2, 0.1)}
    ratio = (g[0.4] - g[0.2]) / (g[0.2] - g[0.1])
    assert 3.0 < ratio < 5.0


def test_mse_constant_model():
    # balanced 0/1 labels with h == 0.5 everywhere
    assert abs(mse_labels([0.5] * 4, [0, 1, 0, 1]) - 0.25) < 1e-15


def test_mse_swap_purity_model_is_zero():
    rng = np.random.default_rng(1)
    model = ModelSpec("H1", 2, IdentityAnsatz(4), swap_operator(1))
    states = [dm(random_statevector(2, rng)) for _ in range(5)]
    values = [evaluate(model, s) for s in states]
    labels = [purity(s) for s in states]
    assert mse_labels(values, labels) < 1e-18


def test_optimize_graph_classifier_gap():
    # grid-search oracle first: some theta separates the classes by > 0.05
    reps = representatives()
    model = graph_invariant_model(3)
    grid = np.linspace(0, np.pi, 7)
    best = max(
        abs(
            model.value_fn((a, b, c), reps[1].state)
            - model.value_fn((a, b, c), reps[0].state)
        )
        for a in grid
        for b in grid
        for c in grid
    )
    assert best > 0.05
    config = TrainConfig(learning_rate=0.5, iterations=60)
    result = optimize(model, reps, config)
    gap = abs(
        model.value_fn(result.theta, reps[1].state)
        - model.value_fn(result.theta, reps[0].state)
    )
    assert gap > 0.05
    assert all(b <= a + 1e-15 for a, b in zip(result.loss_trace, result.loss_trace[1:]))


def test_optimize_already_optimal_start_flat():
    model = TrainableModel(value_fn=lambda th, x: 0.0, theta0=np.zeros(2))
    data = [LabeledState(np.eye(2) / 2, 0)]
    result = optimize(model, data, TrainConfig(iterations=5))
    assert all(abs(v - result.loss_trace[0]) < 1e-12 for v in result.loss_trace)


def test_optimize_seed_determinism():
    reps = representatives()
    config = TrainConfig(learning_rate=0.5, iterations=10)
    a = optimize(graph_invariant_model(3), reps, config)
    b = optimize(graph_invariant_model(3), reps, config)
    assert a.loss_trace == b.loss_trace
    np.testing.assert_array_equal(a.theta, b.theta)


def test_optimize_aborts_on_non_finite_loss():
    model = TrainableModel(value_fn=lambda th, x: float("nan"), theta0=np.zeros(1))
    data = [LabeledState(np.eye(2) / 2, 0)]
    with pytest.raises(RuntimeError):
        optimize(model, data, TrainConfig(iterations=2))


def test_invariance_preserved_at_every_iterate():
    reps = representatives()
    model = graph_invariant_model(3)
    result = optimize(model, reps, TrainConfig(learning_rate=0.5, iterations=15))
    perms = [(1, 0, 2), (2, 0, 1), (1, 2, 0)]
    for theta in result.thetas[:: max(1, len(result.thetas) // 5)]:
        for perm in perms:
            p = permutation_operator(perm, target="qubits")
            moved = p @ reps[0].state @ p.T
            assert abs(
                model.value_fn(theta, moved) - model.value_fn(theta, reps[0].state)
            ) < 1e-9


def test_two_representatives_generalize():
    # invariance guarantee: a model trained on one state per class
    # classifies every permuted instance of either graph exactly
    reps = representatives()
    model = graph_invariant_model(3)
    result = optimize(model, reps, TrainConfig(learning_rate=0.5, iterations=60))
    h0 = model.value_fn(result.theta, reps[0].state)
    h1 = model.value_fn(result.theta, reps[1].state)
    assert abs(h1 - h0) > 0.05
    test_set = graph_dataset(TRIANGLE, PATH3, 30, 1.0, np.random.default_rng(5))
    midpoint = (h0 + h1) / 2
    for item in test_set:
        value = model.value_fn(result.theta, item.state)
        pred = int(value > midpoint) if h1 >= h0 else int(value <= midpoint)
        assert pred == item.label


def test_dataset_loss_kinds():
    reps = representatives()
    model = graph_invariant_model(3)
    values = [model.value_fn(model.theta0, item.state) for item in reps]
    expected = mse_labels(values, [item.label for item in reps])
    assert dataset_loss(model, model.theta0, reps) == expected


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(iterations=0)


def _graph_value_uncached(theta, rho, n):
    """A(theta)^(x n) built afresh for each value, as before the cache."""
    gen = theta[0] * PAULI["X"] + theta[1] * PAULI["Y"] + theta[2] * PAULI["Z"]
    r = expm_hermitian(gen, 1.0)
    a = r @ PAULI["Z"] @ r.conj().T
    return expectation_copies(rho, 1, kron_all([a] * n))


def test_graph_value_fn_equals_uncached_formula():
    rng = np.random.default_rng(19)
    n = 3
    model = graph_invariant_model(n)
    states = [random_density_matrix(2**n, rng) for _ in range(3)]
    thetas = [[0.3, -1.2, 0.7], (0.3, -1.2, 0.7), np.array([0.3, -1.2, 0.7]),
              (1, 0, 2), np.array([2.0, 0.1, -0.4]), [0.3, -1.2, 0.7]]
    for theta in thetas:
        for rho in states:
            assert model.value_fn(theta, rho) == _graph_value_uncached(theta, rho, n)
    # a theta array changed in place is a new point, not a stale cache hit
    theta = np.array([0.5, 0.25, -0.75])
    for step in range(3):
        for rho in states:
            assert model.value_fn(theta, rho) == _graph_value_uncached(theta, rho, n)
        theta[step] += 0.125


def test_graph_observable_built_once_per_theta_and_read_only(monkeypatch):
    builds, seen = [], []
    monkeypatch.setattr(train, "expm_hermitian", lambda *a: builds.append(a) or expm_hermitian(*a))
    monkeypatch.setattr(train, "expectation_copies",
                        lambda rho, k, o: seen.append(o) or expectation_copies(rho, k, o))
    model = graph_invariant_model(2)
    rng = np.random.default_rng(20)
    states = [random_density_matrix(4, rng) for _ in range(4)]
    for theta in ([0.1, 0.2, 0.3], [0.4, 0.5, 0.6]):
        for rho in states:
            model.value_fn(np.array(theta), rho)
    assert len(builds) == 2
    assert all(o is seen[0] for o in seen[:4]) and seen[4] is not seen[0]
    with pytest.raises(ValueError, match="read-only"):
        seen[0][0, 0] = 0.0
