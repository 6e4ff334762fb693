import numpy as np
import pytest

from ginv import observables, train
from ginv.datasets import Dataset, Graph, graph_dataset, graph_state
from ginv.groups import permutation_operator
from ginv.models import ModelSpec, evaluate
from ginv.observables import PAULI, swap_operator
from ginv.tensor import (
    dm,
    expectation_copies,
    expm_hermitian,
    kron_all,
    purity,
    random_statevector,
)
from helpers import qgcnn_unitary
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
    return Dataset(np.array([graph_state(TRIANGLE, t), graph_state(PATH3, t)]), np.array([0, 1]))


MIXED = Dataset(np.eye(2)[None] / 2, np.array([0]))


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
    rho = dm(random_statevector(4, rng))
    fixed = rng.standard_normal(3)
    from ginv.observables import PAULI
    from ginv.tensor import kron

    obs = kron(PAULI["Z"], PAULI["I"])

    def f(th):
        theta = fixed.copy()
        theta[0] = th[0]
        u = qgcnn_unitary(Graph(2, {(0, 1)}), theta, 1, 1)
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
    model = ModelSpec("H1", swap_operator(1))
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
            model.value_fn((a, b, c), reps.inputs[1])
            - model.value_fn((a, b, c), reps.inputs[0])
        )
        for a in grid
        for b in grid
        for c in grid
    )
    assert best > 0.05
    config = TrainConfig(learning_rate=0.5, iterations=60)
    result = optimize(model, reps, config)
    gap = abs(
        model.value_fn(result.theta, reps.inputs[1])
        - model.value_fn(result.theta, reps.inputs[0])
    )
    assert gap > 0.05
    assert all(b <= a + 1e-15 for a, b in zip(result.loss_trace, result.loss_trace[1:]))


def test_optimize_already_optimal_start_flat():
    model = TrainableModel(read=lambda th, x: 0.0, theta0=np.zeros(2))
    result = optimize(model, MIXED, TrainConfig(iterations=5))
    assert all(abs(v - result.loss_trace[0]) < 1e-12 for v in result.loss_trace)


def test_optimize_seed_determinism():
    reps = representatives()
    config = TrainConfig(learning_rate=0.5, iterations=10)
    a = optimize(graph_invariant_model(3), reps, config)
    b = optimize(graph_invariant_model(3), reps, config)
    assert a.loss_trace == b.loss_trace
    np.testing.assert_array_equal(a.theta, b.theta)


def test_optimize_aborts_on_non_finite_loss():
    model = TrainableModel(read=lambda th, x: float("nan"), theta0=np.zeros(1))
    with pytest.raises(RuntimeError):
        optimize(model, MIXED, TrainConfig(iterations=2))


def test_invariance_preserved_at_every_iterate():
    reps = representatives()
    model = graph_invariant_model(3)
    result = optimize(model, reps, TrainConfig(learning_rate=0.5, iterations=15))
    perms = [(1, 0, 2), (2, 0, 1), (1, 2, 0)]
    for theta in result.thetas[:: max(1, len(result.thetas) // 5)]:
        for perm in perms:
            moved = permutation_operator(perm, target="qubits") @ reps.inputs[0]
            assert abs(
                model.value_fn(theta, moved) - model.value_fn(theta, reps.inputs[0])
            ) < 1e-9


def test_two_representatives_generalize():
    # invariance guarantee: a model trained on one state per class
    # classifies every permuted instance of either graph exactly
    reps = representatives()
    model = graph_invariant_model(3)
    result = optimize(model, reps, TrainConfig(learning_rate=0.5, iterations=60))
    h0 = model.value_fn(result.theta, reps.inputs[0])
    h1 = model.value_fn(result.theta, reps.inputs[1])
    assert abs(h1 - h0) > 0.05
    test_set = graph_dataset(TRIANGLE, PATH3, 30, 1.0, np.random.default_rng(5))
    midpoint = (h0 + h1) / 2
    for psi, label in zip(test_set.inputs, test_set.labels):
        value = model.value_fn(result.theta, psi)
        pred = int(value > midpoint) if h1 >= h0 else int(value <= midpoint)
        assert pred == label


def test_dataset_loss_kinds():
    reps = representatives()
    model = graph_invariant_model(3)
    values = [model.value_fn(model.theta0, psi) for psi in reps.inputs]
    expected = mse_labels(values, reps.labels)
    loss = dataset_loss(model, model.theta0, model.features(reps.inputs), reps.labels)
    assert loss == expected


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(iterations=0)


def _sigma(a):
    return a[0] * PAULI["X"] + a[1] * PAULI["Y"] + a[2] * PAULI["Z"]


def _dense_graph_values(theta, states, n):
    """Tr[|s><s| A^(x n)] per state vector s, A = a.sigma, with the tensor
    power built densely."""
    return expectation_copies(np.array([dm(s) for s in states]), 1,
                              kron_all([_sigma(train.rotated_z(theta))] * n))


def _rotated_z_by_expm(theta):
    """R Z R^dag with R = exp(-i theta.sigma) formed by eigendecomposition."""
    gen = theta[0] * PAULI["X"] + theta[1] * PAULI["Y"] + theta[2] * PAULI["Z"]
    r = expm_hermitian(gen, 1.0)
    return r @ PAULI["Z"] @ r.conj().T


def test_rotated_z_equals_the_expm_route():
    rng = np.random.default_rng(21)
    # theta = 0, random points, |theta| > pi (turns past a full circle), a
    # theta along z (a stays z) and one near zero
    thetas = [np.zeros(3), *rng.standard_normal((20, 3)), np.array([3.0, -1.5, 1.0]),
              np.array([0.0, 0.0, 4.0]), np.array([1e-9, 0.0, 0.0])]
    assert np.linalg.norm(thetas[-3]) > np.pi
    for theta in thetas:
        a = train.rotated_z(theta)
        np.testing.assert_allclose(_sigma(a), _rotated_z_by_expm(theta), rtol=0, atol=1e-14)
    assert np.array_equal(train.rotated_z((0, 0, 0)), [0.0, 0.0, 1.0])


def test_graph_value_fn_equals_dense_oracle():
    for n in range(1, 6):
        rng = np.random.default_rng(19 + n)
        model = graph_invariant_model(n)
        stack = np.array([random_statevector(2**n, rng) for _ in range(5)])
        # theta = 0 (a = z), random points, |theta| > pi, integer and list thetas
        thetas = [np.zeros(3), *rng.standard_normal((3, 3)), np.array([3.0, -1.5, 1.0]),
                  (1, 0, 2), [0.3, -1.2, 0.7]]
        for theta in thetas:
            want = _dense_graph_values(theta, stack, n)
            np.testing.assert_allclose(model.value_fn(theta, stack), want, rtol=0, atol=1e-12)
            for psi, value in zip(stack, want):
                assert abs(model.value_fn(theta, psi) - value) < 1e-12
        # a theta array changed in place is read afresh at each call
        theta = np.array([0.5, 0.25, -0.75])
        moments = model.features(stack)
        for step in range(3):
            want = _dense_graph_values(theta, stack, n)
            np.testing.assert_allclose(model.read(theta, moments), want, rtol=0, atol=1e-12)
            theta[step] += 0.125


def test_optimize_computes_the_moments_once(monkeypatch):
    transforms, evals = [], []
    transform, loss = observables._pauli_weights, train.dataset_loss
    monkeypatch.setattr(observables, "_pauli_weights",
                        lambda *a: transforms.append(1) or transform(*a))
    monkeypatch.setattr(train, "dataset_loss", lambda *a: evals.append(1) or loss(*a))
    optimize(graph_invariant_model(3), representatives(), TrainConfig(0.5, 10))
    # one transform for the stack; until a step keeps the point, each
    # iteration makes 6 gradient evaluations and at least one step (this run
    # does not stall in 10 iterations)
    assert len(transforms) == 1
    assert len(evals) >= 1 + 10 * 7


def test_optimize_graph_equals_dense_trainable():
    # the dense route as a trainable: A(theta)^(x n) built at every point
    # and the stack valued by expectation_copies
    cycle4 = Graph(4, {(0, 1), (1, 2), (2, 3), (0, 3)})
    star4 = Graph(4, {(0, 1), (0, 2), (0, 3)})
    reps = Dataset(np.array([graph_state(cycle4, 1.0), graph_state(star4, 1.0)]),
                   np.array([0, 1]))
    model = graph_invariant_model(4)
    dense = TrainableModel(read=lambda th, stack: _dense_graph_values(th, stack, 4),
                           theta0=model.theta0)
    config = TrainConfig(learning_rate=0.5, iterations=60)
    got, want = optimize(model, reps, config), optimize(dense, reps, config)
    np.testing.assert_allclose(got.loss_trace, want.loss_trace, rtol=0, atol=1e-10)
    np.testing.assert_allclose(got.theta, want.theta, rtol=0, atol=1e-10)
    np.testing.assert_allclose(model.value_fn(got.theta, reps.inputs),
                               dense.value_fn(want.theta, reps.inputs), rtol=0, atol=1e-10)


def _optimize_without_stop(trainable, dataset, config, seen):
    """The descent as it ran before a stalled step ended it: every iteration
    recomputes its gradient and candidates. ``seen`` gets the theta of each
    loss evaluation; returns the result and the evaluations made by the end
    of the first iteration that keeps the point (all, if none does)."""
    features = trainable.features(dataset.inputs)

    def loss_at(th):
        seen.append(np.array(th))
        return dataset_loss(trainable, th, features, dataset.labels)

    theta = np.asarray(trainable.theta0, dtype=float).copy()
    current = loss_at(theta)
    trace, thetas, stall = [current], [theta.copy()], None
    for _ in range(config.iterations):
        grad = finite_diff_gradient(loss_at, theta, train.FD_STEP)
        lr = config.learning_rate
        for _ in range(20):
            cand = theta - lr * grad
            cand_loss = loss_at(cand)
            if cand_loss <= current:
                theta, current = cand, cand_loss
                break
            lr /= 2
        else:  # 20 failed halvings keep the point
            stall = len(seen) if stall is None else stall
        trace.append(current)
        thetas.append(theta.copy())
    return train.OptimizeResult(theta, trace, thetas), len(seen) if stall is None else stall


CYCLE4 = Graph(4, {(0, 1), (1, 2), (2, 3), (0, 3)})
STAR4 = Graph(4, {(0, 1), (0, 2), (0, 3)})


@pytest.mark.parametrize("stalls", [True, False])
def test_optimize_stops_at_a_stall_with_the_same_result(monkeypatch, stalls):
    # cycle4/star4 as the graph runner trains it stalls well before 60
    # iterations; triangle/path3 keeps improving through 10
    if stalls:
        reps = Dataset(np.array([graph_state(CYCLE4, 1.0), graph_state(STAR4, 1.0)]),
                       np.array([0, 1]))
        model, config = graph_invariant_model(4), TrainConfig(0.5, 60)
    else:
        reps, model, config = representatives(), graph_invariant_model(3), TrainConfig(0.5, 10)
    seen = []
    want, evals = _optimize_without_stop(model, reps, config, seen)
    assert (evals < len(seen)) == stalls
    calls, loss = [], train.dataset_loss
    monkeypatch.setattr(train, "dataset_loss",
                        lambda tr, th, *a: calls.append(np.array(th)) or loss(tr, th, *a))
    got = optimize(model, reps, config)
    assert got.loss_trace == want.loss_trace
    assert np.array_equal(got.theta, want.theta)
    assert len(got.thetas) == len(want.thetas) == config.iterations + 1
    assert all(np.array_equal(a, b) for a, b in zip(got.thetas, want.thetas))
    assert len({id(t) for t in got.thetas}) == len(got.thetas)
    # the same evaluations, in order, and none after the stalled iteration
    assert len(calls) == evals
    assert all(np.array_equal(a, b) for a, b in zip(calls, seen))
