"""Parameter optimization for class separation.

Plain finite-difference gradient descent with backtracking; no adaptive
optimizers and no random draws, so runs are reproducible bit-for-bit. The main
client is the graph classifier, whose observable A(theta)^(x n) stays
permutation-invariant for every theta by construction. A model splits into
features of the states that do not depend on theta and a read-out at theta,
so training computes its dataset's features once; the graph classifier's
features are the moments of its value as a polynomial in the Bloch axis of
A(theta), and each loss evaluation is one product with the monomials.
"""

from dataclasses import dataclass, field

import numpy as np

from .observables import xyz_counts, xyz_moments


FD_STEP = 1e-4  # central-difference step of the gradient


@dataclass
class TrainConfig:
    learning_rate: float
    iterations: int

    def __post_init__(self):
        if self.learning_rate <= 0 or self.iterations < 1:
            raise ValueError("learning_rate must be > 0; iterations >= 1")


@dataclass(eq=False)
class TrainableModel:
    """A parameterised scalar model with a start point.

    ``features`` maps one state, or a stack of N states (state vectors for
    the graph model), to what the model reads of it that does not depend on
    theta (by default the states themselves); ``read(theta, features)``
    values that: one value, or one per state.
    """

    read: object
    theta0: np.ndarray
    features: object = np.asarray

    def value_fn(self, theta, states):
        """The value of one state, or the values of a stack, at theta."""
        return self.read(theta, self.features(states))


@dataclass(eq=False)
class OptimizeResult:
    theta: np.ndarray
    loss_trace: list
    thetas: list = field(repr=False, default_factory=list)


def mse_labels(values, labels):
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels, dtype=float)
    return float(np.mean((values - labels) ** 2))


def dataset_loss(trainable, theta, features, labels):
    """Mean squared error at theta of a whole stack, given its features."""
    return mse_labels(trainable.read(theta, features), labels)


def finite_diff_gradient(f, theta, step):
    """Central-difference gradient of a scalar function of a vector."""
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for i in range(len(theta)):
        up = theta.copy()
        dn = theta.copy()
        up[i] += step
        dn[i] -= step
        grad[i] = (f(up) - f(dn)) / (2 * step)
    return grad


def optimize(trainable, dataset, config):
    """Gradient descent with halving backtracking (max 20 halvings per step).

    The loss trace is nonincreasing; a step that cannot improve keeps the
    current point. Non-finite losses abort with a diagnostic. The dataset's
    features are computed once, before the first loss evaluation. Once a step
    keeps the point, every later one would repeat its (deterministic) gradient
    and candidates and fail alike, so the loop stops and the trace stays flat.
    """
    features = trainable.features(dataset.inputs)

    def loss_at(th):
        value = dataset_loss(trainable, th, features, dataset.labels)
        if not np.isfinite(value):
            raise RuntimeError(f"non-finite loss {value} at theta={th}")
        return value

    theta = np.asarray(trainable.theta0, dtype=float).copy()
    current = loss_at(theta)
    trace = [current]
    thetas = [theta.copy()]
    for _ in range(config.iterations):
        grad = finite_diff_gradient(loss_at, theta, FD_STEP)
        lr = config.learning_rate
        for _ in range(20):
            cand = theta - lr * grad
            cand_loss = loss_at(cand)
            if cand_loss <= current:
                theta, current = cand, cand_loss
                break
            lr /= 2
        else:
            break  # 20 failed halvings: the point is kept from here on
        trace.append(current)
        thetas.append(theta.copy())
    flat = config.iterations + 1 - len(trace)
    trace += [current] * flat
    thetas += [theta.copy() for _ in range(flat)]
    return OptimizeResult(theta=theta, loss_trace=trace, thetas=thetas)


def rotated_z(theta):
    """The Bloch axis a of A(theta) = R Z R^dag = a.sigma, with
    R = exp(-i (t1 X + t2 Y + t3 Z)).

    R turns the Bloch sphere by 2|theta| about theta/|theta|, so a is the
    z axis turned so, by Rodrigues' formula; theta = 0 leaves a = z.
    """
    theta = np.asarray(theta, dtype=float)
    norm = np.linalg.norm(theta)
    a = np.array([0.0, 0.0, 1.0])
    if norm > 0:
        k = theta / norm
        c, s = np.cos(2 * norm), np.sin(2 * norm)
        # a = z cos + (k x z) sin + k (k . z)(1 - cos)
        a = a * c + np.array([k[1], -k[0], 0.0]) * s + k * (k[2] * (1 - c))
    return a


def graph_invariant_model(n):
    """Permutation-invariant single-copy model A(theta)^(x n), A = a.sigma.

    The observable is a tensor power of one single-qubit operator for every
    theta, so it commutes with all qubit permutations. Its value is a degree-n
    polynomial in the axis a = ``rotated_z(theta)``:
    <psi|A^(x n)|psi> = sum_k a_x^kx a_y^ky a_z^kz S_k(psi). The moments S_k
    (``observables.xyz_moments``) of the state vectors are the features, so a
    stack of N states is valued by one (N, T) @ (T,) product,
    T = (n+1)(n+2)/2. Training starts at theta0 = (0.3, 0.2, 0.1).
    """
    counts = xyz_counts(n)

    def read(theta, moments):
        return moments @ np.prod(rotated_z(theta) ** counts, axis=1)

    return TrainableModel(read=read, theta0=np.array([0.3, 0.2, 0.1]), features=xyz_moments)
