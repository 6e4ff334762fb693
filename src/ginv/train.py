"""Parameter optimization for class separation.

Plain finite-difference gradient descent with backtracking; no adaptive
optimizers and no random draws, so runs are reproducible bit-for-bit. The main
client is the graph classifier, whose observable A(theta)^(x n) stays
permutation-invariant for every theta by construction.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .observables import PAULI
from .tensor import expectation_copies, kron_all


FD_STEP = 1e-4  # central-difference step of the gradient


@dataclass
class TrainConfig:
    learning_rate: float = 0.2
    iterations: int = 100

    def __post_init__(self):
        if self.learning_rate <= 0 or self.iterations < 1:
            raise ValueError("learning_rate must be > 0; iterations >= 1")


@dataclass
class TrainableModel:
    """A parameterised scalar model value_fn(theta, state) with a start point."""

    value_fn: object
    theta0: np.ndarray


@dataclass
class OptimizeResult:
    theta: np.ndarray
    loss_trace: list
    thetas: list = field(repr=False, default_factory=list)


def mse_labels(values, labels):
    values = np.asarray(values, dtype=float)
    labels = np.asarray(labels, dtype=float)
    return float(np.mean((values - labels) ** 2))


def dataset_loss(trainable, theta, dataset):
    values = [trainable.value_fn(theta, rho) for rho in dataset.inputs]
    return mse_labels(values, dataset.labels)


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
    current point. Non-finite losses abort with a diagnostic.
    """

    def loss_at(th):
        value = dataset_loss(trainable, th, dataset)
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
        # on 20 failed halvings the point is kept and the trace stays flat
        trace.append(current)
        thetas.append(theta.copy())
    return OptimizeResult(theta=theta, loss_trace=trace, thetas=thetas)


def rotated_z(theta):
    """A(theta) = R Z R^dag with R = exp(-i (t1 X + t2 Y + t3 Z)), as a.sigma.

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
    return a[0] * PAULI["X"] + a[1] * PAULI["Y"] + a[2] * PAULI["Z"]


def graph_invariant_model(n, theta0=(0.3, 0.2, 0.1)):
    """Permutation-invariant single-copy model A(theta)^(x n).

    A(theta) is ``rotated_z``, so the observable is a tensor power of one
    single-qubit operator for every theta and commutes with all qubit
    permutations. It is built once per theta: a loss evaluation scores
    every item at the same point.
    """

    @lru_cache(maxsize=1)
    def observable(theta):
        obs = kron_all([rotated_z(theta)] * n)
        obs.flags.writeable = False
        return obs

    def value_fn(theta, rho):
        return expectation_copies(rho, 1, observable(tuple(float(t) for t in theta)))

    return TrainableModel(value_fn=value_fn, theta0=np.asarray(theta0, float))
