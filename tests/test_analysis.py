from dataclasses import asdict

import numpy as np
import pytest

from ginv import analysis
from ginv.analysis import (
    MidpointRule,
    ThresholdRule,
    cantelli_bound,
    classify,
    concentration_experiment,
    empirical_moments,
    haar_mean_conventional,
    haar_mean_enhanced_bell,
    haar_var_time_reversal,
    misclassification_probability,
)
from ginv.datasets import (
    purity_dataset,
    time_reversal_dynamics_dataset,
    time_reversal_state_dataset,
)
from ginv.groups import OrthogonalSampler, UnitarySampler, block_count, haar_unitary
from ginv.models import (
    FixedUnitaryAnsatz,
    IdentityAnsatz,
    ModelSpec,
    evaluate,
)
from ginv.observables import Observable, bell_projector, pauli_string, swap_operator
from ginv.tensor import bell_state, dm, random_density_matrix, zero_state


def odd_y_model(n):
    obs, _ = pauli_string("Y" + "I" * (n - 1))
    return ModelSpec("H1", 1, IdentityAnsatz(2**n), obs)


def dynamics_model(n):
    return ModelSpec(
        "H2", 2, IdentityAnsatz(4**n), bell_projector(n), psi_in=bell_state(n)
    )


def test_haar_mean_conventional_values():
    assert haar_mean_conventional(pauli_string("Z")[0], 2) == 0.0
    eye = Observable(np.eye(4), 1, 2, "identity")
    assert haar_mean_conventional(eye, 4) == 1.0


def test_haar_mean_conventional_monte_carlo():
    model = odd_y_model(1)
    report = empirical_moments(
        model, UnitarySampler(2, 0), dm(zero_state(1)), 20000
    )
    assert report.analytic_mean == 0.0
    assert abs(report.empirical_mean - report.analytic_mean) < 4 * report.stderr


def test_haar_var_time_reversal_bloch_oracle():
    # Bloch-sphere oracle: <Y> of a Haar qubit state is uniform on [-1, 1],
    # so its second moment is exactly 1/3
    y = pauli_string("Y")[0]
    got = haar_var_time_reversal(y, dm(zero_state(1)), 2)
    assert abs(got - 1 / 3) < 1e-14


def test_haar_var_time_reversal_pure_involution():
    # Tr[O^2] = d and a pure input collapse the formula to 1/(d+1)
    for n in (2, 3):
        d = 2**n
        obs = pauli_string("Y" + "I" * (n - 1))[0]
        got = haar_var_time_reversal(obs, dm(zero_state(n)), d)
        assert abs(got - 1 / (d + 1)) < 1e-14


def test_haar_var_time_reversal_monte_carlo():
    for n, seed in ((1, 1), (2, 2), (3, 3)):
        model = odd_y_model(n)
        report = empirical_moments(
            model, UnitarySampler(2**n, seed), dm(zero_state(n)), 20000
        )
        assert report.analytic_var is not None
        assert abs(report.empirical_var - report.analytic_var) < 4 * report.stderr


def test_haar_var_maximally_mixed_input():
    # the formula gives exactly zero at Tr[rho_in^2] = 1/d, and the MC
    # values are constant because I/d is invariant under conjugation
    n, d = 1, 2
    obs = pauli_string("Y")[0]
    assert abs(haar_var_time_reversal(obs, np.eye(d) / d, d)) < 1e-14
    model = odd_y_model(n)
    report = empirical_moments(model, UnitarySampler(d, 3), np.eye(d) / d, 2000)
    assert report.empirical_var < 1e-18


def test_haar_var_requires_traceless():
    eye = Observable(np.eye(2), 1, 1, "identity")
    with pytest.raises(ValueError):
        haar_var_time_reversal(eye, dm(zero_state(1)), 2)


def test_haar_mean_enhanced_bell_values():
    assert abs(haar_mean_enhanced_bell(2) - 1 / 3) < 1e-15
    assert abs(haar_mean_enhanced_bell(4) - 0.1) < 1e-15


def test_haar_mean_enhanced_bell_monte_carlo():
    model = dynamics_model(1)
    report = empirical_moments(model, UnitarySampler(2, 4), None, 20000)
    assert report.analytic_mean == haar_mean_enhanced_bell(2)
    assert abs(report.empirical_mean - report.analytic_mean) < 4 * report.stderr


def test_haar_mean_enhanced_bell_state_task_registered():
    # two copies of a pure template live in the symmetric subspace, so the
    # closed form applies to the state task as well
    model = ModelSpec("H1", 2, IdentityAnsatz(4), bell_projector(1))
    report = empirical_moments(
        model, UnitarySampler(2, 15), dm(zero_state(1)), 20000
    )
    assert report.analytic_mean == haar_mean_enhanced_bell(2)
    assert abs(report.empirical_mean - report.analytic_mean) < 4 * report.stderr


def test_haar_mean_not_registered_for_antisymmetric_input():
    # the Bell-projector twirl is (1 + SWAP)/(d(d+1)): a swap-antisymmetric
    # input state averages to zero instead, so no closed form is attached
    singlet = np.zeros(4, dtype=complex)
    singlet[1], singlet[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    model = ModelSpec("H2", 2, IdentityAnsatz(4), bell_projector(1), psi_in=singlet)
    report = empirical_moments(model, UnitarySampler(2, 16), None, 2000)
    assert report.analytic_mean is None
    assert abs(report.empirical_mean) < 1e-12


def test_empirical_moments_deterministic():
    model = odd_y_model(1)
    a = empirical_moments(model, UnitarySampler(2, 5), dm(zero_state(1)), 500)
    b = empirical_moments(model, UnitarySampler(2, 5), dm(zero_state(1)), 500)
    assert a == b


def _chunked_case(case):
    """(model, dimension, template) of a chunked-moments case."""
    rng = np.random.default_rng(41)
    if case == "h1_k1":
        return odd_y_model(2), 4, dm(zero_state(2))
    if case == "h1_k2_mixed":
        # a dressed random two-copy observable, not swap-symmetric
        m = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        obs = Observable(m + m.conj().T, copies=2, qubits_per_copy=3, tag="random")
        ansatz = FixedUnitaryAnsatz(haar_unitary(64, rng))
        return ModelSpec("H1", 2, ansatz, obs), 8, random_density_matrix(8, rng)
    return dynamics_model(1), 2, None


@pytest.mark.parametrize("case", ["h1_k1", "h1_k2_mixed", "h2"])
@pytest.mark.parametrize("size", ["two", "chunk_plus_one", "non_multiple"])
def test_empirical_moments_match_per_draw_reference(case, size):
    model, d, template = _chunked_case(case)
    chunk = block_count(d)
    samples = {"two": 2, "chunk_plus_one": chunk + 1, "non_multiple": 2 * chunk + chunk // 2 + 1}[size]
    sampler = UnitarySampler(d, 43)
    values = []
    for _ in range(samples):
        v = sampler.sample()
        values.append(evaluate(model, v if template is None else v @ template @ v.conj().T))
    values = np.array(values)
    report = empirical_moments(model, UnitarySampler(d, 43), template, samples)
    assert report.samples == samples
    assert report.empirical_mean == pytest.approx(values.mean(), rel=1e-12, abs=0)
    assert report.empirical_var == pytest.approx(values.var(ddof=1), rel=1e-12, abs=0)


def test_empirical_moments_orthogonal_inputs_constant():
    # label-1 generator: orthogonal scrambling keeps the value pinned
    model = odd_y_model(2)
    report = empirical_moments(
        model, OrthogonalSampler(4, 7), dm(zero_state(2)), 2000
    )
    assert report.empirical_var < 1e-18


def test_misclassification_probability():
    assert misclassification_probability(0.0) == 0.0
    assert misclassification_probability(1.0) == 0.5
    assert abs(misclassification_probability(0.5) - 1 / 3) < 1e-15
    grid = np.linspace(0, 1, 21)
    vals = [misclassification_probability(p) for p in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        misclassification_probability(1.2)


def test_cantelli_bound_values():
    assert cantelli_bound(0.0, 1.0) == 0.0
    assert cantelli_bound(0.25, 0.5) == 0.5
    with pytest.raises(ValueError):
        cantelli_bound(-1.0, 0.5)
    with pytest.raises(ValueError):
        cantelli_bound(1.0, 0.0)


def test_cantelli_dominates_empirical_tail():
    # 1e4 Haar draws of the d=2 odd-Y model; one-sided tail vs the bound
    rng = np.random.default_rng(8)
    n_samples = 10000
    vals = np.empty(n_samples)
    y = pauli_string("Y")[0].matrix
    for i in range(n_samples):
        v = haar_unitary(2, rng)[:, 0]
        vals[i] = np.real(v.conj() @ y @ v)
    variance = vals.var()
    mean = vals.mean()
    for delta in (0.2, 0.4, 0.7):
        tail = (vals - mean >= delta).mean()
        assert tail <= cantelli_bound(variance, delta)


def test_classify_purity_midpoint():
    rng = np.random.default_rng(9)
    data = purity_dataset(1, 100, 0.5, rng)
    model = ModelSpec("H1", 2, IdentityAnsatz(4), swap_operator(1))
    report = classify(data, model, MidpointRule())
    assert report.accuracy == 1.0
    assert report.confusion["tp"] + report.confusion["tn"] == 100
    assert abs(report.class_means["1"] - 1.0) < 1e-10
    assert abs(report.class_means["0"] - 0.5) < 1e-10


def test_classify_dynamics_threshold():
    rng = np.random.default_rng(10)
    data = time_reversal_dynamics_dataset(3, 200, rng)
    report = classify(data, dynamics_model(3), ThresholdRule(1.0, 0.1))
    assert report.accuracy == 1.0
    assert report.p_c_given_0 == 0.0


def test_classify_constant_model_no_information():
    rng = np.random.default_rng(11)
    data = purity_dataset(1, 100, 0.5, rng)
    eye = Observable(np.eye(2) / 2, 1, 1, "constant")
    model = ModelSpec("H1", 1, IdentityAnsatz(2), eye)
    # every value is 0.5 up to float dust, so a window rule labels all
    # items identically: accuracy exactly 1/2 on balanced data
    report = classify(data, model, ThresholdRule(0.5, 1e-6))
    assert report.accuracy == 0.5
    # the midpoint rule splits the dust arbitrarily; still ~chance level
    report = classify(data, model, MidpointRule())
    assert 0.35 <= report.accuracy <= 0.65


def test_classify_invariant_under_group_conjugation():
    rng = np.random.default_rng(12)
    data = purity_dataset(1, 60, 0.6, rng)
    model = ModelSpec("H1", 2, IdentityAnsatz(4), swap_operator(1))
    base = classify(data, model, MidpointRule())
    conjugated = []
    for item in data:
        v = haar_unitary(2, rng)
        conjugated.append(
            type(item)(v @ item.state @ v.conj().T, item.label, item.provenance)
        )
    moved = classify(conjugated, model, MidpointRule())
    assert moved.accuracy == base.accuracy
    assert moved.confusion == base.confusion


def test_classify_with_shots_threshold():
    rng = np.random.default_rng(13)
    data = time_reversal_dynamics_dataset(2, 40, rng)
    report = classify(
        data, dynamics_model(2), ThresholdRule(1.0, 0.1), shots=50, rng=rng
    )
    assert report.accuracy >= 0.95


def test_classify_shots_need_rng():
    data = time_reversal_dynamics_dataset(1, 4, np.random.default_rng(13))
    with pytest.raises(ValueError, match="rng"):
        classify(data, dynamics_model(1), ThresholdRule(1.0, 0.1), shots=10)


def test_classify_absent_class():
    # a one-item dataset holds label 1 only
    data = purity_dataset(1, 1, 0.5, np.random.default_rng(14))
    assert [item.label for item in data] == [1]
    model = ModelSpec("H1", 2, IdentityAnsatz(4), swap_operator(1))
    report = classify(data, model, ThresholdRule(1.0, 1e-8))
    assert report.class_means["0"] is None
    assert abs(report.class_means["1"] - 1.0) < 1e-10
    assert report.accuracy == 1.0
    assert report.p_c_given_0 is None
    with pytest.raises(ValueError, match="label 0 is absent"):
        classify(data, model, MidpointRule())


def test_concentration_conventional_slope():
    result = concentration_experiment("conventional_odd_y", range(1, 6), 4000, seed=0)
    # the exact trend is 1/(d+1); its fitted log2 slope over n=1..5 is -0.87
    assert -1.0 < result.slope < -0.75
    for row in result.rows:
        assert row.analytic_var is not None
        assert abs(row.empirical_var - row.analytic_var) < 0.1 * row.analytic_var


def test_concentration_enhanced_slope_matches_mc_oracle():
    # MC-derived band: the Bell-projector state model variance falls with
    # fitted log2 slope close to -3 over n = 1..4 (steeper than the
    # O(1/d^2) upper bound)
    result = concentration_experiment("enhanced_bell", range(1, 5), 4000, seed=0)
    assert -3.6 < result.slope < -2.5
    # oracle: E|psi^T psi|^2 = 2/(d+1), E|psi^T psi|^4 = 8/((d+1)(d+3))
    for row in result.rows:
        d = 2**row.n
        second = 8 / (d**2 * (d + 1) * (d + 3))
        first = 2 / (d * (d + 1))
        assert row.analytic_var == pytest.approx(second - first**2, rel=1e-12)


def test_concentration_label1_variance_vanishes():
    result = concentration_experiment(
        "conventional_odd_y", range(1, 4), 500, seed=1, label_class=1
    )
    for row in result.rows:
        assert row.empirical_var < 1e-18
        assert row.analytic_var == 0.0


def test_concentration_unknown_family():
    with pytest.raises(ValueError):
        concentration_experiment("nope", range(1, 3), 100)


def test_report_serialization():
    result = concentration_experiment("conventional_odd_y", range(1, 3), 200, seed=2)
    csv_text = analysis.concentration_to_csv(asdict(result))
    lines = csv_text.strip().splitlines()
    assert lines[0] == "n,empirical_var,analytic_var"
    assert len(lines) == 3
