from dataclasses import asdict

import numpy as np
import pytest

from ginv import analysis, groups
from ginv.analysis import (
    CONCENTRATION_FAMILIES,
    MidpointRule,
    ThresholdRule,
    cantelli_bound,
    classify,
    concentration_experiment,
    empirical_moments,
    haar_mean_conventional,
    haar_mean_enhanced_bell,
    haar_var_enhanced_bell,
    haar_var_time_reversal,
    misclassification_probability,
)
from ginv.cli import format_report
from ginv.datasets import (
    Dataset,
    purity_dataset,
    time_reversal_dynamics_dataset,
)
from ginv.groups import OrthogonalSampler, UnitarySampler, block_count, haar_unitary
from ginv.models import ModelSpec, estimate_with_shots, evaluate, swap_test_model
from ginv.observables import Observable, bell_projector, pauli_string, swap_operator
from ginv.tensor import (
    bell_state,
    dm,
    purity,
    random_statevector,
    tensor_power,
    zero_state,
)
from helpers import dressed, expectation, random_density_matrix


def odd_y_model(n):
    return ModelSpec("H1", pauli_string("Y" + "I" * (n - 1)))


def dynamics_model(n):
    return ModelSpec("H2", bell_projector(n), psi_in=bell_state(n))


def test_haar_mean_conventional_values():
    assert haar_mean_conventional(pauli_string("Z"), 2) == 0.0
    eye = Observable(np.eye(4), 1, 2, "identity")
    assert haar_mean_conventional(eye, 4) == 1.0


def test_haar_mean_conventional_monte_carlo():
    model = odd_y_model(1)
    report = empirical_moments(model, UnitarySampler(2, 0), zero_state(1), 20000)
    assert report.analytic_mean == 0.0
    assert abs(report.empirical_mean - report.analytic_mean) < 4 * report.stderr


def test_haar_var_time_reversal_bloch_oracle():
    # Bloch-sphere oracle: <Y> of a Haar qubit state is uniform on [-1, 1],
    # so its second moment is exactly 1/3
    y = pauli_string("Y")
    got = haar_var_time_reversal(y, dm(zero_state(1)), 2)
    assert abs(got - 1 / 3) < 1e-14


def test_haar_var_time_reversal_pure_involution():
    # Tr[O^2] = d and a pure input collapse the formula to 1/(d+1)
    for n in (2, 3):
        d = 2**n
        obs = pauli_string("Y" + "I" * (n - 1))
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
    obs = pauli_string("Y")
    assert abs(haar_var_time_reversal(obs, np.eye(d) / d, d)) < 1e-14
    model = odd_y_model(n)
    report = empirical_moments(model, UnitarySampler(d, 3), np.eye(d) / d, 2000)
    assert report.empirical_var < 1e-18


def test_haar_var_of_an_observable_with_a_trace_matches_monte_carlo():
    # O = H + 0.7 1 on a mixed input, with Tr[H^2] near d: the identity part
    # shifts every value, so the variance is that of O's traceless part, some
    # 40 standard errors from Tr[O^2] in the formula. The same seeded sampler
    # redraws the run's elements, to take the standard error of the variance.
    samples = 20000
    for n in (1, 2, 3):
        d = 2**n
        rng = np.random.default_rng(40 + n)
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        obs = Observable((h + h.conj().T) / (2 * np.sqrt(d)) + 0.7 * np.eye(d), 1, n, "shifted")
        rho = random_density_matrix(d, rng)
        report = empirical_moments(ModelSpec("H1", obs), UnitarySampler(d, n), rho, samples)
        v = UnitarySampler(d, n).draw(samples)
        values = obs.expectation(v @ rho @ v.conj().swapaxes(-1, -2))
        assert abs(values.var(ddof=1) - report.empirical_var) < 1e-12 * report.empirical_var
        centred = values - values.mean()
        se_var = np.sqrt(((centred**4).mean() - centred.var() ** 2) / samples)
        assert report.analytic_var is not None
        assert abs(report.empirical_var - report.analytic_var) < 4 * se_var


def test_haar_mean_enhanced_bell_values():
    assert abs(haar_mean_enhanced_bell(2) - 1 / 3) < 1e-15
    assert abs(haar_mean_enhanced_bell(4) - 0.1) < 1e-15


def test_haar_mean_enhanced_bell_monte_carlo():
    model = dynamics_model(1)
    report = empirical_moments(model, UnitarySampler(2, 4), None, 20000)
    assert report.analytic_mean == haar_mean_enhanced_bell(2)
    assert abs(report.empirical_mean - report.analytic_mean) < 4 * report.stderr


def test_haar_mean_enhanced_bell_state_task_registered():
    # two copies of a pure input live in the symmetric subspace, so the
    # closed form applies to the state task as well
    model = ModelSpec("H1", bell_projector(1))
    report = empirical_moments(model, UnitarySampler(2, 15), zero_state(1), 20000)
    assert report.analytic_mean == haar_mean_enhanced_bell(2)
    assert abs(report.empirical_mean - report.analytic_mean) < 4 * report.stderr


def test_haar_mean_not_registered_for_antisymmetric_input():
    # the Bell-projector twirl is (1 + SWAP)/(d(d+1)): a swap-antisymmetric
    # input state averages to zero instead, so no closed form is attached
    singlet = np.zeros(4, dtype=complex)
    singlet[1], singlet[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    model = ModelSpec("H2", bell_projector(1), psi_in=singlet)
    report = empirical_moments(model, UnitarySampler(2, 16), None, 2000)
    assert report.analytic_mean is None
    assert abs(report.empirical_mean) < 1e-12


def test_two_copy_model_never_gets_the_single_copy_form():
    # a model's copy count is its observable's: a two-copy SWAP model is
    # Tr[rho^2] on every Haar draw, never the k = 1 closed form Tr[O]/d = 1
    rng = np.random.default_rng(0)
    rho = random_density_matrix(2, rng)
    model = ModelSpec("H1", swap_operator(1))
    report = empirical_moments(model, UnitarySampler(2, 0), rho, 2000)
    assert report.analytic_mean is None and report.analytic_var is None
    assert abs(report.empirical_mean - purity(rho)) < 1e-12
    # the same operator held dense draws its shots from rho x rho
    dense = ModelSpec("H1", Observable(swap_operator(1).matrix, 2, 1, "dense swap"))
    assert abs(evaluate(dense, rho) - purity(rho)) < 1e-12
    est = estimate_with_shots(dense, rho[None], 4000, rng)
    # the levels are +-1: a mean of 4000 shots has a standard deviation <= 1 / sqrt(4000)
    assert abs(est[0] - purity(rho)) < 4 / np.sqrt(4000)


def test_empirical_moments_deterministic():
    model = odd_y_model(1)
    a = empirical_moments(model, UnitarySampler(2, 5), zero_state(1), 500)
    b = empirical_moments(model, UnitarySampler(2, 5), zero_state(1), 500)
    assert a == b


# Pure-input cases, passed as the vector |0>: the state chunk differs from the matrix chunk at
# d = 8 (256 and 64), 32 (128 and 4) and 64 (64 and 1).
PURE_CASES = {"h1_k1": (odd_y_model, 2), "h1_k1_d8": (odd_y_model, 3),
              "bell_d32": (lambda n: ModelSpec("H1", bell_projector(n)), 5),
              "h1_k1_d64": (odd_y_model, 6)}


def _chunked_case(case):
    """(model, dimension, input state) of a chunked-moments case."""
    rng = np.random.default_rng(41)
    if case in PURE_CASES:
        build, n = PURE_CASES[case]
        return build(n), 2**n, zero_state(n)
    if case == "h1_k2_mixed":
        # a dressed random two-copy observable, not swap-symmetric
        m = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        obs = Observable(m + m.conj().T, copies=2, qubits_per_copy=3, tag="random")
        model = ModelSpec("H1", dressed(obs, haar_unitary(64, rng)))
        return model, 8, random_density_matrix(8, rng)
    return dynamics_model(1), 2, None


@pytest.mark.parametrize("case", [*PURE_CASES, "h1_k2_mixed", "h2"])
@pytest.mark.parametrize("size", ["two", "chunk_plus_one", "non_multiple"])
def test_empirical_moments_match_per_draw_reference(case, size):
    model, d, template = _chunked_case(case)
    # a pure input is chunked as a block of states, any other as matrices
    chunk = block_count(d, rank=1 if case in PURE_CASES else 2)
    samples = {"two": 2, "chunk_plus_one": chunk + 1, "non_multiple": 2 * chunk + chunk // 2 + 1}[size]
    sampler = UnitarySampler(d, 43)
    values = []
    for _ in range(samples):
        if case in PURE_CASES:
            # the pure input |0> is scrambled to a Haar state per draw
            values.append(evaluate(model, dm(sampler.sample(template))))
            continue
        v = sampler.sample()
        values.append(evaluate(model, v if template is None else v @ template @ v.conj().T))
    values = np.array(values)
    report = empirical_moments(model, UnitarySampler(d, 43), template, samples)
    assert report.samples == samples
    assert report.empirical_mean == pytest.approx(values.mean(), rel=1e-12, abs=0)
    assert report.empirical_var == pytest.approx(values.var(ddof=1), rel=1e-12, abs=0)


@pytest.mark.parametrize("n", [3, 5, 6])
def test_h1_chunks_are_one_sampler_block(n, monkeypatch):
    # a pure input's chunks are blocks of states, a mixed one's blocks of
    # matrices: 256 and 64 at d = 8, 128 and 4 at d = 32, 64 and 1 at d = 64
    d, sizes = 2**n, []
    obs = odd_y_model(n).observable
    for name, route in (("pure_values", "pure"), ("expectation", "mixed")):
        def record(x, route=route):
            sizes.append((route, len(x)))
            return np.zeros(len(x))
        monkeypatch.setattr(obs, name, record)
    mixed = random_density_matrix(d, np.random.default_rng(n))
    for template, rank in ((zero_state(n), 1), (mixed, 2)):
        sizes.clear()
        chunk = block_count(d, rank)
        analysis._h1_values(obs, UnitarySampler(d, 47), template, 2 * chunk + 1)
        assert sizes == [("pure" if rank == 1 else "mixed", c) for c in (chunk, chunk, 1)]


@pytest.mark.parametrize("family", sorted(CONCENTRATION_FAMILIES))
@pytest.mark.parametrize("n", [2, 3])
def test_vector_input_draws_haar_states_and_no_unitary(family, n, monkeypatch):
    # a pure input held as a vector is never conjugated: no unitary is drawn
    def no_unitary(*args, **kwargs):
        raise AssertionError("a vector input drew a Haar unitary")

    monkeypatch.setattr(groups, "haar_unitary", no_unitary)
    d, model = 2**n, ModelSpec("H1", CONCENTRATION_FAMILIES[family](n))
    psi = random_statevector(d, np.random.default_rng(n))
    samples = block_count(d, rank=1) + 5
    values = analysis._h1_values(model.observable, UnitarySampler(d, 48), psi, samples)
    sampler = UnitarySampler(d, 48)
    reference = [evaluate(model, dm(sampler.sample(psi))) for _ in range(samples)]
    np.testing.assert_allclose(values, reference, rtol=0, atol=1e-12)
    report = empirical_moments(model, UnitarySampler(d, 48), psi, samples)
    assert report.empirical_mean == pytest.approx(np.mean(reference), rel=1e-12, abs=0)


@pytest.mark.parametrize("n", [1, 2])
def test_pure_density_matrix_is_conjugated_and_keeps_the_bell_forms(n):
    # |psi><psi| is conjugated by QR-drawn unitaries; its purity of 1 still
    # registers the Bell closed forms, which a mixed input does not get
    d, model = 2**n, ModelSpec("H1", bell_projector(n))
    rho = dm(random_statevector(d, np.random.default_rng(n)))
    report = empirical_moments(model, UnitarySampler(d, 49), rho, 4000)
    sampler = UnitarySampler(d, 49)
    reference = []
    for _ in range(4000):
        v = sampler.sample()
        reference.append(evaluate(model, v @ rho @ v.conj().T))
    assert report.empirical_mean == pytest.approx(np.mean(reference), rel=1e-12, abs=0)
    assert report.empirical_var == pytest.approx(np.var(reference, ddof=1), rel=1e-12, abs=0)
    assert report.analytic_mean == haar_mean_enhanced_bell(d)
    assert report.analytic_var == haar_var_enhanced_bell(d)
    assert abs(report.empirical_mean - report.analytic_mean) < 4 * report.stderr
    mixed = random_density_matrix(d, np.random.default_rng(n))
    report = empirical_moments(model, UnitarySampler(d, 49), mixed, 2)
    assert report.analytic_mean is None and report.analytic_var is None


def test_vector_off_the_haar_state_route_is_conjugated_as_its_density_matrix():
    # H1 under another group, and H3 under any, read psi as |psi><psi|
    psi = random_statevector(4, np.random.default_rng(3))
    for model in (odd_y_model(2), ModelSpec("H1", bell_projector(2))):
        a = empirical_moments(model, OrthogonalSampler(4, 7), psi, 300)
        b = empirical_moments(model, OrthogonalSampler(4, 7), dm(psi), 300)
        assert a == b
    psi = psi[:2] / np.linalg.norm(psi[:2])
    a = empirical_moments(swap_test_model(1), UnitarySampler(2, 7), psi, 50)
    b = empirical_moments(swap_test_model(1), UnitarySampler(2, 7), dm(psi), 50)
    assert a == b and abs(a.empirical_mean - 1.0) < 1e-12


@pytest.mark.parametrize("make", [UnitarySampler, OrthogonalSampler])
@pytest.mark.parametrize("scale", [2.0, 1 - 1e-8, 1e-3])
def test_pure_input_off_the_unit_sphere_is_refused_before_any_draw(make, scale):
    # 2|0> would be valued as the Haar states of |0> under U(d), scaled by
    # scale^2 under O(d), and given the purity-1 closed forms under both
    sampler = make(2, 8)
    for model in (odd_y_model(1), ModelSpec("H1", bell_projector(1))):
        with pytest.raises(ValueError, match=f"unit vector, got norm {scale:.12g}"):
            empirical_moments(model, sampler, scale * zero_state(1), 100)
    assert sampler.sample().tobytes() == make(2, 8).sample().tobytes()


def test_pure_input_within_rounding_of_unit_norm_is_taken():
    psi = (1 + 1e-12) * zero_state(2)
    a = empirical_moments(odd_y_model(2), UnitarySampler(4, 9), psi, 50)
    b = empirical_moments(odd_y_model(2), UnitarySampler(4, 9), zero_state(2), 50)
    assert a == b


def _completion(s):
    """A unitary V with V e_0 = s: the QR of [s | I], its first column's
    phase fixed by R's first entry."""
    q, r = np.linalg.qr(np.column_stack([s, np.eye(len(s))]))
    v = q.copy()
    v[:, 0] *= r[0, 0]
    return v


@pytest.mark.parametrize("family", sorted(CONCENTRATION_FAMILIES))
@pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
def test_haar_state_values_equal_the_conjugated_template(family, n):
    # each Haar state s is V|0> for a unitary V; its value is Tr[V rho V^dag O]
    d, obs = 2**n, CONCENTRATION_FAMILIES[family](n)
    rho = dm(zero_state(n))
    # one block of states and part of the next
    samples = block_count(d, rank=1) + 3
    values = analysis._h1_values(obs, UnitarySampler(d, 44), zero_state(n), samples)
    sampler = UnitarySampler(d, 44)
    for value in values:
        s = sampler.sample(zero_state(n))
        v = _completion(s)
        np.testing.assert_allclose(v @ v.conj().T, np.eye(d), rtol=0, atol=1e-13)
        np.testing.assert_allclose(v[:, 0], s, rtol=0, atol=1e-14)
        x = v @ rho @ v.conj().T
        if obs.dim > 256:
            # the dense Bell projector takes 16 MiB at n = 5 and 256 MiB at
            # n = 6; its value is Tr[(x (x) x) Phi] = Tr[x x^T] / d
            dense = np.real(np.trace(x @ x.T)) / d
        else:
            dense = expectation(tensor_power(x, obs.copies), obs.matrix)
        assert abs(value - dense) < 1e-12


def _moment_errors(values):
    """Mean, variance and the squared standard errors of both."""
    m, var = values.mean(), values.var(ddof=1)
    m4 = ((values - m) ** 4).mean()
    return m, var, var / len(values), (m4 - var**2) / len(values)


@pytest.mark.parametrize("family", sorted(CONCENTRATION_FAMILIES))
@pytest.mark.parametrize("n", [2, 3])
def test_haar_states_match_the_qr_route_in_distribution(family, n):
    # 20000 Haar states against 20000 conjugations by QR-drawn unitaries
    d, obs, samples = 2**n, CONCENTRATION_FAMILIES[family](n), 20000
    rho = dm(zero_state(n))
    states = analysis._h1_values(obs, UnitarySampler(d, 45), zero_state(n), samples)
    v = haar_unitary(d, np.random.default_rng(46), count=samples)
    conjugated = obs.expectation(v @ rho @ v.conj().swapaxes(-1, -2))
    m1, v1, se_m1, se_v1 = _moment_errors(states)
    m2, v2, se_m2, se_v2 = _moment_errors(conjugated)
    assert abs(m1 - m2) < 4 * np.sqrt(se_m1 + se_m2)
    assert abs(v1 - v2) < 4 * np.sqrt(se_v1 + se_v2)


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
    y = pauli_string("Y").matrix
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
    model = ModelSpec("H1", swap_operator(1))
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
    model = ModelSpec("H1", eye)
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
    model = ModelSpec("H1", swap_operator(1))
    base = classify(data, model, MidpointRule())
    v = haar_unitary(2, rng, count=len(data))
    moved_inputs = v @ data.inputs @ v.conj().swapaxes(-1, -2)
    moved = classify(Dataset(moved_inputs, data.labels), model, MidpointRule())
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
    assert data.labels.tolist() == [1]
    model = ModelSpec("H1", swap_operator(1))
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
    # orthogonally scrambled |0> stays real, where the odd-Y model is zero
    for n in range(1, 4):
        report = empirical_moments(
            odd_y_model(n), OrthogonalSampler(2**n, 1 + n), dm(zero_state(n)), 500
        )
        assert report.empirical_var < 1e-18


def test_concentration_unknown_family():
    with pytest.raises(ValueError):
        concentration_experiment("nope", range(1, 3), 100)


def test_report_serialization():
    result = concentration_experiment("conventional_odd_y", range(1, 3), 200, seed=2)
    csv_text = format_report({"schema": 1, "concentration": asdict(result)}, "csv")
    rows = [f"{r.n},{r.empirical_var!r},{r.analytic_var!r}\n" for r in result.rows]
    assert csv_text == "n,empirical_var,analytic_var\n" + "".join(rows)
    assert len(rows) == 2
