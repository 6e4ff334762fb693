"""Acceptance suite: one test per verification criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the one-line
PASS/FAIL summary printed per criterion. Statistical checks use four
standard errors at their stated sample sizes and fixed seeds.

Criteria 7b and 11b check their values against exact oracles computed
in this module, never against the program's own output:

- 7b: the commutant of {V x V x V : V in U(2)} is the span of the six
  copy permutations, whose dimension is the Schur-Weyl count
  sum_{lambda |- k, len(lambda) <= d} (f^lambda)^2 = 1 + 4 = 5 (the
  antisymmetrizer vanishes for d = 2 < k = 3, so 3! = 6 holds only for
  d >= k).
- 11b: the two-copy Bell-projector model over Haar pure inputs has
  variance 4(d-1) / (d^2 (d+1)^2 (d+3)), whose fitted log2 slope over
  n = 1..4 is -3.02; the stated O(1/d^2) decay holds as a bound.
"""

import json
import time
from itertools import permutations
from math import comb, factorial, prod

import numpy as np

from ginv import cli
from ginv import observables as obs
from ginv.analysis import (
    MidpointRule,
    ThresholdRule,
    cantelli_bound,
    classify,
    concentration_experiment,
    empirical_moments,
    haar_mean_enhanced_bell,
    haar_var_time_reversal,
    misclassification_probability,
)
from ginv.datasets import (
    Graph,
    graph_dataset,
    graph_state,
    purity_dataset,
    time_reversal_dynamics_dataset,
    time_reversal_state_dataset,
)
from ginv.groups import (
    LocalUnitarySampler,
    OrthogonalSampler,
    SymmetricSampler,
    UnitarySampler,
    commutant_analysis,
    haar_orthogonal,
    haar_unitary,
    permutation_operator,
)
from ginv.models import (
    ModelSpec,
    evaluate,
    swap_test_model,
    swap_test_unitary,
)
from ginv.tensor import (
    bell_state,
    dm,
    kron,
    purity,
    random_statevector,
    zero_state,
)
from helpers import (
    check_invariance,
    ghz_state,
    graph_classes,
    random_density_matrix,
    schur_weyl_commutant_dimension,
)
from ginv.train import TrainConfig, graph_invariant_model, optimize

MC_SAMPLES = 20000

TRIANGLE = Graph(3, {(0, 1), (1, 2), (0, 2)})
PATH3 = Graph(3, {(0, 1), (1, 2)})


def _line(criterion, ok, detail):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def swap_model(n):
    return ModelSpec("H1", obs.swap_operator(n))


def bell_model(n):
    return ModelSpec("H1", obs.bell_projector(n))


def dynamics_model(n):
    return ModelSpec("H2", obs.bell_projector(n), psi_in=bell_state(n))


def test_criterion_1_purity():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in (1, 2, 3, 4):
        model = swap_model(n)
        for _ in range(50):
            rho = random_density_matrix(2**n, rng, rank=int(rng.integers(1, 2**n + 1)))
            worst = max(worst, abs(evaluate(model, rho) - purity(rho)))
    values_ok = worst < 1e-10

    inv = check_invariance(
        lambda r: evaluate(swap_model(2), r),
        UnitarySampler(4, 102),
        random_density_matrix(4, rng),
        trials=100,
    )
    invariance_ok = inv.max_deviation < 1e-9

    report = classify(
        purity_dataset(2, 200, 0.5, np.random.default_rng(103)),
        swap_model(2),
        MidpointRule(),
    )
    accuracy_ok = report.accuracy == 1.0
    elapsed = time.perf_counter() - start
    runtime_ok = elapsed < 10.0
    ok = _line(
        "1 purity",
        values_ok and invariance_ok and accuracy_ok and runtime_ok,
        f"max |h - Tr[rho^2]| = {worst:.2e}, invariance dev = {inv.max_deviation:.2e}, "
        f"accuracy = {report.accuracy}, runtime = {elapsed:.1f}s",
    )
    assert ok


def test_criterion_2_no_go_average():
    rng = np.random.default_rng(201)
    failures = []
    for n in (1, 2, 3):
        d = 2**n
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        observable = obs.Observable((h + h.conj().T) / 2, 1, n, "random")
        for sampler in (UnitarySampler(d, 202 + n), LocalUnitarySampler(n, 203 + n)):
            model = ModelSpec("H1", observable, unitary=haar_unitary(d, rng))
            template = random_density_matrix(d, rng)
            report = empirical_moments(model, sampler, template, MC_SAMPLES)
            target = float(np.real(np.trace(observable.matrix))) / d
            if abs(report.empirical_mean - target) >= 4 * report.stderr:
                failures.append((d, type(sampler).__name__))
    ok = _line(
        "2 no-go average",
        not failures,
        f"all k=1 means match Tr[O]/d within 4 stderr at N={MC_SAMPLES}"
        + (f"; failures: {failures}" if failures else ""),
    )
    assert ok


def test_criterion_3_time_reversal_states():
    y_obs = obs.pauli_string("YI")
    assert np.abs(y_obs.matrix.real).max() < 1e-15  # one Y: purely imaginary
    model2 = ModelSpec("H1", y_obs)
    data = time_reversal_state_dataset(2, 200, np.random.default_rng(301))
    worst = max(
        abs(evaluate(model2, rho)) for rho in data.inputs[data.labels == 1]
    )
    null_ok = worst < 1e-10

    var_ok = True
    details = []
    for n, seed in ((1, 302), (2, 303)):
        d = 2**n
        model = ModelSpec("H1", obs.pauli_string("Y" + "I" * (n - 1)))
        report = empirical_moments(model, UnitarySampler(d, seed), zero_state(n), MC_SAMPLES)
        gap = abs(report.empirical_var - report.analytic_var)
        var_ok &= gap < 4 * report.stderr
        details.append(f"n={n}: |var - {report.analytic_var:.4f}| = {gap:.1e}")

    exact_third = abs(
        haar_var_time_reversal(obs.pauli_string("Y"), dm(zero_state(1)), 2) - 1 / 3
    )
    formula_ok = exact_third < 1e-14
    ok = _line(
        "3 time-reversal states",
        null_ok and var_ok and formula_ok,
        f"max |h| on label-1 = {worst:.1e}; {'; '.join(details)}; "
        f"|formula(n=1) - 1/3| = {exact_third:.1e}",
    )
    assert ok


def test_criterion_4_bell_projector():
    rng = np.random.default_rng(401)
    worst = 0.0
    for n in (1, 2, 3):
        d = 2**n
        model = bell_model(n)
        for _ in range(30):
            v = haar_orthogonal(d, rng)
            rho = dm(v @ zero_state(n))
            worst = max(worst, abs(evaluate(model, rho) - 1.0 / d))
    label1_ok = worst < 1e-10

    real_vec = rng.standard_normal(4)
    probe = dm((real_vec / np.linalg.norm(real_vec)).astype(complex))
    inv = check_invariance(
        lambda r: evaluate(bell_model(2), r), OrthogonalSampler(4, 402), probe, trials=100
    )
    witness = check_invariance(
        lambda r: evaluate(bell_model(2), r), UnitarySampler(4, 403), probe, trials=50
    )
    ok = _line(
        "4 bell projector",
        label1_ok and inv.max_deviation < 1e-9 and witness.max_deviation > 1e-3,
        f"max |h - 1/d| = {worst:.1e} (unit-normalised Bell), orthogonal dev = "
        f"{inv.max_deviation:.1e}, unitary witness dev = {witness.max_deviation:.1e}",
    )
    assert ok


def test_criterion_5_dynamics():
    rng = np.random.default_rng(501)
    worst = 0.0
    for n in (1, 2, 3):
        d = 2**n
        model = dynamics_model(n)
        for _ in range(30):
            worst = max(worst, abs(evaluate(model, haar_orthogonal(d, rng)) - 1.0))
    constant_ok = worst < 1e-10

    mean_ok = True
    mean_details = []
    for n, seed in ((1, 502), (2, 503), (3, 504)):
        d = 2**n
        report = empirical_moments(
            dynamics_model(n), UnitarySampler(d, seed), None, MC_SAMPLES
        )
        gap = abs(report.empirical_mean - haar_mean_enhanced_bell(d))
        mean_ok &= gap < 4 * report.stderr
        mean_details.append(f"d={d}: {gap:.1e}")

    exact = classify(
        time_reversal_dynamics_dataset(3, 200, np.random.default_rng(505)),
        dynamics_model(3),
        ThresholdRule(1.0, 0.1),
    )
    exact_ok = exact.accuracy == 1.0

    # 50-shot comparison at n = 5: O(1)-shot dynamics separation vs the
    # exponentially concentrated state task
    n5, d5, shots = 5, 32, 50
    shot_rng = np.random.default_rng(506)
    dyn_data = time_reversal_dynamics_dataset(n5, 200, shot_rng)
    dyn_report = classify(
        dyn_data, dynamics_model(n5), ThresholdRule(1.0, 0.1), shots=shots, rng=shot_rng
    )
    state_data = time_reversal_state_dataset(n5, 200, shot_rng)
    state_report = classify(
        state_data,
        bell_model(n5),
        ThresholdRule(1.0 / d5, 1.0 / (2 * d5)),
        shots=shots,
        rng=shot_rng,
    )
    shots_ok = dyn_report.accuracy >= 0.99 and state_report.accuracy < 0.8
    ok = _line(
        "5 dynamics",
        constant_ok and mean_ok and exact_ok and shots_ok,
        f"max |h(W) - 1| = {worst:.1e}; mean gaps {', '.join(mean_details)}; exact "
        f"accuracy = {exact.accuracy}; 50-shot dynamics = {dyn_report.accuracy:.3f} "
        f"vs state task = {state_report.accuracy:.3f} at n=5",
    )
    assert ok


def test_criterion_6_entanglement():
    rng = np.random.default_rng(601)
    worst = 0.0
    for n in (2, 3, 4):
        pairs = [
            (obs.impurity_observable(0, n), lambda r: obs.impurity_oracle(r, 0)),
            (obs.meyer_wallach_observable(n), obs.meyer_wallach_oracle),
            (
                obs.concentratable_observable(range(n), n),
                lambda r, nn=n: obs.concentratable_oracle(r, range(nn)),
            ),
            (obs.ntangle_observable(n), obs.ntangle_oracle),
            (obs.swap_j(0, n), lambda r: obs.subset_purity(r, [0])),
        ]
        for _ in range(50):
            rho = dm(random_statevector(2**n, rng))
            for observable, oracle in pairs:
                worst = max(worst, abs(observable.expectation(rho) - oracle(rho)))
    oracle_ok = worst < 1e-9

    ghz3 = dm(ghz_state(3))
    w3 = dm(np.array([0, 1, 1, 0, 1, 0, 0, 0], dtype=complex) / np.sqrt(3))  # W state
    product = dm(
        np.kron(random_statevector(2, rng), random_statevector(2, rng)).astype(complex)
    )
    refs = [
        (obs.meyer_wallach_observable(3).expectation(ghz3), 1.0),
        (obs.meyer_wallach_observable(3).expectation(w3), 8 / 9),
        (obs.concentratable_observable([0, 1, 2], 3).expectation(ghz3), 0.375),
        (obs.ntangle_observable(2).expectation(dm(ghz_state(2))), 0.75),
        (obs.meyer_wallach_observable(2).expectation(product), 0.0),
        (obs.impurity_observable(0, 2).expectation(dm(ghz_state(2))), 1.0),
    ]
    refs_ok = all(abs(got - want) < 1e-9 for got, want in refs)

    inv_worst = 0.0
    for n in (2, 3):
        probe = dm(random_statevector(2**n, rng))
        for i, observable in enumerate(
            [
                obs.meyer_wallach_observable(n),
                obs.concentratable_observable(range(n), n),
                obs.ntangle_observable(n),
                obs.impurity_observable(0, n),
                obs.swap_j(0, n),
            ]
        ):
            report = check_invariance(
                lambda r, o=observable: o.expectation(r),
                LocalUnitarySampler(n, 602 + 10 * n + i),
                probe,
                trials=100,
            )
            inv_worst = max(inv_worst, report.max_deviation)
    inv_ok = inv_worst < 1e-9
    ok = _line(
        "6 entanglement",
        oracle_ok and refs_ok and inv_ok,
        f"max |operator - oracle| = {worst:.1e} over 150 pure states; reference "
        f"values ok = {refs_ok}; local-unitary dev = {inv_worst:.1e}",
    )
    assert ok


def test_criterion_7a_commutant_dimensions():
    reports = {
        "U(4) k=2": (commutant_analysis(UnitarySampler(4, 701), 2), 2),
        "O(4) k=2": (commutant_analysis(OrthogonalSampler(4, 702), 2), 3),
        "local U(2)^2 k=2": (commutant_analysis(LocalUnitarySampler(2, 703), 2), 4),
        "S_1 k=1": (commutant_analysis(SymmetricSampler(1, 704), 1), comb(4, 3)),
        "S_2 k=1": (commutant_analysis(SymmetricSampler(2, 705), 1), comb(5, 3)),
        "S_3 k=1": (commutant_analysis(SymmetricSampler(3, 706), 1), comb(6, 3)),
    }
    dims_ok = all(rep.dimension == want for rep, want in reports.values())
    gaps_ok = all(rep.gap_ratio >= 1e3 for rep, _ in reports.values())
    got = {name: rep.dimension for name, (rep, _) in reports.items()}
    min_gap = min(rep.gap_ratio for rep, _ in reports.values())
    ok = _line(
        "7a commutant dimensions",
        dims_ok and gaps_ok,
        f"dimensions {got}, min rank gap = {min_gap:.1e}",
    )
    assert ok


def test_criterion_7b_commutant_u2_k3_as_stated():
    # The commutant of V x V x V over U(2) is the span of the six copy
    # permutations (Schur-Weyl duality). Its dimension is the hook-length
    # count 1 + 4 = 5, not 3! = 6: for d = 2 < k = 3 the antisymmetrizer
    # vanishes, so the permutation operators are linearly dependent.
    d, k, seed = 2, 3, 707
    report = commutant_analysis(UnitarySampler(d, seed), k)
    schur_weyl = schur_weyl_commutant_dimension(d, k)
    # sum over all lambda |- m of (f^lambda)^2 = m! checks the helper itself
    helper_ok = all(schur_weyl_commutant_dimension(m, m) == factorial(m) for m in range(1, 7))
    perms = [permutation_operator(p) for p in permutations(range(k))]
    span_rank = int(np.linalg.matrix_rank(np.array([p.ravel() for p in perms])))
    worst_commutator = 0.0
    for v in UnitarySampler(d, seed).draw(20):
        vk = np.kron(np.kron(v, v), v)
        for p in perms:
            worst_commutator = max(worst_commutator, float(np.abs(p @ vk - vk @ p).max()))
    ok = _line(
        "7b commutant U(2) k=3 = span of copy permutations",
        helper_ok
        and report.dimension == schur_weyl == span_rank
        and worst_commutator < 1e-12
        and report.gap_ratio >= 1e3
        and not report.ambiguous,
        f"computed dimension = {report.dimension}, Schur-Weyl count = {schur_weyl}, "
        f"rank of the {len(perms)} permutations = {span_rank}, max |[P, V^(x3)]| = "
        f"{worst_commutator:.1e}, rank gap = {report.gap_ratio:.1e}, "
        f"ambiguous = {report.ambiguous}",
    )
    assert ok


def test_criterion_8_ancilla():
    worst_conj = 0.0
    for n in (1, 2):
        u = swap_test_unitary(n)
        z_anc = kron(obs.PAULI["Z"], np.eye(4**n))
        z_swap = kron(obs.PAULI["Z"], obs.swap_operator(n).matrix)
        worst_conj = max(worst_conj, float(np.abs(u.conj().T @ z_anc @ u - z_swap).max()))
    conj_ok = worst_conj < 1e-10

    rng = np.random.default_rng(801)
    worst_purity = 0.0
    for n in (1, 2):
        model = swap_test_model(n)
        for _ in range(20):
            rho = random_density_matrix(2**n, rng)
            worst_purity = max(worst_purity, abs(evaluate(model, rho) - purity(rho)))
    purity_ok = worst_purity < 1e-10
    ok = _line(
        "8 ancilla",
        conj_ok and purity_ok,
        f"conjugation identity dev = {worst_conj:.1e} (n=1,2), H3 purity dev = "
        f"{worst_purity:.1e}",
    )
    assert ok


def test_criterion_9_graph():
    model = graph_invariant_model(3)
    theta = np.array([0.9, 0.4, 1.3])
    probe = graph_state(TRIANGLE, 1.0)
    base = model.value_fn(theta, probe)
    inv_worst = max(
        abs(model.value_fn(theta, permutation_operator(p) @ probe) - base)
        for p in permutations(range(3))
    )
    inv_ok = inv_worst < 1e-9

    from ginv.datasets import Dataset

    reps = Dataset(
        np.array([graph_state(TRIANGLE, 1.0), graph_state(PATH3, 1.0)]), np.array([0, 1])
    )
    result = optimize(model, reps, TrainConfig(learning_rate=0.5, iterations=60))
    h0, h1 = (model.value_fn(result.theta, psi) for psi in reps.inputs)
    test_set = graph_dataset(TRIANGLE, PATH3, 100, 1.0, np.random.default_rng(902))
    midpoint = (h0 + h1) / 2
    correct = sum(
        (int(model.value_fn(result.theta, psi) > midpoint)
         if h1 >= h0
         else int(model.value_fn(result.theta, psi) <= midpoint)) == label
        for psi, label in zip(test_set.inputs, test_set.labels)
    )
    accuracy = correct / len(test_set)
    ok = _line(
        "9 graph",
        inv_ok and accuracy == 1.0,
        f"S_3 invariance dev = {inv_worst:.1e}, trained gap = {abs(h1 - h0):.3f}, "
        f"test accuracy = {accuracy}",
    )
    assert ok


def _graph_json(g):
    return json.dumps({"n": g.n, "edges": sorted(list(e) for e in g.edges)})


def test_criterion_9b_graph_every_pair_up_to_6_nodes():
    # The model's value at the axis a is sum_k a^k S_k(psi) over the moments
    # xyz_moments, so some axis tells two graphs apart exactly when their
    # moment vectors differ: an exact check of every pair, with no training.
    counts = [len(graph_classes(n)) for n in range(1, 7)]
    counts_ok = counts == [1, 2, 4, 11, 34, 156]  # OEIS A000088
    smallest, equal = {}, []
    for n in range(2, 7):
        classes = graph_classes(n)
        moments = obs.xyz_moments(np.array([graph_state(g, 1.0) for g in classes]))
        i, j = np.triu_indices(len(classes), 1)
        gaps = np.linalg.norm(moments[i] - moments[j], axis=1)
        smallest[n] = float(gaps.min())
        equal += [(classes[a], classes[b]) for a, b in zip(i[gaps < 1e-9], j[gaps < 1e-9])]
    # the closest 6-node pairs, trained and tested by the CLI at its defaults
    # (60 iterations at rate 0.5, a 100-item graph_dataset, t = 1)
    closest = [(classes[i[p]], classes[j[p]]) for p in np.argsort(gaps)[:20]]
    accuracies = [
        cli.run({"experiment": "graph", "g0": _graph_json(g0), "g1": _graph_json(g1)})
        ["test_accuracy"] for g0, g1 in closest
    ]
    ok = _line(
        "9b graph, every pair on 2-6 nodes",
        counts_ok and not equal and min(accuracies) == 1.0,
        f"classes {counts}, equal-moment pairs {equal}, smallest moment distance "
        + ", ".join(f"{d:.3f} (n={n})" for n, d in smallest.items())
        + f", 20 closest 6-node pairs: lowest test accuracy {min(accuracies)}",
    )
    assert ok


def test_criterion_10_statistics():
    spots = [
        (misclassification_probability(0.0), 0.0),
        (misclassification_probability(1.0), 0.5),
        (misclassification_probability(0.5), 1 / 3),
    ]
    spots_ok = all(abs(got - want) < 1e-12 for got, want in spots)

    rng = np.random.default_rng(1001)
    dominated = []
    for d, delta, seed in ((2, 0.2, 1002), (2, 0.5, 1003), (4, 0.3, 1004)):
        n = {2: 1, 4: 2}[d]
        y = obs.pauli_string("Y" + "I" * (n - 1)).matrix
        vals = np.empty(10000)
        for i in range(10000):
            v = haar_unitary(d, np.random.default_rng(seed + i))[:, 0]
            vals[i] = np.real(v.conj() @ y @ v)
        tail = float((vals - vals.mean() >= delta).mean())
        bound = cantelli_bound(vals.var(), delta)
        dominated.append(bool(tail <= bound))
    ok = _line(
        "10 statistics",
        spots_ok and all(dominated),
        f"spot checks ok = {spots_ok}, Cantelli dominates tails = {dominated}",
    )
    assert ok


def test_criterion_11a_concentration_conventional():
    result = concentration_experiment(
        "conventional_odd_y", range(1, 6), MC_SAMPLES, seed=1101
    )
    ok = _line(
        "11a conventional concentration slope",
        -1.15 < result.slope < -0.85,
        f"fitted log2 slope = {result.slope:.3f}, stated window -1.0 +/- 0.15",
    )
    assert ok


def _haar_bell_overlap_moment(d, m):
    """E|z|^(2m) for z = psi^T psi, psi Haar-random in C^d.

    E[(psi psi^dag)^(x 2m)] is the symmetric projector divided by
    d(d+1)...(d+2m-1) / (2m)!. Against Omega = (sum_i |ii>)^(x m) each
    permutation P gives <Omega|P|Omega> = d^(loops of two perfect
    matchings); the 2^m m! permutations per matching and
    sum over matchings of d^loops = d(d+2)...(d+2m-2) leave
    2^m m! / ((d+1)(d+3)...(d+2m-1)).
    """
    return 2**m * factorial(m) / prod(d + 2 * j + 1 for j in range(m))


def bell_model_variance(d):
    """Haar variance of <psi psi|Phi><Phi|psi psi> = |psi^T psi|^2 / d."""
    return 4 * (d - 1) / (d**2 * (d + 1) ** 2 * (d + 3))


def bell_model_variance_stderr(d, samples):
    """Standard error of the unbiased sample variance, from exact moments."""
    m1, m2, m3, m4 = (_haar_bell_overlap_moment(d, m) for m in (1, 2, 3, 4))
    var = m2 - m1**2
    fourth = m4 - 4 * m3 * m1 + 6 * m2 * m1**2 - 3 * m1**4
    return np.sqrt((fourth - var**2 * (samples - 3) / (samples - 1)) / samples) / d**2


def test_criterion_11b_concentration_enhanced_as_stated():
    # The Bell-projector model h = |psi^T psi|^2 / d over Haar pure inputs
    # has E|z|^2 = 2/(d+1) and E|z|^4 = 8/((d+1)(d+3)), hence variance
    # 4(d-1) / (d^2 (d+1)^2 (d+3)). Each per-n variance must sit within
    # four standard errors of it, and the fitted slope within four slope
    # standard errors of the closed form's (-3.02 over n = 1..4). The
    # stated O(1/d^2) decay is read as a bound: the slope lies below -2.
    # (A -2 slope is the scaling of the mean 2/(d(d+1)), not the variance.)
    n_range = range(1, 5)
    result = concentration_experiment("enhanced_bell", n_range, MC_SAMPLES, seed=1102)
    ns = np.array(n_range)
    dims = [2**n for n in n_range]
    oracle = np.array([bell_model_variance(d) for d in dims])
    stderr = np.array([bell_model_variance_stderr(d, MC_SAMPLES) for d in dims])
    # the closed form is the moment formula's E|z|^4 - (E|z|^2)^2, over d^2
    moments_ok = all(
        np.isclose(
            bell_model_variance(d) * d**2,
            _haar_bell_overlap_moment(d, 2) - _haar_bell_overlap_moment(d, 1) ** 2,
            rtol=1e-12,
            atol=0.0,
        )
        for d in dims
    )
    empirical = np.array([row.empirical_var for row in result.rows])
    rows_ok = bool(np.all(np.abs(empirical - oracle) < 4 * stderr))
    oracle_slope = float(np.polyfit(ns, np.log2(oracle), 1)[0])
    # slope = sum_n w_n log2 var_n is linear in the per-n log2 variances
    weights = (ns - ns.mean()) / ((ns - ns.mean()) ** 2).sum()
    slope_stderr = float(np.sqrt((weights**2 * (stderr / oracle / np.log(2)) ** 2).sum()))
    slope_ok = abs(result.slope - oracle_slope) < 4 * slope_stderr
    bound_ok = result.slope < -2.0
    rows = ", ".join(
        f"n={n}: {e:.4e} vs {o:.4e}" for n, e, o in zip(ns, empirical, oracle)
    )
    ok = _line(
        "11b enhanced concentration = closed-form Bell variance",
        moments_ok and rows_ok and slope_ok and bound_ok,
        f"variances (computed vs closed form) {rows}; fitted log2 slope = "
        f"{result.slope:.3f} vs closed form {oracle_slope:.3f} +/- "
        f"{4 * slope_stderr:.3f}, O(1/d^2) bound = slope < -2",
    )
    assert ok
