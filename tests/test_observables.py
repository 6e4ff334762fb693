from itertools import combinations, product

import numpy as np
import pytest

from ginv import observables as obs
from ginv import tensor
from ginv.groups import (
    LocalUnitarySampler,
    OrthogonalSampler,
    UnitarySampler,
    haar_unitary,
)
from ginv.tensor import (
    dm,
    expectation_copies,
    kron,
    kron_all,
    partial_trace,
    purity,
    random_statevector,
    zero_state,
)
from helpers import check_invariance, dressed, ghz_state, random_density_matrix


def product_state(n, rng):
    return kron_all([random_statevector(2, rng) for _ in range(n)])


def w_state(n):
    """Equal superposition of the n single-excitation basis states."""
    psi = np.zeros(2**n, dtype=complex)
    for j in range(n):
        psi[2 ** (n - 1 - j)] = 1 / np.sqrt(n)
    return psi


def test_swap_operator_involution():
    s = obs.swap_operator(2).matrix
    np.testing.assert_array_equal(s @ s, np.eye(16))


def test_swap_operator_purity_values():
    assert abs(obs.swap_operator(1).expectation(np.eye(2) / 2) - 0.5) < 1e-12
    rng = np.random.default_rng(0)
    psi = random_statevector(2, rng)
    assert abs(obs.swap_operator(1).expectation(dm(psi)) - 1.0) < 1e-10


def test_swap_operator_direct_purity_oracle():
    rho = np.diag([0.75, 0.25]).astype(complex)
    oracle = np.real(np.trace(rho @ rho))
    got = obs.swap_operator(1).expectation(rho)
    assert abs(got - oracle) < 1e-12
    assert abs(got - 0.625) < 1e-12


def test_swap_operator_random_states():
    rng = np.random.default_rng(1)
    for n in (1, 2):
        swap = obs.swap_operator(n)
        for _ in range(10):
            rho = dm(random_statevector(2**n, rng)) * 0.7 + 0.3 * np.eye(2**n) / 2**n
            assert abs(swap.expectation(rho) - purity(rho)) < 1e-10


def test_swap_j_product_state():
    rng = np.random.default_rng(2)
    rho = dm(product_state(3, rng))
    for j in range(3):
        assert abs(obs.swap_j(j, 3).expectation(rho) - 1.0) < 1e-10


def test_swap_j_ghz_marginals():
    # oracle: purity of the reduced state from an explicit partial trace
    for n, j in ((2, 0), (3, 2)):
        rho = dm(ghz_state(n))
        marginal = partial_trace(rho, [j])
        oracle = np.real(np.trace(marginal @ marginal))
        got = obs.swap_j(j, n).expectation(rho)
        assert abs(got - oracle) < 1e-10
        assert abs(got - 0.5) < 1e-12


def test_swap_j_index_error():
    with pytest.raises(ValueError):
        obs.swap_j(3, 3)


def test_bell_projector_is_rank_one_projector():
    for n in (1, 2):
        p = obs.bell_projector(n).matrix
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
        assert abs(np.trace(p) - 1) < 1e-12


def test_bell_projector_real_pure_states():
    # ricochet oracle: for a real unit vector, sum_j psi_j^2 = 1, so the
    # overlap with the unit-normalised Bell state gives exactly 1/d
    rng = np.random.default_rng(3)
    for n in (1, 2):
        d = 2**n
        bell = obs.bell_projector(n)
        for _ in range(10):
            psi = rng.standard_normal(d)
            psi = (psi / np.linalg.norm(psi)).astype(complex)
            assert abs(bell.expectation(dm(psi)) - 1.0 / d) < 1e-10


def test_bell_projector_imaginary_state_zero():
    # oracle: sum_j psi_j^2 = (1 + i^2)/2 = 0 for (|0> + i|1>)/sqrt(2)
    psi = np.array([1.0, 1.0j]) / np.sqrt(2)
    amp_sum = (psi**2).sum()
    assert abs(amp_sum) < 1e-14
    assert abs(obs.bell_projector(1).expectation(dm(psi))) < 1e-12


def test_impurity_observable():
    rng = np.random.default_rng(4)
    rho = dm(product_state(2, rng))
    assert abs(obs.impurity_observable(0, 2).expectation(rho)) < 1e-10
    assert abs(obs.impurity_observable(0, 2).expectation(dm(ghz_state(2))) - 1.0) < 1e-10
    assert abs(obs.impurity_observable(1, 3).expectation(dm(ghz_state(3))) - 1.0) < 1e-10


def test_meyer_wallach_reference_values():
    rng = np.random.default_rng(5)
    assert abs(obs.meyer_wallach_observable(3).expectation(dm(product_state(3, rng)))) < 1e-10
    for n in (2, 3, 4):
        got = obs.meyer_wallach_observable(n).expectation(dm(ghz_state(n)))
        assert abs(got - 1.0) < 1e-10
    # oracle: every single-qubit marginal of W3 has purity 5/9
    w3 = dm(w_state(3))
    marg = partial_trace(w3, [0])
    assert abs(np.real(np.trace(marg @ marg)) - 5 / 9) < 1e-12
    assert abs(obs.meyer_wallach_observable(3).expectation(w3) - 8 / 9) < 1e-10


def test_concentratable_reference_values():
    rng = np.random.default_rng(6)
    assert abs(obs.concentratable_observable([0, 1], 2).expectation(dm(product_state(2, rng)))) < 1e-10
    # oracle: purity sum over the subset lattice, computed inline
    bell_pair = dm(ghz_state(2))
    sums = sum(
        np.real(np.trace(partial_trace(bell_pair, a) @ partial_trace(bell_pair, a)))
        for r in range(3)
        for a in combinations(range(2), r)
    )
    oracle = 1.0 - sums / 4.0
    got = obs.concentratable_observable([0, 1], 2).expectation(bell_pair)
    assert abs(got - oracle) < 1e-12
    assert abs(got - 0.25) < 1e-12
    ghz3 = dm(ghz_state(3))
    got3 = obs.concentratable_observable([0, 1, 2], 3).expectation(ghz3)
    assert abs(got3 - 0.375) < 1e-12


def test_concentratable_rejects_empty_subset():
    with pytest.raises(ValueError):
        obs.concentratable_observable([], 2)
    with pytest.raises(ValueError):
        obs.concentratable_oracle(np.eye(4) / 4, [])


def test_ntangle_reference_values():
    # oracle: signed purity sums computed from the definitions
    bell_pair = dm(ghz_state(2))
    assert abs(obs.ntangle_observable(2).expectation(bell_pair) - 0.75) < 1e-12
    zero2 = dm(zero_state(2))
    assert abs(obs.ntangle_observable(2).expectation(zero2) - 1.0) < 1e-12
    rng = np.random.default_rng(7)
    psi = random_statevector(2, rng)
    assert abs(obs.ntangle_observable(1).expectation(dm(psi)) - 1.0) < 1e-10


def test_pauli_string_flags():
    # purely imaginary exactly when the Y count is odd, else real
    y = obs.pauli_string("Y")
    assert np.abs(y.matrix.real).max() < 1e-15 < np.abs(y.matrix.imag).max()
    yy = obs.pauli_string("YY")
    assert np.abs(yy.matrix.imag).max() < 1e-15 < np.abs(yy.matrix.real).max()
    yzx = obs.pauli_string("YZX")
    assert np.abs(yzx.matrix.real).max() < 1e-15 < np.abs(yzx.matrix.imag).max()
    np.testing.assert_allclose(yzx.matrix @ yzx.matrix, np.eye(8), atol=1e-14)


def test_pauli_string_invalid():
    with pytest.raises(ValueError):
        obs.pauli_string("XQ")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pauli_strings_equal_their_dense_matrices(n):
    # every word of n letters over IXYZ, valued by its flip and phase, against
    # the Kronecker product of its letters
    rng = np.random.default_rng(60 + n)
    d = 2**n
    rhos = np.array([random_density_matrix(d, rng) for _ in range(5)])
    states = np.array([random_statevector(d, rng) for _ in range(5)])
    for letters in product("IXYZ", repeat=n):
        word = "".join(letters)
        dense = kron_all([obs.PAULI[c] for c in word])
        p = obs.pauli_string(word)
        assert p.kind == "pauli" and "matrix" not in vars(p)
        np.testing.assert_allclose(p.expectation(rhos), expectation_copies(rhos, 1, dense),
                                   rtol=0, atol=1e-12, err_msg=word)
        np.testing.assert_allclose(p.pure_values(states),
                                   np.real(np.einsum("bi,ij,bj->b", states.conj(), dense, states)),
                                   rtol=0, atol=1e-12, err_msg=word)
        w = np.linalg.eigvalsh(dense)
        assert p.levels == (w[-1], w[0]), word
        assert np.array_equal(p.matrix, dense) and p.matrix.dtype == dense.dtype, word


def test_hermitize_hermitian_input():
    re, im = obs.hermitize(obs.PAULI["X"])
    np.testing.assert_allclose(re.matrix, obs.PAULI["X"])
    np.testing.assert_allclose(im.matrix, np.zeros((2, 2)), atol=1e-14)


def test_hermitize_ketbra():
    a = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
    re, im = obs.hermitize(a)
    np.testing.assert_allclose(re.matrix, obs.PAULI["X"] / 2)
    np.testing.assert_allclose(im.matrix, -obs.PAULI["Y"] / 2)


def test_hermitize_stays_in_commutant():
    # non-Hermitian element of span{1, SWAP}: both outputs must still
    # commute with V x V for sampled unitaries
    rng = np.random.default_rng(8)
    swap = obs.swap_operator(1).matrix
    a = (0.3 + 0.4j) * np.eye(4) + (1.1 - 0.2j) * swap
    re, im = obs.hermitize(a, copies=2)
    for _ in range(20):
        v = haar_unitary(2, rng)
        vv = kron(v, v)
        for part in (re.matrix, im.matrix):
            assert np.linalg.norm(part @ vv - vv @ part) < 1e-9


def test_unitary_invariance_of_swap_span():
    rng = np.random.default_rng(9)
    o = 0.7 * np.eye(4) + 1.3 * obs.swap_operator(1).matrix
    rho = dm(random_statevector(2, rng)) * 0.6 + 0.4 * np.eye(2) / 2
    from ginv.tensor import expectation_copies

    base = expectation_copies(rho, 2, o)
    for _ in range(100):
        v = haar_unitary(2, rng)
        conj = v @ rho @ v.conj().T
        assert abs(expectation_copies(conj, 2, o) - base) < 1e-9


def test_local_unitary_invariance_all_measures():
    rng = np.random.default_rng(10)
    n = 2
    rho = dm(random_statevector(4, rng))
    measures = [
        obs.impurity_observable(0, n),
        obs.meyer_wallach_observable(n),
        obs.concentratable_observable(range(n), n),
        obs.ntangle_observable(n),
        obs.swap_j(1, n),
    ]
    for i, observable in enumerate(measures):
        report = check_invariance(
            lambda r, o=observable: o.expectation(r),
            LocalUnitarySampler(n, 100 + i),
            rho,
            trials=100,
        )
        assert report.passed, observable.tag


def test_orthogonal_invariance_and_unitary_witness():
    rng = np.random.default_rng(11)
    real_vec = rng.standard_normal(2)
    rho = dm((real_vec / np.linalg.norm(real_vec)).astype(complex))
    bell = obs.bell_projector(1)
    ortho = check_invariance(
        lambda r: bell.expectation(r), OrthogonalSampler(2, 12), rho, trials=100
    )
    assert ortho.passed
    unitary = check_invariance(
        lambda r: bell.expectation(r), UnitarySampler(2, 13), rho, trials=50
    )
    assert unitary.max_deviation > 1e-3


def test_oracle_equivalence_random_pure_states():
    rng = np.random.default_rng(12)
    for n in (2, 3, 4):
        built = {
            "impurity": (obs.impurity_observable(0, n), lambda r: obs.impurity_oracle(r, 0)),
            "meyer_wallach": (obs.meyer_wallach_observable(n), obs.meyer_wallach_oracle),
            "concentratable": (
                obs.concentratable_observable(range(n), n),
                lambda r, nn=n: obs.concentratable_oracle(r, range(nn)),
            ),
            "ntangle": (obs.ntangle_observable(n), obs.ntangle_oracle),
            "swap_j": (obs.swap_j(0, n), lambda r: obs.subset_purity(r, [0])),
        }
        for _ in range(50 // 10):
            rho = dm(random_statevector(2**n, rng))
            for tag, (observable, oracle) in built.items():
                assert abs(observable.expectation(rho) - oracle(rho)) < 1e-9, tag


def test_entanglement_separation():
    rng = np.random.default_rng(13)
    for n in (2, 3, 4):
        conc = obs.concentratable_observable(range(n), n)
        assert conc.expectation(dm(ghz_state(n))) > 0.2
        assert abs(conc.expectation(dm(product_state(n, rng)))) < 1e-10


def test_observable_validation():
    with pytest.raises(ValueError):
        obs.Observable(np.array([[0, 1], [0, 0]]), 1, 1, "bad")
    with pytest.raises(ValueError):
        obs.Observable(np.eye(3), 1, 1, "bad-dim")


def test_reference_states():
    ghz = ghz_state(3)
    assert abs(np.linalg.norm(ghz) - 1) < 1e-12
    assert abs(ghz[0] - ghz[-1]) < 1e-12
    w = w_state(3)
    assert abs(np.linalg.norm(w) - 1) < 1e-12
    assert abs(w[1] - w[2]) < 1e-12 and abs(w[2] - w[4]) < 1e-12


def structured_observables(n):
    """Every structured observable the module makes at n qubits per copy."""
    built = [obs.swap_operator(n), obs.bell_projector(n), obs.meyer_wallach_observable(n)]
    built += [obs.ntangle_observable(n), obs.concentratable_observable(range(n), n)]
    built += [obs.concentratable_observable([n - 1], n)]
    for j in range(n):
        built += [obs.swap_j(j, n), obs.impurity_observable(j, n)]
    for name in obs.ENTANGLEMENT_MEASURES:
        built.append(obs.entanglement_observable(name, n))
    return built


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_structured_values_match_dense_matrix(n):
    rng = np.random.default_rng(20 + n)
    d = 2**n
    rho = random_density_matrix(d, rng, rank=2)
    stack = np.array([random_density_matrix(d, rng, rank=2) for _ in range(5)])
    for observable in structured_observables(n):
        assert observable.kind in ("swap", "bell"), observable.tag
        got = observable.expectation(rho)
        assert isinstance(got, float)
        assert abs(got - expectation_copies(rho, 2, observable.matrix)) < 1e-12, observable.tag
        dense = expectation_copies(stack, 2, observable.matrix)
        np.testing.assert_allclose(observable.expectation(stack), dense, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_parallel_swap_test_levels_match_eigh(n):
    # oracle: Born probabilities of each eigenvalue of the dense operator
    rng = np.random.default_rng(30 + n)
    rho = random_density_matrix(2**n, rng, rank=2)
    sigma = kron(rho, rho)
    for observable in structured_observables(n):
        if observable.kind != "swap":
            continue
        levels, probs = observable.shot_distribution(rho)
        assert len(levels) == len(probs) == 2**n
        w, vecs = np.linalg.eigh(observable.matrix)
        born = np.real(np.sum(vecs.conj() * (sigma @ vecs), axis=0))
        for level in np.unique(np.round(w, 9)):
            mine = probs[np.abs(levels - level) < 1e-9].sum()
            theirs = born[np.abs(w - level) < 1e-9].sum()
            assert abs(mine - theirs) < 1e-12, (observable.tag, level)
        assert abs(levels @ probs - observable.expectation(rho)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 4])
def test_parallel_swap_test_stack_matches_single_states(n):
    rng = np.random.default_rng(40 + n)
    d = 2**n
    stack = np.array([random_density_matrix(d, rng) for _ in range(6)]
                     + [dm(random_statevector(d, rng)) for _ in range(3)])
    for observable in structured_observables(n):
        if observable.kind != "swap":
            continue
        levels, probs = observable.shot_distribution(stack)
        assert probs.shape == (len(stack), 2**n)
        for rho, row in zip(stack, probs):
            one_levels, one_probs = observable.shot_distribution(rho)
            assert np.array_equal(levels, one_levels), observable.tag
            np.testing.assert_allclose(row, one_probs, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [1, 3])
def test_walsh_matrix_is_built_once_and_read_only(n):
    # oracle: the Walsh-Hadamard entry (-1)^{popcount(z & a)}
    observable = obs.meyer_wallach_observable(n)
    z, a = np.divmod(np.arange(4**n), 2**n)
    signs = (-1.0) ** np.array([bin(v).count("1") for v in z & a]).reshape(2**n, 2**n)
    walsh = observable._walsh
    assert np.array_equal(walsh, signs)
    rho = random_density_matrix(2**n, np.random.default_rng(n))
    observable.shot_distribution(rho)
    assert observable._walsh is walsh
    with pytest.raises(ValueError, match="read-only"):
        walsh[0, 0] = 2.0


def test_structured_values_build_no_dense_matrix():
    # n = 6: the dense two-copy operator alone would take 256 MiB
    n = 6
    rng = np.random.default_rng(40)
    psi = random_statevector(2**n, rng)
    rho = dm(psi)
    for observable in structured_observables(n):
        observable.expectation(rho)
        if observable.kind == "swap":
            observable.shot_distribution(rho)
        assert "matrix" not in vars(observable), observable.tag
    assert abs(obs.swap_operator(n).expectation(rho) - 1.0) < 1e-12
    # oracle: <Phi|psi x psi> = psi^T psi / sqrt(d)
    bell = abs(psi @ psi) ** 2 / 2**n
    assert abs(obs.bell_projector(n).expectation(rho) - bell) < 1e-15


def random_hermitian(d, rng):
    """Hermitian, of trace other than 1 and not positive; entries O(1/d)."""
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / d


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_pauli_weight_purities_equal_partial_traces(n):
    # oracle: Tr[rho_a^2] of every mask a by its own partial trace
    rng = np.random.default_rng(50 + n)
    d = 2**n
    masks = range(2**n)
    subsets = [[j for j in range(n) if a >> (n - 1 - j) & 1] for a in masks]
    states = {
        "pure": dm(random_statevector(d, rng)),
        "mixed": random_density_matrix(d, rng),
        "unnormalised": random_hermitian(d, rng),
    }
    for kind, rho in states.items():
        got = obs.subset_purities(rho)
        assert got.shape == (2**n,)
        oracle = [obs.subset_purity(rho, a) for a in subsets]
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-12, err_msg=kind)
    stack = np.array([random_density_matrix(d, rng), dm(random_statevector(d, rng)),
                      random_hermitian(d, rng), random_density_matrix(d, rng, rank=1),
                      np.eye(d) / d])
    got = obs.subset_purities(stack)
    assert got.shape == (5, 2**n)
    oracle = np.array([obs.subset_purity(stack, a) for a in subsets]).T
    np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-12)
    for rho, row in zip(stack, got):
        np.testing.assert_allclose(obs.subset_purities(rho), row, rtol=0, atol=1e-12)


def _pauli_traces(stack, word):
    """Tr[rho p] per state of a stack for the Pauli string ``word``, dense."""
    return np.einsum("bij,ji->b", stack, kron_all([obs.PAULI[c] for c in word]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_weights_equal_explicit_traces(n):
    # oracle: Tr[rho p] of every string p by its Kronecker product, on
    # matrices that are not Hermitian, so both parts of each weight count
    rng = np.random.default_rng(60 + n)
    d = 2**n
    stack = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
    for letters in ("IXYZ", "XYZ"):
        rows = obs._PAULI_WEIGHTS[["IXYZ".index(c) for c in letters]]
        got = obs._pauli_weights(stack, rows)
        assert got.shape == (len(letters) ** n, 3, 2)
        for weight, word in zip(got, product(letters, repeat=n)):
            want = _pauli_traces(stack, word) / 1j ** word.count("Y")
            np.testing.assert_allclose(weight[:, 0] + 1j * weight[:, 1], want,
                                       rtol=0, atol=1e-12, err_msg="".join(word))


def _explicit_xyz_sums(states, n):
    """S_k per state vector: Re <s|p|s> summed over the strings p of
    {X, Y, Z}^n with counts k, each by its Kronecker product."""
    counts = obs.xyz_counts(n)
    column = {tuple(k): i for i, k in enumerate(counts.tolist())}
    rhos = np.array([dm(s) for s in states])
    want = np.zeros((len(states), len(counts)))
    for word in product("XYZ", repeat=n):
        want[:, column[tuple(word.count(c) for c in "XYZ")]] += np.real(
            _pauli_traces(rhos, word))
    return want


@pytest.mark.parametrize("n", [1, 2, 3])
def test_xyz_moments_equal_explicit_sums(n):
    # oracle: S_k sums Re <s|p|s> over the strings of {X, Y, Z}^n with counts k
    rng = np.random.default_rng(70 + n)
    d = 2**n
    # Haar states, a basis state and a vector of norm other than one
    stack = np.array([random_statevector(d, rng), random_statevector(d, rng), np.eye(d)[-1],
                      rng.standard_normal(d) + 1j * rng.standard_normal(d)])
    counts = obs.xyz_counts(n)
    assert len(counts) == (n + 1) * (n + 2) // 2
    assert (counts.sum(axis=1) == n).all()
    assert len({tuple(k) for k in counts}) == len(counts)
    got = obs.xyz_moments(stack)
    np.testing.assert_allclose(got, _explicit_xyz_sums(stack, n), rtol=0, atol=1e-12)
    for psi, row in zip(stack, got):
        np.testing.assert_allclose(obs.xyz_moments(psi), row, rtol=0, atol=1e-12)


def test_xyz_moments_of_a_stack_in_blocks_equal_single_states():
    # at n = 6 a block holds 64 states, so 70 states take two blocks; the
    # explicit sums hold across the boundary
    rng = np.random.default_rng(77)
    stack = np.array([random_statevector(2**6, rng) for _ in range(70)])
    got = obs.xyz_moments(stack)
    assert got.shape == (70, 28)
    np.testing.assert_allclose(got, _explicit_xyz_sums(stack, 6), rtol=0, atol=1e-12)
    for psi, row in zip(stack, got):
        np.testing.assert_allclose(obs.xyz_moments(psi), row, rtol=0, atol=1e-12)


def test_swap_polynomial_values_and_shots_take_no_partial_trace(monkeypatch):
    calls = []
    partial_trace = tensor.partial_trace
    monkeypatch.setattr(obs, "partial_trace", lambda *a: calls.append(a) or partial_trace(*a))
    monkeypatch.setattr(tensor, "partial_trace", lambda *a: calls.append(a) or partial_trace(*a))
    rng = np.random.default_rng(60)
    n = 4
    rho = random_density_matrix(2**n, rng)
    stack = np.array([random_density_matrix(2**n, rng) for _ in range(3)])
    for observable in structured_observables(n):
        if observable.kind != "swap":
            continue
        observable.expectation(rho)
        observable.expectation(stack)
        observable.shot_distribution(rho)
    assert calls == []
    # the oracles still take partial traces: the counter sees them
    obs.ntangle_oracle(rho)
    assert len(calls) == 2**n


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_oracles_equal_per_state_oracles(n):
    rng = np.random.default_rng(70 + n)
    stack = np.array([random_density_matrix(2**n, rng, rank=r) for r in (1, 2, 2**n)])
    for measure, oracle in obs.ENTANGLEMENT_MEASURES.items():
        stacked = oracle(stack)
        assert stacked.shape == (len(stack),), measure
        single = [oracle(rho) for rho in stack]
        np.testing.assert_allclose(stacked, single, rtol=0, atol=1e-14, err_msg=measure)
        assert all(isinstance(v, float) for v in single), measure


def _pure_value_cases(n, rng):
    """(name, observable) of every kind that pure_values dispatches on."""
    d = 2**n
    u = haar_unitary(d, rng)
    cases = [("pauli_odd_y", obs.pauli_string("Y" + "I" * (n - 1))),
             ("dense_k1", obs.Observable(random_hermitian(d, rng), 1, n, "k1")),
             ("dressed", dressed(obs.pauli_string("YX" + "Z" * (n - 2)), u)),
             ("dense_k2", obs.Observable(random_hermitian(d * d, rng), 2, n, "k2")),
             ("bell", obs.bell_projector(n))]
    return cases + [(o.tag, o) for o in structured_observables(n) if o.kind == "swap"]


@pytest.mark.parametrize("n", [2, 3])
def test_pure_values_equal_the_density_matrix_route(n):
    # oracle: expectation on |s><s|, one state at a time
    rng = np.random.default_rng(80 + n)
    states = np.array([random_statevector(2**n, rng) for _ in range(7)])
    for name, observable in _pure_value_cases(n, rng):
        got = observable.pure_values(states)
        assert got.shape == (7,), name
        oracle = [observable.expectation(dm(s)) for s in states]
        np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-12, err_msg=name)


def test_pure_values_of_the_bell_projector_build_no_matrix():
    n = 6
    states = np.array([random_statevector(2**n, np.random.default_rng(90)) for _ in range(3)])
    bell = obs.bell_projector(n)
    np.testing.assert_allclose(bell.pure_values(states), [abs(s @ s) ** 2 / 2**n for s in states],
                               rtol=0, atol=1e-15)
    assert "matrix" not in vars(bell)


@pytest.mark.parametrize("shape", [(4,), (2, 8), (2, 4, 4)])
def test_pure_values_refuse_anything_but_a_stack_of_states(shape):
    for observable in (obs.pauli_string("XY"), obs.bell_projector(2), obs.swap_operator(2)):
        with pytest.raises(ValueError, match="not \\(B, 2\\^2\\)"):
            observable.pure_values(np.ones(shape, dtype=complex))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_one_qubit_purities_equal_the_pauli_weight_transform(n):
    rng = np.random.default_rng(100 + n)
    d = 2**n
    stack = np.array([dm(random_statevector(d, rng)), random_density_matrix(d, rng),
                      random_hermitian(d, rng), np.eye(d) / d])
    masks = np.array([0] + [1 << (n - 1 - j) for j in range(n)])
    full = obs.subset_purities(stack)
    one_qubit = obs._one_qubit_purities(masks, d)(stack)
    np.testing.assert_allclose(one_qubit, full[:, masks], rtol=0, atol=1e-12)
    for observable in structured_observables(n):
        if observable.kind != "swap":
            continue
        nonzero = np.flatnonzero(observable.coeffs)
        np.testing.assert_allclose(observable.expectation(stack),
                                   full[:, nonzero] @ observable.coeffs[nonzero],
                                   rtol=0, atol=1e-12, err_msg=observable.tag)


def test_one_qubit_polynomials_skip_the_transform(monkeypatch):
    calls = []
    transform = obs.subset_purities
    monkeypatch.setattr(obs, "subset_purities", lambda rho: calls.append(1) or transform(rho))
    n = 4
    rho = random_density_matrix(2**n, np.random.default_rng(110))
    one_qubit = [obs.impurity_observable(1, n), obs.meyer_wallach_observable(n), obs.swap_j(3, n),
                 obs.entanglement_observable("impurity", n), obs.swap_operator(n)]
    for observable in one_qubit:
        observable.expectation(rho)
    assert calls == []
    # a polynomial with a two-qubit term, and shots, take the transform
    obs.ntangle_observable(n).expectation(rho)
    obs.meyer_wallach_observable(n).shot_distribution(rho)
    assert len(calls) == 2
