from itertools import permutations
from math import prod

import numpy as np
import pytest

from ginv import groups
from ginv.groups import (
    LocalUnitarySampler,
    OrthogonalSampler,
    SymmetricSampler,
    UnitarySampler,
    adjacent_transposition_generators,
    brauer_basis_k2,
    check_equivariance,
    check_invariance,
    commutant_analysis,
    haar_orthogonal,
    haar_unitary,
    permutation_operator,
)
from ginv.observables import PAULI, bell_projector, swap_operator
from ginv.tensor import bell_state, dm, random_density_matrix, zero_state


def test_haar_unitary_d1_phase():
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = haar_unitary(1, rng)
        assert abs(abs(v[0, 0]) - 1) < 1e-12


def test_haar_unitary_unitarity():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        v = haar_unitary(2, rng)
        assert np.linalg.norm(v @ v.conj().T - np.eye(2)) < 1e-9


def test_haar_unitary_first_moment_z():
    # oracle: first Weingarten moment gives Tr[Z]/d = 0
    rng = np.random.default_rng(2)
    n_samples = 20000
    vals = np.empty(n_samples)
    for i in range(n_samples):
        v = haar_unitary(2, rng)
        vals[i] = np.real(v[:, 0].conj() @ PAULI["Z"] @ v[:, 0])
    assert abs(vals.mean()) < 3 / np.sqrt(n_samples)


def test_haar_unitary_first_moment_entry():
    # oracle: E|V_00|^2 = 1/d from the delta/d first-moment formula
    rng = np.random.default_rng(3)
    n_samples = 20000
    vals = np.empty(n_samples)
    for i in range(n_samples):
        vals[i] = abs(haar_unitary(4, rng)[0, 0]) ** 2
    assert abs(vals.mean() - 0.25) < 3 / np.sqrt(n_samples)


def test_haar_left_invariance():
    rng = np.random.default_rng(4)
    f = haar_unitary(4, rng)
    n_samples = 10000
    plain = np.empty(n_samples)
    shifted = np.empty(n_samples)
    for i in range(n_samples):
        v = haar_unitary(4, rng)
        plain[i] = v[0, 1].real
        shifted[i] = (f @ haar_unitary(4, rng))[0, 1].real
    stderr = np.sqrt(plain.var() / n_samples + shifted.var() / n_samples)
    assert abs(plain.mean() - shifted.mean()) < 4 * stderr


def test_haar_orthogonal_d1():
    rng = np.random.default_rng(5)
    draws = {haar_orthogonal(1, rng)[0, 0].real for _ in range(50)}
    assert draws <= {1.0, -1.0}


def test_haar_orthogonal_defining_property():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        v = haar_orthogonal(2, rng)
        assert np.abs(v.imag).max() < 1e-12
        assert np.linalg.norm(v @ v.T - np.eye(2)) < 1e-9


def test_haar_orthogonal_det_split():
    # Haar on O(2) weights the two connected components equally
    rng = np.random.default_rng(7)
    n_samples = 10000
    dets = np.array([np.linalg.det(haar_orthogonal(2, rng)).real for _ in range(n_samples)])
    assert abs((dets > 0).mean() - 0.5) < 0.02


def test_sampler_seed_determinism():
    for cls, arg in (
        (UnitarySampler, 4),
        (OrthogonalSampler, 4),
        (LocalUnitarySampler, 2),
        (SymmetricSampler, 3),
    ):
        a = cls(arg, seed=99).take(5)
        b = cls(arg, seed=99).take(5)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


def test_block_count_fills_64_kib():
    assert [groups.block_count(d) for d in (1, 2, 8, 32, 64, 128)] == [256, 256, 64, 4, 1, 1]


@pytest.mark.parametrize("d", [2, 8, 32])
@pytest.mark.parametrize(
    "sampler,draw",
    [(UnitarySampler, haar_unitary), (OrthogonalSampler, haar_orthogonal)],
)
def test_block_sampler_equals_single_draws(sampler, draw, d):
    # two full blocks and part of a third
    m = 2 * groups.block_count(d) + 3
    rng = np.random.default_rng(21)
    singles = [draw(d, rng) for _ in range(m)]
    taken = sampler(d, 21).take(m)
    rng = np.random.default_rng(21)
    per_draw = [_per_draw_reference(draw, d, rng) for _ in range(m)]
    assert len(taken) == m
    for x, y, z in zip(taken, singles, per_draw):
        assert np.array_equal(x, y)
        assert np.array_equal(y, z)


def _per_draw_reference(draw, d, rng):
    """One Haar draw from separate (d, d) normal calls, the unstacked form."""
    if draw is haar_unitary:
        z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    s = np.sign(np.diag(r))
    s[s == 0] = 1.0
    return (q * s).astype(complex)


def test_local_unitary_sampler_structure():
    s = LocalUnitarySampler(3, seed=0)
    v = s.sample()
    assert v.shape == (8, 8)
    assert np.linalg.norm(v @ v.conj().T - np.eye(8)) < 1e-9


def test_permutation_operator_identity():
    p = permutation_operator((0, 1, 2), target="qubits")
    np.testing.assert_array_equal(p, np.eye(8))


def test_permutation_operator_swap_copies():
    p = permutation_operator((1, 0), target="copies", qubits_per_copy=1)
    psi01 = np.kron([1, 0], [0, 1]).astype(complex)
    psi10 = np.kron([0, 1], [1, 0]).astype(complex)
    np.testing.assert_allclose(p @ psi01, psi10)


def test_permutation_operator_three_cycle_power():
    # oracle: a 3-cycle cubes to the identity
    p = permutation_operator((1, 2, 0), target="copies", qubits_per_copy=1)
    cubed = p @ p @ p
    np.testing.assert_array_equal(cubed, np.eye(8))
    assert not np.array_equal(p, np.eye(8))


def test_permutation_operator_orthogonality_exact():
    p = permutation_operator((2, 0, 1, 3), target="qubits")
    np.testing.assert_array_equal(p.T @ p, np.eye(16))


def test_permutation_operator_composition():
    pa = permutation_operator((1, 0, 2), target="qubits")
    pb = permutation_operator((0, 2, 1), target="qubits")
    # composed permutation: apply (1,0,2) then (0,2,1)
    composed = [0] * 3
    first, second = (1, 0, 2), (0, 2, 1)
    for i in range(3):
        composed[i] = second[first[i]]
    pc = permutation_operator(composed, target="qubits")
    np.testing.assert_array_equal(pb @ pa, pc)


def test_permutation_operator_invalid():
    with pytest.raises(ValueError):
        permutation_operator((0, 0, 1), target="qubits")


def test_permutation_tensor_relabeling():
    rng = np.random.default_rng(8)
    states = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
    perm = (2, 0, 1)
    p = permutation_operator(perm, target="copies", qubits_per_copy=1)
    inverse = [perm.index(i) for i in range(3)]
    lhs = p @ np.kron(np.kron(states[0], states[1]), states[2])
    reordered = [states[inverse[i]] for i in range(3)]
    rhs = np.kron(np.kron(reordered[0], reordered[1]), reordered[2])
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_brauer_elements_commute_with_orthogonal():
    rng = np.random.default_rng(9)
    for n in (1, 2):
        basis = brauer_basis_k2(n)
        for _ in range(50):
            v = haar_orthogonal(2**n, rng)
            vv = np.kron(v, v)
            for element in basis:
                assert np.linalg.norm(element @ vv - vv @ element) < 1e-9


def test_bell_projector_not_unitary_symmetric():
    rng = np.random.default_rng(10)
    bell = brauer_basis_k2(1)[2]
    v = haar_unitary(2, rng)
    vv = np.kron(v, v)
    assert np.linalg.norm(bell @ vv - vv @ bell) > 1e-3


def test_ricochet_property():
    rng = np.random.default_rng(11)
    for n in (1, 2):
        phi = bell_state(n)
        d = 2**n
        eye = np.eye(d)
        for _ in range(20):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            lhs = np.kron(a, eye) @ phi
            rhs = np.kron(eye, a.T) @ phi
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def _swap_model(n):
    obs = swap_operator(n).matrix

    def h(rho):
        from ginv.tensor import expectation_copies

        return expectation_copies(rho, 2, obs)

    return h


def _bell_model(n):
    obs = bell_projector(n).matrix

    def h(rho):
        from ginv.tensor import expectation_copies

        return expectation_copies(rho, 2, obs)

    return h


def test_check_invariance_swap_under_unitary():
    rng = np.random.default_rng(12)
    rho = random_density_matrix(4, rng)
    report = check_invariance(_swap_model(2), UnitarySampler(4, 1), rho, trials=50)
    assert report.passed and report.max_deviation < 1e-9


def test_check_invariance_bell_under_orthogonal():
    rng = np.random.default_rng(13)
    rho = random_density_matrix(2, rng)
    report = check_invariance(_bell_model(1), OrthogonalSampler(2, 2), rho, trials=50)
    assert report.passed and report.max_deviation < 1e-9


def test_check_invariance_bell_unitary_witness():
    rng = np.random.default_rng(14)
    rho = random_density_matrix(2, rng)
    report = check_invariance(_bell_model(1), UnitarySampler(2, 3), rho, trials=50)
    assert not report.passed
    assert report.max_deviation > 1e-3


def test_check_invariance_dimension_mismatch():
    with pytest.raises(ValueError):
        check_invariance(_swap_model(1), UnitarySampler(4, 0), np.eye(2) / 2)


def test_check_equivariance_swap():
    swap = permutation_operator((1, 0), target="copies", qubits_per_copy=1)
    report = check_equivariance(swap, UnitarySampler(2, 4), k=2, trials=50)
    assert report.passed


def test_check_equivariance_qgcnn_cycle():
    # oracle: cyclic relabelings are automorphisms of C4, so the layer
    # unitary must commute with the corresponding qubit permutations
    from ginv.datasets import Graph
    from ginv.models import QGCNNAnsatz

    c4 = Graph(4, {(0, 1), (1, 2), (2, 3), (0, 3)})
    ansatz = QGCNNAnsatz(c4, p_layers=1, q_generators=1)
    u = ansatz.realize(np.array([0.7, 0.9, 0.4]))
    for shift in range(4):
        perm = tuple((i + shift) % 4 for i in range(4))
        p = permutation_operator(perm, target="qubits")
        assert np.linalg.norm(u @ p - p @ u) < 1e-9


def test_check_equivariance_generic_failure():
    rng = np.random.default_rng(15)
    u = haar_unitary(4, rng)
    report = check_equivariance(u, UnitarySampler(2, 5), k=2, trials=50)
    assert report.max_deviation > 1e-3


def test_commutant_dimensions_lie_groups():
    assert commutant_analysis(UnitarySampler(4, 6), 2).dimension == 2
    assert commutant_analysis(OrthogonalSampler(4, 7), 2).dimension == 3
    assert commutant_analysis(LocalUnitarySampler(2, 8), 2).dimension == 4


def test_commutant_dimension_symmetric_tetrahedral():
    # oracle: tetrahedral numbers binomial(n+3, 3)
    from math import comb

    for n in (1, 2, 3):
        dim = commutant_analysis(SymmetricSampler(n, 9), 1).dimension
        assert dim == comb(n + 3, 3)


def test_commutant_dimension_u2_k3():
    # Schur-Weyl with local dimension 2 < k = 3: the six permutation
    # operators are linearly dependent, leaving 1^2 + 2^2 = 5 dimensions.
    assert commutant_analysis(UnitarySampler(2, 10), 3).dimension == 5


def test_commutant_schur_lemma():
    for d, seed in ((2, 11), (4, 12), (8, 13)):
        assert commutant_analysis(UnitarySampler(d, seed), 1).dimension == 1


def test_commutant_monotone_in_elements():
    rng = np.random.default_rng(16)
    elements = [haar_unitary(4, rng) for _ in range(20)]
    dims = [commutant_analysis(elements[:m], 2).dimension for m in (1, 3, 20)]
    assert dims[0] >= dims[1] >= dims[2]
    assert dims[2] == 2


def test_commutant_gap_ratio():
    report = commutant_analysis(UnitarySampler(4, 17), 2)
    assert report.gap_ratio > 1e3
    assert not report.ambiguous


def test_commutant_too_large():
    with pytest.raises(ValueError):
        commutant_analysis(UnitarySampler(16, 0), 2)


def _longest_decreasing(perm):
    best = []
    for i, p in enumerate(perm):
        best.append(1 + max((best[j] for j in range(i) if perm[j] > p), default=0))
    return max(best)


def _schur_weyl_count(d, k):
    # by RSK, the permutations of k letters whose longest decreasing run has
    # at most d letters number sum (f^lambda)^2 over lambda |- k, <= d rows
    return sum(_longest_decreasing(p) <= d for p in permutations(range(k)))


def _brauer_count(d, k):
    # (2k - 1)!! Brauer diagrams, linearly independent for d >= k
    assert d >= k
    return prod(range(1, 2 * k, 2))


@pytest.mark.parametrize(
    "sampler,k,oracle",
    [
        (UnitarySampler(2, 31), 5, lambda: _schur_weyl_count(2, 5)),
        (UnitarySampler(4, 32), 3, lambda: _schur_weyl_count(4, 3)),
        (OrthogonalSampler(4, 33), 3, lambda: _brauer_count(4, 3)),
        (LocalUnitarySampler(2, 34), 3, lambda: _schur_weyl_count(2, 3) ** 2),
        (LocalUnitarySampler(3, 35), 2, lambda: _schur_weyl_count(2, 2) ** 3),
    ],
    ids=["U(2) k=5", "U(4) k=3", "O(4) k=3", "LU(2) k=3", "LU(3) k=2"],
)
def test_commutant_dimension_up_to_the_cap(sampler, k, oracle):
    if sampler.kind == "orthogonal":
        # SO(4)^(x 3) has more invariants (the Levi-Civita tensor): the
        # draws must leave SO(4) for the Brauer count to hold
        dets = np.linalg.det(OrthogonalSampler(4, sampler.seed).take(3))
        assert (dets < 0).any()
    report = commutant_analysis(sampler, k, n_samples=3)
    assert report.dimension == oracle()
    assert report.gap_ratio > 1e3 and not report.ambiguous
    assert report.dimension <= report.start_dimension < (sampler.dim**k) ** 2


def _dense_nullity(elements, k):
    """dim of the nullspace of the stacked rows vec(W) -> vec(A W - W A)."""
    eye = np.eye(elements[0].shape[0] ** k)
    rows = []
    for v in elements:
        a = v
        for _ in range(k - 1):
            a = np.kron(a, v)
        rows.append(np.kron(a, eye) - np.kron(eye, a.T))
    s = np.linalg.svd(np.vstack(rows), compute_uv=False)
    # relative to the spectrum, but never below rounding of a zero constraint
    return int((s <= 1e-8 * max(s[0], 1.0)).sum())


def _first_elements(d, rng):
    """First elements that stress the start frame, by name."""
    q = haar_unitary(d, rng)
    # x + sqrt(2) y is 0 on both eigenvalues, so eigh of it finds no frame
    blind = q @ np.diag([0, np.sqrt(2) - 1j] * (d // 2)) @ q.conj().T
    return {
        "identity": np.eye(d, dtype=complex),
        "permutation": np.roll(np.eye(d, dtype=complex), 1, axis=0),
        # equal eigenvalue products that are no equal multisets: 1j * -1j = 1 * 1
        "degenerate diagonal": np.diag([1, -1j, 1j, 1][:d]).astype(complex),
        "no frame": blind,
    }


@pytest.mark.parametrize(
    "first", ["identity", "permutation", "degenerate diagonal", "no frame"]
)
def test_commutant_matches_dense_nullity(first):
    rng = np.random.default_rng(36)
    for d, k in ((2, 1), (2, 2), (2, 3), (2, 4), (4, 1), (4, 2)):
        head = _first_elements(d, rng)[first]
        torus = [np.diag(np.exp(2j * np.pi * rng.random(d))) for _ in range(2)]
        # two copies of one representation in a random frame: a commutant
        # that is not closed under complex conjugation
        q = haar_unitary(d, rng)
        doubled = [q @ np.kron(np.eye(2), haar_unitary(d // 2, rng)) @ q.conj().T
                   for _ in range(2)]
        for rest in ([], [haar_unitary(d, rng)], torus, doubled):
            elements = [head] + rest
            if first == "no frame" and not rest:
                with pytest.raises(ValueError, match="diagonalised"):
                    commutant_analysis(elements, k)
                continue
            report = commutant_analysis(elements, k)
            assert report.dimension == _dense_nullity(elements, k), (d, k, len(rest))
            assert not report.ambiguous


def test_block_labels_merge_chains_of_close_products():
    # 0.6e-8 apart pairwise, so 1 and 1 + 1.2e-8 share a block through the middle
    products = np.array([1.0, 1.0 + 0.6e-8, 1.0 + 1.2e-8, 2.0, 2.0])
    assert groups._block_labels(products).tolist() == [0, 0, 0, 3, 3]


def test_start_element_restricts_its_own_merged_block():
    # eigenvalues 0.6e-8 apart share one block of 3, but the outer pair is
    # 1.2e-8 apart, over the cutoff: the start element's own step drops it
    v = np.diag(np.exp(1j * np.array([0.0, 0.6e-8, 1.2e-8])))
    with pytest.warns(RuntimeWarning, match="straddle"):
        report = commutant_analysis([v], 1)
    assert (report.start_dimension, report.dimension) == (9, 7)


def test_commutant_flags_a_step_that_straddles_the_cutoff():
    # the second element couples the two eigenvectors of the first by 3e-8,
    # so its step has a singular value within 10 cutoffs of the null ones
    eps = 3e-8
    tilt = np.array([[np.cos(eps), -np.sin(eps)], [np.sin(eps), np.cos(eps)]])
    elements = [np.diag([1.0, -1.0]).astype(complex), tilt.astype(complex)]
    with pytest.warns(RuntimeWarning, match="straddle"):
        report = commutant_analysis(elements, 1)
    assert report.ambiguous and report.dimension == 1
    assert not commutant_analysis(elements[:1], 1).ambiguous


def test_commutant_refuses_non_normal_element():
    shear = np.array([[1.0, 1.0], [0.0, 1.0]])
    for elements in ([shear], [np.eye(2), shear]):
        with pytest.raises(ValueError, match="not normal"):
            commutant_analysis(elements, 2)


def test_adjacent_transpositions_generate():
    gens = adjacent_transposition_generators(3)
    assert len(gens) == 2
    for g in gens:
        np.testing.assert_array_equal(g @ g, np.eye(8))


def test_symmetric_sampler_elements_are_permutations():
    s = SymmetricSampler(3, seed=21)
    for _ in range(10):
        p = s.sample()
        assert np.array_equal(p @ p.T, np.eye(8))
        assert set(np.unique(p.real)) <= {0.0, 1.0}
