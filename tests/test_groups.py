import gc
import re
import weakref
from itertools import permutations
from math import comb, prod

import numpy as np
import pytest

from ginv import groups
from ginv.groups import (
    LocalUnitarySampler,
    OrthogonalSampler,
    SymmetricSampler,
    UnitarySampler,
    commutant_analysis,
    haar_orthogonal,
    haar_unitary,
    permutation_index,
    permutation_operator,
)
from ginv.observables import PAULI, bell_projector, swap_operator
from ginv.tensor import bell_state, is_unitary, kron_all, random_statevector, zero_state
from helpers import (
    adjacent_transposition_generators,
    check_equivariance,
    check_invariance,
    commutant_every_step,
    qgcnn_unitary,
    random_density_matrix,
    schur_weyl_commutant_dimension,
)


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


def test_haar_u2_second_column_and_phase_have_the_haar_moments():
    # U(2) is drawn in closed form, its second column and phase included. For
    # V Haar, and so for V W with W fixed (right invariance): |X_01|^2 is
    # uniform on [0, 1], so E = 1/2 and E|X_01|^4 = 1/3; each entry's phase is
    # uniform, so E X_ij^2 = 0; det X is uniform on the unit circle, so
    # E det X = 0. Each mean is held within 4 standard errors.
    rng = np.random.default_rng(24)
    count = 200_000
    w = haar_unitary(2, np.random.default_rng(25))
    for x in (haar_unitary(2, rng, count), haar_unitary(2, rng, count) @ w):
        assert np.abs(x @ x.conj().swapaxes(1, 2) - np.eye(2)).max() < 1e-14
        t = np.abs(x[:, 0, 1]) ** 2
        det = x[:, 0, 0] * x[:, 1, 1] - x[:, 0, 1] * x[:, 1, 0]
        assert np.abs(np.abs(det) - 1).max() < 1e-14
        cases = [(t, 1 / 2), (t**2, 1 / 3), (det.real, 0), (det.imag, 0)]
        cases += [(part, 0) for sq in (x.reshape(count, 4) ** 2).T for part in (sq.real, sq.imag)]
        for values, mean in cases:
            assert abs(values.mean() - mean) < 4 * values.std() / np.sqrt(count)


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


SAMPLERS = [(UnitarySampler, 4), (OrthogonalSampler, 4), (LocalUnitarySampler, 2),
            (SymmetricSampler, 3)]


def test_sampler_seed_determinism():
    for cls, arg in SAMPLERS:
        sampler = cls(arg, seed=99)
        a = sampler.draw(5)
        assert a.shape == (5, sampler.dim, sampler.dim)
        assert np.array_equal(a, cls(arg, seed=99).draw(5))


@pytest.mark.parametrize("cls,arg", SAMPLERS)
def test_draw_of_no_elements_is_an_empty_stack(cls, arg):
    sampler = cls(arg, seed=99)
    empty = sampler.draw(0)
    assert empty.shape == (0, sampler.dim, sampler.dim)
    # nothing was taken from the stream
    assert np.array_equal(sampler.draw(2), cls(arg, seed=99).draw(2))


def test_block_count_fills_64_kib():
    assert [groups.block_count(d) for d in (1, 2, 8, 32, 64, 128)] == [256, 256, 64, 4, 1, 1]
    # a state takes 16 d bytes
    states = [groups.block_count(d, rank=1) for d in (1, 2, 16, 32, 64, 128, 4096, 8192)]
    assert states == [256, 256, 256, 128, 64, 32, 1, 1]


def local_unitary(d, rng):
    """One product of log2 d single 2 x 2 Haar draws."""
    return kron_all([haar_unitary(2, rng) for _ in range(int(np.log2(d)))])


def qubit_permutation(d, rng):
    """One single rng.permutation draw of log2 d qubits, as a matrix."""
    return permutation_operator(rng.permutation(int(np.log2(d))))


@pytest.mark.parametrize("d", [2, 8, 32])
@pytest.mark.parametrize(
    "sampler,draw",
    [(UnitarySampler, haar_unitary), (OrthogonalSampler, haar_orthogonal),
     (LocalUnitarySampler, local_unitary), (SymmetricSampler, qubit_permutation)],
)
def test_block_sampler_equals_single_draws(sampler, draw, d):
    # two full blocks and part of a third
    m = 2 * groups.block_count(d) + 3
    arg = d if sampler in (UnitarySampler, OrthogonalSampler) else int(np.log2(d))
    rng = np.random.default_rng(21)
    singles = [draw(d, rng) for _ in range(m)]
    drawn = sampler(arg, 21).draw(m)
    s = sampler(arg, 21)
    sampled = [s.sample() for _ in range(m)]
    assert drawn.shape == (m, d, d) and len(sampled) == m
    for w, x, y in zip(sampled, drawn, singles):
        assert np.array_equal(w, y)
        assert np.array_equal(x, y)
    if draw in (haar_unitary, haar_orthogonal):
        # the per-draw LAPACK QR is the oracle. U(2) is written out, and reads
        # 9.8e-15 from it here (2.8e-13 at worst over 2M draws: the gap grows
        # with the draw's condition number); every other draw is exact
        tol = 1e-13 if draw is haar_unitary and d == 2 else 0.0
        rng = np.random.default_rng(21)
        for y in singles:
            assert np.abs(y - _per_draw_reference(draw, d, rng)).max() <= tol


@pytest.mark.parametrize("d", [2, 8, 64])
def test_unitary_sampler_states_equal_single_draws(d):
    # two full blocks and part of a third, each state within rounding of a
    # single random_statevector draw from the same stream
    m = 2 * groups.block_count(d, rank=1) + 3
    sampler = UnitarySampler(d, 22)
    psi = zero_state(int(np.log2(d)))
    taken = [sampler.sample(psi) for _ in range(m)]
    rng = np.random.default_rng(22)
    singles = [random_statevector(d, rng) for _ in range(m)]
    for x, y in zip(taken, singles):
        assert x.shape == (d,)
        np.testing.assert_allclose(x, y, rtol=0, atol=1e-15)


def test_unitary_sampler_interleaves_elements_and_states():
    # elements and states come from separate blocks of the same stream, each
    # sized by its own element: 256 of both at d = 4, 64 and 256 at d = 8
    for d in (4, 8):
        sampler = UnitarySampler(d, 23)
        psi = zero_state(int(np.log2(d)))
        u1, s1 = sampler.sample(), sampler.sample(psi)
        u2, s2 = sampler.sample(), sampler.sample(psi)
        rng = np.random.default_rng(23)
        units = haar_unitary(d, rng, count=groups.block_count(d))
        states = random_statevector(d, rng, count=groups.block_count(d, rank=1))
        assert u1.shape == u2.shape == (d, d) and s1.shape == s2.shape == (d,)
        assert np.array_equal(u1, units[0]) and np.array_equal(u2, units[1])
        assert np.array_equal(s1, states[0]) and np.array_equal(s2, states[1])
        assert is_unitary(u1) and abs(np.linalg.norm(s1) - 1.0) < 1e-14
        # the next block of elements takes the normals after the whole
        # state block, so it is where it is only if that block has the
        # state count
        later = [sampler.sample() for _ in range(len(units) - 1)]
        assert np.array_equal(later[-2], units[-1])
        assert np.array_equal(later[-1], haar_unitary(d, rng, count=len(units))[0])
    # at d = 2 both streams run past a full block of 256, alternating, with a
    # draw between them: the blocks and the draw take the stream in the order
    # they are filled, elements, states, draw, elements, states
    sampler, psi, pairs = UnitarySampler(2, 24), zero_state(1), 300
    units, states = [], []
    for i in range(pairs):
        units.append(sampler.sample())
        states.append(sampler.sample(psi))
        if i == 10:
            drawn = sampler.draw(5)
    rng = np.random.default_rng(24)
    u1, s1 = haar_unitary(2, rng, count=256), random_statevector(2, rng, count=256)
    taken = haar_unitary(2, rng, count=5)
    u2, s2 = haar_unitary(2, rng, count=256), random_statevector(2, rng, count=256)
    assert np.array_equal(drawn, taken)
    assert np.array_equal(np.array(units), np.concatenate([u1, u2])[:pairs])
    assert np.array_equal(np.array(states), np.concatenate([s1, s2])[:pairs])


def test_a_dropped_sampler_is_freed_without_the_cyclic_collector():
    # the handout generators hold their draw weakly, so no cycle runs through
    # a sampler: it and its blocks go when the last reference does
    gc.disable()
    try:
        for cls, arg in SAMPLERS:
            sampler = cls(arg, seed=5)
            first = sampler.sample()
            if cls is UnitarySampler:
                sampler.sample(zero_state(2))
            ref = weakref.ref(sampler)
            del sampler
            assert ref() is None, cls.__name__
            assert np.array_equal(first, cls(arg, seed=5).draw(1)[0])
    finally:
        gc.enable()


@pytest.mark.parametrize("psi", [np.ones(3) / np.sqrt(3), np.ones(8) / np.sqrt(8), np.eye(4),
                                 np.full((4, 1), 0.5), [0.5] * 3, 1.0, np.float64(1.0)])
def test_unitary_sampler_refuses_a_state_of_the_wrong_dimension(psi):
    # the message names the refused shape, an array's or np.shape's of the rest
    message = f"psi must be a vector of dimension 4, got shape {np.shape(psi)}"
    with pytest.raises(ValueError, match=re.escape(message)):
        UnitarySampler(4, 0).sample(psi)


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


@pytest.mark.parametrize("psi", [[0.5, 0.5, 0.5, 0.5], np.full(4, 0.5)])
def test_unitary_sampler_takes_a_list_or_an_array_of_dimension_d(psi):
    # a list's shape comes from np.shape, an array's from its own attribute:
    # both draw the first state of the stream
    first = random_statevector(4, np.random.default_rng(0), count=groups.block_count(4, 1))[0]
    assert np.array_equal(UnitarySampler(4, 0).sample(psi), first)


@pytest.mark.parametrize("n", [1, 3])
def test_local_unitary_factors_are_one_stack_of_single_draws(n):
    # the n factors of each draw are one haar_unitary stack: the same
    # normals, in the same order, and the same bits as n single draws
    sampler, rng = LocalUnitarySampler(n, 24), np.random.default_rng(24)
    for _ in range(3):
        singles = [haar_unitary(2, rng) for _ in range(n)]
        assert np.array_equal(sampler.sample(), kron_all(singles))


def test_local_unitary_sampler_structure():
    s = LocalUnitarySampler(3, seed=0)
    v = s.sample()
    assert v.shape == (8, 8)
    assert np.linalg.norm(v @ v.conj().T - np.eye(8)) < 1e-9


def _per_digit_index(perm, q):
    """Index map of a factor permutation, written out digit by digit."""
    m = len(perm)
    shifts = [q ** (m - 1 - t) for t in range(m)]
    index = []
    for a in range(q**m):
        digits = [(a // shifts[t]) % q for t in range(m)]
        index.append(sum(digits[t] * shifts[perm[t]] for t in range(m)))
    return index


def _register_permutation(perm, q):
    """The qubit permutation that moves register i of q qubits to slot perm[i]."""
    return [perm[i // q] * q + i % q for i in range(len(perm) * q)]


def test_permutation_index_equals_per_digit_loop():
    for n in range(1, 6):
        for perm in permutations(range(n)):
            assert permutation_index(perm).tolist() == _per_digit_index(perm, 2)
    for q, m in ((1, 5), (2, 4)):
        for perm in permutations(range(m)):
            got = permutation_index(_register_permutation(perm, q))
            assert got.tolist() == _per_digit_index(perm, 2**q)


def test_permutation_index_of_a_stack():
    perms = list(permutations(range(4)))
    stacked = permutation_index(perms)
    assert stacked.shape == (24, 16)
    for perm, row in zip(perms, stacked):
        assert row.tolist() == _per_digit_index(perm, 2)
    with pytest.raises(ValueError, match="not a permutation"):
        permutation_index([(0, 1, 2), (0, 0, 1)])


def _per_digit_matrix(perm, q=2):
    index = _per_digit_index(perm, q)
    matrix = np.zeros((len(index), len(index)), dtype=complex)
    for a, b in enumerate(index):
        matrix[b, a] = 1.0
    return matrix


def test_permutation_operator_from_index_map():
    for perm in permutations(range(4)):
        np.testing.assert_array_equal(permutation_operator(perm),
                                      _per_digit_matrix(perm))
    np.testing.assert_array_equal(permutation_operator(_register_permutation((2, 0, 1), 2)),
                                  _per_digit_matrix((2, 0, 1), 4))


def test_symmetric_sampler_stream():
    # the same rng.permutation draws as before, and the same matrices
    rng = np.random.default_rng(22)
    for v in SymmetricSampler(4, seed=22).draw(10):
        np.testing.assert_array_equal(v, _per_digit_matrix(rng.permutation(4)))


def test_permutation_operator_of_a_stack():
    perms = np.array(list(permutations(range(3))))
    for q in (1, 2):
        registers = [_register_permutation(p, q) for p in perms]
        stacked = permutation_operator(registers)
        singles = [permutation_operator(p) for p in registers]
        assert stacked.shape == (6,) + singles[0].shape
        np.testing.assert_array_equal(stacked, singles)
    grid = permutation_operator(perms.reshape(2, 3, 3))
    np.testing.assert_array_equal(grid.reshape(6, 8, 8), permutation_operator(perms))


def test_permutation_operator_identity():
    p = permutation_operator((0, 1, 2))
    np.testing.assert_array_equal(p, np.eye(8))


def test_permutation_operator_swap_copies():
    p = permutation_operator((1, 0))
    psi01 = np.kron([1, 0], [0, 1]).astype(complex)
    psi10 = np.kron([0, 1], [1, 0]).astype(complex)
    np.testing.assert_allclose(p @ psi01, psi10)


def test_permutation_operator_three_cycle_power():
    # oracle: a 3-cycle cubes to the identity
    p = permutation_operator((1, 2, 0))
    cubed = p @ p @ p
    np.testing.assert_array_equal(cubed, np.eye(8))
    assert not np.array_equal(p, np.eye(8))


def test_permutation_operator_orthogonality_exact():
    p = permutation_operator((2, 0, 1, 3))
    np.testing.assert_array_equal(p.T @ p, np.eye(16))


def test_permutation_operator_composition():
    pa = permutation_operator((1, 0, 2))
    pb = permutation_operator((0, 2, 1))
    # composed permutation: apply (1,0,2) then (0,2,1)
    composed = [0] * 3
    first, second = (1, 0, 2), (0, 2, 1)
    for i in range(3):
        composed[i] = second[first[i]]
    pc = permutation_operator(composed)
    np.testing.assert_array_equal(pb @ pa, pc)


def test_permutation_operator_invalid():
    with pytest.raises(ValueError):
        permutation_operator((0, 0, 1))


def test_permutation_tensor_relabeling():
    rng = np.random.default_rng(8)
    states = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
    perm = (2, 0, 1)
    p = permutation_operator(perm)
    inverse = [perm.index(i) for i in range(3)]
    lhs = p @ np.kron(np.kron(states[0], states[1]), states[2])
    reordered = [states[inverse[i]] for i in range(3)]
    rhs = np.kron(np.kron(reordered[0], reordered[1]), reordered[2])
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def brauer_basis_k2(n):
    """Spanning set of the k=2 commutant of O(2^n): [identity, register
    SWAP, Bell projector] on 2n qubits."""
    return [np.eye(4**n, dtype=complex), swap_operator(n).matrix, bell_projector(n).matrix]


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
    swap = permutation_operator((1, 0))
    report = check_equivariance(swap, UnitarySampler(2, 4), k=2, trials=50)
    assert report.passed


def test_check_equivariance_qgcnn_cycle():
    # oracle: cyclic relabelings are automorphisms of C4, so the layer
    # unitary must commute with the corresponding qubit permutations
    from ginv.datasets import Graph

    c4 = Graph(4, {(0, 1), (1, 2), (2, 3), (0, 3)})
    u = qgcnn_unitary(c4, np.array([0.7, 0.9, 0.4]), 1, 1)
    for shift in range(4):
        perm = tuple((i + shift) % 4 for i in range(4))
        p = permutation_operator(perm)
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


def _brauer_count(d, k):
    # (2k - 1)!! Brauer diagrams, linearly independent for d >= k
    assert d >= k
    return prod(range(1, 2 * k, 2))


@pytest.mark.parametrize(
    "sampler,k,oracle",
    [
        (UnitarySampler(2, 31), 5, lambda: schur_weyl_commutant_dimension(2, 5)),
        (UnitarySampler(4, 32), 3, lambda: schur_weyl_commutant_dimension(4, 3)),
        (OrthogonalSampler(4, 33), 3, lambda: _brauer_count(4, 3)),
        (LocalUnitarySampler(2, 34), 3, lambda: schur_weyl_commutant_dimension(2, 3) ** 2),
        (LocalUnitarySampler(3, 35), 2, lambda: schur_weyl_commutant_dimension(2, 2) ** 3),
    ],
    ids=["U(2) k=5", "U(4) k=3", "O(4) k=3", "LU(2) k=3", "LU(3) k=2"],
)
def test_commutant_dimension_up_to_the_cap(sampler, k, oracle):
    if isinstance(sampler, OrthogonalSampler):
        # SO(4)^(x 3) has more invariants (the Levi-Civita tensor): the
        # draws must leave SO(4) for the Brauer count to hold
        dets = np.linalg.det(OrthogonalSampler(4, sampler.seed).draw(3))
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


def _count_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


@pytest.mark.parametrize(
    "make,k",
    [(UnitarySampler, 2), (OrthogonalSampler, 2), (LocalUnitarySampler, 2),
     (UnitarySampler, 3), (UnitarySampler, 4)],
    ids=["U(4) k=2", "O(4) k=2", "LU(2) k=2", "U(2) k=3", "U(2) k=4"],
)
@pytest.mark.parametrize("seed", [0, 41, 2**31 - 1])
def test_commutant_equals_every_step_oracle(make, k, seed):
    arg = 2 if make is LocalUnitarySampler or k > 2 else 4
    sampler = make(arg, seed)
    elements = [sampler.sample() for _ in range(20)]
    assert commutant_analysis(make(arg, seed), k) == commutant_every_step(elements, k)


def test_commutant_factorises_a_later_element_that_shrinks(monkeypatch):
    # the identities leave the start space whole; the generic element after
    # them must still be factorised and cut the space to the scalars
    rng = np.random.default_rng(42)
    diag = np.diag(np.exp(2j * np.pi * rng.random(4)))
    elements = [diag, np.eye(4, dtype=complex), np.eye(4, dtype=complex), haar_unitary(4, rng)]
    oracle = commutant_every_step(elements, 1)
    calls = _count_svd(monkeypatch)
    report = commutant_analysis(elements, 1)
    assert len(calls) == 1
    assert (report.dimension, report.start_dimension, report.ambiguous) == (1, 4, False)
    assert (oracle.dimension, oracle.start_dimension, oracle.ambiguous) == (1, 4, False)
    assert report.gap_ratio == pytest.approx(oracle.gap_ratio, rel=1e-6)


def test_commutant_u2_k4_factorises_one_step(monkeypatch):
    calls = _count_svd(monkeypatch)
    report = commutant_analysis(UnitarySampler(2, 5), 4)
    assert report.dimension == 14
    assert len(calls) == 1


def test_unitary_take_moves_the_state_block_to_after_its_elements():
    # sample(psi) after draw(20) fills its states from the stream after 20
    # elements; after 20 sample() calls, after the whole first block of 256
    psi = zero_state(2)
    taken = UnitarySampler(4, 31)
    taken.draw(20)
    sampled = UnitarySampler(4, 31)
    for _ in range(20):
        sampled.sample()
    rng = np.random.default_rng(31)
    haar_unitary(4, rng, count=20)
    after_take = random_statevector(4, rng, count=groups.block_count(4, rank=1))
    rng = np.random.default_rng(31)
    haar_unitary(4, rng, count=groups.block_count(4))
    after_block = random_statevector(4, rng, count=groups.block_count(4, rank=1))
    assert np.array_equal(taken.sample(psi), after_take[0])
    assert np.array_equal(sampled.sample(psi), after_block[0])


def test_commutant_needs_an_element():
    for make, arg in SAMPLERS[:3]:
        sampler = make(arg, 0)
        for n_samples in (0, -1):
            with pytest.raises(ValueError, match="need at least one group element"):
                commutant_analysis(sampler, 1, n_samples=n_samples)
        assert np.array_equal(sampler.draw(2), make(arg, 0).draw(2))
    with pytest.raises(ValueError, match="need at least one group element"):
        commutant_analysis([], 2)


@pytest.mark.parametrize(
    "elements,match",
    [
        ([np.eye(2), np.eye(4)], "element 1 has dimension 4, element 0 has 2"),
        ([np.eye(2), np.ones((2, 3))], r"element 1 has shape \(2, 3\), not a square"),
        ([np.ones(2)], r"element 0 has shape \(2,\), not a square"),
        ([np.ones((2, 2, 2))], r"element 0 has shape \(2, 2, 2\), not a square"),
        # a list is validated before its size is held to the cap
        ([np.eye(128), np.eye(2)], "element 1 has dimension 2, element 0 has 128"),
    ],
    ids=["ragged", "non-square", "1-D", "3-D", "over the cap"],
)
def test_commutant_checks_an_element_list(elements, match):
    with pytest.raises(ValueError, match=match):
        commutant_analysis(elements, 2)


@pytest.mark.parametrize("k", [0, -1])
def test_commutant_refuses_k_below_one_before_drawing(k):
    sampler = UnitarySampler(2, 3)
    for group in (sampler, SymmetricSampler(2, 3), [np.eye(2)]):
        with pytest.raises(ValueError, match="k must be at least 1"):
            commutant_analysis(group, k)
    assert sampler.sample().tobytes() == UnitarySampler(2, 3).sample().tobytes()


@pytest.mark.parametrize(
    "make,arg", [(UnitarySampler, 16), (OrthogonalSampler, 16), (LocalUnitarySampler, 4)]
)
def test_commutant_refuses_over_the_cap_before_drawing(make, arg):
    sampler = make(arg, 0)
    with pytest.raises(ValueError, match=r"system too large: d\^k = 16\^2 exceeds 64"):
        commutant_analysis(sampler, 2)
    assert sampler.sample().tobytes() == make(arg, 0).sample().tobytes()


def test_commutant_checks_the_cap_once_per_call(monkeypatch):
    calls = []
    excess = groups.commutant_excess
    monkeypatch.setattr(groups, "commutant_excess", lambda *a: calls.append(a) or excess(*a))
    commutant_analysis(UnitarySampler(2, 0), 2, n_samples=3)
    commutant_analysis([np.eye(2), np.diag([1, -1])], 2)
    assert calls == [(1.0, 2), (1.0, 2)]


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (3, 1), (4, 1), (2, 2)])
def test_orbit_count_equals_svd_route(n, k):
    # the explicit generator matrices take the SVD route
    counted = commutant_analysis(SymmetricSampler(n, 0), k)
    solved = commutant_analysis(adjacent_transposition_generators(n), k)
    assert counted.dimension == solved.dimension
    assert counted.start_dimension == 4 ** (n * k)
    assert (counted.gap_ratio, counted.cutoff, counted.ambiguous) == (np.inf, None, False)


@pytest.mark.parametrize(
    "n,k", [(n, 1) for n in range(1, 11)] + [(n, 2) for n in range(1, 6)] + [(2, 3), (3, 3)]
)
def test_orbit_count_is_multiset_count(n, k):
    # orbits of S_n on n-letter words over the 4^k (row, column) symbols
    assert commutant_analysis(SymmetricSampler(n, 0), k).dimension == comb(n + 4**k - 1, n)


@pytest.mark.parametrize("n,k", [(11, 1), (6, 2), (4, 3), (2, 10**12)])
def test_orbit_count_refuses_over_the_cap(n, k):
    with pytest.raises(ValueError, match="exceeds 1048576"):
        commutant_analysis(SymmetricSampler(n, 0), k)


@pytest.mark.parametrize("d", [3, 16, 65, 1000003, 2**32 - 1])
def test_commutant_excess_writes_a_given_degree_in_decimal(d):
    # the degree comes in as log2 d; the message still names d itself
    assert groups.commutant_excess(np.log2(d), 6) == f"d^k = {d}^6 exceeds 64"
    assert groups.commutant_excess(np.log2(d), 10, orbits=True).startswith(f"d^(2k) = {d}^20 ")


def test_commutant_excess_caps_by_qubit_count():
    assert groups.commutant_excess(6, 1) is None
    assert groups.commutant_excess(7, 1) == "d^k = 128^1 exceeds 64"
    assert groups.commutant_excess(10, 1, orbits=True) is None
    assert groups.commutant_excess(20000, 1) == "d^k = (2^20000)^1 exceeds 64"


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
