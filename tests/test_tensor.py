import numpy as np
import pytest

from ginv import tensor
from ginv.observables import PAULI
from helpers import check_density_matrix, expectation, ghz_state, random_density_matrix


def test_kron_identity():
    np.testing.assert_array_equal(tensor.kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_zz_diagonal():
    zz = tensor.kron(PAULI["Z"], PAULI["Z"])
    np.testing.assert_allclose(zz, np.diag([1, -1, -1, 1]))


def test_kron_mixed_product_rule():
    # oracle: multiply the explicit 4x4 matrices directly
    xy = tensor.kron(PAULI["X"], PAULI["Y"])
    product = np.empty((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            product[i, j] = sum(xy[i, k] * xy[k, j] for k in range(4))
    np.testing.assert_allclose(product, np.eye(4), atol=1e-14)


def test_kron_associativity():
    rng = np.random.default_rng(11)
    a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
    lhs = tensor.kron(tensor.kron(a, b), c)
    rhs = tensor.kron(a, tensor.kron(b, c))
    assert np.linalg.norm(lhs - rhs) < 1e-12


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


_RNG = np.random.default_rng(21)
KRON_CASES = {
    "vectors": (_complex(_RNG, 2), _complex(_RNG, 4)),
    "square": (_complex(_RNG, 2, 2), _complex(_RNG, 4, 4)),
    "rectangular": (_complex(_RNG, 2, 3), _complex(_RNG, 3, 1)),
    "real_x_complex": (np.array([[1.0, -0.0], [-2.5, 0.0]]), _complex(_RNG, 2, 2)),
    "complex_x_real": (_complex(_RNG, 2, 2), _RNG.standard_normal((3, 3))),
    "integer_lists": ([[1, 2], [3, 4]], [[0, -5], [6, 7]]),
    "integer_vectors": ([1, -2], [3, 0, 4]),
    "one_by_one": (np.array([[2.5 - 1j]]), _complex(_RNG, 2, 2)),
    "both_one_by_one": ([[3.0]], [[-1j]]),
}


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", sorted(KRON_CASES))
def test_kron_equals_numpy_kron_bit_for_bit(case):
    a, b = KRON_CASES[case]
    want = np.kron(a, b)
    assert np.array_equal(tensor.kron(a, b), want)
    assert _same_bits(tensor.kron(a, b), want)
    want3 = np.kron(np.kron(b, a), b)
    assert _same_bits(tensor.kron_all([b, a, b]), want3)
    assert _same_bits(tensor.kron_all([a]), np.asarray(a))


@pytest.mark.parametrize("case", ["square", "one_by_one", "complex_x_real", "integer_lists"])
def test_tensor_power_equals_numpy_kron_bit_for_bit(case):
    for rho in map(np.asarray, KRON_CASES[case]):
        want = rho
        for k in range(1, 4):
            assert _same_bits(tensor.tensor_power(rho, k), want), k
            want = np.kron(want, rho)


def test_kron_rejects_mixed_ranks():
    with pytest.raises(ValueError, match="two vectors or two matrices"):
        tensor.kron(np.ones(2), np.eye(2))
    with pytest.raises(ValueError, match="two vectors or two matrices"):
        tensor.kron(np.ones((2, 2, 2)), np.ones((2, 2, 2)))


def test_tensor_power_trivial():
    mixed = np.eye(2) / 2
    np.testing.assert_allclose(tensor.tensor_power(mixed, 1), mixed)
    np.testing.assert_allclose(tensor.tensor_power(mixed, 2), np.eye(4) / 4)


@pytest.mark.parametrize("dim", [1, 2, 8, 64])
def test_random_statevector_stack_equals_single_draws(dim):
    # a single draw keeps the bits of two length-dim normal calls; a stack
    # takes the same normals, real then imaginary per state
    rng = np.random.default_rng(9)
    stack = tensor.random_statevector(dim, rng, count=5)
    rng = np.random.default_rng(9)
    singles = [tensor.random_statevector(dim, rng) for _ in range(5)]
    rng = np.random.default_rng(9)
    for row, single in zip(stack, singles):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        assert np.array_equal(single, v / np.linalg.norm(v))
        np.testing.assert_allclose(row, single, rtol=0, atol=1e-15)
    assert stack.shape == (5, dim)
    np.testing.assert_allclose(np.linalg.norm(stack, axis=1), 1.0, rtol=0, atol=1e-14)


def test_tensor_power_pure_rank():
    # oracle: eigenvalues of the doubled projector
    rng = np.random.default_rng(5)
    rho = tensor.dm(tensor.random_statevector(4, rng))
    doubled = tensor.tensor_power(rho, 2)
    evals = np.linalg.eigvalsh(doubled)
    assert abs(np.trace(doubled) - 1) < 1e-12
    assert abs(evals[-1] - 1) < 1e-10
    assert np.abs(evals[:-1]).max() < 1e-10


def test_partial_trace_bell_marginal():
    rho = tensor.dm(tensor.bell_state(1))
    np.testing.assert_allclose(tensor.partial_trace(rho, [0]), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_factorisation():
    rho = tensor.kron(tensor.dm(tensor.basis_state(2, 0)), tensor.dm(tensor.basis_state(2, 1)))
    np.testing.assert_allclose(
        tensor.partial_trace(rho, [1]), tensor.dm(tensor.basis_state(2, 1)), atol=1e-14
    )


def _explicit_partial_trace(rho, keep, m):
    """Sum over traced basis indices straight from the definition."""
    traced = [q for q in range(m) if q not in keep]
    dk = 2 ** len(keep)
    out = np.zeros((dk, dk), dtype=complex)

    def full_index(keep_bits, traced_bits):
        bits = [0] * m
        for q, bit in zip(keep, keep_bits):
            bits[q] = bit
        for q, bit in zip(traced, traced_bits):
            bits[q] = bit
        return sum(bit << (m - 1 - q) for q, bit in enumerate(bits))

    for a in range(dk):
        for b in range(dk):
            abits = [(a >> (len(keep) - 1 - i)) & 1 for i in range(len(keep))]
            bbits = [(b >> (len(keep) - 1 - i)) & 1 for i in range(len(keep))]
            for t in range(2 ** len(traced)):
                tbits = [(t >> (len(traced) - 1 - i)) & 1 for i in range(len(traced))]
                out[a, b] += rho[full_index(abits, tbits), full_index(bbits, tbits)]
    return out


def test_partial_trace_ghz3_oracle():
    rho = tensor.dm(ghz_state(3))
    got = tensor.partial_trace(rho, [0, 1])
    oracle = _explicit_partial_trace(rho, [0, 1], 3)
    np.testing.assert_allclose(got, oracle, atol=1e-14)
    np.testing.assert_allclose(got, np.diag([0.5, 0, 0, 0.5]), atol=1e-12)


def test_partial_trace_random_oracle():
    rng = np.random.default_rng(7)
    rho = random_density_matrix(8, rng)
    for keep in ([0], [2], [0, 2], [1, 2]):
        np.testing.assert_allclose(
            tensor.partial_trace(rho, keep),
            _explicit_partial_trace(rho, keep, 3),
            atol=1e-13,
        )


def test_partial_trace_stack_matches_oracle_per_state():
    rng = np.random.default_rng(17)
    stack = np.array([random_density_matrix(8, rng) for _ in range(4)])
    for keep in ([0], [2], [0, 2], [1, 2], [], [0, 1, 2]):
        got = tensor.partial_trace(stack, keep)
        assert got.shape == (4, 2 ** len(keep), 2 ** len(keep))
        for rho, reduced in zip(stack, got):
            np.testing.assert_allclose(reduced, _explicit_partial_trace(rho, keep, 3), atol=1e-13)
            assert np.array_equal(tensor.partial_trace(rho, keep), reduced)
        # keep as a generator, reversed and repeated gives the same bits
        assert np.array_equal(tensor.partial_trace(stack, (q for q in keep[::-1] * 2)), got)


def test_partial_trace_keep_all_exact():
    rng = np.random.default_rng(9)
    rho = random_density_matrix(8, rng)
    assert np.array_equal(tensor.partial_trace(rho, [0, 1, 2]), rho)


def test_partial_trace_empty_and_trace_preserved():
    rng = np.random.default_rng(13)
    rho = random_density_matrix(8, rng)
    scalar = tensor.partial_trace(rho, [])
    assert scalar.shape == (1, 1)
    assert abs(scalar[0, 0] - 1) < 1e-10
    for keep in ([0], [1, 2]):
        assert abs(np.trace(tensor.partial_trace(rho, keep)) - 1) < 1e-10


def test_partial_trace_bad_index():
    with pytest.raises(ValueError):
        tensor.partial_trace(np.eye(4) / 4, [2])


def test_expm_hermitian_t_zero():
    rng = np.random.default_rng(3)
    h = rng.standard_normal((4, 4))
    h = h + h.T
    np.testing.assert_allclose(tensor.expm_hermitian(h, 0.0), np.eye(4), atol=1e-12)


def test_expm_hermitian_diagonal():
    u = tensor.expm_hermitian(PAULI["Z"], np.pi / 2)
    np.testing.assert_allclose(
        u, np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)]), atol=1e-12
    )


def test_expm_hermitian_x_closed_form():
    # oracle: exp(-i t X) = cos(t) I - i sin(t) X for the 2x2 involution X
    t = np.pi / 4
    expected = np.cos(t) * np.eye(2) - 1j * np.sin(t) * PAULI["X"]
    np.testing.assert_allclose(tensor.expm_hermitian(PAULI["X"], t), expected, atol=1e-12)


def test_expm_hermitian_unitarity():
    rng = np.random.default_rng(21)
    for _ in range(20):
        h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = h + h.conj().T
        u = tensor.expm_hermitian(h, rng.standard_normal())
        assert np.linalg.norm(u @ u.conj().T - np.eye(8)) < 1e-9


def test_is_unitary_matches_the_frobenius_norm():
    # oracle: ||a a^dag - 1||_F against tol, as np.linalg.norm gives it
    rng = np.random.default_rng(22)
    for d in (1, 2, 8):
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        u = tensor.expm_hermitian(h + h.conj().T)
        near = (u * (1 + 1e-11), u * (1 + 1e-8), 2 * u)
        o = np.linalg.qr(rng.standard_normal((d, d)))[0]  # real: a real product
        for a in (u, *near, o, 2 * o, np.zeros((d, d)), np.eye(d, dtype=int)):
            expected = np.linalg.norm(a @ a.conj().T - np.eye(d)) <= 1e-9
            assert tensor.is_unitary(a) is bool(expected)
    a = np.eye(2)
    tensor.is_unitary(a)
    assert np.array_equal(a, np.eye(2))  # the input is not changed


@pytest.mark.parametrize("a", [np.ones(4), np.ones((2, 3)), np.ones((3, 2)), np.eye(2)[None],
                               np.array(1.0)])
def test_is_unitary_refuses_anything_but_a_square_matrix(a):
    assert tensor.is_unitary(a) is False


def test_expm_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        tensor.expm_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_expectation_basics():
    assert abs(expectation(np.eye(2) / 2, PAULI["Z"])) < 1e-14
    assert abs(expectation(tensor.dm(tensor.basis_state(2, 0)), PAULI["Z"]) - 1) < 1e-14


def test_expectation_direct_trace_oracle():
    rho = np.diag([0.75, 0.25]).astype(complex)
    oracle = sum(rho[i, j] * PAULI["Z"][j, i] for i in range(2) for j in range(2))
    assert abs(expectation(rho, PAULI["Z"]) - oracle.real) < 1e-14
    assert abs(expectation(rho, PAULI["Z"]) - 0.5) < 1e-14


def test_expectation_conjugation_invariance():
    from ginv.groups import haar_unitary

    rng = np.random.default_rng(17)
    rho = random_density_matrix(4, rng)
    obs = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    obs = obs + obs.conj().T
    base = expectation(rho, obs)
    for _ in range(50):
        v = haar_unitary(4, rng)
        conj = expectation(v @ rho @ v.conj().T, v @ obs @ v.conj().T)
        assert abs(conj - base) < 1e-10


def test_expectation_dimension_mismatch():
    with pytest.raises(ValueError):
        expectation(np.eye(2) / 2, np.eye(4))


def test_expectation_copies_matches_tensor_power():
    rng = np.random.default_rng(23)
    rho = random_density_matrix(4, rng)
    obs = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    obs = obs + obs.conj().T
    direct = expectation(tensor.tensor_power(rho, 2), obs)
    assert abs(tensor.expectation_copies(rho, 2, obs) - direct) < 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_expectation_copies_stack_matches_per_state(k):
    rng = np.random.default_rng(37)
    d = 4
    rhos = np.array([random_density_matrix(d, rng) for _ in range(5)])
    obs = rng.standard_normal((d**k, d**k)) + 1j * rng.standard_normal((d**k, d**k))
    obs = obs + obs.conj().T
    per_state = np.array([tensor.expectation_copies(r, k, obs) for r in rhos])
    assert np.abs(tensor.expectation_copies(rhos, k, obs) - per_state).max() < 1e-12
    # oracle: the dense tensor power of each state
    dense = np.array([expectation(tensor.tensor_power(r, k), obs) for r in rhos])
    assert np.abs(per_state - dense).max() < 1e-12
    if k > 1:  # one matrix shape only; the (d,) * 2k tensor is refused
        with pytest.raises(ValueError, match="does not act on"):
            tensor.expectation_copies(rhos, k, obs.reshape((d,) * 2 * k))


@pytest.mark.parametrize("k", [0, 3])
def test_expectation_copies_takes_one_or_two_copies(k):
    rho = random_density_matrix(2, np.random.default_rng(38))
    with pytest.raises(ValueError, match="1 or 2 copies"):
        tensor.expectation_copies(rho, k, np.eye(2**k))


def test_state_constructors():
    assert abs(np.linalg.norm(tensor.bell_state(2)) - 1) < 1e-12
    assert abs(np.linalg.norm(tensor.plus_state(3)) - 1) < 1e-12
    np.testing.assert_allclose(tensor.zero_state(2), [1, 0, 0, 0])
    rng = np.random.default_rng(31)
    check_density_matrix(random_density_matrix(8, rng))
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(2))  # trace 2
