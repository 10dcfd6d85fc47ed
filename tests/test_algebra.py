import numpy as np
import pytest

from orbit_atlas import DensityMatrix, commutator, partial_transpose, structure_constants, su_generators

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_su2_generators_are_i_times_paulis():
    e = su_generators(2)
    assert len(e) == 3
    np.testing.assert_allclose(e[0], 1j * SX, atol=1e-15)
    np.testing.assert_allclose(e[1], 1j * SY, atol=1e-15)
    np.testing.assert_allclose(e[2], 1j * SZ, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generator_basis_properties(n):
    gens = su_generators(n)
    assert len(gens) == n * n - 1
    for g in gens:
        np.testing.assert_allclose(g, -g.conj().T, atol=1e-12)
        assert abs(np.trace(g)) <= 1e-12
    # orthogonality: Tr(e_j e_k) = -2 delta_jk
    for j, gj in enumerate(gens):
        for k, gk in enumerate(gens):
            want = -2.0 if j == k else 0.0
            assert abs(np.trace(gj @ gk) - want) <= 1e-12


def test_su_generators_rejects_small_n():
    with pytest.raises(ValueError):
        su_generators(1)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_su_generators_is_one_read_only_stack_per_n(n):
    gens = su_generators(n)
    assert gens is su_generators(n)
    assert gens.shape == (n * n - 1, n, n) and gens.dtype == complex
    assert not gens.flags.writeable
    with pytest.raises(ValueError):
        gens[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        su_generators(1)


def test_su2_structure_constants_are_minus_two_epsilon():
    c = structure_constants(su_generators(2))
    eps = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    np.testing.assert_allclose(c, -2.0 * eps, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_structure_constants_close_the_algebra(n):
    gens = su_generators(n)
    c = structure_constants(gens)
    # total antisymmetry
    np.testing.assert_allclose(c, -np.swapaxes(c, 0, 1), atol=1e-12)
    np.testing.assert_allclose(c, -np.swapaxes(c, 1, 2), atol=1e-12)
    stack = np.array(gens)
    for j, gj in enumerate(gens):
        for k, gk in enumerate(gens):
            lhs = commutator(gj, gk)
            rhs = np.einsum("l,lab->ab", c[j, k], stack)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_partial_transpose_blocks_and_involution():
    rng = np.random.default_rng(0)
    k, m = 2, 3
    mat = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    pt = partial_transpose(mat, k, m)
    for i in range(k):
        for j in range(k):
            block = mat[i * m : (i + 1) * m, j * m : (j + 1) * m]
            np.testing.assert_allclose(pt[i * m : (i + 1) * m, j * m : (j + 1) * m], block.T)
    np.testing.assert_allclose(partial_transpose(pt, k, m), mat)


@pytest.mark.parametrize("k, m, lead", [(2, 2, ()), (2, 3, ()), (3, 2, (4,)), (4, 5, ()), (5, 5, (2, 3))])
def test_partial_transpose_returns_a_fresh_writeable_array(k, m, lead):
    rng = np.random.default_rng(k * m)
    n = k * m
    mats = rng.standard_normal((*lead, n, n)) + 1j * rng.standard_normal((*lead, n, n))
    mats.flags.writeable = False
    pt = partial_transpose(mats, k, m)
    assert pt.flags.writeable and not np.shares_memory(pt, mats)
    w = DensityMatrix(k, m, np.eye(n) / n)
    pt = partial_transpose(w.matrix, k, m)
    assert pt.flags.writeable and not np.shares_memory(pt, w.matrix)


def test_partial_transpose_of_stack_matches_each_matrix():
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((2, 5, 6, 6)) + 1j * rng.standard_normal((2, 5, 6, 6))
    pt = partial_transpose(stack, 2, 3)
    for idx in np.ndindex(2, 5):
        np.testing.assert_array_equal(pt[idx], partial_transpose(stack[idx], 2, 3))


def test_partial_transpose_shape_check():
    with pytest.raises(ValueError):
        partial_transpose(np.eye(5), 2, 3)
    with pytest.raises(ValueError):
        partial_transpose(np.zeros((3, 5, 5)), 2, 3)
