import json

import numpy as np
import pytest

from orbit_atlas import (
    BlochForm,
    absolutely_separable,
    gram_direct,
    gram_stack,
    verify_cases,
    weyl_cell,
    DensityMatrix,
    PureState,
    apply_local_unitary,
    bloch_from_json,
    bloch_to_json,
    compose_bloch,
    decompose_bloch,
    haar_unitary,
    maximally_mixed,
    pure_density,
    random_local_unitary,
    random_state,
    random_states,
    random_su2,
    schmidt_vector,
    state_from_json,
    state_to_json,
    swap_sides,
    validate_density,
    werner_matrices,
    werner_state,
)


def _swap_operator(k: int, m: int) -> np.ndarray:
    s = np.zeros((k * m, k * m))
    for i in range(k):
        for j in range(m):
            s[j * k + i, i * m + j] = 1.0
    return s


def test_density_matrix_shape_validation():
    with pytest.raises(ValueError):
        DensityMatrix(2, 2, np.eye(3))
    with pytest.raises(ValueError):
        DensityMatrix(1, 4, np.eye(4))


def test_pure_state_norm_validation():
    with pytest.raises(ValueError):
        PureState(2, 2, [1.0, 1.0, 0.0, 0.0])
    PureState(2, 2, np.array([1, 1, 0, 0]) / np.sqrt(2))


_BAD_INPUTS = {
    "matrix-nan": (lambda: DensityMatrix(2, 2, np.diag([np.nan, 0.5, 0.25, 0.25])), "non-finite"),
    "matrix-inf": (lambda: DensityMatrix(2, 2, np.diag([np.inf, 0.5, 0.25, 0.25])), "non-finite"),
    "matrix-nan-imag": (
        lambda: DensityMatrix(2, 2, np.diag([0.25, 0.25, 0.25, complex(0.25, np.nan)])), "non-finite"
    ),
    "matrix-non-hermitian": (
        lambda: DensityMatrix(2, 2, np.eye(4) / 4 + np.diag([0.1, 0.1, 0.1], 1)), "not Hermitian"
    ),
    "bloch-nan": (lambda: BlochForm(2, 2, [np.nan, 0, 0], np.zeros(3), np.zeros((3, 3))), "non-finite"),
    "bloch-inf": (lambda: BlochForm(2, 2, np.zeros(3), np.zeros(3), np.diag([0.1, -np.inf, 0.1])), "non-finite"),
    "pure-nan": (lambda: PureState(2, 2, [np.nan, 0, 0, 0]), "normalized"),
    "pure-inf": (lambda: PureState(2, 2, [np.inf, 0, 0, 0]), "normalized"),
}


@pytest.mark.parametrize("build,match", _BAD_INPUTS.values(), ids=_BAD_INPUTS.keys())
def test_state_types_reject_non_finite_and_non_hermitian_input(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_density_matrix_stores_a_read_only_copy():
    source = np.eye(4, dtype=complex) / 4
    w = DensityMatrix(2, 2, source)
    assert not w.matrix.flags.writeable
    with pytest.raises(ValueError):
        w.matrix[0, 1] = 0.1
    source[0, 1] = 0.1
    assert w.matrix[0, 1] == 0


def test_density_matrix_owns_a_read_only_spectrum():
    w = random_state("mixed", 3, 4, seed=8)
    assert w.spectrum is w.spectrum
    np.testing.assert_array_equal(w.spectrum, np.linalg.eigvalsh(w.matrix), strict=True)
    assert not w.spectrum.flags.writeable
    with pytest.raises(ValueError):
        w.spectrum[0] = 0.5


def test_validate_density_returns_the_ascending_spectrum():
    w = random_state("mixed", 2, 3, seed=9)
    np.testing.assert_array_equal(validate_density(w), np.linalg.eigvalsh(w.matrix))
    assert validate_density(maximally_mixed(2, 2)).tolist() == [0.25] * 4


def test_validate_density_contracts():
    w = maximally_mixed(2, 2)
    validate_density(w)
    skew = 1j * np.diag([1e-3, 0, 0, -1e-3]) @ np.ones((4, 4))
    with pytest.raises(ValueError):
        validate_density(DensityMatrix(2, 2, np.eye(4) / 4 + skew))
    bad_trace = DensityMatrix(2, 2, np.eye(4) / 2)
    with pytest.raises(ValueError):
        validate_density(bad_trace)
    bad_psd = DensityMatrix(2, 2, np.diag([0.6, 0.5, 0.0, -0.1]))
    with pytest.raises(ValueError):
        validate_density(bad_psd)
    with pytest.raises(ValueError, match="non-finite"):
        validate_density(DensityMatrix(2, 2, np.diag([np.nan, 0.5, 0.25, 0.25])))


@pytest.mark.parametrize("k,m", [(2, 2), (2, 3), (3, 3)])
def test_bloch_round_trip(k, m):
    rng = np.random.default_rng(1)
    for _ in range(10):
        w = random_state("mixed", k, m, rng)
        f = decompose_bloch(w)
        back = compose_bloch(f)
        np.testing.assert_allclose(back.matrix, w.matrix, atol=1e-12)


def test_bloch_round_trip_from_coefficients():
    rng = np.random.default_rng(2)
    for _ in range(10):
        f = BlochForm(2, 3, rng.normal(size=3), rng.normal(size=8), rng.normal(size=(3, 8)))
        g = decompose_bloch(compose_bloch(f))
        np.testing.assert_allclose(g.a, f.a, atol=1e-12)
        np.testing.assert_allclose(g.b, f.b, atol=1e-12)
        np.testing.assert_allclose(g.g, f.g, atol=1e-12)


def test_decompose_bloch_rejects_non_hermitian():
    mat = maximally_mixed(2, 2).matrix.copy()
    mat[0, 1] = 1e-3j
    with pytest.raises(ValueError, match="not Hermitian"):
        decompose_bloch(DensityMatrix(2, 2, mat))


def test_maximally_mixed_has_zero_bloch_data():
    f = decompose_bloch(maximally_mixed(2, 3))
    assert np.max(np.abs(f.a)) <= 1e-14
    assert np.max(np.abs(f.b)) <= 1e-14
    assert np.max(np.abs(f.g)) <= 1e-14


def test_schmidt_vector_endpoints():
    bell = schmidt_vector(np.pi / 2)
    np.testing.assert_allclose(bell.amplitudes, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-15)
    prod = schmidt_vector(0.0)
    np.testing.assert_allclose(prod.amplitudes, [1, 0, 0, 0], atol=1e-15)
    with pytest.raises(ValueError):
        schmidt_vector(2.0)


def test_werner_state_endpoints_and_positivity():
    np.testing.assert_allclose(werner_state(0.0).matrix, np.eye(4) / 4, atol=1e-15)
    bell = pure_density(schmidt_vector(np.pi / 2))
    np.testing.assert_allclose(werner_state(1.0).matrix, bell.matrix, atol=1e-15)
    for x in np.linspace(0, 1, 11):
        for th in np.linspace(0, np.pi / 2, 7):
            validate_density(werner_state(float(x), float(th)))
    with pytest.raises(ValueError):
        werner_state(1.5)


def test_werner_matrices_stack_equals_werner_state():
    x = np.repeat(np.linspace(0.0, 1.0, 7), 5)
    theta = np.tile(np.linspace(0.0, np.pi / 2, 5), 7)
    stack = werner_matrices(x, theta)
    assert stack.shape == (35, 4, 4)
    for mat, xv, tv in zip(stack, x, theta):
        np.testing.assert_array_equal(mat, werner_state(float(xv), float(tv)).matrix)


@pytest.mark.parametrize("x,theta", [
    ([0.2, 1.5], [0.1, 0.2]),
    ([0.2, np.nan], [0.1, 0.2]),
    ([0.2, 0.3], [0.1, 2.0]),
    ([0.2, 0.3], [-0.1, 0.2]),
])
def test_werner_matrices_range_checks_cover_whole_stack(x, theta):
    with pytest.raises(ValueError):
        werner_matrices(np.array(x), np.array(theta))


def test_haar_unitary_and_su2():
    u = haar_unitary(4, seed=5)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(haar_unitary(4, seed=5), u)
    v = random_su2(seed=6)
    np.testing.assert_allclose(v @ v.conj().T, np.eye(2), atol=1e-12)
    assert abs(np.linalg.det(v) - 1.0) <= 1e-12


def test_local_unitary_preserves_spectrum():
    rng = np.random.default_rng(7)
    w = random_state("mixed", 2, 3, rng)
    u = random_local_unitary(2, 3, rng)
    wu = apply_local_unitary(w, u)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(wu.matrix), np.linalg.eigvalsh(w.matrix), atol=1e-12
    )
    assert abs(np.trace(wu.matrix) - 1.0) <= 1e-12


@pytest.mark.parametrize("k,m", [(2, 2), (2, 3)])
def test_swap_sides_matches_swap_conjugation(k, m):
    rng = np.random.default_rng(8)
    w = random_state("mixed", k, m, rng)
    s = _swap_operator(k, m)
    swapped = DensityMatrix(m, k, s @ w.matrix @ s.T)
    f = swap_sides(decompose_bloch(w))
    g = decompose_bloch(swapped)
    np.testing.assert_allclose(f.a, g.a, atol=1e-12)
    np.testing.assert_allclose(f.b, g.b, atol=1e-12)
    np.testing.assert_allclose(f.g, g.g, atol=1e-12)


def test_random_state_reproducible_and_valid():
    a = random_state("mixed", 2, 2, seed=9)
    b = random_state("mixed", 2, 2, seed=9)
    np.testing.assert_allclose(a.matrix, b.matrix)
    validate_density(a)
    p = random_state("pure", 2, 3, seed=10)
    assert abs(np.linalg.norm(p.amplitudes) - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        random_state("thermal", 2, 2)


def _one_state(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """One draw with the one-state arithmetic: a unit vector, or G G^dag / Tr(G G^dag)."""
    if kind == "pure":
        amp = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return amp / np.linalg.norm(amp)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


@pytest.mark.parametrize("k,m", [(2, 2), (2, 3), (4, 4), (5, 5)])
@pytest.mark.parametrize("count", [1, 7])
@pytest.mark.parametrize("kind", ["mixed", "pure"])
def test_random_states_equal_sequential_random_state_calls(kind, count, k, m):
    rngs = [np.random.default_rng(70 + k * m) for _ in range(3)]
    stack = random_states(kind, k, m, count, rngs[0])
    calls = [random_state(kind, k, m, rngs[1]) for _ in range(count)]
    loop = np.array([w.amplitudes if kind == "pure" else w.matrix for w in calls])
    reference = np.array([_one_state(kind, k * m, rngs[2]) for _ in range(count)])
    assert stack.shape == ((count, k * m) if kind == "pure" else (count, k * m, k * m))
    for want in (loop, reference):
        assert stack.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state == rngs[2].bit_generator.state


def test_random_states_rejects_an_unknown_kind_before_drawing():
    rng, fresh = np.random.default_rng(5), np.random.default_rng(5)
    with pytest.raises(ValueError, match="unknown state kind"):
        random_states("thermal", 2, 2, 3, rng)
    assert rng.bit_generator.state == fresh.bit_generator.state


def test_state_json_round_trip():
    w = random_state("mixed", 2, 3, seed=11)
    doc = state_to_json(w)
    back = state_from_json(doc)
    assert (back.k, back.m) == (2, 3)
    np.testing.assert_allclose(back.matrix, w.matrix)
    with pytest.raises(ValueError):
        state_from_json(json.dumps({"k": 2, "m": 2}))


def test_bloch_json_round_trip():
    f = decompose_bloch(random_state("mixed", 2, 2, seed=12))
    back = bloch_from_json(bloch_to_json(f))
    np.testing.assert_allclose(back.a, f.a)
    np.testing.assert_allclose(back.b, f.b)
    np.testing.assert_allclose(back.g, f.g)
    with pytest.raises(ValueError):
        bloch_from_json(json.dumps({"k": 2, "m": 2, "a": [0, 0, 0]}))


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-9], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("call", [
    lambda tol: verify_cases([4], samples=1, tol=tol),
    lambda tol: absolutely_separable([0.97, 0.01, 0.01, 0.01], tol=tol),
    lambda tol: gram_direct(werner_state(0.5), tol),
    lambda tol: gram_stack(werner_state(0.5).matrix, 2, 2, tol),
    lambda tol: weyl_cell([0.5, 0.25, 0.25], tol=tol),
], ids=["verify_cases", "absolutely_separable", "gram_direct", "gram_stack", "weyl_cell"])
def test_library_tol_must_be_finite_and_nonnegative(call, tol):
    # the rule of the CLI's --tol type; a NaN would otherwise compare False and pass
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        call(tol)
