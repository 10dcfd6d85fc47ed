import numpy as np
import pytest

from orbit_atlas import (
    BlochForm,
    PureState,
    amplitude_matrix,
    canonicalize_mixed_2x2,
    compose_bloch,
    concurrence_pure,
    decompose_bloch,
    gram_direct,
    omega,
    orbit_sample,
    pure_density,
    pure_stratum,
    random_state,
    random_su2,
    schmidt_pure,
    schmidt_vector,
)


def _rotate(amp, v, u):
    return np.kron(v, u) @ amp


def test_amplitude_matrix_layout_and_omega():
    amp = np.array([1.0, 2.0, 3.0, 4.0]) / np.sqrt(30.0)
    x = amplitude_matrix(amp)
    np.testing.assert_allclose(x, np.array([[1, 3], [2, 4]]) / np.sqrt(30.0))
    assert abs(omega(amp) - (1 * 4 - 2 * 3) / 30.0) <= 1e-15


def test_amplitude_matrix_covariance():
    rng = np.random.default_rng(30)
    for _ in range(20):
        p = random_state("pure", 2, 2, rng)
        u, v = random_su2(rng), random_su2(rng)
        lhs = amplitude_matrix(_rotate(p.amplitudes, v, u))
        rhs = u @ amplitude_matrix(p.amplitudes) @ v.T
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_omega_modulus_is_local_invariant():
    rng = np.random.default_rng(31)
    p = random_state("pure", 2, 2, rng)
    base = abs(omega(p.amplitudes))
    for _ in range(100):
        amp = _rotate(p.amplitudes, random_su2(rng), random_su2(rng))
        assert abs(abs(omega(amp)) - base) <= 1e-12


def test_schmidt_pure_normal_form():
    rng = np.random.default_rng(32)
    for _ in range(50):
        p = random_state("pure", 2, 2, rng)
        form = schmidt_pure(p)
        for w in (form.u, form.v):
            np.testing.assert_allclose(w @ w.conj().T, np.eye(2), atol=1e-12)
            assert abs(np.linalg.det(w) - 1.0) <= 1e-12
        assert 0.0 <= form.theta <= np.pi / 2 + 1e-12
        assert abs(np.sin(form.theta) - 2 * abs(omega(p.amplitudes))) <= 1e-12
        moved = _rotate(p.amplitudes, form.v, form.u)
        # equality up to a global phase
        overlap = abs(np.vdot(form.canonical_vector, moved))
        assert abs(overlap - 1.0) <= 1e-12


@pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 4, np.pi / 2])
def test_schmidt_pure_round_trip(theta):
    form = schmidt_pure(schmidt_vector(theta))
    assert abs(form.theta - theta) <= 1e-12


def test_canonicalize_mixed_positive_branch():
    rng = np.random.default_rng(33)
    seen_positive = 0
    for _ in range(40):
        f = decompose_bloch(random_state("mixed", 2, 2, rng))
        form = canonicalize_mixed_2x2(f)
        for o in (form.o1, form.o2):
            np.testing.assert_allclose(o @ o.T, np.eye(3), atol=1e-12)
            assert abs(np.linalg.det(o) - 1.0) <= 1e-12
        np.testing.assert_allclose(form.o1 @ f.g @ form.o2.T, np.diag(form.mu), atol=1e-12)
        np.testing.assert_allclose(form.a, form.o1 @ f.a, atol=1e-12)
        np.testing.assert_allclose(form.b, form.o2 @ f.b, atol=1e-12)
        det = np.linalg.det(f.g)
        if det > 0:
            seen_positive += 1
            assert form.det_sign == 1
            assert np.all(form.mu >= -1e-14) and np.all(np.diff(form.mu) <= 1e-14)
        elif det < 0:
            assert form.det_sign == -1
            assert np.all(form.mu <= 1e-14) and np.all(np.diff(form.mu) >= -1e-14)
    assert seen_positive > 0


def test_canonicalize_mixed_degenerate_branch():
    # rank-2 G with improper SVD factors exercises the det G = 0 branch
    g = np.array([[0.2, 0.0, 0.0], [0.0, -0.1, 0.0], [0.0, 0.0, 0.0]])
    f = BlochForm(2, 2, [0.05, 0.0, 0.0], [0.0, 0.05, 0.0], g)
    form = canonicalize_mixed_2x2(f)
    assert form.det_sign == 1
    np.testing.assert_allclose(form.o1 @ g @ form.o2.T, np.diag(form.mu), atol=1e-13)
    np.testing.assert_allclose(np.sort(np.abs(form.mu)), [0.0, 0.1, 0.2], atol=1e-13)


def test_canonical_form_stays_on_the_local_orbit():
    rng = np.random.default_rng(34)
    for _ in range(20):
        w = random_state("mixed", 2, 2, rng)
        f = decompose_bloch(w)
        wc = compose_bloch(canonicalize_mixed_2x2(f).bloch())
        np.testing.assert_allclose(
            np.linalg.eigvalsh(wc.matrix), np.linalg.eigvalsh(w.matrix), atol=1e-10
        )
        np.testing.assert_allclose(
            gram_direct(wc).spectrum, gram_direct(w).spectrum, atol=1e-8
        )


def test_canonicalize_rejects_non_2x2():
    f = decompose_bloch(random_state("mixed", 2, 3, seed=35))
    with pytest.raises(ValueError):
        canonicalize_mixed_2x2(f)


@pytest.mark.parametrize("route", [pure_stratum, omega, schmidt_pure, concurrence_pure, amplitude_matrix])
@pytest.mark.parametrize("amp", [[np.nan, 0, 0, 0], [np.inf, 0, 0, 0], [1, 0, 0, 0.5]],
                         ids=["nan", "inf", "unnormalised"])
def test_raw_amplitudes_get_the_pure_state_contract(route, amp):
    # these returned "generic" (theta NaN) and "max_entangled" (norm 1.118)
    with pytest.raises(ValueError, match="normalized"):
        route(np.array(amp))


def test_orbit_sample_families():
    rng = np.random.default_rng(36)
    for _ in range(10):
        al, be, c1, c2 = rng.uniform(0, 2 * np.pi, size=4)
        me = orbit_sample("max_entangled", alpha=al, chi1=c1, chi2=c2)
        assert abs(2 * abs(omega(me)) - 1.0) <= 1e-12
        sep = orbit_sample("separable", alpha=al, beta=be, chi1=c1, chi2=c2)
        assert 2 * abs(omega(sep)) <= 1e-12
    with pytest.raises(ValueError):
        orbit_sample("max_entangled", alpha=0.1)
    with pytest.raises(ValueError):
        orbit_sample("critical", alpha=0.1)


def test_pure_stratum_labels_and_dims():
    assert pure_stratum(schmidt_vector(0.0)).label == "separable"
    assert pure_stratum(schmidt_vector(0.0)).orbit_dim == 4
    assert pure_stratum(schmidt_vector(np.pi / 2)).label == "max_entangled"
    assert pure_stratum(schmidt_vector(np.pi / 2)).orbit_dim == 3
    mid = pure_stratum(schmidt_vector(0.7))
    assert mid.label == "generic"
    assert mid.orbit_dim == 5
    assert abs(mid.theta - 0.7) <= 1e-12


def test_stratum_dimension_equals_gram_rank():
    rng = np.random.default_rng(37)
    for theta in (0.0, 0.4, np.pi / 2):
        p = schmidt_vector(theta)
        stratum = pure_stratum(p)
        rep = gram_direct(pure_density(p))
        assert rep.rank == stratum.orbit_dim
