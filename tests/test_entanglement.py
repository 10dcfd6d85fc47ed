import numpy as np
import pytest

from orbit_atlas import (
    BlochForm,
    DensityMatrix,
    absolutely_separable,
    char_coeffs,
    canonicalize_mixed_2x2,
    compose_bloch,
    concurrence_mixed,
    concurrence_pure,
    concurrences,
    concurrences_from_xi,
    cstar,
    decompose_bloch,
    entanglement_of_formation,
    entanglement_report,
    in_maximal_ball,
    maximal_ball_check,
    maximally_mixed,
    partial_transpose,
    ppt_check,
    pt_spectra,
    purities,
    pure_density,
    random_state,
    schmidt_vector,
    spin_flip,
    unit_spectrum,
    validate_density,
    werner_state,
    xi_spectra,
    xi_spectrum,
)


def test_concurrence_pure_cases():
    assert abs(concurrence_pure(schmidt_vector(np.pi / 2)) - 1.0) <= 1e-12
    assert concurrence_pure(schmidt_vector(0.0)) <= 1e-12
    for theta in np.linspace(0, np.pi / 2, 9):
        assert abs(concurrence_pure(schmidt_vector(theta)) - np.sin(theta)) <= 1e-12


def test_spin_flip_of_maximally_mixed():
    w = maximally_mixed(2, 2)
    np.testing.assert_allclose(spin_flip(w), np.eye(4) / 16, atol=1e-14)
    np.testing.assert_allclose(xi_spectrum(w), np.full(4, 1 / 16), atol=1e-14)


def test_spin_flip_spectrum_of_diagonal_state():
    p = np.array([0.4, 0.3, 0.2, 0.1])
    w = DensityMatrix(2, 2, np.diag(p))
    want = np.sort([p[0] * p[3], p[0] * p[3], p[1] * p[2], p[1] * p[2]])[::-1]
    np.testing.assert_allclose(xi_spectrum(w), want, atol=1e-12)


def test_xi_spectrum_matches_plain_eigensolve():
    rng = np.random.default_rng(40)
    for _ in range(20):
        w = random_state("mixed", 2, 2, rng)
        xs = np.sort(np.linalg.eigvals(spin_flip(w)).real)[::-1]
        np.testing.assert_allclose(xi_spectrum(w), xs, atol=1e-8)


def test_xi_spectrum_rejects_non_psd():
    w = DensityMatrix(2, 2, np.diag([0.6, 0.5, 0.0, -0.1]))
    with pytest.raises(ValueError):
        xi_spectrum(w)


def test_concurrence_mixed_agrees_with_pure():
    rng = np.random.default_rng(41)
    for _ in range(50):
        p = random_state("pure", 2, 2, rng)
        assert abs(concurrence_mixed(pure_density(p)) - concurrence_pure(p)) <= 1e-9


def test_concurrence_of_werner_line():
    for x in np.linspace(0, 1, 21):
        c = concurrence_mixed(werner_state(float(x)))
        assert abs(c - max(0.0, (3 * x - 1) / 2)) <= 1e-10


def test_concurrence_landscape_formula():
    rng = np.random.default_rng(42)
    for _ in range(50):
        x = float(rng.uniform(0, 1))
        th = float(rng.uniform(0, np.pi / 2))
        c = concurrence_mixed(werner_state(x, th))
        assert abs(c - max(0.0, x * np.sin(th) - (1 - x) / 2)) <= 1e-10


def test_isotropic_family_concurrence():
    # G = mu I with no polarizations: c = max(0, 6 mu - 1/2)
    for mu in (0.09, 0.12, 0.2, 0.25):
        f = BlochForm(2, 2, np.zeros(3), np.zeros(3), mu * np.eye(3))
        w = compose_bloch(f)
        assert abs(concurrence_mixed(w) - max(0.0, 6 * mu - 0.5)) <= 1e-10


def test_entanglement_of_formation_contract():
    assert entanglement_of_formation(0.0) == 0.0
    assert abs(entanglement_of_formation(1.0) - 1.0) <= 1e-12
    grid = [entanglement_of_formation(c) for c in np.linspace(0, 1, 11)]
    assert np.all(np.diff(grid) > 0)
    with pytest.raises(ValueError):
        entanglement_of_formation(1.2)


def test_ppt_bell_and_boundary():
    bell = pure_density(schmidt_vector(np.pi / 2))
    res = ppt_check(bell)
    assert res.verdict == "entangled"
    assert abs(res.spectrum[0] + 0.5) <= 1e-12
    boundary = ppt_check(werner_state(1 / 3))
    assert abs(boundary.spectrum[0]) <= 1e-12
    assert ppt_check(maximally_mixed(2, 2)).verdict == "separable"


def test_ppt_verdict_labels_by_dimension():
    assert ppt_check(maximally_mixed(2, 3)).verdict == "separable"
    assert ppt_check(maximally_mixed(3, 3)).verdict == "ppt_undecided"
    big_bell = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        for j in range(3):
            big_bell[i * 3 + i, j * 3 + j] = 1 / 3
    assert ppt_check(DensityMatrix(3, 3, big_bell)).verdict == "entangled"


def _random_canonical(rng):
    f = decompose_bloch(random_state("mixed", 2, 2, rng))
    return canonicalize_mixed_2x2(f).bloch()


@pytest.mark.parametrize("transposed", [False, True])
def test_char_coeffs_match_numeric_polynomial(transposed):
    rng = np.random.default_rng(43)
    seen = {1: 0, -1: 0}
    for _ in range(40):
        f = _random_canonical(rng)
        seen[int(np.sign(np.linalg.det(f.g)) or 1)] += 1
        w = compose_bloch(f).matrix
        mat = partial_transpose(w, 2, 2) if transposed else w
        want = np.poly(np.linalg.eigvalsh(mat))
        got = char_coeffs(f, transposed=transposed)
        np.testing.assert_allclose(got, want, atol=1e-9)
    assert seen[1] > 0 and seen[-1] > 0


def test_char_coeffs_of_maximally_mixed():
    f = BlochForm(2, 2, np.zeros(3), np.zeros(3), np.zeros((3, 3)))
    want = np.poly(np.full(4, 0.25))
    np.testing.assert_allclose(char_coeffs(f), want, atol=1e-15)
    assert abs(char_coeffs(f)[-1] - 1 / 256) <= 1e-15


def test_char_coeffs_requires_diagonal_g():
    f = BlochForm(2, 2, np.zeros(3), np.zeros(3), np.full((3, 3), 0.05))
    with pytest.raises(ValueError):
        char_coeffs(f)


def test_maximal_ball_membership():
    assert maximal_ball_check(maximally_mixed(2, 2))
    assert maximal_ball_check(werner_state(1 / 3))
    assert not maximal_ball_check(werner_state(0.8))
    # purity exactly 1/3: the boundary is inside the ball by convention
    t = np.sqrt(1 / 48)
    w = DensityMatrix(2, 2, np.diag([0.25 + t, 0.25 + t, 0.25 - t, 0.25 - t]))
    assert maximal_ball_check(w)


def test_cstar_paper_spectrum_and_validation():
    assert cstar([0.47, 0.30, 0.13, 0.10]) == 0.0
    assert cstar([1.0, 0.0, 0.0, 0.0]) == 1.0
    with pytest.raises(ValueError):
        cstar([0.5, 0.5])
    with pytest.raises(ValueError):
        cstar([0.1, 0.2, 0.3, 0.4])
    with pytest.raises(ValueError):
        cstar([0.6, 0.3, 0.2, 0.1])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spectrum_bounds_reject_non_finite(bad):
    spec = [bad, 0.5, 0.25, 0.25]
    with pytest.raises(ValueError):
        cstar(spec)
    with pytest.raises(ValueError):
        absolutely_separable(spec)


def test_absolutely_separable_labels():
    assert absolutely_separable([0.5, 0.3, 0.2, 0.0]) == "no"
    third = 1.0 / 3.0
    assert absolutely_separable([third, third, third, 0.0]) == "yes"
    assert absolutely_separable([0.25, 0.25, 0.25, 0.25]) == "yes_conjectural"
    assert absolutely_separable([1.0, 0.0, 0.0, 0.0]) == "no"


def test_entanglement_report_2x2_fields():
    rep = entanglement_report(werner_state(0.9))
    assert rep.ppt_verdict == "entangled"
    assert rep.concurrence is not None and rep.eof is not None
    assert rep.cstar is not None and rep.absolutely_separable == "no"
    assert not rep.in_maximal_ball


def test_entanglement_report_other_dims():
    rep = entanglement_report(maximally_mixed(2, 3))
    assert rep.concurrence is None and rep.eof is None
    assert rep.cstar is None and rep.absolutely_separable is None
    assert rep.in_maximal_ball and rep.ppt_verdict == "separable"


@pytest.mark.parametrize("w", [werner_state(0.4, 0.3), random_state("mixed", 2, 3, seed=12)], ids=["2x2", "2x3"])
def test_state_spectrum_is_solved_once(w, monkeypatch):
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        solved.append(a is w.matrix)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    validate_density(w)
    entanglement_report(w)
    unit_spectrum(w)
    assert solved.count(True) == 1


def test_ball_membership_implies_separable_verdict():
    rng = np.random.default_rng(44)
    found = 0
    for _ in range(200):
        w = random_state("mixed", 2, 2, rng)
        if maximal_ball_check(w):
            found += 1
            assert ppt_check(w).verdict == "separable"
    assert found > 0


def _rank_stack(rng, rank, count=64):
    """Random 2x2 density matrices of the given rank, mixed toward I/4 with
    random weights when full rank so that both sides of the maximal ball
    are present."""
    g = rng.standard_normal((count, 4, rank)) + 1j * rng.standard_normal((count, 4, rank))
    mats = g @ g.conj().swapaxes(-1, -2)
    mats /= np.trace(mats, axis1=-2, axis2=-1).real[:, None, None]
    if rank == 4:
        t = rng.uniform(0.0, 1.0, size=(count, 1, 1))
        mats = t * mats + (1.0 - t) * np.eye(4) / 4.0
    return mats


@pytest.mark.parametrize("rank", [1, 2, 3, 4], ids=["pure", "rank2", "rank3", "mixed"])
def test_stacked_kernels_equal_per_state_loop(rank):
    mats = _rank_stack(np.random.default_rng(100 + rank), rank)
    states = [DensityMatrix(2, 2, m) for m in mats]
    np.testing.assert_allclose(
        xi_spectra(mats), [xi_spectrum(w) for w in states], rtol=0, atol=1e-15
    )
    np.testing.assert_allclose(
        concurrences(mats), [concurrence_mixed(w) for w in states], rtol=0, atol=1e-15
    )
    np.testing.assert_allclose(
        pt_spectra(mats, 2, 2)[:, 0], [ppt_check(w).spectrum[0] for w in states], rtol=0, atol=1e-15
    )
    np.testing.assert_array_equal(
        in_maximal_ball(purities(mats), 4), [maximal_ball_check(w) for w in states]
    )


def test_concurrence_from_a_computed_spectrum_equals_concurrences():
    mats = _rank_stack(np.random.default_rng(7), 4, count=12).reshape(3, 4, 4, 4)
    np.testing.assert_array_equal(concurrences_from_xi(xi_spectra(mats)), concurrences(mats))


def test_stacked_kernels_keep_leading_shape_and_psd_check():
    mats = _rank_stack(np.random.default_rng(5), 4, count=6).reshape(2, 3, 4, 4)
    assert xi_spectra(mats).shape == (2, 3, 4)
    assert pt_spectra(mats, 2, 2).shape == (2, 3, 4)
    assert purities(mats).shape == (2, 3)
    bad = mats.copy()
    bad[1, 2] = np.diag([0.6, 0.5, 0.0, -0.1])
    with pytest.raises(ValueError, match="negative eigenvalue"):
        xi_spectra(bad)
