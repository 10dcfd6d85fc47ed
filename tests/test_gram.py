import threading
import tracemalloc

import numpy as np
import pytest

from orbit_atlas import gram
from orbit_atlas import (
    CASES,
    BlochForm,
    DensityMatrix,
    b_block_residual,
    case_state,
    compose_bloch,
    concurrence_pure,
    decompose_bloch,
    gram_closed_form,
    gram_direct,
    gram_split_2x2,
    haar_unitary,
    local_orbit_dim,
    maximally_mixed,
    orbit_dim_oracle,
    pure_density,
    pure_gram_spectrum,
    random_state,
    sample_params,
    schmidt_vector,
    tangent_vectors,
    werner_state,
)


def test_bell_gram_spectrum():
    w = pure_density(schmidt_vector(np.pi / 2))
    rep = gram_direct(w)
    np.testing.assert_allclose(rep.spectrum, [0, 0, 0, 2, 2, 2], atol=1e-12)
    assert rep.rank == 3


def test_product_state_gram_spectrum():
    w = pure_density(schmidt_vector(0.0))
    rep = gram_direct(w)
    np.testing.assert_allclose(rep.spectrum, [0, 0, 1, 1, 1, 1], atol=1e-12)
    assert rep.rank == 4


def test_maximally_mixed_gram_is_zero():
    rep = gram_direct(maximally_mixed(2, 3))
    assert np.max(np.abs(rep.matrix)) <= 1e-14
    assert rep.rank == 0


def test_pure_gram_formula_on_haar_samples():
    rng = np.random.default_rng(20)
    for _ in range(50):
        p = random_state("pure", 2, 2, rng)
        rep = gram_direct(pure_density(p))
        want = pure_gram_spectrum(concurrence_pure(p))
        np.testing.assert_allclose(rep.spectrum, np.sort(want), atol=1e-10)


@pytest.mark.parametrize("k,m", [(2, 2), (2, 3)])
def test_closed_form_matches_direct(k, m):
    rng = np.random.default_rng(21)
    for _ in range(25):
        w = random_state("mixed", k, m, rng)
        f = decompose_bloch(w)
        direct = gram_direct(w)
        closed = gram_closed_form(f)
        np.testing.assert_allclose(closed.matrix, direct.matrix, atol=1e-10)
        assert closed.rank == direct.rank


def test_closed_form_blocks_shapes():
    f = decompose_bloch(random_state("mixed", 2, 3, seed=22))
    rep = gram_closed_form(f)
    assert rep.block_a.shape == (3, 3)
    assert rep.block_b.shape == (3, 8)
    assert rep.block_d.shape == (8, 8)
    assert rep.matrix.shape == (11, 11)


@pytest.mark.parametrize("k,m", [(2, 2), (2, 3), (3, 3)])
def test_rank_matches_independent_oracle(k, m):
    rng = np.random.default_rng(23)
    for _ in range(10):
        w = random_state("mixed", k, m, rng)
        rep = gram_direct(w)
        assert local_orbit_dim(rep) == orbit_dim_oracle(w)
        assert rep.rank == k * k + m * m - 2


def test_gram_split_reconstructs_full_matrix():
    rng = np.random.default_rng(24)
    for _ in range(20):
        f = BlochForm(2, 2, rng.normal(size=3) * 0.2, rng.normal(size=3) * 0.2,
                      np.diag(rng.normal(size=3) * 0.2))
        full = gram_closed_form(f).matrix
        split = gram_split_2x2(f)
        np.testing.assert_allclose(split.c_g + split.c_ab, full, atol=1e-12)
        # correlation part spectrum: 8 (mu_i +/- mu_j)^2 over pairs
        mu = np.diag(f.g)
        rho = []
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            rho += [8 * (mu[i] + mu[j]) ** 2, 8 * (mu[i] - mu[j]) ** 2]
        np.testing.assert_allclose(
            np.sort(split.rho_eigs), np.sort(rho), atol=1e-12
        )
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(split.c_g)), np.sort(rho), atol=1e-10
        )
        # polarization part spectrum: {8|a|^2 x2, 8|b|^2 x2, 0 x2}
        na2, nb2 = f.a @ f.a, f.b @ f.b
        nu = np.sort([8 * na2, 8 * na2, 8 * nb2, 8 * nb2, 0, 0])
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(split.c_ab)), nu, atol=1e-10)


def test_gram_split_requires_canonical_form():
    f = BlochForm(2, 2, np.zeros(3), np.zeros(3), np.full((3, 3), 0.1))
    with pytest.raises(ValueError):
        gram_split_2x2(f)
    g = decompose_bloch(random_state("mixed", 2, 3, seed=25))
    with pytest.raises(ValueError):
        gram_split_2x2(g)


def test_b_block_identity_on_random_forms():
    rng = np.random.default_rng(26)
    worst = 0.0
    for _ in range(50):
        f = decompose_bloch(random_state("mixed", 2, 2, rng))
        worst = max(worst, b_block_residual(f))
    assert worst <= 1e-10


def test_two_by_two_helpers_solve_no_gram_spectrum(monkeypatch):
    f = BlochForm(2, 2, [0.1, 0, 0], [0, 0.05, 0], np.diag([0.2, 0.1, -0.05]))
    want = gram_closed_form(BlochForm(2, 2, np.zeros(3), np.zeros(3), f.g)).matrix
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    b_block_residual(f)
    assert calls == []
    # the split's C_G is the symmetrised closed form, byte for byte
    assert gram_split_2x2(f).c_g.tobytes() == want.tobytes()
    assert calls == []


def test_b_block_identity_at_unit_g():
    f = BlochForm(2, 2, np.zeros(3), np.zeros(3), np.eye(3))
    rep = gram_closed_form(f)
    np.testing.assert_allclose(rep.block_b, -16.0 * np.eye(3), atol=1e-12)


def _route_ranks(w):
    """Rank on the commutator route, the closed form and the SVD oracle."""
    return gram_direct(w).rank, gram_closed_form(decompose_bloch(w)).rank, orbit_dim_oracle(w)


def _scaled(w, s):
    """I/N + s (W - I/N): the same orbit dimension for every s > 0."""
    mix = np.eye(w.dim) / w.dim
    return DensityMatrix(w.k, w.m, mix + s * (w.matrix - mix))


def _scale_states():
    out = []
    for k, m in [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 4)]:
        out.append((f"mixed-{k}x{m}", random_state("mixed", k, m, seed=40 + 10 * k + m)))
        out.append((f"pure-{k}x{m}", pure_density(random_state("pure", k, m, seed=70 + 10 * k + m))))
    for cid in sorted(CASES):
        out.append((f"case-{cid}", case_state(cid, sample_params(cid, 1, seed=80 + cid)[0])))
    return out


SCALE_STATES = _scale_states()


@pytest.mark.parametrize("s", [1.0, 1e-2, 1e-4, 1e-6, 1e-8])
@pytest.mark.parametrize("w", [w for _, w in SCALE_STATES], ids=[name for name, _ in SCALE_STATES])
def test_rank_is_scale_free_on_all_routes(w, s):
    want = gram_direct(w).rank
    assert _route_ranks(_scaled(w, s)) == (want, want, want)


@pytest.mark.parametrize("k,m", [(2, 2), (3, 3), (4, 5)])
def test_rotated_maximally_mixed_has_rank_zero(k, m):
    u = haar_unitary(k * m, seed=90 + 10 * k + m)
    w = DensityMatrix(k, m, u @ (np.eye(k * m) / (k * m)) @ u.conj().T)
    assert _route_ranks(w) == (0, 0, 0)


def test_weak_werner_state_keeps_its_rank():
    assert _route_ranks(werner_state(1e-5)) == (3, 3, 3)


def _is_exactly_hermitian(t):
    return np.array_equal(t, t.conj().swapaxes(-1, -2))


@pytest.mark.parametrize("kind", ["mixed", "pure"])
@pytest.mark.parametrize("k,m", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 5), (5, 5)])
def test_tangent_vectors_are_hermitian_bit_for_bit(k, m, kind):
    w = random_state(kind, k, m, seed=100 + 10 * k + m)
    w = pure_density(w) if kind == "pure" else w
    assert _is_exactly_hermitian(tangent_vectors(w))


def test_tangent_stack_is_hermitian_bit_for_bit():
    rng = np.random.default_rng(110)
    mats = np.array([random_state("mixed", 3, 3, rng).matrix for _ in range(5)]).reshape(5, 1, 9, 9)
    t = gram._commutators(mats, 3, 3)
    assert t.shape == (5, 1, 16, 9, 9)
    assert _is_exactly_hermitian(t)


def test_local_orbit_dim_follows_the_report_tol():
    # a case-3 point (rank 3) nudged by 1e-4: three Gram eigenvalues near 1e-6 lambda_max
    w = case_state(3, {"mu": 0.1})
    rng = np.random.default_rng(0)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = h + h.conj().T
    h -= np.trace(h) / 4 * np.eye(4)
    nudged = DensityMatrix(2, 2, w.matrix + 1e-4 * h)
    coarse, fine = gram_direct(nudged, 1e-3), gram_direct(nudged)
    assert (coarse.rank, fine.rank) == (3, 6)
    assert local_orbit_dim(coarse) == 3
    assert local_orbit_dim(fine) == 6


@pytest.mark.parametrize("k,m", [(3, 3), (5, 5)])
def test_results_never_alias_the_workspace(k, m):
    w, other = (random_state("mixed", k, m, seed=120 + 10 * k + s) for s in range(2))
    rep = gram_direct(w)
    kept = [tangent_vectors(w), rep.matrix, rep.spectrum]
    want = [x.copy() for x in kept]
    later = [gram_direct(other).matrix, *gram.gram_stack(other.matrix, k, m)[:2], tangent_vectors(other)]
    assert orbit_dim_oracle(other) == k * k + m * m - 2
    for x, y in zip(kept, want):
        assert np.array_equal(x, y)
    results = kept + later + [gram_direct(w).matrix, tangent_vectors(w)]
    _, pair, rows = gram._workspace.held
    workspace = [rows, *pair]
    for i, x in enumerate(results):
        assert x.flags.writeable
        assert not any(np.shares_memory(x, y) for y in results[i + 1 :] + workspace)


def test_gram_routes_are_thread_safe():
    splits = [(2, 2), (3, 4), (4, 5), (5, 5)]
    states = {km: [random_state("mixed", *km, seed=130 + 10 * i + s) for s in range(5)] for i, km in enumerate(splits)}
    serial = {km: [(gram_direct(w), orbit_dim_oracle(w)) for w in ws] for km, ws in states.items()}
    start, mismatches = threading.Barrier(len(splits), timeout=60), {}

    def run(km):
        start.wait()
        bad = 0
        for i in range(30):
            w, (want, oracle) = states[km][i % 5], serial[km][i % 5]
            got = gram_direct(w)
            err = np.max(np.abs(got.matrix - want.matrix)) / np.max(np.abs(want.matrix))
            bad += got.rank != want.rank or orbit_dim_oracle(w) != oracle or err > 1e-13
        mismatches[km] = bad

    threads = [threading.Thread(target=run, args=(km,)) for km in splits]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert mismatches == dict.fromkeys(splits, 0)


@pytest.mark.parametrize("route", [gram_direct, orbit_dim_oracle])
def test_warm_5x5_routes_allocate_less_than_one_tangent_stack(route):
    w = random_state("mixed", 5, 5, seed=140)
    route(w)
    tracemalloc.start()
    try:
        route(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 25 * 25 * 16
