"""The generator-stack contractions against the textbook kron/trace loops.

The loops below build every local operator e_j x I, I x f_alpha and
e_j x f_alpha with its own ``np.kron`` and take one trace per entry; they
are the reference the contractions in ``gram`` and ``states`` must match.  The stacked
kernels must match the same references, and the scalar calls, state by state.
The closed-form Gram blocks are checked against their index formulas
written as einsums.  Non-square splits are included because a swapped
index in the (k, m, k, m) reshape cancels out when k = m.
"""

import numpy as np
import pytest

from orbit_atlas import (
    BlochForm,
    DensityMatrix,
    bloch_matrices,
    compose_bloch,
    decompose_bloch,
    gram_closed_form,
    gram_direct,
    gram_stack,
    orbit_dim_oracle,
    pure_density,
    random_state,
    structure_constants,
    su_generators,
    tangent_vectors,
)

SPLITS = [(2, 2), (2, 3), (3, 2), (3, 4), (4, 4), (4, 5), (5, 2), (5, 5)]


def _local_ops(k, m):
    ik, im = np.eye(k), np.eye(m)
    return [np.kron(e, im) for e in su_generators(k)] + [np.kron(ik, f) for f in su_generators(m)]


def _loop_tangents(w):
    mat = w.matrix
    return [op @ mat - mat @ op for op in _local_ops(w.k, w.m)]


def _loop_gram(tangents):
    return np.array([[0.5 * np.trace(x @ y).real for y in tangents] for x in tangents])


def _loop_compose(f):
    k, m = f.k, f.m
    ek, fa = su_generators(k), su_generators(m)
    ik, im = np.eye(k), np.eye(m)
    w = np.eye(k * m, dtype=complex) / (k * m)
    for aj, e in zip(f.a, ek):
        w += 1j * aj * np.kron(e, im)
    for bal, fal in zip(f.b, fa):
        w += 1j * bal * np.kron(ik, fal)
    for j, e in enumerate(ek):
        for al, fal in enumerate(fa):
            w += f.g[j, al] * np.kron(e, fal)
    return w


def _loop_decompose(w):
    k, m = w.k, w.m
    ek, fa = su_generators(k), su_generators(m)
    ik, im = np.eye(k), np.eye(m)
    mat = w.matrix
    a = [(np.trace(mat @ np.kron(e, im)) / (-2j * m)).real for e in ek]
    b = [(np.trace(mat @ np.kron(ik, f)) / (-2j * k)).real for f in fa]
    g = [[(np.trace(mat @ np.kron(e, f)) / 4.0).real for f in fa] for e in ek]
    return np.array(a), np.array(b), np.array(g)


def _einsum_closed_form(f):
    k, m = f.k, f.m
    c, d = structure_constants(su_generators(k)), structure_constants(su_generators(m))
    g, a, b = f.g, f.a, f.b
    ma = 2.0 * (g @ g.T) + m * np.outer(a, a)
    md = 2.0 * (g.T @ g) + k * np.outer(b, b)
    block_a = np.einsum("km,ikl,jml->ij", ma, c, c, optimize=True)
    block_b = 2.0 * np.einsum("kb,mg,ikm,agb->ia", g, g, c, d, optimize=True)
    block_d = np.einsum("gd,agu,bdu->ab", md, d, d, optimize=True)
    return np.block([[block_a, block_b], [block_b.T, block_d]])


def _assert_close(actual, reference, rel=1e-13):
    actual, reference = np.asarray(actual), np.asarray(reference)
    assert actual.shape == reference.shape
    assert np.max(np.abs(actual - reference)) <= rel * np.max(np.abs(reference))


@pytest.mark.parametrize("k,m", SPLITS)
def test_tangent_stack_matches_kron_commutators(k, m):
    w = random_state("mixed", k, m, seed=10 * k + m)
    t = tangent_vectors(w)
    assert t.shape == (k**2 + m**2 - 2, k * m, k * m)
    assert np.max(np.abs(t - t.conj().transpose(0, 2, 1))) <= 1e-14 * np.max(np.abs(t))
    _assert_close(t, _loop_tangents(w))


@pytest.mark.parametrize("k,m", SPLITS)
def test_gram_direct_matches_trace_loop(k, m):
    for kind in ("mixed", "pure"):
        w = random_state(kind, k, m, seed=20 * k + m)
        if kind == "pure":
            w = pure_density(w)
        rep = gram_direct(w)
        _assert_close(rep.matrix, _loop_gram(_loop_tangents(w)))
        assert orbit_dim_oracle(w) == rep.rank


def _toward_mixed(k, m, s):
    w = random_state("mixed", k, m, seed=50 * k + m)
    mix = np.eye(k * m) / (k * m)
    return DensityMatrix(k, m, mix + s * (w.matrix - mix))


@pytest.mark.parametrize("w,rank", [
    (pure_density(random_state("pure", 5, 5, seed=55)), 44),
    (pure_density(random_state("pure", 2, 3, seed=23)), 9),
    (_toward_mixed(3, 3, 1e-6), 16),
    (_toward_mixed(4, 5, 1e-6), 39),
], ids=["pure-5x5", "pure-2x3", "near-mixed-3x3", "near-mixed-4x5"])
def test_oracle_rank_matches_gram_on_degenerate_states(w, rank):
    # a generic pure K x M state (K <= M) has a (K - 1) + (M - K)^2 dimensional
    # stabiliser in su(K) + su(M); near I/N the Gram matrix shrinks by s^2
    assert gram_direct(w).rank == rank
    assert orbit_dim_oracle(w) == rank


def test_commutator_routes_reject_non_hermitian():
    mat = random_state("mixed", 2, 3, seed=4).matrix.copy()
    mat[0, 1] += 0.1
    for route in (gram_direct, orbit_dim_oracle):
        with pytest.raises(ValueError, match="not Hermitian"):
            route(DensityMatrix(2, 3, mat))


@pytest.mark.parametrize("k,m", SPLITS)
def test_bloch_contractions_match_kron_loops(k, m):
    rng = np.random.default_rng(30 * k + m)
    w = random_state("mixed", k, m, rng)
    f = decompose_bloch(w)
    for got, want in zip((f.a, f.b, f.g), _loop_decompose(w)):
        _assert_close(got, want)
    # compose is linear in (a, b, G): any real coefficients test the index order
    g = BlochForm(k, m, rng.standard_normal(k**2 - 1), rng.standard_normal(m**2 - 1),
                  rng.standard_normal((k**2 - 1, m**2 - 1)))
    for form in (f, g):
        _assert_close(compose_bloch(form).matrix, _loop_compose(form))


@pytest.mark.parametrize("k,m", SPLITS)
def test_closed_form_products_match_einsum_formulas(k, m):
    f = decompose_bloch(random_state("mixed", k, m, seed=40 * k + m))
    _assert_close(gram_closed_form(f).matrix, _einsum_closed_form(f))


@pytest.mark.parametrize("k,m", SPLITS)
def test_stacked_compose_matches_kron_loops(k, m):
    rng = np.random.default_rng(70 * k + m)
    a = rng.standard_normal((3, k**2 - 1))
    b = rng.standard_normal((3, m**2 - 1))
    g = rng.standard_normal((3, k**2 - 1, m**2 - 1))
    mats = bloch_matrices(k, m, a, b, g)
    assert mats.shape == (3, k * m, k * m)
    for i in range(3):
        form = BlochForm(k, m, a[i], b[i], g[i])
        _assert_close(mats[i], _loop_compose(form))
        _assert_close(mats[i], compose_bloch(form).matrix, rel=1e-15)


def _gram_test_stack(k, m):
    # mixed, pure, rank-2 and maximally mixed (Gram rank 0) states
    rng = np.random.default_rng(60 * k + m)
    pure = [pure_density(random_state("pure", k, m, rng)).matrix for _ in range(2)]
    mixed = [random_state("mixed", k, m, rng).matrix for _ in range(2)]
    return np.array(mixed + pure + [0.5 * (pure[0] + pure[1]), np.eye(k * m) / (k * m)])


@pytest.mark.parametrize("k,m", [(2, 2), (2, 3), (3, 3), (4, 4)])
def test_gram_stack_matches_gram_direct_loop(k, m):
    mats = _gram_test_stack(k, m)
    c, spectra, ranks = gram_stack(mats, k, m)
    d = k**2 + m**2 - 2
    assert c.shape == (len(mats), d, d) and spectra.shape == (len(mats), d)
    for i, mat in enumerate(mats):
        rep = gram_direct(DensityMatrix(k, m, mat))
        assert np.max(np.abs(c[i] - rep.matrix)) <= 1e-15 * max(1.0, np.max(np.abs(rep.matrix)))
        assert np.max(np.abs(spectra[i] - rep.spectrum)) <= 1e-15 * max(1.0, rep.spectrum[-1])
        assert ranks[i] == rep.rank
    assert ranks[-1] == 0 and ranks[0] == d
