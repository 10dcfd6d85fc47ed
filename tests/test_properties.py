"""Property tests of the invariances the orbit geometry rests on.

Derandomized, so every run draws the same examples.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from orbit_atlas import (  # noqa: E402
    apply_local_unitary,
    DensityMatrix,
    compose_bloch,
    concurrence_mixed,
    decompose_bloch,
    gram_closed_form,
    gram_direct,
    orbit_dim_oracle,
    ppt_check,
    pure_density,
    random_local_unitary,
    random_state,
    swap_sides,
)

PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)


@st.composite
def states(draw, max_dim=4):
    k = draw(st.integers(2, max_dim))
    m = draw(st.integers(2, max_dim))
    kind = draw(st.sampled_from(["mixed", "pure"]))
    seed = draw(st.integers(0, 2**32 - 1))
    w = random_state(kind, k, m, seed)
    return pure_density(w) if kind == "pure" else w


def _spectra_close(x, y):
    np.testing.assert_allclose(x, y, rtol=0, atol=1e-12 * max(1.0, np.max(np.abs(y))))


@PROPERTY
@given(states())
def test_compose_inverts_decompose(w):
    np.testing.assert_allclose(compose_bloch(decompose_bloch(w)).matrix, w.matrix, rtol=0, atol=1e-12)


@PROPERTY
@given(states(), st.integers(0, 2**32 - 1))
def test_gram_spectrum_is_local_unitary_invariant(w, seed):
    moved = apply_local_unitary(w, random_local_unitary(w.k, w.m, seed))
    before, after = gram_direct(w), gram_direct(moved)
    _spectra_close(after.spectrum, before.spectrum)
    assert after.rank == before.rank


@PROPERTY
@given(states(max_dim=2), st.integers(0, 2**32 - 1))
def test_concurrence_is_local_unitary_invariant(w, seed):
    moved = apply_local_unitary(w, random_local_unitary(2, 2, seed))
    assert abs(concurrence_mixed(moved) - concurrence_mixed(w)) <= 1e-12


@PROPERTY
@given(states(), st.integers(0, 2**32 - 1))
def test_partial_transpose_spectrum_is_local_unitary_invariant(w, seed):
    # (U_A x U_B) W (U_A x U_B)^dag has partial transpose conjugated by U_A x conj(U_B)
    moved = apply_local_unitary(w, random_local_unitary(w.k, w.m, seed))
    _spectra_close(ppt_check(moved).spectrum, ppt_check(w).spectrum)


@PROPERTY
@given(states())
def test_gram_spectrum_is_swap_symmetric(w):
    swapped = compose_bloch(swap_sides(decompose_bloch(w)))
    _spectra_close(gram_direct(swapped).spectrum, gram_direct(w).spectrum)


@PROPERTY
@given(states(), st.floats(-8.0, 0.0))
def test_rank_is_invariant_under_scaling_toward_maximally_mixed(w, log_s):
    # W -> I/N + s (W - I/N) scales the Gram matrix by s^2, so no route's rank moves
    mix = np.eye(w.dim) / w.dim
    scaled = DensityMatrix(w.k, w.m, mix + 10.0**log_s * (w.matrix - mix))
    want = gram_direct(w).rank
    assert gram_direct(scaled).rank == want
    assert gram_closed_form(decompose_bloch(scaled)).rank == want
    assert orbit_dim_oracle(scaled) == want
