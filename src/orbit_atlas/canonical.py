"""Canonical forms of 2x2 states under local unitaries.

Pure states: with amplitudes w = (v, x, y, z) in the product basis, form
X(w) = [[v, y], [x, z]].  A local map V x U sends X to U X V^T, so the
singular values (p, q) of X are local invariants and every pure state is
locally equivalent to w_theta = (cos(theta/2), 0, 0, sin(theta/2)) with
sin(theta) = 2 p q = 2 |det X|.  The quantity omega = det X = v z - x y
has locally invariant modulus; c = 2 |omega| is the concurrence.

Mixed states: the real 3x3 Bloch block G is brought to diagonal form by
proper rotations O1 G O2^T = diag(mu); the sign convention keeps all mu
nonnegative (descending) when det G >= 0 and all nonpositive (ascending)
when det G < 0, so that (O1, O2) always lifts to a local unitary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import BlochForm, PureState, _require_2x2

__all__ = [
    "amplitude_matrix",
    "omega",
    "SchmidtForm",
    "schmidt_pure",
    "CanonicalMixedForm",
    "canonicalize_mixed_2x2",
    "orbit_sample",
    "PureStratum",
    "pure_stratum",
]

_STRATUM_TOL = 1e-8  # concurrence snapped to the separable (0) and maximal (1) strata


def amplitude_matrix(w) -> np.ndarray:
    """X(w) = [[v, y], [x, z]] for amplitudes w = (v, x, y, z): a 2x2 PureState,
    or 4 amplitudes held to PureState's contract (finite, unit norm)."""
    w = w if isinstance(w, PureState) else PureState(2, 2, w)
    _require_2x2(w, "the amplitude matrix")
    return w.amplitudes.reshape(2, 2).T.copy()


def omega(w) -> complex:
    """det X(w) = v z - x y; |omega| is a local unitary invariant in [0, 1/2]."""
    x = amplitude_matrix(w)
    return complex(x[0, 0] * x[1, 1] - x[1, 0] * x[0, 1])


@dataclass(frozen=True)
class SchmidtForm:
    """Local-unitary normal form of a pure 2x2 state.

    kron(v, u) @ amplitudes equals canonical_vector up to a global phase,
    where canonical_vector = (cos(theta/2), 0, 0, sin(theta/2)).
    """

    theta: float
    u: np.ndarray  # SU(2), acts on the second factor
    v: np.ndarray  # SU(2), acts on the first factor
    canonical_vector: np.ndarray


def _special_phase(u: np.ndarray) -> np.ndarray:
    # divide out det^(1/2) so the factor lands in SU(2)
    det = np.linalg.det(u)
    return u * np.exp(-0.5j * np.angle(det))


def schmidt_pure(w) -> SchmidtForm:
    """Canonicalize a pure 2x2 state via the SVD of its amplitude matrix."""
    uu, s, vh = np.linalg.svd(amplitude_matrix(w))
    u = _special_phase(uu.conj().T)
    v = _special_phase(vh.conj())
    p, q = float(s[0]), float(s[1])
    theta = 2.0 * np.arctan2(q, p)
    canonical = np.array([np.cos(theta / 2), 0.0, 0.0, np.sin(theta / 2)], dtype=complex)
    return SchmidtForm(theta=float(theta), u=u, v=v, canonical_vector=canonical)


@dataclass(frozen=True)
class CanonicalMixedForm:
    """Diagonalized Bloch data of a mixed 2x2 state: G = O1^T diag(mu) O2."""

    mu: np.ndarray
    a: np.ndarray  # O1 @ a_original
    b: np.ndarray  # O2 @ b_original
    o1: np.ndarray
    o2: np.ndarray
    det_sign: int

    def bloch(self) -> BlochForm:
        return BlochForm(2, 2, self.a, self.b, np.diag(self.mu))


def canonicalize_mixed_2x2(f: BlochForm) -> CanonicalMixedForm:
    """Bring the G block to diagonal form with proper rotations.

    Proper rotations on both sides are exactly the adjoint images of local
    SU(2) factors, so the returned form lies on the same local orbit.  When
    det G >= 0 the diagonal is nonnegative descending; when det G < 0 it is
    nonpositive ascending (the improper sign is folded into all three
    singular values).
    """
    _require_2x2(f, "the canonical form")
    uu, s, vh = np.linalg.svd(f.g)
    o1, o2 = uu.T.copy(), vh.copy()
    d1, d2 = np.linalg.det(o1), np.linalg.det(o2)
    if d1 * d2 > 0:
        if d1 < 0:
            o1[2] *= -1.0
            o2[2] *= -1.0
        mu = s.copy()
        det_sign = 1
    elif s[2] <= 1e-13 * max(s[0], 1.0):
        # det G = 0: a single-row flip keeps the nonnegative branch
        if d1 < 0:
            o1[2] *= -1.0
        else:
            o2[2] *= -1.0
        mu = np.array([s[0], s[1], -s[2]])
        det_sign = 1
    else:
        if d1 < 0:
            o1 = -o1
        else:
            o2 = -o2
        mu = -s
        det_sign = -1
    return CanonicalMixedForm(
        mu=mu, a=o1 @ f.a, b=o2 @ f.b, o1=o1, o2=o2, det_sign=det_sign
    )


def orbit_sample(stratum: str, **params) -> PureState:
    """Point on a named pure orbit family.

    stratum="max_entangled" with (alpha, chi1, chi2): the three-parameter
    orbit of maximally entangled states,
    (1/sqrt2) (cos a e^{i c1}, sin a e^{i c2}, sin a e^{-i c2}, -cos a e^{-i c1}).
    stratum="separable" with (alpha, beta, chi1, chi2): the product-state
    orbit (cos a cos b e^{i c1}, cos a sin b e^{i c2},
    sin a cos b e^{-i c2}, sin a sin b e^{-i c1}).
    """
    if stratum == "max_entangled":
        missing = {"alpha", "chi1", "chi2"} - set(params)
        if missing:
            raise ValueError(f"max_entangled sample needs parameters {sorted(missing)}")
        al, c1, c2 = params["alpha"], params["chi1"], params["chi2"]
        amp = np.array(
            [
                np.cos(al) * np.exp(1j * c1),
                np.sin(al) * np.exp(1j * c2),
                np.sin(al) * np.exp(-1j * c2),
                -np.cos(al) * np.exp(-1j * c1),
            ]
        ) / np.sqrt(2.0)
        return PureState(2, 2, amp)
    if stratum == "separable":
        missing = {"alpha", "beta", "chi1", "chi2"} - set(params)
        if missing:
            raise ValueError(f"separable sample needs parameters {sorted(missing)}")
        al, be, c1, c2 = params["alpha"], params["beta"], params["chi1"], params["chi2"]
        amp = np.array(
            [
                np.cos(al) * np.cos(be) * np.exp(1j * c1),
                np.cos(al) * np.sin(be) * np.exp(1j * c2),
                np.sin(al) * np.cos(be) * np.exp(-1j * c2),
                np.sin(al) * np.sin(be) * np.exp(-1j * c1),
            ]
        )
        return PureState(2, 2, amp)
    raise ValueError(f"unknown stratum {stratum!r}; expected 'max_entangled' or 'separable'")


@dataclass(frozen=True)
class PureStratum:
    """Orbit stratum of a pure 2x2 state: label, orbit dimension, angle."""

    label: str
    orbit_dim: int
    theta: float


def pure_stratum(w) -> PureStratum:
    """Classify a pure 2x2 state by concurrence: separable orbits are
    4-dimensional, generic orbits 5-dimensional, and maximally entangled
    orbits 3-dimensional."""
    c = 2.0 * abs(omega(w))
    theta = float(np.arcsin(min(c, 1.0)))
    if c <= _STRATUM_TOL:
        return PureStratum("separable", 4, 0.0)
    if c >= 1.0 - _STRATUM_TOL:
        return PureStratum("max_entangled", 3, float(np.pi / 2))
    return PureStratum("generic", 5, theta)
