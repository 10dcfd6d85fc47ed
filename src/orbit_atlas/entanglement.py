"""Entanglement invariants and separability tests.

For 2x2 systems: concurrence via the spin-flip construction
W~ = W (sigma_y x sigma_y) W* (sigma_y x sigma_y), whose eigenvalues xi_i
are real and nonnegative, with c = max(0, sqrt(xi_1) - sqrt(xi_2) -
sqrt(xi_3) - sqrt(xi_4)) on the descending spectrum, and the entanglement
of formation E = h((1 + sqrt(1 - c^2)) / 2) with h the binary entropy.

For any bipartition: the partial-transpose test (conclusive exactly for
2x2, 2x3, and 3x2), membership in the maximal separable ball around the
maximally mixed state, and the spectrum-only bound
c* = max(0, r1 - r3 - 2 sqrt(r2 r4)) on absolutely separable 2x2 spectra.

The spin-flip spectrum, concurrence, partial-transpose spectrum and
purity are computed by kernels on (..., n, n) stacks (``xi_spectra``,
``concurrences``, ``pt_spectra``, ``purities``); the per-state functions
wrap them, so a stack and a loop over its states run the same arithmetic.
``concurrences_from_xi`` takes the concurrence from spin-flip spectra
already computed.

``char_coeffs`` returns the characteristic polynomial coefficients of a
canonical 2x2 Bloch form (diagonal G) in closed form; the partially
transposed variant differs in exactly three terms, obtained by the
substitution (b_2, mu_2) -> (-b_2, -mu_2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import partial_transpose
from .canonical import omega
from .states import BlochForm, DensityMatrix, _check_tol, _require_2x2, _require_diagonal_g

__all__ = [
    "concurrence_pure",
    "spin_flip",
    "xi_spectra",
    "xi_spectrum",
    "concurrences_from_xi",
    "concurrences",
    "concurrence_mixed",
    "entanglement_of_formation",
    "PPTResult",
    "pt_spectra",
    "ppt_check",
    "char_coeffs",
    "purities",
    "in_maximal_ball",
    "maximal_ball_check",
    "cstar",
    "absolutely_separable",
    "unit_spectrum",
    "EntanglementReport",
    "entanglement_report",
]

XI_CLAMP = 1e-10
PPT_TOL = 1e-10

_SY = np.array([[0, -1j], [1j, 0]])
_FLIP = np.kron(_SY, _SY)


def concurrence_pure(w) -> float:
    """Concurrence 2 |v z - x y| of a pure 2x2 state."""
    return 2.0 * abs(omega(w))


def _mat_2x2(w: DensityMatrix) -> np.ndarray:
    _require_2x2(w, "the spin flip")
    return w.matrix


def spin_flip(w: DensityMatrix) -> np.ndarray:
    """The matrix W (sigma_y x sigma_y) W* (sigma_y x sigma_y)."""
    mat = _mat_2x2(w)
    return mat @ _FLIP @ mat.conj() @ _FLIP


def xi_spectra(mats: np.ndarray) -> np.ndarray:
    """Spin-flip spectra of a (..., 4, 4) stack of 2x2 density matrices,
    each descending along the last axis.

    Computed as squared singular values of sqrt(W) F sqrt(W)* with
    F = sigma_y x sigma_y: these equal the eigenvalues of W Wbar exactly
    but remain fully accurate near zero, where the plain nonsymmetric
    eigensolve loses half the digits.  Raises if any W is not PSD to XI_CLAMP.
    """
    vals, vecs = np.linalg.eigh(mats)
    low = vals[..., 0].min(initial=0.0)
    if low < -XI_CLAMP:
        raise ValueError(f"density matrix has negative eigenvalue {low}")
    root = (vecs * np.sqrt(vals.clip(0.0, None))[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)
    s = np.linalg.svd(root @ _FLIP @ root.conj(), compute_uv=False)
    return np.sort(s * s, axis=-1)[..., ::-1]


def xi_spectrum(w: DensityMatrix) -> np.ndarray:
    """Eigenvalues of the spin-flipped matrix, descending (see xi_spectra)."""
    return xi_spectra(_mat_2x2(w))


def concurrences_from_xi(xi: np.ndarray) -> np.ndarray:
    """Concurrence max(0, sqrt(xi_1) - sqrt(xi_2) - sqrt(xi_3) - sqrt(xi_4))
    of each descending spin-flip spectrum in a (..., 4) stack."""
    r = np.sqrt(xi)
    c = r[..., 0] - r[..., 1] - r[..., 2] - r[..., 3]
    return np.where(c > 0.0, c, 0.0)


def concurrences(mats: np.ndarray) -> np.ndarray:
    """Concurrence of each matrix in a (..., 4, 4) stack (see concurrences_from_xi)."""
    return concurrences_from_xi(xi_spectra(mats))


def concurrence_mixed(w: DensityMatrix) -> float:
    """Concurrence max(0, sqrt(xi_1) - sqrt(xi_2) - sqrt(xi_3) - sqrt(xi_4))."""
    return float(concurrences(_mat_2x2(w)))


def _h2(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


def entanglement_of_formation(c: float) -> float:
    """Entanglement of formation of a 2x2 state with concurrence c (in bits)."""
    if not -1e-12 <= c <= 1.0 + 1e-12:
        raise ValueError(f"concurrence must lie in [0, 1], got {c}")
    c = min(max(c, 0.0), 1.0)
    return _h2((1.0 + np.sqrt(1.0 - c * c)) / 2.0)


@dataclass(frozen=True)
class PPTResult:
    """Partial-transpose spectrum (ascending) and the resulting verdict."""

    spectrum: np.ndarray
    verdict: str  # "separable" | "entangled" | "ppt_undecided"


def pt_spectra(mats: np.ndarray, k: int, m: int) -> np.ndarray:
    """Partial-transpose spectra (ascending) of a (..., k*m, k*m) stack."""
    return np.linalg.eigvalsh(partial_transpose(mats, k, m))


def _ppt_verdict(min_eig: float, k: int, m: int) -> str:
    if min_eig < -PPT_TOL:
        return "entangled"
    return "separable" if (k, m) in {(2, 2), (2, 3), (3, 2)} else "ppt_undecided"


def ppt_check(w: DensityMatrix) -> PPTResult:
    """Positivity of the partial transpose.

    An eigenvalue below -PPT_TOL proves entanglement for any bipartition; a
    nonnegative spectrum proves separability only for 2x2, 2x3, and 3x2,
    and is reported as "ppt_undecided" otherwise.
    """
    spec = pt_spectra(w.matrix, w.k, w.m)
    return PPTResult(spectrum=spec, verdict=_ppt_verdict(spec[0], w.k, w.m))


def char_coeffs(f: BlochForm, transposed: bool = False) -> np.ndarray:
    """Characteristic polynomial coefficients of a canonical 2x2 Bloch form.

    Returns the monic coefficients (1, -1, C2, C1, C0) of det(W - t I) as a
    polynomial in t, for W with diagonal G = diag(mu).  With
    transposed=True the coefficients refer to the partial transpose of W;
    exactly the det G term in C1, and the det G and mixed a_i b_i mu_j mu_k
    terms in C0, change sign.
    """
    _require_2x2(f, "the closed-form characteristic polynomial")
    _require_diagonal_g(f, "the closed-form characteristic polynomial")
    a, b = f.a, f.b
    mu = np.diagonal(f.g)
    na2, nb2 = float(a @ a), float(b @ b)
    tr_g2 = float(np.sum(mu**2))
    tr_g4 = float(np.sum(mu**4))
    det_g = float(np.prod(mu))
    a_g_b = float(np.sum(a * mu * b))
    nga2 = float(np.sum(mu**2 * a**2))
    ngb2 = float(np.sum(mu**2 * b**2))
    mixed = float(
        a[0] * b[0] * mu[1] * mu[2]
        + a[1] * b[1] * mu[0] * mu[2]
        + a[2] * b[2] * mu[0] * mu[1]
    )
    sign = 1.0 if transposed else -1.0
    c2 = 3.0 / 8.0 - 2.0 * na2 - 2.0 * nb2 - 2.0 * tr_g2
    c1 = -1.0 / 16.0 + na2 + nb2 + tr_g2 + 8.0 * a_g_b + sign * 8.0 * det_g
    c0 = (
        (na2 - nb2) ** 2
        + 2.0 * tr_g4
        - tr_g2**2
        - na2 / 8.0
        - nb2 / 8.0
        - tr_g2 / 8.0
        - 2.0 * a_g_b
        - sign * 2.0 * det_g
        - 4.0 * nga2
        - 4.0 * ngb2
        + 2.0 * (na2 + nb2) * tr_g2
        - sign * 8.0 * mixed
        + 1.0 / 256.0
    )
    return np.array([1.0, -1.0, c2, c1, c0])


def purities(mats: np.ndarray) -> np.ndarray:
    """Purity Tr(rho^2) of each matrix in a (..., n, n) stack."""
    return np.trace(mats @ mats, axis1=-2, axis2=-1).real


def in_maximal_ball(purity, n: int):
    """Whether purity Tr(rho^2) of an n-level state puts it in the maximal
    ball around I/n, Tr(rho^2) - 1/n <= 1/(n(n-1)), boundary included.
    Works elementwise on arrays of purities."""
    return purity - 1.0 / n <= 1.0 / (n * (n - 1)) + 1e-12


def maximal_ball_check(w: DensityMatrix) -> bool:
    """Whether the state lies in the maximal ball around I/N (see
    in_maximal_ball).  Every state in the ball is PPT; for N = 4 and N = 6
    it is separable outright."""
    return bool(in_maximal_ball(float(purities(w.matrix)), w.dim))


def _check_unit_spectrum(r: np.ndarray) -> None:
    """Raise ValueError unless r is finite, >= -1e-12 and sums to 1 within 1e-8."""
    if not np.all(np.isfinite(r)):
        raise ValueError(f"spectrum must be finite, got {r}")
    if np.any(r < -1e-12):
        raise ValueError("spectrum must be nonnegative")
    if abs(r.sum() - 1.0) > 1e-8:
        raise ValueError(f"spectrum must sum to 1, got {r.sum()}")


def cstar(spectrum) -> float:
    """Spectrum-only concurrence bound max(0, r1 - r3 - 2 sqrt(r2 r4)) for
    N = 4 spectra sorted descending: the largest concurrence attainable on
    the global unitary orbit vanishes iff this does."""
    r = np.asarray(spectrum, dtype=float).reshape(-1)
    if r.shape != (4,):
        raise ValueError(f"expected 4 eigenvalues, got shape {r.shape}")
    _check_unit_spectrum(r)
    if np.any(np.diff(r) > 1e-12):
        raise ValueError("spectrum must be sorted descending")
    return float(max(0.0, r[0] - r[2] - 2.0 * np.sqrt(r[1] * r[3])))


def absolutely_separable(spectrum, tol: float = 1e-12) -> str:
    """Whether every global-unitary rotation of the spectrum is separable.

    "yes" when c* = 0 and the state is rank deficient (rank <= 3, where the
    c* = 0 criterion is exact); "yes_conjectural" when c* = 0 at full rank
    4; "no" when c* > 0.
    """
    r = np.sort(np.asarray(spectrum, dtype=float).reshape(-1))[::-1]
    value = cstar(r)
    if value > _check_tol(tol):
        return "no"
    rank = int(np.sum(r > max(r[0], 1.0) * 1e-12))
    return "yes" if rank <= 3 else "yes_conjectural"


def unit_spectrum(w: DensityMatrix) -> np.ndarray:
    """Eigenvalues of w clipped at zero, sorted descending and normalised
    to unit sum: the spectrum that cstar and absolutely_separable take."""
    spec = w.spectrum[::-1].clip(0.0, None)
    return spec / spec.sum()


@dataclass(frozen=True)
class EntanglementReport:
    """Bundle of entanglement diagnostics; 2x2-only fields are None otherwise."""

    concurrence: float | None
    eof: float | None
    ppt_spectrum: np.ndarray
    ppt_verdict: str
    in_maximal_ball: bool
    cstar: float | None
    absolutely_separable: str | None


def entanglement_report(w: DensityMatrix) -> EntanglementReport:
    """Collect the diagnostics available for the given bipartition."""
    ppt = ppt_check(w)
    c = eof = star = verdict = None
    if (w.k, w.m) == (2, 2):
        c = concurrence_mixed(w)
        eof = entanglement_of_formation(c)
        spec = unit_spectrum(w)
        star, verdict = cstar(spec), absolutely_separable(spec)
    return EntanglementReport(
        concurrence=c,
        eof=eof,
        ppt_spectrum=ppt.spectrum,
        ppt_verdict=ppt.verdict,
        in_maximal_ball=maximal_ball_check(w),
        cstar=star,
        absolutely_separable=verdict,
    )
