"""Catalog of 2x2 families with submaximal local orbits.

Each case fixes a pattern of canonical Bloch coefficients (diagonal G, and
constrained a, b) for which the Gram matrix of the local orbit drops rank,
together with closed-form reference predictions for the Gram spectrum, the
state and partial-transpose spectra, the spin-flip spectrum, the
concurrence, and a separability claim.

A case is one :class:`CaseSpec` row of ``CASES`` holding its predicted
corank, its Bloch builder, its closed-form predictor and its parameter
sampler; ``case_bloch``, ``case_predictions`` and ``sample_params`` look it up.
Sampling runs in rounds: each draws the candidates still needed one by one,
then composes them as one (B, 4, 4) stack and keeps the PSD ones in draw
order, which consumes the seeded stream exactly as testing one at a time.
``verify_cases`` checks each case's points as one stack (Gram, partial-
transpose and spin-flip spectra in one call each); builders and predictors
run per point, and ``verify_case`` is the one-point stack.

The reference formulas are evaluated verbatim: the verification harness
compares them against direct numerics and reports residuals, so a formula
that disagrees shows up as a flagged typo candidate rather than being
silently corrected.  Square roots that can go negative under a literal
reading are taken in the complex plane; residuals are then moduli of
complex differences.

Cases 2 and 6 have mirror variants with the roles of a and b (and G, G^T)
exchanged; they share all orbit dimensions, see
:func:`orbit_atlas.states.swap_sides`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .entanglement import _ppt_verdict, concurrences_from_xi, pt_spectra, xi_spectra
from .gram import gram_stack
from .states import BlochForm, DensityMatrix, _check_tol, _jsonable, _rng, bloch_matrices, compose_bloch

__all__ = [
    "CaseSpec",
    "CasePredictions",
    "CaseVerdict",
    "CASES",
    "case_bloch",
    "case_state",
    "case_predictions",
    "sample_params",
    "verify_case",
    "verify_cases",
]

_QUANTITIES = ("gram_eig", "w_eig", "pt_eig", "xi", "concurrence")

c = np.array  # brevity for the per-case formulas below


@dataclass(frozen=True)
class CasePredictions:
    """Reference values for one catalog point.

    Eigenvalue arrays are complex so that literal formulas whose radicands
    go negative still evaluate; concurrence/separability are None where the
    catalog states no prediction.
    """

    gram_eigs: np.ndarray
    w_eigs: np.ndarray
    pt_eigs: np.ndarray
    xi: np.ndarray
    concurrence: float | None
    separability: str | None


@dataclass(frozen=True)
class CaseSpec:
    """One catalog entry: constraint pattern, predicted Gram corank, and the
    family's Bloch builder, closed-form predictor and parameter sampler.

    ``bloch`` (which returns the coefficients (a, b, G)) and ``predict`` take the
    parameters in ``param_names`` order, those in ``vectors`` as 3-vectors and the
    rest as floats.  ``sample`` draws one candidate in that order, or None to reject early.
    """

    case_id: int
    corank: int
    description: str
    param_names: tuple[str, ...]
    bloch: Callable[..., tuple] = field(repr=False)
    predict: Callable[..., CasePredictions] = field(repr=False)
    sample: Callable[[np.random.Generator], tuple | None] = field(repr=False)
    vectors: tuple[str, ...] = ()


def _vec(value) -> np.ndarray:
    v = np.asarray(value, dtype=float).reshape(-1)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector parameter, got shape {v.shape}")
    return v


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    # rng.uniform(lo, hi) computes exactly this from one random(); calling it costs 3-4x as much
    return lo + (hi - lo) * rng.random()


def _unit3(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / math.sqrt(v.dot(v))


def _signed(rng: np.random.Generator, lo: float, hi: float) -> float:
    # integers(0, 2) consumes the stream exactly as choice([-1.0, 1.0]) does
    return _uniform(rng, lo, hi) * (-1.0, 1.0)[rng.integers(0, 2)]


def _sqrt(x):
    """np.emath.sqrt of one scalar: a real root for a real input that is not
    negative (NaN included), the principal imaginary root of a negative one."""
    if isinstance(x, complex):
        return np.emath.sqrt(x)
    return complex(0.0, math.sqrt(-x)) if x < 0 else math.sqrt(x)


def _predict_1() -> CasePredictions:
    return CasePredictions(
        gram_eigs=np.zeros(6, dtype=complex),
        w_eigs=np.full(4, 0.25, dtype=complex),
        pt_eigs=np.full(4, 0.25, dtype=complex),
        xi=np.full(4, 1.0 / 16.0, dtype=complex),
        concurrence=0.0,
        separability="separable",
    )


def _predict_2(a) -> CasePredictions:
    na = math.sqrt(a.dot(a))
    rho = c([0.25 + na, 0.25 + na, 0.25 - na, 0.25 - na], dtype=complex)
    return CasePredictions(
        gram_eigs=c([8 * na**2, 8 * na**2, 0, 0, 0, 0], dtype=complex),
        w_eigs=rho,
        pt_eigs=rho.copy(),
        xi=np.full(4, 1.0 / 16.0 - na**2, dtype=complex),
        concurrence=0.0,
        separability="separable",
    )


def _predict_3(mu) -> CasePredictions:
    return CasePredictions(
        gram_eigs=c([32 * mu**2] * 3 + [0] * 3, dtype=complex),
        w_eigs=c([0.25 - mu] * 3 + [0.25 + 3 * mu], dtype=complex),
        pt_eigs=c([0.25 + mu] * 3 + [0.25 - 3 * mu], dtype=complex),
        xi=c([(12 * mu + 1) ** 2 / 16] + [(1 - 4 * mu) ** 2 / 16] * 3, dtype=complex),
        concurrence=max(0.0, 6 * mu - 0.5),
        separability="separable" if abs(mu) <= 1.0 / 12.0 + 1e-12 else "entangled",
    )


def _sample_3(rng: np.random.Generator) -> tuple | None:
    mu = _uniform(rng, -1.0 / 12.0 + 0.002, 0.245)
    return None if abs(mu) < 0.02 else (mu,)


def _predict_4(a, b) -> CasePredictions:
    na = math.sqrt(a.dot(a))
    nb = math.sqrt(b.dot(b))
    rho = c(
        [0.25 + na + nb, 0.25 - na - nb, 0.25 + abs(na - nb), 0.25 - abs(na - nb)],
        dtype=complex,
    )
    return CasePredictions(
        gram_eigs=c([8 * na**2] * 2 + [8 * nb**2] * 2 + [0, 0], dtype=complex),
        w_eigs=rho,
        pt_eigs=rho.copy(),
        # stated with plus signs; direct numerics give minus, flagged by the harness
        xi=c([1 / 16 + (na + nb) ** 2] * 2 + [1 / 16 + (na - nb) ** 2] * 2, dtype=complex),
        concurrence=0.0,
        separability="separable",
    )


def _predict_5(mu, a, b) -> CasePredictions:
    rho = c(
        [0.25 + a + b - mu, 0.25 - a + b + mu, 0.25 - a - b - mu, 0.25 + a - b + mu],
        dtype=complex,
    )
    return CasePredictions(
        gram_eigs=c(
            [8 * (a**2 + mu**2)] * 2 + [8 * (b**2 + mu**2)] * 2 + [0, 0], dtype=complex
        ),
        w_eigs=rho,
        pt_eigs=rho.copy(),
        xi=c(
            [(0.25 + mu) ** 2 - (a - b) ** 2] * 2
            + [(0.25 - mu) ** 2 - (a + b) ** 2] * 2,
            dtype=complex,
        ),
        concurrence=0.0,
        separability="separable",
    )


def _predict_6(mu, a, b) -> CasePredictions:
    nb2 = float(b @ b)
    lam_rad = math.sqrt((mu**2 - nb2) ** 2 + 4 * mu**2 * b[0] ** 2)
    r_minus = np.sqrt(mu**2 + nb2 - 2 * b[0] * mu)
    r_plus = np.sqrt(mu**2 + nb2 + 2 * b[0] * mu)
    rho = c(
        [0.25 + a + r_minus, 0.25 + a - r_minus, 0.25 - a + r_plus, 0.25 - a - r_plus],
        dtype=complex,
    )
    # the radical mixes quadratic and quartic terms as stated (2 mu a b_1)
    xi_rad = _sqrt(4 * (a**2 - mu**2) * nb2 + 4 * mu**2 * b[0] ** 2 + 2 * mu * a * b[0])
    xi_base = 1.0 / 16.0 + mu**2 - a**2 - nb2
    return CasePredictions(
        gram_eigs=c(
            [
                4 * (nb2 + mu**2 + lam_rad),
                4 * (nb2 + mu**2 - lam_rad),
                8 * (nb2 + mu**2),
                8 * (a**2 + mu**2),
                8 * (a**2 + mu**2),
                0,
            ],
            dtype=complex,
        ),
        w_eigs=rho,
        pt_eigs=rho.copy(),
        xi=c([xi_base + xi_rad] * 2 + [xi_base - xi_rad] * 2, dtype=complex),
        concurrence=0.0,
        separability="separable",
    )


def _predict_7(mu, xi_r, a) -> CasePredictions:
    na2 = float(a @ a)
    na = math.sqrt(na2)
    # inner radical mixes mu^4 with |a|^2 as stated
    inner = _sqrt(16 * mu**4 + (xi_r**2 - 1) ** 2 * na2)
    s_plus = _sqrt(mu**2 + inner)
    s_minus = _sqrt(mu**2 - inner)
    base = (xi_r**2 - 1) * na2
    r1 = abs(xi_r + 1) * na
    r2 = math.sqrt(4 * mu**2 + (xi_r - 1) ** 2 * na2)
    r1t = abs(xi_r - 1) * na
    r2t = math.sqrt(4 * mu**2 + (xi_r + 1) ** 2 * na2)
    # "(mu + 1)" under this radical as stated
    xrad = _sqrt(4 * (mu + 1) ** 2 - 16 * (xi_r - 1) ** 2 * na2)
    xi_head = 1.0 / 16.0 + mu / 2.0 + 5 * mu**2 - (xi_r - 1) ** 2 * na2
    xi_tail = (0.25 - mu) ** 2 - (xi_r + 1) ** 2 * na2
    nonsep = (
        math.sqrt(4 * mu**2 + (xi_r + 1) ** 2 * na2) > 0.25 - mu
        or 0.25 < abs(xi_r - 1) * na
    )
    return CasePredictions(
        gram_eigs=c(
            [
                4 * (base + s_plus),
                4 * (base + s_minus),
                4 * (base - s_plus),
                4 * (base - s_minus),
                32 * mu**2,
                0,
            ],
            dtype=complex,
        ),
        w_eigs=c([0.25 - mu + r1, 0.25 - mu - r1, 0.25 + mu + r2, 0.25 + mu - r2], dtype=complex),
        pt_eigs=c(
            [0.25 + mu + r1t, 0.25 + mu - r1t, 0.25 - mu + r2t, 0.25 - mu - r2t],
            dtype=complex,
        ),
        xi=c([xi_head + mu * xrad, xi_head - mu * xrad, xi_tail, xi_tail], dtype=complex),
        concurrence=None,
        separability="entangled" if nonsep else None,
    )


def _predict_axial(mu_d, mu_p, mu1, mu2, a, b) -> CasePredictions:
    rad = math.sqrt(16 * mu1**2 * mu2**2 + (a**2 - b**2) ** 2)
    base = a**2 + b**2 + 2 * mu1**2 + 2 * mu2**2
    r34 = math.sqrt(4 * mu_p**2 + (a - b) ** 2)
    r34t = math.sqrt(4 * mu_p**2 + (a + b) ** 2)
    xr = _sqrt((0.25 + mu_d) ** 2 - (a - b) ** 2)
    pt = c(
        [0.25 + mu_d - a + b, 0.25 + mu_d + a - b, 0.25 - mu_d + r34t, 0.25 - mu_d - r34t],
        dtype=complex,
    )
    nonsep = math.sqrt(4 * mu_p**2 + (a + b) ** 2) > 0.25 - mu_d or 0.25 < b - a - mu_d
    return CasePredictions(
        gram_eigs=c(
            [4 * (base + rad)] * 2 + [4 * (base - rad)] * 2 + [32 * mu_p**2, 0], dtype=complex
        ),
        w_eigs=c(
            [0.25 - mu_d + a + b, 0.25 - mu_d - a - b, 0.25 + mu_d + r34, 0.25 + mu_d - r34],
            dtype=complex,
        ),
        pt_eigs=pt,
        xi=c(
            [(0.25 - mu_d) ** 2 - (a + b) ** 2] * 2
            + [(xr + 2 * mu_p) ** 2, (xr - 2 * mu_p) ** 2],
            dtype=complex,
        ),
        concurrence=None,
        separability="entangled" if nonsep else None,
    )


def _sample_axial(rng: np.random.Generator) -> tuple | None:
    mu1 = _signed(rng, 0.02, 0.1)
    mu2 = _signed(rng, 0.02, 0.1)
    if abs(abs(mu1) - abs(mu2)) < 0.01:
        return None
    return mu1, mu2, _uniform(rng, 0.02, 0.08), _uniform(rng, 0.02, 0.08)


CASES: dict[int, CaseSpec] = {
    1: CaseSpec(
        1, 6, "maximally mixed: G = 0, a = b = 0", (),
        lambda: (np.zeros(3), np.zeros(3), np.zeros((3, 3))),
        _predict_1,
        lambda rng: (),
    ),
    2: CaseSpec(
        2, 4, "one-sided polarization: G = 0, b = 0, a free", ("a",),
        lambda a: (a, np.zeros(3), np.zeros((3, 3))),
        _predict_2,
        lambda rng: (_uniform(rng, 0.02, 0.24) * _unit3(rng),),
        vectors=("a",),
    ),
    3: CaseSpec(
        3, 3, "isotropic correlations: G = mu I, a = b = 0", ("mu",),
        lambda mu: (np.zeros(3), np.zeros(3), mu * np.eye(3)),
        _predict_3,
        _sample_3,
    ),
    4: CaseSpec(
        4, 2, "uncorrelated polarizations: G = 0, a and b free", ("a", "b"),
        lambda a, b: (a, b, np.zeros((3, 3))),
        _predict_4,
        lambda rng: (
            _uniform(rng, 0.02, 0.11) * _unit3(rng),
            _uniform(rng, 0.02, 0.11) * _unit3(rng),
        ),
        vectors=("a", "b"),
    ),
    5: CaseSpec(
        5, 2, "single-axis family: G = diag(mu,0,0), a, b along axis 1", ("mu", "a", "b"),
        lambda mu, a, b: ([a, 0, 0], [b, 0, 0], np.diag([mu, 0.0, 0.0])),
        _predict_5,
        lambda rng: (
            _signed(rng, 0.02, 0.12),
            _uniform(rng, 0.02, 0.1),
            _uniform(rng, 0.02, 0.1),
        ),
    ),
    6: CaseSpec(
        6, 1, "single-axis G and a, free b: G = diag(mu,0,0), a = (a,0,0)", ("mu", "a", "b"),
        lambda mu, a, b: ([a, 0, 0], b, np.diag([mu, 0.0, 0.0])),
        _predict_6,
        lambda rng: (
            _signed(rng, 0.02, 0.1),
            _uniform(rng, 0.02, 0.1),
            _uniform(rng, 0.02, 0.1) * _unit3(rng),
        ),
        vectors=("b",),
    ),
    7: CaseSpec(
        7, 1, "isotropic G with aligned polarizations: G = mu I, b = xi a", ("mu", "xi", "a"),
        lambda mu, xi, a: (a, xi * a, mu * np.eye(3)),
        _predict_7,
        lambda rng: (
            _signed(rng, 0.02, 0.06),
            _uniform(rng, -1.8, 1.8),
            _uniform(rng, 0.02, 0.08) * _unit3(rng),
        ),
        vectors=("a",),
    ),
    # case 9 is case 8 with the distinct G axis moved to position 3; the
    # printed formulas exchange the roles of mu1 and mu2 accordingly
    8: CaseSpec(
        8, 1, "axial G = diag(mu1, mu2, mu2), a, b along axis 1", ("mu1", "mu2", "a", "b"),
        lambda mu1, mu2, a, b: ([a, 0, 0], [b, 0, 0], np.diag([mu1, mu2, mu2])),
        lambda mu1, mu2, a, b: _predict_axial(mu1, mu2, mu1, mu2, a, b),
        _sample_axial,
    ),
    9: CaseSpec(
        9, 1, "planar G = diag(mu1, mu1, mu2), a, b along axis 3", ("mu1", "mu2", "a", "b"),
        lambda mu1, mu2, a, b: ([0, 0, a], [0, 0, b], np.diag([mu1, mu1, mu2])),
        lambda mu1, mu2, a, b: _predict_axial(mu2, mu1, mu1, mu2, a, b),
        _sample_axial,
    ),
}


def _spec(case_id: int) -> CaseSpec:
    spec = CASES.get(case_id)
    if spec is None:
        raise ValueError(f"unknown case id {case_id}; catalog holds 1..9")
    return spec


def _args(spec: CaseSpec, params: dict) -> list:
    return [_vec(params[n]) if n in spec.vectors else float(params[n]) for n in spec.param_names]


def case_bloch(case_id: int, params: dict) -> BlochForm:
    """Canonical Bloch form of a catalog point."""
    spec = _spec(case_id)
    return BlochForm(2, 2, *spec.bloch(*_args(spec, params)))


def case_state(case_id: int, params: dict) -> DensityMatrix:
    """Density matrix of a catalog point."""
    return compose_bloch(case_bloch(case_id, params))


def case_predictions(case_id: int, params: dict) -> CasePredictions:
    """Evaluate the catalog's closed-form predictions at a parameter point."""
    spec = _spec(case_id)
    return spec.predict(*_args(spec, params))


def sample_params(case_id: int, n: int, seed=None) -> list[dict]:
    """Draw n parameter points from the case's PSD domain.

    Parameters are kept away from zero so the sampled point stays in the
    generic stratum of its family; candidate draws outside the positivity
    domain are rejected against the exact spectrum.
    """
    spec = _spec(case_id)
    return [dict(zip(spec.param_names, draw)) for draw in _points(spec, n, _rng(seed))[0]]


def _points(spec: CaseSpec, n: int, rng: np.random.Generator) -> tuple:
    """Accepted draws in draw order: (draws, (n, 4, 4) states, (n, 4) spectra).

    A draw is the sampler's tuple, the arguments of the case's bloch and predict.
    A round draws n - accepted candidates and tests them as one stack; the
    n-th acceptance can only be a round's last draw, so rounds consume the
    stream, and reach the attempt cap, exactly as one-at-a-time testing.
    """
    draws, attempts = [], 0
    states, spectra = [np.empty((0, 4, 4), complex)], [np.empty((0, 4))]
    while len(draws) < n:
        drawn = []
        for _ in range(n - len(draws)):
            attempts += 1
            if attempts > 200 * max(n, 1):
                raise RuntimeError(f"case {spec.case_id}: positivity rejection is not converging")
            draw = spec.sample(rng)
            if draw is not None:
                drawn.append(draw)
        if not drawn:
            continue
        coeffs = zip(*(spec.bloch(*draw) for draw in drawn))
        w = bloch_matrices(2, 2, *(np.array(x, dtype=float) for x in coeffs))
        w_eigs = np.linalg.eigvalsh(w)
        keep = np.flatnonzero(w_eigs[:, 0] >= -1e-12)
        draws += [drawn[i] for i in keep]
        states.append(w[keep])
        spectra.append(w_eigs[keep])
    return draws, np.concatenate(states), np.concatenate(spectra)


@dataclass(frozen=True)
class CaseVerdict:
    """Residuals and match flags for one verified catalog point."""

    case_id: int
    params: dict
    gram_eig_residual: float
    w_eig_residual: float
    pt_eig_residual: float
    xi_residual: float
    concurrence_residual: float | None
    corank_match: bool
    separability_match: bool

    def residuals(self) -> dict:
        return {q: getattr(self, f"{q}_residual") for q in _QUANTITIES}

    def matches(self, tol: float) -> bool:
        vals = [v for v in self.residuals().values() if v is not None]
        return all(v <= tol for v in vals) and self.corank_match and self.separability_match


def _multiset_residuals(pred: list, actual: np.ndarray) -> np.ndarray:
    """Max |sorted prediction - sorted value| of each row of a (B, n) stack."""
    p = np.sort_complex(np.asarray(pred, dtype=complex).reshape(actual.shape))
    return np.abs(p - np.sort(actual, axis=-1)).max(axis=-1)


def _verify(spec: CaseSpec, args: list, w: np.ndarray, w_eigs: np.ndarray) -> dict:
    """Residual and flag columns, in CaseVerdict order, of a case's (B, 4, 4)
    stack of points; a NaN concurrence residual marks a point where the
    catalog states no concurrence, and a stated concurrence whose residual
    is NaN gets an infinite one."""
    preds = [spec.predict(*a) for a in args]
    _, gram_eigs, ranks = gram_stack(w, 2, 2)
    pt = pt_spectra(w, 2, 2)
    xi = xi_spectra(w)
    stated = np.array([p.concurrence is not None for p in preds])
    conc = np.array([np.nan if p.concurrence is None else p.concurrence for p in preds])
    conc = np.abs(concurrences_from_xi(xi) - conc)
    return {
        "gram_eig": _multiset_residuals([p.gram_eigs for p in preds], gram_eigs),
        "w_eig": _multiset_residuals([p.w_eigs for p in preds], w_eigs),
        "pt_eig": _multiset_residuals([p.pt_eigs for p in preds], pt),
        "xi": _multiset_residuals([p.xi for p in preds], xi),
        "concurrence": np.where(stated & np.isnan(conc), np.inf, conc),
        "corank_match": 6 - ranks == spec.corank,
        "separability_match": np.array([
            p.separability in (None, _ppt_verdict(low, 2, 2)) for p, low in zip(preds, pt[:, 0].tolist())
        ], dtype=bool),
    }


def verify_case(case_id: int, params: dict) -> CaseVerdict:
    """Compare the catalog predictions at one point against direct numerics.

    Eigenvalue predictions are compared as multisets.  The separability
    claim is checked against the partial-transpose verdict (conclusive for
    2x2); points where the catalog makes no claim count as matching.
    """
    spec, w = _spec(case_id), case_state(case_id, params)
    cols = _verify(spec, [_args(spec, params)], w.matrix[None], w.spectrum[None])
    v = {q: col.item() for q, col in cols.items()}
    v["concurrence"] = None if math.isnan(v["concurrence"]) else v["concurrence"]
    return CaseVerdict(spec.case_id, params, **{f"{q}_residual": v[q] for q in _QUANTITIES},
                       corank_match=v["corank_match"], separability_match=v["separability_match"])


def verify_cases(case_ids=None, samples: int = 100, seed: int = 0, tol: float = 1e-9) -> dict:
    """Run the harness over the requested cases; returns a JSON-ready report.

    Per case: every sampled point's residual vector and match flags, the
    maximal residual per quantity, and the list of quantities whose maximal
    residual exceeds tol (the typo candidates).  Every case id and tol are
    checked, and repeated ids are rejected, before any point is sampled.
    """
    _check_tol(tol)
    specs = [_spec(cid) for cid in (sorted(CASES) if case_ids is None else case_ids)]
    if len({spec.case_id for spec in specs}) < len(specs):
        raise ValueError(f"repeated case id in {[spec.case_id for spec in specs]}")
    rng = np.random.default_rng(seed)
    report: dict = {"seed": seed, "samples": samples, "tol": tol, "cases": {}, "all_match": True}
    for spec in specs:
        draws, w, w_eigs = _points(spec, samples, rng)
        cols = _verify(spec, draws, w, w_eigs)
        # fmax skips the concurrence's no-prediction NaNs; any other NaN makes
        # its maximum NaN, a typo candidate written as null
        max_res = {q: float(np.maximum.reduce(cols[q], initial=0.0)) for q in _QUANTITIES}
        max_res["concurrence"] = float(np.fmax.reduce(cols["concurrence"], initial=0.0))
        # one conversion per parameter column and per residual column
        columns = [_jsonable(np.array(col)) for col in zip(*draws)]
        params = ([dict(zip(spec.param_names, vals)) for vals in zip(*columns)] if columns
                  else [{} for _ in draws])
        residuals = zip(*(_jsonable(cols[q]) for q in _QUANTITIES))
        points = [
            {"params": par, "residuals": dict(zip(_QUANTITIES, res)),
             "corank_match": corank, "separability_match": sep}
            for par, res, corank, sep in zip(
                params, residuals, cols["corank_match"].tolist(), cols["separability_match"].tolist())
        ]
        candidates = sorted(q for q, r in max_res.items() if not r <= tol)
        case_ok = not candidates and bool(cols["corank_match"].all() and cols["separability_match"].all())
        report["cases"][str(spec.case_id)] = {
            "description": spec.description, "predicted_corank": spec.corank, "points": points,
            "max_residuals": _jsonable(max_res),
            "typo_candidates": candidates, "all_match": case_ok,
        }
        report["all_match"] = report["all_match"] and case_ok
    return report
