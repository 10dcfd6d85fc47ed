"""Gram matrix of local-orbit tangent vectors and local orbit dimensions.

The tangent space of the local unitary orbit through a state W is spanned
by the commutators W_j = [e_j x I, W] and W_alpha = [I x f_alpha, W].
Their Gram matrix C_{mn} = 1/2 Tr(W_m W_n) is real symmetric and positive
semidefinite, of size K^2 + M^2 - 2; its rank is the orbit dimension.

``tangent_vectors`` builds the (K^2 + M^2 - 2, KM, KM) stack from two left products
P = X W with the su(K) and su(M) generator stacks and their adjoints: X is
antihermitian, so for Hermitian W, [X, W] = P + P^dag, Hermitian bit for bit (for the
1e-8 anti-Hermitian part a DensityMatrix tolerates, P + P^dag is within O(1e-8) of
[X, W], as rows read from one triangle of [X, W] are).  The same kernel takes any
(..., KM, KM) stack of Ws.  T = conj(P^T) + P is written into its own buffer with
no temporary; IEEE addition commutes, so it equals P + P^dag bit for bit.  Each W_m
becomes one real row of (KM)^2 Hermitian coordinates, diag W_m and sqrt2 Re, sqrt2 Im
of its strict upper triangle, so Tr(W_m W_n) is a dot product of rows: ``gram_direct``
(``gram_stack`` for a stack of Ws) is 0.5 * (rows @ rows.T), scaling the small product
rather than the rows, and ``orbit_dim_oracle`` takes the rows' singular values.

The P and T stacks and the rows live in one private workspace per thread, kept for
the last (..., K^2 + M^2 - 2, KM, KM) shape asked for and reallocated only when the
shape changes (about 1.2 MB at 5x5), so repeated calls at one split allocate no
tangent-sized arrays; the old workspace is released before the new one is allocated,
so a shape change never holds two.  No result aliases it: ``gram_stack`` and
``gram_direct`` return fresh matrices, ``orbit_dim_oracle`` an int, and
``tangent_vectors`` a stack of its own.

``gram_closed_form`` evaluates C directly from the Bloch coefficients,

    A_{ij}      = (2 G_{k alpha} G_{m alpha} + M a_k a_m) c_{ikl} c_{jml}
    B_{i alpha} = 2 G_{k beta} G_{m gamma} c_{ikm} d_{alpha gamma beta}
    D_{alpha beta} = (2 G_{m gamma} G_{m delta} + K b_gamma b_delta)
                     d_{alpha gamma mu} d_{beta delta mu},

with c, d the su(K)/su(M) structure constants; it must agree with the
commutator route to machine precision.  With flat(x) = x.reshape(len(x), -1)
and M_A, M_D the bracketed factors, each block is one matrix product:
A = flat(c) @ flat(M_A @ c).T,  D = flat(d) @ flat(M_D @ d).T,
B = 2 flat(c) @ flat(G @ d.transpose(0, 2, 1) @ G.T).T.

The rank keeps eigenvalues above tol * lambda_max: C is homogeneous of
degree 2 in W - I/N, so I/N + s (W - I/N) has one rank for all s > 0.  A
lambda_max at or below (64 eps)^2 is rounding of the unit-trace W: rank 0.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import structure_constants, su_generators
from .states import BlochForm, DensityMatrix, _check_tol, _require_2x2, _require_diagonal_g

__all__ = [
    "RANK_TOL",
    "GramReport",
    "GramSplit2x2",
    "tangent_vectors",
    "gram_stack",
    "gram_direct",
    "gram_closed_form",
    "local_orbit_dim",
    "orbit_dim_oracle",
    "pure_gram_spectrum",
    "gram_split_2x2",
    "b_block_residual",
]

RANK_TOL = 1e-9
_ROUNDING_FLOOR = (64.0 * np.finfo(float).eps) ** 2


@dataclass(frozen=True)
class GramReport:
    """Gram matrix of the tangent vectors plus its spectral summary."""

    k: int
    m: int
    matrix: np.ndarray
    spectrum: np.ndarray  # ascending
    rank: int

    @property
    def block_a(self) -> np.ndarray:
        d = self.k**2 - 1
        return self.matrix[:d, :d]

    @property
    def block_b(self) -> np.ndarray:
        d = self.k**2 - 1
        return self.matrix[:d, d:]

    @property
    def block_d(self) -> np.ndarray:
        d = self.k**2 - 1
        return self.matrix[d:, d:]


@dataclass(frozen=True)
class GramSplit2x2:
    """Split C = C_G + C_ab of a 2x2 Gram matrix in canonical Bloch form."""

    c_g: np.ndarray
    c_ab: np.ndarray
    rho_eigs: np.ndarray  # predicted eigenvalues of c_g: 8 (mu_i +- mu_j)^2
    corank_cg: int
    corank_cab: int


@lru_cache(maxsize=16)
def _consts(n: int) -> np.ndarray:
    return structure_constants(su_generators(n))


def _commutators(mats: np.ndarray, k: int, m: int, out: tuple | None = None) -> np.ndarray:
    """[e_j x I, W] then [I x f_alpha, W] for each Hermitian W of a (..., KM, KM)
    stack, as an exactly Hermitian (..., K^2 + M^2 - 2, KM, KM) stack T.  P = X W is
    written to out[0] and T to out[1] (a fresh pair without ``out``); T is returned."""
    e, f, n = su_generators(k), su_generators(m), k * m
    lead, x, y = mats.shape[:-2], len(e), len(f)
    shape = (*lead, x + y, n, n)
    p, t = (np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)) if out is None else out
    pa, pb = p[..., :x, :, :], p[..., x:, :, :]
    # X W multiplies X into one factor of W's row index
    np.matmul(e.reshape(x * k, k), mats.reshape(*lead, k, m * n), out=pa.reshape(*lead, x * k, m * n))
    np.matmul(f[:, None], mats.reshape(*lead, 1, k, m, n), out=pb.reshape(*lead, y, k, m, n))
    # X antihermitian, W Hermitian: [X, W] = X W - W X = (X W)^dag + X W
    np.conjugate(p.swapaxes(-1, -2), out=t)
    t += p
    return t


def tangent_vectors(w: DensityMatrix) -> np.ndarray:
    """Commutators [e_j x I, W] followed by [I x f_alpha, W] as X W + (X W)^dag, one exactly
    Hermitian (K^2 + M^2 - 2, KM, KM) stack; iterating it yields them one by one."""
    return _commutators(w.matrix, w.k, w.m)


@lru_cache(maxsize=16)
def _hermitian_coords(n: int) -> np.ndarray:
    # float-view indices of a flat complex (n, n): Re diag, Re and Im of the strict upper triangle
    upper = 2 * np.ravel_multi_index(np.triu_indices(n, 1), (n, n))
    coords = np.concatenate([2 * (n + 1) * np.arange(n), upper, upper + 1])
    coords.flags.writeable = False
    return coords


_workspace = threading.local()


def _tangent_rows(mats: np.ndarray, k: int, m: int) -> np.ndarray:
    # diag T, sqrt2 Re and sqrt2 Im of T's strict upper triangle; T = T^dag: row_m . row_n = Tr(T_m T_n).
    # The rows, and the P and T stacks behind them, are this thread's workspace for the last
    # shape asked for: a caller reads them and returns only fresh arrays.
    n = k * m
    shape = (*mats.shape[:-2], k * k + m * m - 2, n, n)
    held = getattr(_workspace, "held", None)
    if held is None or held[0] != shape:
        held = _workspace.held = None  # release the old workspace before allocating the new one
        pair = (np.empty(shape, dtype=complex), np.empty(shape, dtype=complex))
        held = _workspace.held = shape, pair, np.empty((*shape[:-2], n * n))
    _, pair, rows = held
    flat = _commutators(mats, k, m, out=pair).reshape(*shape[:-2], n * n).view(float)
    # the coordinates are in range: mode="clip" gathers straight into rows, "raise" buffers a copy
    flat.take(_hermitian_coords(n), axis=-1, out=rows, mode="clip")
    rows[..., n:] *= np.sqrt(2.0)
    return rows


def _spectral_rank(spectrum: np.ndarray, tol: float):
    """Eigenvalues above tol * lambda_max per spectrum (last axis), 0 at or below
    the rounding floor; an int for one spectrum."""
    top = spectrum.max(axis=-1, initial=0.0)
    rank = (spectrum > tol * top[..., None]).sum(axis=-1) * (top > _ROUNDING_FLOOR)
    return rank if rank.ndim else int(rank)


def _symmetric_spectra(c: np.ndarray, tol: float) -> tuple:
    c = 0.5 * (c + c.mT)
    spectrum = np.linalg.eigvalsh(c)
    return c, spectrum, _spectral_rank(spectrum, tol)


def gram_stack(mats: np.ndarray, k: int, m: int, tol: float = RANK_TOL) -> tuple:
    """Gram matrices of the tangent vectors X W + (X W)^dag of a (..., KM, KM) stack of
    Hermitian Ws with their ascending spectra and ranks: gram_direct of each, in one pass."""
    rows = _tangent_rows(mats, k, m)
    return _symmetric_spectra(0.5 * (rows @ rows.mT), _check_tol(tol))


def gram_direct(w: DensityMatrix, tol: float = RANK_TOL) -> GramReport:
    """Gram matrix C_{mn} = 1/2 Tr(W_m W_n) from explicit commutators of a Hermitian W."""
    return GramReport(w.k, w.m, *gram_stack(w.matrix, w.k, w.m, tol))


def _closed_form_matrix(f: BlochForm) -> np.ndarray:
    """The closed-form Gram matrix [[A, B], [B^T, D]], not yet symmetrised."""
    k, m = f.k, f.m
    c, d = _consts(k), _consts(m)
    rc, rd = c.reshape(len(c), -1), d.reshape(len(d), -1)
    g, a, b = f.g, f.a, f.b
    ma = 2.0 * (g @ g.T) + m * np.outer(a, a)
    md = 2.0 * (g.T @ g) + k * np.outer(b, b)
    block_a = rc @ (ma @ c).reshape(len(c), -1).T
    block_b = 2.0 * rc @ (g @ d.transpose(0, 2, 1) @ g.T).reshape(len(d), -1).T
    block_d = rd @ (md @ d).reshape(len(d), -1).T
    return np.block([[block_a, block_b], [block_b.T, block_d]])


def gram_closed_form(f: BlochForm) -> GramReport:
    """Gram matrix evaluated from the Bloch coefficients, no commutators."""
    return GramReport(f.k, f.m, *_symmetric_spectra(_closed_form_matrix(f), RANK_TOL))


def local_orbit_dim(report: GramReport) -> int:
    """Rank of the Gram matrix as the report decided it, at the tol it was made with."""
    return report.rank


def orbit_dim_oracle(w: DensityMatrix) -> int:
    """Orbit dimension from an independent route: rank of the tangent vectors'
    Hermitian-coordinate rows from their singular values, thresholded as squares.
    The SVD reads the rows transposed: the same singular values, but LAPACK gets a
    column-major operand it needs no transposing copy of."""
    s2 = np.linalg.svd(_tangent_rows(w.matrix, w.k, w.m).T, compute_uv=False) ** 2
    return _spectral_rank(s2, RANK_TOL)


def pure_gram_spectrum(c: float) -> np.ndarray:
    """Predicted Gram spectrum {0, 2c^2, 1+c, 1+c, 1-c, 1-c} of a 2x2 pure
    state with concurrence c, ascending."""
    if not -1e-12 <= c <= 1.0 + 1e-12:
        raise ValueError(f"concurrence must lie in [0, 1], got {c}")
    return np.sort(np.array([0.0, 2.0 * c * c, 1 + c, 1 + c, 1 - c, 1 - c]))


def gram_split_2x2(f: BlochForm) -> GramSplit2x2:
    """Split the 2x2 Gram matrix into its G-only and (a, b)-only parts.

    Requires canonical form (G diagonal).  C_G is the Gram matrix of the
    state with a = b = 0; its six eigenvalues are 8 (mu_i + mu_j)^2 and
    8 (mu_i - mu_j)^2 over pairs i < j.  C_ab is block diagonal,
    8 (|a|^2 I - a a^T) on the first factor and 8 (|b|^2 I - b b^T) on the
    second, with eigenvalue pairs 8|a|^2, 8|b|^2 and two zeros.  The two
    parts are each positive semidefinite and sum to the full Gram matrix.
    """
    _require_2x2(f, "the Gram split")
    _require_diagonal_g(f, "the Gram split")
    mu = np.diagonal(f.g)
    zero = np.zeros(3)
    c_g = _closed_form_matrix(BlochForm(2, 2, zero, zero, f.g))
    c_g = 0.5 * (c_g + c_g.T)
    c_ab = np.zeros((6, 6))
    c_ab[:3, :3] = 8.0 * ((f.a @ f.a) * np.eye(3) - np.outer(f.a, f.a))
    c_ab[3:, 3:] = 8.0 * ((f.b @ f.b) * np.eye(3) - np.outer(f.b, f.b))
    pairs = [(0, 1), (0, 2), (1, 2)]
    rho = np.array(
        [8.0 * (mu[i] + mu[j]) ** 2 for i, j in pairs]
        + [8.0 * (mu[i] - mu[j]) ** 2 for i, j in pairs]
    )
    nu = np.array([8.0 * (f.a @ f.a)] * 2 + [8.0 * (f.b @ f.b)] * 2 + [0.0, 0.0])
    return GramSplit2x2(
        c_g=c_g,
        c_ab=c_ab,
        rho_eigs=rho,
        corank_cg=len(rho) - _spectral_rank(np.abs(rho), RANK_TOL),
        corank_cab=len(nu) - _spectral_rank(np.abs(nu), RANK_TOL),
    )


def b_block_residual(f: BlochForm) -> float:
    """Max-norm residual of the off-diagonal block identity
    B G^T = G^T B = -16 det(G) I for 2x2 Bloch forms (any G, not
    necessarily diagonal)."""
    _require_2x2(f, "the B-block identity")
    b = _closed_form_matrix(f)[:3, 3:]
    target = -16.0 * np.linalg.det(f.g) * np.eye(3)
    return float(max(np.max(np.abs(b @ f.g.T - target)), np.max(np.abs(f.g.T @ b - target))))
