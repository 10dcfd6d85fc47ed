"""Bipartite states: density matrices, Bloch forms, standard families, IO.

A state of a K x M system is stored together with its bipartition, since
every orbit quantity in this package depends on the split.  The Bloch form
writes a density matrix over the product generator basis,

    W = I/(KM) + i a_k (e_k x I) + i b_alpha (I x f_alpha)
        + G_{k alpha} (e_k x f_alpha),

with e_k, f_alpha the su(K)/su(M) generators from :mod:`orbit_atlas.algebra`
(antihermitian, Tr(e_j e_k) = -2 delta_jk).  The coefficients a, b, G are
real exactly when W is Hermitian.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import su_generators

__all__ = [
    "DensityMatrix",
    "PureState",
    "BlochForm",
    "validate_density",
    "pure_density",
    "maximally_mixed",
    "bloch_matrices",
    "compose_bloch",
    "decompose_bloch",
    "schmidt_vector",
    "werner_state",
    "werner_matrices",
    "random_states",
    "random_state",
    "haar_unitary",
    "random_su2",
    "random_local_unitary",
    "apply_local_unitary",
    "swap_sides",
    "state_to_json",
    "state_from_json",
    "bloch_to_json",
    "bloch_from_json",
]

PSD_TOL = 1e-10


def _check_tol(tol: float) -> float:
    """tol as a float; ValueError unless it is finite and nonnegative."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    return float(tol)


@dataclass(frozen=True)
class DensityMatrix:
    """A finite (k*m, k*m) Hermitian matrix (|W - W^dag| <= 1e-8 entrywise),
    stored as a read-only copy, with a declared bipartition."""

    k: int
    m: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        n = self.k * self.m
        if self.k < 2 or self.m < 2:
            raise ValueError(f"bipartition ({self.k},{self.m}) needs both factors >= 2")
        if mat.shape != (n, n):
            raise ValueError(f"matrix shape {mat.shape} does not fit bipartition ({self.k},{self.m})")
        with np.errstate(invalid="ignore"):  # a non-finite W fails this test as well
            if not np.abs(mat - mat.conj().T).max() <= 1e-8:
                finite = np.isfinite(mat).all()
                raise ValueError("matrix is not Hermitian" if finite else "matrix has non-finite entries")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.k * self.m

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Ascending eigenvalues, solved on first use; read-only, like the matrix they belong to."""
        spectrum = np.linalg.eigvalsh(self.matrix)
        spectrum.flags.writeable = False
        return spectrum


@dataclass(frozen=True)
class PureState:
    """A unit vector in C^k x C^m, stored in the product basis |i m + j>."""

    k: int
    m: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amp.shape != (self.k * self.m,):
            raise ValueError(f"amplitude length {amp.shape} does not fit bipartition ({self.k},{self.m})")
        nrm = np.linalg.norm(amp)
        if not abs(nrm - 1.0) <= 1e-8:
            raise ValueError(f"pure state must be normalized, got norm {nrm}")
        object.__setattr__(self, "amplitudes", amp)


@dataclass(frozen=True)
class BlochForm:
    """Finite coefficients (a, b, G) of a density matrix over the product generator basis."""

    k: int
    m: int
    a: np.ndarray
    b: np.ndarray
    g: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=float).reshape(-1)
        b = np.asarray(self.b, dtype=float).reshape(-1)
        g = np.asarray(self.g, dtype=float)
        da, db = self.k**2 - 1, self.m**2 - 1
        if a.shape != (da,) or b.shape != (db,) or g.shape != (da, db):
            raise ValueError(
                f"Bloch coefficient shapes {a.shape}, {b.shape}, {g.shape} do not fit ({self.k},{self.m})"
            )
        if not np.isfinite(np.concatenate((a, b, g.reshape(-1)))).all():
            raise ValueError("Bloch coefficients have non-finite entries")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "g", g)


def _require_2x2(x, name: str) -> None:
    if (x.k, x.m) != (2, 2):
        raise ValueError(f"{name} is defined for 2x2 systems, got ({x.k},{x.m})")


def _require_diagonal_g(f: BlochForm, name: str) -> None:
    if np.max(np.abs(f.g - np.diag(np.diagonal(f.g)))) > 1e-12:
        raise ValueError(f"{name} needs a canonical (diagonal) G block")


def validate_density(w: DensityMatrix) -> np.ndarray:
    """Raise ValueError unless w has unit trace and is PSD within PSD_TOL; return w.spectrum.
    Finiteness and Hermiticity are checked when the DensityMatrix is built."""
    tr = np.trace(w.matrix).real
    if abs(tr - 1.0) > 1e-8:
        raise ValueError(f"trace is {tr}, expected 1")
    if w.spectrum[0] < -PSD_TOL:
        raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {w.spectrum[0]})")
    return w.spectrum


def pure_density(w: PureState) -> DensityMatrix:
    """Projector |w><w| as a DensityMatrix."""
    return DensityMatrix(w.k, w.m, np.outer(w.amplitudes, w.amplitudes.conj()))


def maximally_mixed(k: int, m: int) -> DensityMatrix:
    """The state I/(k m)."""
    return DensityMatrix(k, m, np.eye(k * m, dtype=complex) / (k * m))


def bloch_matrices(k: int, m: int, a, b, g) -> np.ndarray:
    """Matrices I/(km) + i a.e x I + i I x b.f + G.(e x f) of stacked Bloch
    coefficients a (..., k^2-1), b (..., m^2-1), g (..., k^2-1, m^2-1), as a
    (..., km, km) complex stack (a single matrix for unstacked coefficients)."""
    e, ff = su_generators(k), su_generators(m).reshape(m * m - 1, m * m)
    lead = np.shape(g)[:-2]
    left = np.eye(k) / (k * m) + 1j * (a @ e.reshape(k * k - 1, k * k)).reshape(*lead, k, k)
    w = np.einsum("xij,...xab->...iajb", e, (g @ ff).reshape(*lead, k * k - 1, m, m))
    w += left[..., :, None, :, None] * np.eye(m)[:, None, :]
    w += np.eye(k)[:, None, :, None] * (1j * (b @ ff)).reshape(*lead, 1, m, 1, m)
    return w.reshape(*lead, k * m, k * m)


def compose_bloch(f: BlochForm) -> DensityMatrix:
    """Build the density matrix of a Bloch form (see bloch_matrices)."""
    return DensityMatrix(f.k, f.m, bloch_matrices(f.k, f.m, f.a, f.b, f.g))


def decompose_bloch(w: DensityMatrix) -> BlochForm:
    """Project a density matrix onto the product generator basis.

    Uses the trace orthogonality of the basis:
    a_j = Tr(W (e_j x I)) / (-2 i M), b_alpha = Tr(W (I x f_alpha)) / (-2 i K),
    G_{j alpha} = Tr(W (e_j x f_alpha)) / 4.
    """
    k, m = w.k, w.m
    e, fa = su_generators(k), su_generators(m)
    w4 = w.matrix.reshape(k, m, k, m)
    # Tr(W (e_j x X)) = Tr(P_j X) with P_j = sum_i,l e_j[l, i] W[i, :, l, :]
    p = np.einsum("xli,ialb->xab", e, w4)
    a = (np.einsum("xaa->x", p) / (-2j * m)).real
    b = (np.einsum("iaib,yba->y", w4, fa) / (-2j * k)).real
    g = (np.einsum("xab,yba->xy", p, fa) / 4.0).real
    return BlochForm(k, m, a, b, g)


def _schmidt_amplitudes(theta) -> np.ndarray:
    """Amplitudes (cos(theta/2), 0, 0, sin(theta/2)) for each theta, shape (..., 4)."""
    theta = np.asarray(theta, dtype=float)
    bad = ~((0.0 <= theta) & (theta <= np.pi / 2 + 1e-12))
    if np.any(bad):
        raise ValueError(f"theta must lie in [0, pi/2], got {theta[bad].flat[0]}")
    zero = np.zeros_like(theta)
    return np.stack([np.cos(theta / 2), zero, zero, np.sin(theta / 2)], axis=-1).astype(complex)


def schmidt_vector(theta: float) -> PureState:
    """The 2x2 pure state cos(theta/2)|00> + sin(theta/2)|11> for theta in [0, pi/2]."""
    return PureState(2, 2, _schmidt_amplitudes(theta))


def werner_matrices(x, theta) -> np.ndarray:
    """Matrices x |psi_theta><psi_theta| + (1 - x) I/4 for broadcast arrays
    x and theta, as a (..., 4, 4) complex stack (a single (4, 4) matrix for
    scalars).  Every x must lie in [0, 1] and every theta in [0, pi/2]."""
    x = np.asarray(x, dtype=float)
    bad = ~((0.0 <= x) & (x <= 1.0))
    if np.any(bad):
        raise ValueError(f"mixing weight x must lie in [0, 1], got {x[bad].flat[0]}")
    psi = _schmidt_amplitudes(theta)
    x = x[..., None, None]
    proj = psi[..., :, None] * psi.conj()[..., None, :]
    return x * proj + (1.0 - x) * np.eye(4, dtype=complex) / 4.0


def werner_state(x: float, theta: float = np.pi / 2) -> DensityMatrix:
    """Mixture x |psi_theta><psi_theta| + (1 - x) I/4 on a 2x2 system."""
    return DensityMatrix(2, 2, werner_matrices(x, theta))


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def haar_unitary(n: int, seed=None) -> np.ndarray:
    """Haar-distributed U(n) matrix via QR of a complex Ginibre sample."""
    rng = _rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_su2(seed=None) -> np.ndarray:
    """Haar-distributed SU(2) matrix from a uniform point on the 3-sphere."""
    rng = _rng(seed)
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    return np.array(
        [
            [q[0] + 1j * q[3], q[2] + 1j * q[1]],
            [-q[2] + 1j * q[1], q[0] - 1j * q[3]],
        ]
    )


def random_local_unitary(k: int, m: int, seed=None) -> np.ndarray:
    """Product unitary U_A x U_B with independent Haar factors."""
    rng = _rng(seed)
    return np.kron(haar_unitary(k, rng), haar_unitary(m, rng))


def apply_local_unitary(w: DensityMatrix, u: np.ndarray) -> DensityMatrix:
    """Conjugate a state by a (k*m, k*m) unitary, keeping the bipartition."""
    return DensityMatrix(w.k, w.m, u @ w.matrix @ u.conj().T)


def swap_sides(f: BlochForm) -> BlochForm:
    """Bloch form of the same state with the two subsystems exchanged."""
    return BlochForm(f.m, f.k, f.b, f.a, f.g.T)


def random_states(kind: str, k: int, m: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Sample count random states of a K x M system from the generator rng.

    kind="pure": Haar-uniform unit vectors, a (count, KM) complex stack.
    kind="mixed": Hilbert-Schmidt samples G G^dag / Tr(G G^dag) with G a
    square complex Ginibre matrix, a (count, KM, KM) complex stack.
    The stream is consumed exactly as count calls of random_state would.
    """
    n = k * m
    if kind == "pure":
        z = rng.standard_normal((count, 2, n))
        amps = z[:, 0] + 1j * z[:, 1]
        for amp in amps:  # an axis=-1 norm differs from the one-vector norm in the last bit
            amp /= np.linalg.norm(amp)
        return amps
    if kind == "mixed":
        z = rng.standard_normal((count, 2, n, n))
        g = z[:, 0] + 1j * z[:, 1]
        mats = g @ g.conj().mT
        return mats / np.trace(mats, axis1=-2, axis2=-1).real[:, None, None]
    raise ValueError(f"unknown state kind {kind!r}; expected 'pure' or 'mixed'")


def random_state(kind: str, k: int, m: int, seed=None):
    """One random state of a K x M system (see random_states): a PureState for
    kind="pure", a DensityMatrix for kind="mixed".  A fixed integer seed gives a
    reproducible sample."""
    row = random_states(kind, k, m, 1, _rng(seed))[0]
    return PureState(k, m, row) if kind == "pure" else DensityMatrix(k, m, row)


def _jsonable(value):
    """value ready for json.dumps: arrays and tuples as lists, dicts and lists
    converted item by item, and non-finite floats as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "biuf" and np.isfinite(value).all():
            return value.tolist()
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {key: _jsonable(v) for key, v in value.items()}
    return value


def state_to_json(w: DensityMatrix) -> str:
    """Serialize a density matrix as JSON with [re, im] entry pairs."""
    mat = [[[float(z.real), float(z.imag)] for z in row] for row in w.matrix]
    return json.dumps({"k": w.k, "m": w.m, "matrix": mat})


def state_from_json(payload) -> DensityMatrix:
    """Parse a density matrix from a JSON string or a decoded dict."""
    data = json.loads(payload) if isinstance(payload, (str, bytes)) else payload
    try:
        k, m = int(data["k"]), int(data["m"])
        raw = data["matrix"]
        mat = np.array([[complex(re, im) for re, im in row] for row in raw])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed state payload: {exc}") from exc
    return DensityMatrix(k, m, mat)


def bloch_to_json(f: BlochForm) -> str:
    """Serialize a Bloch form as JSON with plain real arrays."""
    return json.dumps({"k": f.k, "m": f.m, "a": f.a.tolist(), "b": f.b.tolist(), "g": f.g.tolist()})


def bloch_from_json(payload) -> BlochForm:
    """Parse a Bloch form from a JSON string or a decoded dict."""
    data = json.loads(payload) if isinstance(payload, (str, bytes)) else payload
    try:
        k, m = int(data["k"]), int(data["m"])
        a, b, g = (np.asarray(data[key], dtype=float) for key in "abg")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed Bloch payload: {exc}") from exc
    return BlochForm(k, m, a, b, g)
