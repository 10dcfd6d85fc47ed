"""Stratification of global unitary orbits and dimension bookkeeping.

The global unitary orbit through a density matrix is determined by its
spectrum; its dimension depends only on the degeneracy pattern
(m_1, ..., m_r) of the sorted eigenvalues: D_g = N^2 - sum(m_i^2).
Cells are labeled K_<pattern>, e.g. K_1111 for a generic N = 4 spectrum
(D_g = 12) and K_4 for the maximally mixed state (D_g = 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import _check_tol

__all__ = ["WeylCell", "weyl_cell", "DimsReport", "dims_report", "effective_dim"]


@dataclass(frozen=True)
class WeylCell:
    """Degeneracy cell of a spectrum: sorted values, pattern, label, orbit dim."""

    spectrum: np.ndarray  # descending
    pattern: tuple[int, ...]
    label: str
    global_dim: int


def weyl_cell(spectrum, tol: float = 1e-9) -> WeylCell:
    """Classify a density-matrix spectrum by its degeneracy pattern.

    Eigenvalues are sorted descending; each joins the current group while it
    lies within tol of the group's first (largest) value, so a group never
    spans more than tol however many small gaps it holds (absolute; spectra
    are unit trace, so this is also the scale-relative rule).
    """
    tol, r = _check_tol(tol), np.asarray(spectrum, dtype=float).reshape(-1)
    if r.size < 2:
        raise ValueError("spectrum needs at least two eigenvalues")
    if not np.all(np.isfinite(r)):
        raise ValueError(f"spectrum must be finite, got {r}")
    # looser than cstar's -1e-12 and 1e-8: this takes the raw eigvalsh of a
    # W that validate_density accepts with PSD_TOL = 1e-10 of slack
    if np.any(r < -1e-8):
        raise ValueError(f"spectrum must be nonnegative, got min {r.min()}")
    if abs(r.sum() - 1.0) > 1e-6:
        raise ValueError(f"spectrum must sum to 1, got {r.sum()}")
    r = np.sort(r)[::-1]
    pattern: list[int] = [1]
    first = r[0]
    for value in r[1:]:
        if first - value <= tol:
            pattern[-1] += 1
        else:
            pattern.append(1)
            first = value
    n = r.size
    d_g = int(n * n - sum(m * m for m in pattern))
    label = "K_" + "".join(str(m) for m in pattern)
    return WeylCell(spectrum=r, pattern=tuple(pattern), label=label, global_dim=d_g)


@dataclass(frozen=True)
class DimsReport:
    """Dimension counts for a K x M system."""

    max_local_dim: int      # K^2 + M^2 - 2
    generic_global_dim: int  # (KM)^2 - KM
    effective_dim: int       # their difference


def dims_report(k: int, m: int) -> DimsReport:
    """Maximal local orbit dimension, generic global orbit dimension, and
    the dimension left after quotienting local action from a generic
    global orbit."""
    if k < 2 or m < 2:
        raise ValueError(f"bipartition ({k},{m}) needs both factors >= 2")
    n = k * m
    local = k * k + m * m - 2
    global_ = n * n - n
    return DimsReport(local, global_, global_ - local)


def effective_dim(global_dim: int, max_local_dim: int) -> int:
    """Residual dimension of a global orbit after the local action."""
    if global_dim < 0 or max_local_dim < 0:
        raise ValueError("dimensions must be nonnegative")
    if max_local_dim > global_dim:
        raise ValueError(
            f"local dimension {max_local_dim} exceeds global dimension {global_dim}"
        )
    return global_dim - max_local_dim
