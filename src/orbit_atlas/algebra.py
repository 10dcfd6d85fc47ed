"""su(n) generator bases, structure constants, and bipartite index plumbing.

The generator basis used throughout the package is ``i`` times the
generalized Gell-Mann matrices, ordered as: symmetric off-diagonal,
antisymmetric off-diagonal, diagonal.  All generators are antihermitian,
traceless, and normalized so that ``Tr(e_j e_k) = -2 delta_jk``.  For
``n = 2`` this is exactly ``{i*sigma_x, i*sigma_y, i*sigma_z}``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "su_generators",
    "structure_constants",
    "commutator",
    "partial_transpose",
]


def su_generators(n: int) -> np.ndarray:
    """Return the n^2 - 1 generators of su(n) as one read-only (n^2 - 1, n, n)
    complex stack, built once per n.

    Ordering: for each index pair (j, k) with j < k in lexicographic order,
    the symmetric generator i*(E_jk + E_kj); then the antisymmetric
    generators E_jk - E_kj for the same pairs; then the n - 1 diagonal
    generators i*sqrt(2/(l(l+1))) * diag(1, ..., 1, -l, 0, ..., 0).
    """
    if n < 2:
        raise ValueError(f"su(n) requires n >= 2, got n={n}")
    return _su_stack(n)


@lru_cache(maxsize=16)
def _su_stack(n: int) -> np.ndarray:
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    gens = np.zeros((n * n - 1, n, n), dtype=complex)
    for x, (j, k) in enumerate(pairs):
        gens[x, j, k] = gens[x, k, j] = 1j
        gens[len(pairs) + x, j, k], gens[len(pairs) + x, k, j] = 1.0, -1.0
    for l in range(1, n):
        d = np.zeros(n, dtype=complex)
        d[:l] = 1.0
        d[l] = -l
        gens[2 * len(pairs) + l - 1] = 1j * np.sqrt(2.0 / (l * (l + 1))) * np.diag(d)
    gens.flags.writeable = False
    return gens


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix commutator [x, y] = xy - yx."""
    return x @ y - y @ x


def structure_constants(gens: np.ndarray) -> np.ndarray:
    """Structure constants c[j, k, l] = -1/2 Tr([e_j, e_k] e_l).

    With the normalization Tr(e_j e_k) = -2 delta_jk this makes
    [e_j, e_k] = c[j, k, l] e_l.  The result is real and totally
    antisymmetric; for su(2) it equals -2 * epsilon_{jkl}.
    """
    stack = np.asarray(gens)
    # T_jkl = Tr(e_j e_k e_l), so Tr([e_j, e_k] e_l) = T_jkl - T_kjl
    t = np.einsum("jab,kbc,lca->jkl", stack, stack, stack)
    c = -0.5 * (t - t.transpose(1, 0, 2))
    if np.max(np.abs(c.imag)) > 1e-12:
        raise ValueError("structure constants are not real; generator basis is inconsistent")
    return np.ascontiguousarray(c.real)


def partial_transpose(matrix: np.ndarray, k: int, m: int) -> np.ndarray:
    """Partial transpose on the second factor of a (k*m, k*m) matrix, or of
    each matrix in a (..., k*m, k*m) stack."""
    matrix = np.asarray(matrix)
    n = k * m
    if matrix.shape[-2:] != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix for bipartition ({k},{m}), got {matrix.shape}")
    lead = matrix.shape[:-2]
    blocks = matrix.reshape(*lead, k, m, k, m)
    return np.swapaxes(blocks, -3, -1).reshape(*lead, n, n)
