"""Reference formulas the tests compare the library against.

Each is the textbook definition, written without the library's batching
or shared passes, so a test that checks a checker's sums against one does
not check the code against itself.
"""

from __future__ import annotations

import numpy as np

from degelab.analysis import DistributionFunction
from degelab.grid import GridFunction, face_gradient


def truncate(u: GridFunction, k: float) -> GridFunction:
    """Pointwise cutoff at level k: clamp values to [-k, k]."""
    if not (k > 0):
        raise ValueError(f"truncation level must be positive, got {k}")
    return GridFunction(grid=u.grid, values=np.clip(u.values, -k, k))


def lebesgue_norm(u: GridFunction, s: float) -> float:
    """(sum w |u|^s)^(1/s) over the grid's volume weights w."""
    if not (s > 0):
        raise ValueError(f"exponent must be positive, got {s}")
    return float(np.dot(u.grid.weights, np.abs(u.values) ** s) ** (1.0 / s))


def marcinkiewicz_constant(df: DistributionFunction, s: float) -> float:
    """Smallest empirical C with mu(k) <= C k^(-s) on the sampled levels."""
    if not (s > 0):
        raise ValueError(f"exponent must be positive, got {s}")
    if df.k_levels.size == 0:
        return 0.0
    return float(np.max(df.k_levels**s * df.measures))


def dirichlet_energy(u: GridFunction, k: float | None = None) -> float:
    """Face-weighted squared gradient of u, or of its cutoff T_k(u)."""
    field = u if k is None else truncate(u, k)
    return float(np.dot(u.grid.face_weights, face_gradient(field) ** 2))
