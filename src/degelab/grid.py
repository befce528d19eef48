"""Radial mesh on the ball of radius R in R^N, reduced to one dimension.

Unknowns live at cell centers of a partition of [0, R]; every discrete
integral carries the N-dimensional volume element omega_N r^(N-1) dr so
that sums over nodes approximate integrals over the ball.  Cell-centered
placement keeps singular radial data away from r = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "RadialGrid",
    "GridFunction",
    "sphere_surface",
    "MeshSpec",
    "build_radial_grid",
    "face_gradient",
    "face_differences",
    "face_upwind_values",
    "upwind_takes_right",
    "grid_function",
    "write_grid_function",
    "read_grid_function",
]


def sphere_surface(dimension: int) -> float:
    """Surface measure of the unit sphere in R^N (4*pi for N=3).

    Computed through the log-Gamma function so large N does not overflow.
    """
    n = float(dimension)
    return math.exp(math.log(2.0) + 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n))


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Cell-centered radial mesh.

    ``faces`` holds the M+1 cell interfaces with faces[0] = 0 and
    faces[M] = R; ``nodes`` the cell centers.  ``gaps`` holds the
    node-to-node distance across each face (gaps[0] is unused and set to
    inf, gaps[M] is the half-cell distance from the last node to the
    Dirichlet boundary).  Every array is read-only: ``build_radial_grid``
    hands one grid per mesh to all its callers.  Shell volumes, volume
    weights, face areas and face weights are computed once per grid, on
    first use, and shared the same way.
    """

    N: int
    R: float
    M: int
    grading: float
    faces: np.ndarray
    nodes: np.ndarray
    widths: np.ndarray
    gaps: np.ndarray

    @cached_property
    def volumes(self) -> np.ndarray:
        """Exact shell volumes (x_{i+1}^N - x_i^N)/N, without omega_N (read-only)."""
        xs = self.faces**self.N
        return _read_only((xs[1:] - xs[:-1]) / self.N)

    @cached_property
    def weights(self) -> np.ndarray:
        """Volume weights omega_N (x_{i+1}^N - x_i^N)/N realizing the integral
        over the ball: sum(weights) is the ball volume omega_N R^N / N to
        rounding (read-only)."""
        return _read_only(sphere_surface(self.N) * self.volumes)

    @cached_property
    def face_areas(self) -> np.ndarray:
        """r^(N-1) at the faces, without omega_N; zero at the origin (read-only)."""
        return _read_only(self.faces ** (self.N - 1))

    @cached_property
    def face_weights(self) -> np.ndarray:
        """Face measure omega_N r_f^(N-1) d_f pairing with squared face gradients.

        Entry 0 (origin face) is zero; entry M belongs to the Dirichlet face
        at r = R with the half-cell gap.  These weights make the discrete
        Dirichlet form sum(face_weights * face_gradient(u) * face_gradient(v))
        exactly equal to the weak pairing of the assembled operator
        (read-only).
        """
        w = np.zeros(self.M + 1)
        w[1:] = sphere_surface(self.N) * self.face_areas[1:] * self.gaps[1:]
        return _read_only(w)


def _read_only(values: np.ndarray) -> np.ndarray:
    """Freeze an array computed once per grid and shared by every caller."""
    values.flags.writeable = False
    return values


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Nodal field on a radial grid."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.M,):
            raise ValueError(
                f"values must have length M={self.grid.M}, got shape {vals.shape}"
            )
        if not np.isfinite(vals).all():
            raise ValueError("grid function values must be finite")
        object.__setattr__(self, "values", vals)

    def max_abs(self) -> float:
        return float(np.abs(self.values).max()) if self.grid.M else 0.0


@dataclass(frozen=True)
class MeshSpec:
    """Cell count M (an integer >= 8) and origin grading (in [1, 4])."""

    cells: int
    grading: float = 1.0

    def __post_init__(self):
        if int(self.cells) != self.cells or self.cells < 8:
            raise ValueError(f"cell count must be an integer >= 8, got {self.cells}")
        if not (1.0 <= self.grading <= 4.0):
            raise ValueError(f"grading factor must lie in [1, 4], got {self.grading}")


def build_radial_grid(N: int, R: float, M: int, grading: float | None = None) -> RadialGrid:
    """The cell-centered mesh, optionally graded toward the origin.

    With grading g > 1 the cell widths form a geometric sequence whose
    first (origin) cell is exactly 1/g times the uniform width R/M; the
    common ratio is solved so the widths still sum to R.  The last few
    meshes built are kept: the same (N, R, M, grading) returns the same
    read-only grid, whose volumes and face weights are then computed once.
    """
    if int(N) != N or N < 3:
        raise ValueError(f"dimension must be an integer >= 3, got {N}")
    if not (R > 0):
        raise ValueError(f"radius must be positive, got {R}")
    g = 1.0 if grading is None else float(grading)
    MeshSpec(M, g)  # holds the rules on M and the grading
    return _radial_grid(int(N), float(R), int(M), g)


@lru_cache(maxsize=16)
def _radial_grid(N: int, R: float, M: int, g: float) -> RadialGrid:
    if g == 1.0:
        widths = np.full(M, R / M)
    else:
        # scipy.optimize loads here, not at import: only graded meshes need it
        from scipy.optimize import brentq

        first = R / (M * g)

        # solve (ratio^M - 1)/(ratio - 1) = M*g for the common ratio, in the
        # overflow-safe variable x = ratio - 1
        def excess(x):
            return math.expm1(M * math.log1p(x)) / x - M * g

        hi = 2.0 * math.log(2.0 * g) / M
        x = brentq(excess, 1e-14, hi, xtol=1e-16, rtol=8.9e-16)
        widths = first * (1.0 + x) ** np.arange(M)
        widths *= R / widths.sum()  # absorb the root-finder's residual

    faces = np.concatenate(([0.0], np.cumsum(widths)))
    faces[-1] = R
    nodes = 0.5 * (faces[:-1] + faces[1:])
    gaps = np.empty(M + 1)
    gaps[0] = np.inf
    gaps[1:M] = nodes[1:] - nodes[:-1]
    gaps[M] = R - nodes[-1]
    return RadialGrid(N=N, R=R, M=M, grading=g, faces=_read_only(faces),
                      nodes=_read_only(nodes), widths=_read_only(widths),
                      gaps=_read_only(gaps))


def face_gradient(u: GridFunction) -> np.ndarray:
    """Two-point difference quotient at each of the M+1 faces.

    The origin face carries 0 (radial symmetry); the outer face uses the
    homogeneous Dirichlet ghost value 0 at r = R over the half-cell gap.
    """
    return face_differences(u.grid, u.values)


def face_differences(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    """:func:`face_gradient` of every row of a (..., M) array of nodal values.

    Returns a (..., M+1) array; each row is computed by the same float
    operations as a single field's gradient.
    """
    M = grid.M
    grad = np.empty(values.shape[:-1] + (M + 1,))
    grad[..., 0] = 0.0
    inner = grad[..., 1:M]
    np.subtract(values[..., 1:], values[..., :-1], out=inner)
    inner /= grid.gaps[1:M]
    grad[..., M] = (0.0 - values[..., -1]) / grid.gaps[M]
    return grad


def upwind_takes_right(mag: np.ndarray) -> np.ndarray:
    """Per interior face, whether its upwind node, the one of larger |u|
    (``mag``), is the right-hand one; a tie takes the right-hand node.  The
    solver's face coefficients and the audit's face values both follow it."""
    return mag[1:] >= mag[:-1]


def face_upwind_values(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    """Per-face frozen value: the adjacent node ``upwind_takes_right`` picks.

    The outer face compares against the ghost value 0, so it always takes
    the last node; the origin face has no flux and gets the first node.
    """
    up = np.empty(grid.M + 1)
    up[0] = values[0]
    up[1:grid.M] = np.where(upwind_takes_right(np.abs(values)), values[1:], values[:-1])
    up[grid.M] = values[-1]
    return up


def grid_function(grid: RadialGrid, source) -> GridFunction:
    """Wrap a constant, array, or callable-of-radius as a GridFunction."""
    if callable(source):
        vals = np.asarray(source(grid.nodes), dtype=float)
        vals = np.broadcast_to(vals, (grid.M,)).copy()
    else:
        vals = np.broadcast_to(np.asarray(source, dtype=float), (grid.M,)).copy()
    return GridFunction(grid=grid, values=vals)


def write_grid_function(u: GridFunction, path, extra: dict | None = None) -> None:
    """Write a two-column (r_i, value) text file with '#' metadata lines.

    Floats are written with 17 significant digits so a read back
    reproduces the exact binary values.
    """
    grid = u.grid
    lines = [
        f"# N {grid.N}",
        f"# R {grid.R!r}",
        f"# M {grid.M}",
        f"# grading {grid.grading!r}",
    ]
    for key, val in (extra or {}).items():
        lines.append(f"# {key} {val!r}")
    for r, v in zip(grid.nodes, u.values):
        lines.append(f"{r:.17g} {v:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_grid_function(path) -> tuple[GridFunction, dict]:
    """Read a grid function written by :func:`write_grid_function`.

    Returns the function on a freshly rebuilt grid plus any extra
    metadata found in the header.
    """
    meta: dict[str, str] = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split(None, 1)
                if len(parts) == 2:
                    meta[parts[0]] = parts[1]
                continue
            cols = line.split()
            if len(cols) != 2:
                raise ValueError(f"malformed solution line: {line!r}")
            rows.append((float(cols[0]), float(cols[1])))
    for key in ("N", "R", "M", "grading"):
        if key not in meta:
            raise ValueError(f"solution file is missing '# {key}' metadata")
    grid = build_radial_grid(int(meta["N"]), float(meta["R"]), int(meta["M"]),
                             float(meta["grading"]))
    if len(rows) != grid.M:
        raise ValueError(f"expected {grid.M} data rows, found {len(rows)}")
    radii = np.array([r for r, _ in rows])
    if not np.allclose(radii, grid.nodes, rtol=1e-12, atol=1e-300):
        raise ValueError("node radii in file do not match the declared mesh")
    values = np.array([v for _, v in rows])
    extra = {k: v for k, v in meta.items() if k not in ("N", "R", "M", "grading")}
    return GridFunction(grid=grid, values=values), extra
