"""Uniform 1-D mesh on (0, 1), its staggered dual meshes, and discrete integration.

The dual meshes of a uniform mesh have closed forms: the star mesh is the
N+1 midpoints of neighbouring closure points, the prime mesh the N-1
midpoints of neighbouring interior points.  Coordinates are materialized
on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh with N interior points, spacing h = 1/(N+1).

    ``interior`` holds x_i = i*h for i = 1..N, ``closure`` adds the two
    endpoints 0 and 1.  All coordinate arrays are freshly computed views;
    instances are immutable and safe to share.
    """

    N: int

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(
                f"mesh needs N >= 2 interior points (got N={self.N}); "
                "smaller meshes have no interior dual-prime points"
            )

    @property
    def h(self) -> float:
        return 1.0 / (self.N + 1)

    @property
    def interior(self) -> np.ndarray:
        return np.arange(1, self.N + 1) * self.h

    @property
    def closure(self) -> np.ndarray:
        return np.arange(0, self.N + 2) * self.h

    @property
    def star(self) -> np.ndarray:
        """Midpoints of neighbouring closure points (N+1 half-points)."""
        return (np.arange(self.N + 1) + 0.5) * self.h

    @property
    def prime(self) -> np.ndarray:
        """Midpoints of neighbouring interior points (N-1 half-points)."""
        return (np.arange(1, self.N) + 0.5) * self.h


def build_mesh(N: int) -> Mesh:
    """Uniform mesh with N interior points on (0, 1)."""
    mesh = Mesh(N)
    assert abs(mesh.h * (N + 1) - 1.0) <= 1e-15
    return mesh


_PART_SIZES = {
    "interior": lambda N: N,
    "star": lambda N: N + 1,
    "boundary": lambda N: 2,
}


def integrate(mesh: Mesh, values, part: str = "interior") -> float:
    """Discrete integral of ``values`` over one part of the mesh.

    Interior and star integrals are h-weighted sums; the boundary
    integral is the plain (unweighted) sum of the two values.
    """
    if part not in _PART_SIZES:
        raise ValueError(f"unknown mesh part {part!r}")
    values = np.asarray(values, dtype=float)
    expected = _PART_SIZES[part](mesh.N)
    if values.ndim != 1 or values.shape[0] != expected:
        raise ValueError(
            f"values for part {part!r} must have length {expected}, got shape {values.shape}"
        )
    total = values.sum()
    if part == "boundary":
        return float(total)
    return float(mesh.h * total)
