"""Grid-code lattice geometry: twisted lattices and symplecticity.

The lattice constant is a = √(2π). A lattice is the pair of stabilizer
displacement vectors

    u1 = R(θ) (a r, 0)ᵀ,   u2 = R(θ) (0, a/r)ᵀ,

with rotation θ and aspect ratio r, built by `twisted_lattice(θ, r)`: the
square lattice is θ = 0, r = 1. An OAM charge ℓ of a system with maximal
charge ℓ_max ≥ 1 (`ELL_MAX_DOMAIN`) sets θ_ℓ = ℓπ/ℓ_max; the trainable
parameters own that map (`optimize.TrainableParams.theta`). The symplectic
product is reported in units of π, so every valid construction scores
exactly 2 (the qudit dimension); see `symplectic_product`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "A_LATTICE",
    "GkpLattice",
    "rotation_matrix",
    "symplectic_product",
    "twisted_lattice",
]

A_LATTICE = math.sqrt(2.0 * math.pi)

ELL_MAX_DOMAIN = (1, None, False)  # of ℓ_max (`fock.in_domain`)

OMEGA = np.array([[0.0, 1.0], [-1.0, 0.0]])


def rotation_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def symplectic_product(u1, u2) -> float:
    """u1ᵀ Ω u2 in units of π (Ω = [[0,1],[-1,0]]).

    The un-normalized bilinear form for the square lattice is a² = 2π; in
    units of π the value is 2 for every (θ, r) lattice, which is the
    commutation condition the stabilizers need.
    """
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    return float(u1 @ OMEGA @ u2) / math.pi


@dataclass(frozen=True, eq=False)
class GkpLattice:
    """A `twisted_lattice`: its lattice constant is always A_LATTICE."""

    theta: float  # radians
    r: float
    u1: np.ndarray = field(repr=False)
    u2: np.ndarray = field(repr=False)

    def as_dict(self) -> dict:
        """Serializable form used inside run reports."""
        return {
            "theta_deg": math.degrees(self.theta),
            "r": self.r,
            "u1": [float(x) for x in self.u1],
            "u2": [float(x) for x in self.u2],
        }


def check_aspect_ratio(r) -> None:
    """ValueError unless the aspect ratio r is positive, at every element of
    an array; NaN is not."""
    if not np.all(np.asarray(r) > 0):
        raise ValueError(f"aspect ratio must be positive, got {r}")


def twisted_lattice(theta: float, r: float) -> GkpLattice:
    """Construct the rotated rectangular lattice u1 = R(θ)(ar,0)ᵀ, u2 = R(θ)(0,a/r)ᵀ."""
    check_aspect_ratio(r)
    R = rotation_matrix(theta)
    u1 = R @ np.array([A_LATTICE * r, 0.0])
    u2 = R @ np.array([0.0, A_LATTICE / r])
    return GkpLattice(theta=theta, r=r, u1=u1, u2=u2)

