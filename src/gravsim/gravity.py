"""Newtonian point-mass fields at probe points and their branch-weighted mixtures.

A field is represented by the acceleration vectors it produces at a fixed
set of probe points, flattened into one array of 3 * n_probes components
(m/s^2). The mass sits at one of four sites, one per BB84 symbol; the
mixture field weights the four single-site fields by branch probabilities,
and the field Eve senses adds decay_factor times that mixture on top of
the realized configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GeometryError, ValidationError, check_number
from .qubits import BRANCH_WEIGHTS, SYMBOLS

NEWTON_G = 6.674e-11

MIN_PROBE_SEPARATION = 1e-6

_EPSILON = float(np.finfo(np.float64).eps)


def point_mass_field(
    site_pos, probe_pos, mass: float, grav_const: float = NEWTON_G
) -> np.ndarray:
    """Gravitational acceleration at a probe due to a point mass at a site.

    Returns grav_const * mass * (site - probe) / |site - probe|^3, the
    acceleration vector pointing from the probe toward the mass. Raises
    GeometryError when probe and site are separated by less than the
    minimum separation.
    """
    site = np.asarray(site_pos, dtype=np.float64)
    probe = np.asarray(probe_pos, dtype=np.float64)
    if site.shape != (3,) or probe.shape != (3,):
        raise ValidationError("point_mass_field: positions must be 3-vectors")
    offset = site - probe
    distance = float(np.linalg.norm(offset))
    if distance < MIN_PROBE_SEPARATION:
        raise GeometryError(
            f"probe at {probe.tolist()} is within {MIN_PROBE_SEPARATION} m "
            f"of the mass site at {site.tolist()}"
        )
    return grav_const * mass * offset / distance**3


@dataclass(frozen=True, eq=False)
class Geometry:
    """Immutable mass-site and probe layout.

    sites holds one 3-vector per BB84 symbol in (Z0, Z1, Xp, Xm) order and
    probes at least one 3-vector; coordinates in meters, test_mass in kg.
    """

    sites: np.ndarray
    probes: np.ndarray
    test_mass: float = 1.0
    grav_const: float = NEWTON_G

    def __post_init__(self) -> None:
        sites = np.asarray(self.sites, dtype=np.float64)
        probes = np.asarray(self.probes, dtype=np.float64)
        if sites.shape != (4, 3):
            raise ValidationError(f"geometry.sites: expected shape (4, 3), got {sites.shape}")
        if probes.ndim != 2 or probes.shape[0] < 1 or probes.shape[1] != 3:
            raise ValidationError(
                f"geometry.probes: expected shape (n, 3) with n >= 1, got {probes.shape}"
            )
        if not np.isfinite(sites).all():
            raise ValidationError("geometry.sites: coordinates must be finite")
        if not np.isfinite(probes).all():
            raise ValidationError("geometry.probes: coordinates must be finite")
        for i in range(4):
            for j in range(i + 1, 4):
                if np.array_equal(sites[i], sites[j]):
                    raise GeometryError(
                        f"geometry.sites: {SYMBOLS[i].label} and {SYMBOLS[j].label} coincide"
                    )
        for k, probe in enumerate(probes):
            gaps = np.linalg.norm(sites - probe, axis=1)
            if float(gaps.min()) < MIN_PROBE_SEPARATION:
                nearest = SYMBOLS[int(gaps.argmin())].label
                raise GeometryError(
                    f"geometry.probes[{k}]: closer than {MIN_PROBE_SEPARATION} m "
                    f"to site {nearest}"
                )
        test_mass = check_number(self.test_mass, "geometry.testMass", above=0.0)
        grav_const = check_number(self.grav_const, "geometry.gravConst", above=0.0)
        sites.setflags(write=False)
        probes.setflags(write=False)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "probes", probes)
        object.__setattr__(self, "test_mass", test_mass)
        object.__setattr__(self, "grav_const", grav_const)
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(self.config_matrix).all() and np.isfinite(self.plane).all()
        if not finite:
            raise GeometryError(
                f"geometry.testMass, geometry.gravConst: a test mass of {test_mass!r} kg with "
                f"gravConst {grav_const!r} gives a configuration field beyond double precision"
            )

    @property
    def n_probes(self) -> int:
        return int(self.probes.shape[0])

    @property
    def field_dim(self) -> int:
        return 3 * self.n_probes

    @cached_property
    def config_matrix(self) -> np.ndarray:
        """Read-only (4, field_dim) matrix; row s is the field of the mass at site s."""
        rows = [
            np.concatenate(
                [
                    point_mass_field(self.sites[s], probe, self.test_mass, self.grav_const)
                    for probe in self.probes
                ]
            )
            for s in range(4)
        ]
        matrix = np.array(rows)
        matrix.setflags(write=False)
        return matrix

    @cached_property
    def mix_matrix(self) -> np.ndarray:
        """Read-only (4, field_dim) matrix; row p is BRANCH_WEIGHTS[p] @ config_matrix.

        Row p is the mixture field of preparation p: the four configuration
        fields weighted by the branch weights of p.
        """
        matrix = np.array([weights @ self.config_matrix for weights in BRANCH_WEIGHTS])
        matrix.setflags(write=False)
        return matrix

    def _half_diagonals(self) -> tuple[np.ndarray, float]:
        """Half diagonals (mix[Z0] - mix[Z1]) / 2 and (mix[Xp] - mix[Xm]) / 2, scaled, and the scale.

        Each half diagonal is the offset of its first row from the centre of
        the four mix rows. They come divided by their largest component, the
        returned scale, so that every later dot product of them stays finite.
        """
        half = self.mix_matrix[0::2] / 2.0 - self.mix_matrix[1::2] / 2.0
        scale = float(np.abs(half).max())
        return (half / scale, scale) if scale > 0.0 else (half, 1.0)

    @cached_property
    def plane_basis(self) -> np.ndarray:
        """Read-only (2, field_dim) orthonormal basis of the plane of the mix rows.

        The Born table gives mix[Z0] + mix[Z1] = mix[Xp] + mix[Xm], so the four
        rows are the corners of a parallelogram: they differ only within the
        plane of its diagonals mix[Z0] - mix[Z1] and mix[Xp] - mix[Xm]. Row k
        is Gram-Schmidt's unit vector for diagonal k, orthogonalized twice
        against the row before it. A diagonal parallel to that row, to
        rounding, leaves a zero row.
        """
        diagonals, _ = self._half_diagonals()
        basis = np.zeros((2, self.field_dim))
        for k, diagonal in enumerate(diagonals):
            rest = diagonal
            for _ in range(2):
                rest = rest - (basis @ rest) @ basis
            norm = float(np.linalg.norm(rest))
            if norm > self.field_dim * _EPSILON * float(np.linalg.norm(diagonal)):
                basis[k] = rest / norm
        basis.setflags(write=False)
        return basis

    @cached_property
    def plane(self) -> np.ndarray:
        """Read-only (4, 2) coordinates of the mix rows about their common centre in plane_basis.

        Row Z1 is minus row Z0 and row Xm minus row Xp. Differences of mix rows
        are differences of these rows times plane_basis; the second coordinate
        is 0 when the diagonals are parallel.
        """
        diagonals, scale = self._half_diagonals()
        half = scale * (diagonals @ self.plane_basis.T)
        plane = np.stack([half[0], -half[0], half[1], -half[1]])
        plane.setflags(write=False)
        return plane


@dataclass(frozen=True)
class NonlinearParams:
    """Amplitude b, relaxation rate lam (1/s), and delay delta_t (s) of the nonlinear term."""

    b: float = 0.0
    lam: float = 0.0
    delta_t: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", check_number(self.b, "nonlinear.b", low=0.0, high=1.0))
        object.__setattr__(self, "lam", check_number(self.lam, "nonlinear.lambda", low=0.0))
        object.__setattr__(self, "delta_t", check_number(self.delta_t, "nonlinear.deltaT", low=0.0))


def decay_factor(params: NonlinearParams) -> float:
    """The scalar b * exp(-lam * delta_t) multiplying the mixture term."""
    return params.b * math.exp(-params.lam * params.delta_t)

