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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GeometryError, ValidationError, check_number, check_numbers, is_list
from .qubits import _LABELS, BRANCH_WEIGHTS

NEWTON_G = 6.674e-11

MIN_PROBE_SEPARATION = 1e-6

_EPSILON = float(np.finfo(np.float64).eps)

_HALF_DIAG = 0.3535533905932738  # 0.5 * cos(pi/4)

_DEFAULT_SITES = (
    (0.1, 0.1, 0.0),
    (0.1, -0.1, 0.0),
    (-0.1, 0.1, 0.0),
    (-0.1, -0.1, 0.0),
)
_DEFAULT_PROBES = (
    (0.5, 0.0, 0.0),
    (_HALF_DIAG, _HALF_DIAG, 0.0),
    (0.0, 0.5, 0.0),
    (-_HALF_DIAG, _HALF_DIAG, 0.0),
    (-0.5, 0.0, 0.0),
    (-_HALF_DIAG, -_HALF_DIAG, 0.0),
    (0.0, -0.5, 0.0),
    (_HALF_DIAG, -_HALF_DIAG, 0.0),
)


def _vector(value, path: str) -> tuple[float, ...]:
    """value as three numbers, coordinate i checked as path[i]."""
    if not is_list(value) or len(value) != 3:
        raise ValidationError(f"{path}: expected a 3-vector, got {value!r}")
    return check_numbers(value, path)


@dataclass(frozen=True, eq=False)
class Geometry:
    """Immutable mass-site and probe layout, by default the bundled square and ring.

    sites holds one 3-vector per BB84 symbol in (Z0, Z1, Xp, Xm) order and
    probes at least one 3-vector; coordinates in meters, test_mass in kg.
    Each coordinate is a number by the errors.check_number rule, named
    geometry.sites.<label>[i] or geometry.probes[k][i]. config_matrix is
    the read-only (4, field_dim) matrix whose row s is the field of the mass
    at site s, computed once from the table of site-probe offsets.
    """

    sites: np.ndarray = _DEFAULT_SITES
    probes: np.ndarray = _DEFAULT_PROBES
    test_mass: float = 1.0
    grav_const: float = NEWTON_G
    config_matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not is_list(self.sites) or len(self.sites) != 4:
            raise ValidationError(
                f"geometry.sites: expected one 3-vector for each of {list(_LABELS)}, "
                f"got {self.sites!r}"
            )
        if not is_list(self.probes) or len(self.probes) == 0:
            raise ValidationError(
                f"geometry.probes: expected a non-empty list of 3-vectors, got {self.probes!r}"
            )
        sites = np.array(
            [_vector(site, f"geometry.sites.{label}") for site, label in zip(self.sites, _LABELS)]
        )
        probes = np.array([_vector(v, f"geometry.probes[{k}]") for k, v in enumerate(self.probes)])
        for i in range(4):
            for j in range(i + 1, 4):
                if np.array_equal(sites[i], sites[j]):
                    raise GeometryError(f"geometry.sites: {_LABELS[i]} and {_LABELS[j]} coincide")
        # The (4, n, 3) probe-to-site offsets and their (4, n) distances, each
        # sqrt(offset @ offset) by matmul, which rounds as np.linalg.norm does.
        with np.errstate(over="ignore"):
            offsets = sites[:, np.newaxis] - probes
            distances = np.sqrt(offsets[..., np.newaxis, :] @ offsets[..., np.newaxis])[..., 0, 0]
        near = (distances < MIN_PROBE_SEPARATION).any(axis=0)
        if near.any():
            k = int(near.argmax())
            raise GeometryError(
                f"geometry.probes[{k}]: closer than {MIN_PROBE_SEPARATION} m "
                f"to site {_LABELS[int(distances[:, k].argmin())]}"
            )
        # Each cube is a scalar float power, C pow: numpy's array power rounds
        # some cubes differently.
        try:
            cubes = np.array([d**3 for d in distances.ravel().tolist()])
        except OverflowError:  # a distance beyond the cube root of the largest double
            cubes = np.array([math.inf])
        if not np.isfinite(cubes).all():
            raise GeometryError("geometry.probes: a probe lies too far from a site to cube the distance")
        test_mass = check_number(self.test_mass, "geometry.testMass", above=0.0)
        grav_const = check_number(self.grav_const, "geometry.gravConst", above=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            matrix = (grav_const * test_mass * offsets / cubes.reshape(4, -1, 1)).reshape(4, -1)
        for array in (sites, probes, matrix):
            array.setflags(write=False)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "probes", probes)
        object.__setattr__(self, "test_mass", test_mass)
        object.__setattr__(self, "grav_const", grav_const)
        object.__setattr__(self, "config_matrix", matrix)
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(matrix).all() and np.isfinite(self.plane).all()
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

