"""Newtonian point-mass fields at probe points and their branch-weighted mixtures.

A field is represented by the acceleration vectors it produces at a fixed
set of probe points, flattened into one array of 3 * n_probes components
(m/s^2). The mass sits at one of four sites, one per BB84 symbol; the
mixture field weights the four single-site fields by branch probabilities,
and the field Eve senses adds decay_factor times that mixture on top of
the realized configuration.
"""

from __future__ import annotations

import itertools
import math
import struct
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

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


def _coordinates(sites, probes) -> tuple[float, ...]:
    """The coordinates of the four sites, then of the probes, as one tuple; _vector checks each."""
    paths = [f"geometry.sites.{label}" for label in _LABELS]
    paths += [f"geometry.probes[{k}]" for k in range(len(probes))]
    return tuple(c for v, path in zip((*sites, *probes), paths) for c in _vector(v, path))


def _offsets_and_cubes(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (4, n, 3) site-probe offsets of points, sites then probes, and their lengths cubed.

    Raises GeometryError for a probe nearer than MIN_PROBE_SEPARATION to a
    site, or one too far from a site to cube the distance.
    """
    sites, probes = points[:4], points[4:]
    # Each distance is sqrt(offset @ offset) by matmul, which rounds as
    # np.linalg.norm does.
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
    return offsets, cubes.reshape(4, -1, 1)


def _plane(mix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The plane_basis and plane of the (4, field_dim) mix rows, as Geometry describes them.

    Both come from the half diagonals (mix[Z0] - mix[Z1]) / 2 and
    (mix[Xp] - mix[Xm]) / 2, divided by their largest component so that
    every dot product of them stays finite. Gram-Schmidt orthogonalizes
    each diagonal twice against the basis row before it.
    """
    half = mix[0::2] / 2.0 - mix[1::2] / 2.0
    scale = float(np.abs(half).max())
    diagonals, scale = (half / scale, scale) if scale > 0.0 else (half, 1.0)
    basis = np.zeros((2, mix.shape[1]))
    for k, diagonal in enumerate(diagonals):
        rest = diagonal
        for _ in range(2):
            rest = rest - (basis @ rest) @ basis
        norm = float(np.linalg.norm(rest))
        if norm > mix.shape[1] * _EPSILON * float(np.linalg.norm(diagonal)):
            basis[k] = rest / norm
    rows = scale * (diagonals @ basis.T)
    return basis, np.stack([rows[0], -rows[0], rows[1], -rows[1]])


class _Plane(NamedTuple):
    """A (4, 2) plane with the constants its Monte Carlo trials share, from _plane_constants.

    rows is the plane P itself, the residuals of a unit decay, and reach
    its largest |component|, the reach of a unit decay; pmax is its largest
    row and dmin its smallest distance between two rows. weights holds the
    critical-amplitude weights -2 (P_t - P_h) / |P_t - P_h|^2, read-only and
    laid out (3, 2, 4) for the gather by truth: [k, :, t] for the k-th
    hypothesis h != t. weights is None when the plane leaves no decision
    certain: two rows coincide, or a squared row distance leaves the normal
    range of doubles.
    """

    rows: np.ndarray
    reach: float
    pmax: float
    dmin: float
    weights: np.ndarray | None


# The hypotheses other than each true one, (4, 3): row t lists h != t in order.
_OTHERS = np.array([[h for h in range(4) if h != t] for t in range(4)])


def _plane_constants(plane) -> _Plane:
    """The _Plane of the (4, 2) plane; _layout builds one per layout."""
    rows = plane.tolist()
    pmax = max(math.hypot(*row) for row in rows)
    dmin = min(math.dist(rows[i], rows[j]) for i, j in itertools.combinations(range(4), 2))
    weights = None
    if sys.float_info.min <= dmin * dmin and 4.0 * pmax * pmax < math.inf:
        differences = plane[:, np.newaxis] - plane[_OTHERS]  # P_t - P_h, (4, 3, 2)
        weights = -2.0 * differences / (differences * differences).sum(axis=-1, keepdims=True)
        weights = np.ascontiguousarray(weights.transpose(1, 2, 0))
        weights.setflags(write=False)
    return _Plane(plane, float(np.abs(plane).max()), pmax, dmin, weights)


class _Layout(NamedTuple):
    """The read-only arrays and the _Plane of one geometry layout, as Geometry holds them."""

    sites: np.ndarray
    probes: np.ndarray
    config_matrix: np.ndarray
    mix_matrix: np.ndarray
    plane_basis: np.ndarray
    plane: np.ndarray
    plane_constants: _Plane


@lru_cache(maxsize=32)
def _layout(coordinates: bytes, test_mass: float, grav_const: float) -> _Layout:
    """The _Layout whose checked coordinates pack to the bytes `coordinates`.

    The bytes key tells -0.0 from 0.0, which a float key would not. The
    positive test_mass and grav_const are equal exactly when their bits are.
    The 32 layouts used last are kept; a layout that fails a check raises,
    and lru_cache keeps no error.
    """
    points = np.frombuffer(coordinates).reshape(-1, 3)
    offsets, cubes = _offsets_and_cubes(points)
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = (grav_const * test_mass * offsets / cubes).reshape(4, -1)
        mix = np.array([weights @ matrix for weights in BRANCH_WEIGHTS])
        basis, plane = _plane(mix)
    if not (np.isfinite(matrix).all() and np.isfinite(plane).all()):
        raise GeometryError(
            f"geometry.testMass, geometry.gravConst: a test mass of {test_mass!r} kg with "
            f"gravConst {grav_const!r} gives a configuration field beyond double precision"
        )
    arrays = (points[:4], points[4:], matrix, mix, basis, plane)
    for array in arrays:
        array.setflags(write=False)
    return _Layout(*arrays, _plane_constants(plane))


@dataclass(frozen=True, eq=False)
class Geometry:
    """Immutable mass-site and probe layout, by default the bundled square and ring.

    sites holds one 3-vector per BB84 symbol in (Z0, Z1, Xp, Xm) order and
    probes at least one 3-vector; coordinates in meters, test_mass in kg.
    Each coordinate is a number by the errors.check_number rule, named
    geometry.sites.<label>[i] or geometry.probes[k][i]. sites, probes and
    the four matrices below are read-only arrays, built once per layout
    with plane_constants: geometries whose coordinates, test_mass and
    grav_const have the same bits share them all.

    config_matrix is the (4, field_dim) matrix whose row s is the field of
    the mass at site s, computed from the table of site-probe offsets.
    Row p of mix_matrix is BRANCH_WEIGHTS[p] @ config_matrix, the mixture
    field of preparation p.

    plane_basis is a (2, field_dim) orthonormal basis of the plane of the
    mix rows. The Born table gives mix[Z0] + mix[Z1] = mix[Xp] + mix[Xm],
    so the four rows are the corners of a parallelogram: they differ only
    within the plane of its diagonals mix[Z0] - mix[Z1] and
    mix[Xp] - mix[Xm]. Row k is the unit vector for diagonal k, made
    orthogonal to the row before it; a diagonal parallel to that row, to
    rounding, leaves a zero row. plane holds the (4, 2) coordinates of the mix rows about
    their common centre in plane_basis: row Z1 is minus row Z0 and row Xm
    minus row Xp, differences of mix rows are differences of these rows
    times plane_basis, and the second coordinate is 0 when the diagonals
    are parallel. plane_constants is the _Plane of plane, the constants
    that Monte Carlo scoring (attack._mc_trials, attack._mc_hits) shares.
    """

    sites: np.ndarray = _DEFAULT_SITES
    probes: np.ndarray = _DEFAULT_PROBES
    test_mass: float = 1.0
    grav_const: float = NEWTON_G
    config_matrix: np.ndarray = field(init=False, repr=False)
    mix_matrix: np.ndarray = field(init=False, repr=False)
    plane_basis: np.ndarray = field(init=False, repr=False)
    plane: np.ndarray = field(init=False, repr=False)
    plane_constants: _Plane = field(init=False, repr=False)

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
        coordinates = _coordinates(self.sites, self.probes)
        for i in range(4):
            for j in range(i + 1, 4):
                if coordinates[3 * i : 3 * i + 3] == coordinates[3 * j : 3 * j + 3]:
                    raise GeometryError(f"geometry.sites: {_LABELS[i]} and {_LABELS[j]} coincide")
        key = struct.pack(f"{len(coordinates)}d", *coordinates)
        try:
            test_mass = check_number(self.test_mass, "geometry.testMass", above=0.0)
            grav_const = check_number(self.grav_const, "geometry.gravConst", above=0.0)
        except ValidationError:
            _offsets_and_cubes(np.frombuffer(key).reshape(-1, 3))  # a probe's fault comes first
            raise
        for name, value in zip(_Layout._fields, _layout(key, test_mass, grav_const)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "test_mass", test_mass)
        object.__setattr__(self, "grav_const", grav_const)

    @property
    def n_probes(self) -> int:
        return int(self.probes.shape[0])

    @property
    def field_dim(self) -> int:
        return 3 * self.n_probes


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

