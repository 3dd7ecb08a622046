"""Unit tests for point-mass fields, geometry, and the nonlinear field term."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from gravsim import (
    Bb84Symbol,
    GeometryError,
    Geometry,
    NonlinearParams,
    SYMBOLS,
    EveConfig,
    EveStrategy,
    SensorModel,
    ValidationError,
    config_from_dict,
    decay_factor,
    load_config,
    serialize_config,
)
from gravsim.gravity import NEWTON_G, _layout
from gravsim.qubits import BRANCH_WEIGHTS


@pytest.fixture(scope="module")
def geom():
    return Geometry()


def test_point_mass_field_matches_reference():
    # row s of a one-probe geometry's config_matrix is the field of the mass at site s
    cases = [
        (Bb84Symbol.Z0, (0.1, 0.1, 0.0), (0.5, 0.0, 0.0), 1.0),
        (Bb84Symbol.Z1, (0.1, -0.1, 0.0), (0.0, 0.5, 0.0), 2.5),
        (Bb84Symbol.XP, (-0.1, 0.1, 0.0), (0.3, -0.2, 0.4), 0.7),
    ]
    for symbol, site, probe, mass in cases:
        got = Geometry(probes=[probe], test_mass=mass).config_matrix[symbol]
        want = oracles.point_mass_reference(site, probe, mass, NEWTON_G)
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)


def test_point_mass_field_inverse_square_and_direction():
    sites = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    near = Geometry(sites, probes=[[0.0, 0.0, 0.0]]).config_matrix
    far = Geometry(2.0 * sites, probes=[[0.0, 0.0, 0.0]]).config_matrix
    assert near == pytest.approx(4.0 * far, rel=1e-12)
    # each field points from the probe toward its mass
    assert np.array_equal(np.sign(near), sites)


def test_geometry_shape_validation():
    with pytest.raises(ValidationError, match="geometry.sites"):
        Geometry(sites=np.zeros((3, 3)), probes=np.ones((2, 3)))
    with pytest.raises(ValidationError, match="geometry.probes"):
        Geometry(sites=np.eye(4, 3), probes=np.empty((0, 3)))


def test_geometry_rejects_coincident_sites():
    sites = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(GeometryError, match="Z0 and Z1"):
        Geometry(sites=sites, probes=np.array([[5.0, 5.0, 5.0]]))


def test_geometry_rejects_probe_near_site():
    sites = np.array([[0.1, 0.1, 0.0], [0.1, -0.1, 0.0], [-0.1, 0.1, 0.0], [-0.1, -0.1, 0.0]])
    probes = np.array([[1.0, 1.0, 1.0], [0.1, 0.1, 1e-8]])
    with pytest.raises(GeometryError, match=r"geometry.probes\[1\]"):
        Geometry(sites=sites, probes=probes)


@pytest.mark.parametrize("x", [1e103, 1e200])
def test_geometry_rejects_a_probe_too_far_to_cube_its_distance(x):
    with pytest.raises(GeometryError, match=r"^geometry\.probes: a probe lies too far"):
        Geometry(probes=[[0.5, 0.0, 0.0], [x, 0.0, 0.0]])


SITES = [[0.1, 0.1, 0.0], [0.1, -0.1, 0.0], [-0.1, 0.1, 0.0], [-0.1, -0.1, 0.0]]
PROBES = [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]]


def test_geometry_rejects_coordinates_that_are_not_3_vectors_of_numbers():
    # Each message names the first bad vector or coordinate, in sites-then-probes order.
    inf = np.float64(np.inf)
    cases = [
        (dict(probes=[[0.5, 0.0]]), "geometry.probes[0]: expected a 3-vector, got [0.5, 0.0]"),
        (
            dict(sites=np.array(1.0)),
            "geometry.sites: expected one 3-vector for each of ['Z0', 'Z1', 'Xp', 'Xm'], "
            "got array(1.)",
        ),
        (
            dict(sites=[*SITES[:3], [-0.1, 1j, 0.0]]),
            "geometry.sites.Xm[1]: expected a number, got 1j",
        ),
        (
            dict(sites=[*SITES[:2], (-0.1, True, 0.0), "abc"], probes=[[0.5, 0.0]]),
            "geometry.sites.Xp[1]: expected a number, got True",
        ),
        (dict(probes=[PROBES[0], "abc"]), "geometry.probes[1]: expected a 3-vector, got 'abc'"),
        (
            dict(sites=np.array(SITES), probes=np.array([PROBES[0], [0.0, 0.5, inf]])),
            f"geometry.probes[1][2]: must be finite, got {inf!r}",
        ),
    ]
    for kwargs, message in cases:
        with pytest.raises(ValidationError) as raised:
            Geometry(**kwargs)
        assert str(raised.value) == message


# Geometries with two faults, and the message of the one that comes first:
# coordinates, coincident sites, a probe on a site, a cube beyond double
# precision, testMass, gravConst, then the field.
TWO_FAULTS = [
    ([SITES[0], *SITES], PROBES, 1.0, "G", "geometry.sites: expected one 3-vector"),
    ([[0.1, 0.1, 1j], *SITES[1:]], PROBES, 0.0, 1.0, "geometry.sites.Z0[2]: expected a number"),
    ([SITES[0], SITES[0], *SITES[2:]], [SITES[0]], 1.0, 1.0, "geometry.sites: Z0 and Z1 coincide"),
    ([SITES[0], SITES[0], *SITES[2:]], PROBES, 0.0, 1.0, "geometry.sites: Z0 and Z1 coincide"),
    (SITES, [PROBES[0], SITES[1]], 1.0, -1.0, "geometry.probes[1]: closer than 1e-06 m to site Z1"),
    (SITES, [[1e200, 0.0, 0.0]], None, 1.0, "geometry.probes: a probe lies too far from a site"),
    (SITES, PROBES, 0.0, -1.0, "geometry.testMass: must be > 0, got 0.0"),
    (SITES, PROBES, 1e300, "G", "geometry.gravConst: expected a number, got 'G'"),
]


@pytest.mark.parametrize(
    "sites, probes, test_mass, grav_const, message",
    TWO_FAULTS,
    ids=["shape", "coordinate", "coincide", "coincide_mass", "probe", "cube", "mass", "const"],
)
def test_a_layout_with_two_faults_raises_the_first(sites, probes, test_mass, grav_const, message):
    with pytest.raises(ValidationError) as raised:
        Geometry(sites, probes, test_mass, grav_const)
    assert str(raised.value).startswith(message)


@pytest.mark.parametrize(
    "kwargs",
    [dict(probes=[PROBES[0], SITES[2]]), dict(test_mass=1e300, grav_const=1e300)],
    ids=["probe_on_a_site", "field_beyond_double_precision"],
)
def test_an_invalid_layout_raises_on_every_call(kwargs):
    _layout.cache_clear()
    for _ in range(3):
        with pytest.raises(GeometryError):
            Geometry(**kwargs)
    assert _layout.cache_info().currsize == 0


def test_geometry_rejects_bad_mass_and_constant(geom):
    with pytest.raises(ValidationError, match="geometry.testMass"):
        Geometry(sites=geom.sites, probes=geom.probes, test_mass=0.0)
    with pytest.raises(ValidationError, match="geometry.gravConst"):
        Geometry(sites=geom.sites, probes=geom.probes, grav_const=-1.0)


@pytest.mark.filterwarnings("error")
def test_geometry_rejects_a_field_beyond_double_precision(geom):
    with pytest.raises(GeometryError, match=r"geometry\.testMass, geometry\.gravConst"):
        Geometry(sites=geom.sites, probes=geom.probes, test_mass=1e300, grav_const=1e300)
    huge = Geometry(sites=geom.sites, probes=geom.probes, test_mass=1e150, grav_const=1e150)
    assert np.isfinite(huge.mix_matrix).all()


def test_geometry_arrays_are_read_only(geom):
    with pytest.raises(ValueError):
        geom.sites[0, 0] = 9.0
    with pytest.raises(ValueError):
        geom.config_matrix[0, 0] = 9.0


def test_default_plane_is_a_read_only_rhombus(geom):
    plane, basis = geom.plane, geom.plane_basis
    for array in (plane, basis):
        with pytest.raises(ValueError):
            array[0, 0] = 9.0
    np.testing.assert_allclose(basis @ basis.T, np.eye(2), rtol=0.0, atol=1e-15)
    assert np.array_equal(plane[1], -plane[0]) and np.array_equal(plane[3], -plane[2])
    # mix row differences are plane differences carried by the basis
    for h in range(4):
        for k in range(4):
            np.testing.assert_allclose(
                (plane[h] - plane[k]) @ basis,
                geom.mix_matrix[h] - geom.mix_matrix[k],
                rtol=0.0,
                atol=1e-24,
            )
    # equal half diagonals at an angle whose cosine is 0.627
    half_z, half_x = np.linalg.norm(plane[0]), np.linalg.norm(plane[2])
    assert half_z == pytest.approx(half_x, rel=1e-12)
    assert plane[0] @ plane[2] / (half_z * half_x) == pytest.approx(0.627, abs=1e-3)


def test_parallel_diagonals_leave_a_zero_basis_row():
    # every site and probe on the x axis: both diagonals point along it
    sites = [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [-3.0, 0.0, 0.0]]
    geom = Geometry(sites=sites, probes=[[0.0, 0.0, 0.0]])
    assert not geom.plane_basis[1].any()
    assert not geom.plane[:, 1].any()
    assert abs(geom.plane_basis[0, 0]) == 1.0


def test_default_geometry_layout(geom):
    assert geom.n_probes == 8
    assert geom.field_dim == 24
    assert geom.test_mass == 1.0
    assert geom.grav_const == NEWTON_G
    ring_radii = np.linalg.norm(geom.probes, axis=1)
    assert np.allclose(ring_radii, 0.5, atol=1e-15)
    assert np.array_equal(geom.sites[Bb84Symbol.XM], np.array([-0.1, -0.1, 0.0]))


def test_config_field_matches_reference(geom):
    for s in SYMBOLS:
        want = np.concatenate(
            [
                oracles.point_mass_reference(geom.sites[s], probe, 1.0, NEWTON_G)
                for probe in geom.probes
            ]
        )
        assert np.allclose(geom.config_matrix[s], want, rtol=1e-14, atol=0.0)


def test_mix_matrix_rows_match_mix_field(geom):
    # Row p is the configuration fields weighted by the branch weights of p.
    for s in SYMBOLS:
        assert np.array_equal(geom.mix_matrix[s], BRANCH_WEIGHTS[s] @ geom.config_matrix)
    np.testing.assert_allclose(
        geom.mix_matrix, BRANCH_WEIGHTS @ geom.config_matrix, rtol=1e-15, atol=0.0
    )


def test_nonlinear_params_validation():
    with pytest.raises(ValidationError, match="nonlinear.b"):
        NonlinearParams(b=1.5)
    with pytest.raises(ValidationError, match="nonlinear.b"):
        NonlinearParams(b=-0.1)
    with pytest.raises(ValidationError, match="nonlinear.lambda"):
        NonlinearParams(b=0.5, lam=-1.0)
    with pytest.raises(ValidationError, match="nonlinear.deltaT"):
        NonlinearParams(b=0.5, delta_t=-2.0)
    with pytest.raises(ValidationError, match="finite"):
        NonlinearParams(b=math.nan)
    with pytest.raises(ValidationError):
        NonlinearParams(b=True)


def test_decay_factor_formula():
    assert decay_factor(NonlinearParams(b=0.0, lam=3.0, delta_t=9.0)) == 0.0
    assert decay_factor(NonlinearParams(b=0.37)) == 0.37
    params = NonlinearParams(b=0.8, lam=1.0, delta_t=2.0)
    assert decay_factor(params) == 0.8 * math.exp(-2.0)


def residual_table(params, geom):
    """The attack table of params: Eve's residuals and their offsets in the plane."""
    return EveConfig(geom, params, SensorModel(), EveStrategy())._table


def test_general_field_linear_limit_is_exact(geom):
    # At b = 0 the field Eve senses is her configuration field: every residual is exactly 0.
    table = residual_table(NonlinearParams(b=0.0, lam=0.7, delta_t=3.0), geom)
    assert not table.residuals.any()
    assert not table.offsets.any()
    assert table.reach.tolist() == [0.0]


def test_general_field_composition(geom):
    # Eve's residual is decay_factor times the mixture field, carried by the plane basis.
    params = NonlinearParams(b=0.4, lam=0.5, delta_t=1.0)
    residuals = residual_table(params, geom).residuals[0]
    assert np.array_equal(residuals, decay_factor(params) * geom.plane)
    # the nonlinear part is small but must actually be there
    assert residuals.any()
    for h in range(4):
        for k in range(4):
            np.testing.assert_allclose(
                (residuals[h] - residuals[k]) @ geom.plane_basis,
                decay_factor(params) * (geom.mix_matrix[h] - geom.mix_matrix[k]),
                rtol=0.0,
                atol=1e-24,
            )


def test_frozen_mixture_norms(geom):
    # all four preparations give the same mixture magnitude in the bundled
    # symmetric layout; the literal pins the calibration used by the tests
    for s in SYMBOLS:
        norm = float(np.linalg.norm(geom.mix_matrix[s]))
        assert norm == pytest.approx(8.165808171600106e-10, rel=1e-12)


LAYOUT_FIELDS = ("sites", "probes", "config_matrix", "mix_matrix", "plane_basis", "plane")

# Coordinates equal to others of another sign of zero or another type.
LAYOUT_COORDINATE = st.sampled_from([0.0, -0.0, 0, 1, 1.0, -1, 0.25, -0.5, 2])
LAYOUT_VECTOR = st.tuples(LAYOUT_COORDINATE, LAYOUT_COORDINATE, LAYOUT_COORDINATE)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    sites=st.lists(LAYOUT_VECTOR, min_size=4, max_size=4),
    probes=st.lists(LAYOUT_VECTOR, min_size=1, max_size=3),
    test_mass=st.sampled_from([1, 1.0, 2.5]),
    as_arrays=st.booleans(),
    by_replace=st.booleans(),
)
def test_a_memoized_layout_has_the_bits_of_a_fresh_build(
    sites, probes, test_mass, as_arrays, by_replace
):
    # Its twin holds equal coordinates, every one a float and every zero +0.0,
    # and is memoized first: only a key on the coordinates' bits tells them apart.
    _layout.cache_clear()
    try:
        twin = Geometry(*([[c + 0.0 for c in v] for v in vectors] for vectors in (sites, probes)))
    except GeometryError:
        assume(False)
    if as_arrays:
        sites, probes = np.array(sites), np.array(probes)
    if by_replace:
        geom = replace(twin, sites=sites, probes=probes, test_mass=test_mass)
    else:
        geom = Geometry(sites, probes, test_mass)
    _layout.cache_clear()
    fresh = Geometry(sites, probes, test_mass)
    for name in LAYOUT_FIELDS:
        assert getattr(geom, name).tobytes() == getattr(fresh, name).tobytes(), name


def test_a_negative_zero_site_keeps_its_own_layout_through_serialize_config():
    default = serialize_config(load_config("default.json"))
    default["geometry"]["sites"]["Z0"][2] = -0.0
    document = serialize_config(config_from_dict(json.loads(json.dumps(default))))
    assert math.copysign(1.0, document["geometry"]["sites"]["Z0"][2]) == -1.0
    assert '"Z0": [0.1, 0.1, -0.0]' in json.dumps(document)
    assert math.copysign(1.0, Geometry().sites[0, 2]) == 1.0


def test_load_config_builds_each_layout_once(tmp_path):
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps({"geometry": {"testMass": 3.0}, "session": {"seed": 1}}))
    _layout.cache_clear()
    first, second = (load_config(str(path)).geometry for _ in range(2))
    assert (_layout.cache_info().misses, _layout.cache_info().hits) == (1, 1)
    assert first is not second
    for name in LAYOUT_FIELDS:
        assert getattr(second, name) is getattr(first, name)
        assert not getattr(first, name).flags.writeable
    # Both bundled configs hold the default layout: they share Geometry()'s arrays.
    bundled = [load_config(name).geometry for name in ("default.json", "page_geilker.json")]
    assert _layout.cache_info().misses == 2
    for geom in bundled:
        assert all(getattr(geom, name) is getattr(Geometry(), name) for name in LAYOUT_FIELDS)
        assert geom.config_matrix is not first.config_matrix
