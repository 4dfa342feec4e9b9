import math

import numpy as np
from hypothesis import given, strategies as st

from cstrack.projection import EARTH_RADIUS_M, LocalFrame

ORIGIN = (-74.05, 40.65)  # (lon, lat)
FRAME = LocalFrame(origin_lon=ORIGIN[0], origin_lat=ORIGIN[1])


def great_circle_m(lat1, lon1, lat2, lon2):
    """Spherical-earth arc length; the independent distance oracle."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(a))


def test_origin_maps_to_zero():
    x, y = FRAME.to_xy(ORIGIN[0], ORIGIN[1])
    assert x == 0.0 and y == 0.0


def test_hundredth_degree_north():
    # R * 0.01 deg in radians = 1111.949 m on the oracle sphere.
    x, y = FRAME.to_xy(ORIGIN[0], ORIGIN[1] + 0.01)
    oracle = great_circle_m(ORIGIN[1], ORIGIN[0], ORIGIN[1] + 0.01, ORIGIN[0])
    assert abs(float(y) - oracle) < 0.5
    assert abs(float(x)) < 1e-9


@given(
    st.floats(-0.09, 0.09),
    st.floats(-0.09, 0.09),
)
def test_round_trip(dlat, dlon):
    lat, lon = ORIGIN[1] + dlat, ORIGIN[0] + dlon
    x, y = FRAME.to_xy(lon, lat)
    lon2, lat2 = FRAME.to_lonlat(x, y)
    assert abs(float(lat2) - lat) < 1e-9
    assert abs(float(lon2) - lon) < 1e-9


def test_distortion_under_point_one_percent_over_20km():
    # Distances from the frame origin to anywhere in the 20x20 km box stay
    # under 0.1% of the great-circle oracle; arbitrary corner-to-corner
    # pairs are latitude-dependent and stay under 0.15% at this latitude.
    frame = LocalFrame(origin_lon=ORIGIN[0], origin_lat=ORIGIN[1])
    rng = np.random.default_rng(11)
    for _ in range(300):
        xb, yb = rng.uniform(-10_000, 10_000, 2)
        lonb, latb = frame.to_lonlat(xb, yb)
        truth = great_circle_m(ORIGIN[1], ORIGIN[0], float(latb), float(lonb))
        planar = math.hypot(xb, yb)
        if truth > 100.0:
            assert abs(planar - truth) / truth < 1e-3
    for _ in range(300):
        xa, ya, xb, yb = rng.uniform(-10_000, 10_000, 4)
        lona, lata = frame.to_lonlat(xa, ya)
        lonb, latb = frame.to_lonlat(xb, yb)
        truth = great_circle_m(float(lata), float(lona), float(latb), float(lonb))
        planar = math.hypot(xb - xa, yb - ya)
        if truth > 100.0:
            assert abs(planar - truth) / truth < 1.5e-3


def test_array_inputs():
    frame = LocalFrame(origin_lon=ORIGIN[0], origin_lat=ORIGIN[1])
    lon = np.array([ORIGIN[0], ORIGIN[0] + 0.01])
    lat = np.array([ORIGIN[1], ORIGIN[1]])
    x, y = frame.to_xy(lon, lat)
    assert x.shape == (2,)
    assert x[0] == 0.0 and x[1] > 0


def test_project_unproject_are_mutually_inverse_on_arrays():
    xs = np.linspace(-5000, 5000, 7)
    ys = np.linspace(-5000, 5000, 7)
    lon, lat = FRAME.to_lonlat(xs, ys)
    x2, y2 = FRAME.to_xy(lon, lat)
    np.testing.assert_allclose(x2, xs, atol=1e-6)
    np.testing.assert_allclose(y2, ys, atol=1e-6)
