import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_bilinear as reference
from cstrack.constitution import ConstitutionField
from cstrack.errors import ConfigurationError
from cstrack.grids import (MAX_COORD, GridSpec, bilinear, bilinear_clamped, clamp_to_bbox,
                           nodes_read_exactly)
from cstrack.relations import RelationKind
from cstrack.starmap import StaRMapLayer, interpolate_many


@np.errstate(invalid="ignore")  # its snap and cast of NaN and inf points
def oracle_bilinear(grid, values, points):
    """The bilinear formula as first written: 2-D gathers and one np.where
    per node, the outside points masked at the end."""
    values = np.asarray(values, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    inside = grid.contains(pts)

    def fractional(coords, lo, hi, n):
        u = (coords - lo) / (hi - lo) * (n - 1)
        snapped = np.round(u)
        return np.where(np.abs(u - snapped) < 1e-9, snapped, u)

    xmin, ymin, xmax, ymax = grid.bbox
    u = np.clip(fractional(pts[:, 0], xmin, xmax, grid.cols), 0.0, grid.cols - 1.0)
    v = np.clip(fractional(pts[:, 1], ymin, ymax, grid.rows), 0.0, grid.rows - 1.0)
    j0 = np.clip(np.floor(u).astype(int), 0, grid.cols - 2)
    i0 = np.clip(np.floor(v).astype(int), 0, grid.rows - 2)
    fx, fy = u - j0, v - i0
    gx, gy = 1.0 - fx, 1.0 - fy
    x0, x1, y0, y1 = gx != 0, fx != 0, gy != 0, fy != 0
    out = (
        np.where(y0 & x0, values[i0, j0] * gy * gx, 0.0)
        + np.where(y0 & x1, values[i0, j0 + 1] * gy * fx, 0.0)
        + np.where(y1 & x0, values[i0 + 1, j0] * fy * gx, 0.0)
        + np.where(y1 & x1, values[i0 + 1, j0 + 1] * fy * fx, 0.0)
    )
    return np.where(inside, out, np.nan)


def oracle_clamp(points, bbox):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    xmin, ymin, xmax, ymax = bbox
    return np.column_stack(
        [np.clip(pts[:, 0], xmin, xmax), np.clip(pts[:, 1], ymin, ymax)]
    )


@st.composite
def grid_case(draw):
    """A random grid, raster (some cells NaN) and query points: nodes,
    points on grid lines, inside, outside and NaN points."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    rows, cols = (int(v) for v in rng.integers(2, 9, 2))
    x0, y0 = rng.normal(scale=100.0, size=2)
    w, h = rng.uniform(0.5, 300.0, 2)
    zero_edges = draw(st.booleans())
    if zero_edges:  # xmin and ymax at 0.0
        x0, y0 = 0.0, -h
    grid = GridSpec((float(x0), float(y0), float(x0 + w), float(y0 + h)), rows, cols)
    values = rng.normal(size=(rows, cols))
    values[rng.uniform(size=values.shape) < draw(st.sampled_from([0.0, 0.2, 0.6]))] = np.nan
    values[rng.uniform(size=values.shape) < 0.1] = rng.choice([0.0, -0.0])
    n = 60
    pts = np.column_stack([rng.uniform(x0 - 0.2 * w, x0 + 1.2 * w, n),
                           rng.uniform(y0 - 0.2 * h, y0 + 1.2 * h, n)])
    nodes = grid.node_points()
    pts[:10] = nodes[rng.integers(len(nodes), size=10)]
    pts[10:15, 0] = nodes[rng.integers(len(nodes), size=5), 0]  # vertical grid lines
    pts[15:20, 1] = nodes[rng.integers(len(nodes), size=5), 1]  # horizontal grid lines
    pts[20] = np.nan
    pts[21, 0] = np.nan
    pts[22, 1] = np.inf
    if zero_edges:  # -0.0 on the edges at 0.0, inside and outside the bbox
        pts[23:26, 0] = -0.0
        pts[26:29, 1] = -0.0
    return grid, values, pts


@settings(deadline=None, max_examples=200)
@given(grid_case())
def test_bilinear_and_clamp_give_the_oracle_bits(case):
    grid, values, pts = case
    assert same_bits(bilinear(grid, values, pts), oracle_bilinear(grid, values, pts))
    clamped = clamp_to_bbox(pts, grid.bbox)
    assert np.array_equal(clamped, oracle_clamp(pts, grid.bbox), equal_nan=True)
    assert same_bits(bilinear(grid, values, clamped), oracle_bilinear(grid, values, clamped))


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(deadline=None, max_examples=200)
@given(grid_case(), st.sampled_from(["as drawn", "probabilities", "with NaN", "signed zero"]))
def test_field_lookup_is_bilinear_of_the_clamped_points(case, raster):
    # at_clamped skips the bbox test, the clipping and, on a raster of
    # finite cells with clear sign bits, the zero-weight masks.
    grid, values, pts = case
    rng = np.random.default_rng(values.size)
    if raster != "as drawn":
        values = rng.uniform(0.0, 1.0, size=values.shape)
        values[rng.uniform(size=values.shape) < 0.3] = 0.0
    if raster == "with NaN":
        values[rng.integers(grid.rows), rng.integers(grid.cols)] = np.nan
    if raster == "signed zero":
        values[rng.integers(grid.rows), rng.integers(grid.cols)] = -0.0
    field = ConstitutionField(grid, values)
    for points in (pts, pts[23:], pts[:20]):  # with and without NaN points
        expect = bilinear(grid, values, clamp_to_bbox(points, grid.bbox))
        assert same_bits(field.at_clamped(points), expect)
        assert same_bits(bilinear_clamped(grid, values, points, masked=True), expect)


@st.composite
def kernel_case(draw):
    """A grid of 2-60 nodes a side, extents 1e-3 to 1e8 m, anywhere within
    the coordinate bound (or with 0 on an edge); a raster with NaN, +-0.0
    and magnitudes up to 1e+-300; and points on nodes, on grid lines,
    1e-10 to 1e-8 node units off a node, inside, outside on every side, at
    +-0.0, NaN and +-inf."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = (int(v) for v in rng.integers(2, 61, 2))
    w, h = 10.0 ** rng.uniform(-3.0, 8.0, 2)
    x0, y0 = rng.uniform(-MAX_COORD, MAX_COORD - np.array([w, h]))
    edge = draw(st.sampled_from(["anywhere", "0 at the low edge", "0 at the high edge"]))
    if edge != "anywhere":
        x0, y0 = (0.0, 0.0) if edge == "0 at the low edge" else (-w, -h)
    grid = GridSpec((float(x0), float(y0), float(x0 + w), float(y0 + h)), rows, cols)
    values = rng.normal(size=(rows, cols)) * 10.0 ** rng.uniform(-300.0, 300.0, (rows, cols))
    values[rng.uniform(size=values.shape) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = np.nan
    values[rng.uniform(size=values.shape) < 0.1] = rng.choice([0.0, -0.0])
    nodes = grid.node_points()
    spacing = np.array([w / (cols - 1), h / (rows - 1)])
    near = 10.0 ** rng.uniform(-10.0, -8.0, (16, 2)) * rng.choice([-1.0, 1.0], (16, 2))
    lo, hi = np.array(grid.bbox[:2]), np.array(grid.bbox[2:])
    outside = rng.uniform(lo - [w, h], hi + [w, h], (16, 2))
    outside[:4, 0] = lo[0] - rng.uniform(0.0, w, 4)  # west
    outside[4:8, 0] = hi[0] + rng.uniform(0.0, w, 4)  # east
    outside[8:12, 1] = lo[1] - rng.uniform(0.0, h, 4)  # south
    outside[12:, 1] = hi[1] + rng.uniform(0.0, h, 4)  # north
    on_lines = rng.uniform(lo, hi, (16, 2))
    on_lines[:8, 0] = nodes[rng.integers(len(nodes), size=8), 0]
    on_lines[8:, 1] = nodes[rng.integers(len(nodes), size=8), 1]
    special = np.array([[0.0, 0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, y0], [x0, -0.0],
                        [np.nan, np.nan], [np.nan, y0], [x0, np.nan],
                        [np.inf, y0], [-np.inf, y0], [x0, np.inf], [x0, -np.inf],
                        [np.inf, -np.inf], [-MAX_COORD, MAX_COORD]])
    pts = np.vstack([nodes[rng.integers(len(nodes), size=16)],
                     nodes[rng.integers(len(nodes), size=16)] + near * spacing,
                     on_lines, outside, special, rng.uniform(lo, hi, (16, 2))])
    return grid, values, pts[rng.permutation(len(pts))]


@settings(deadline=None, max_examples=300)
@given(kernel_case())
def test_kernel_has_the_bits_of_the_reference(case):
    # The reference snaps and casts NaN and inf points with warnings.
    grid, values, pts = case
    with np.errstate(invalid="ignore"):
        expect = reference.bilinear(grid, values, pts)
        expect_clamped = reference.bilinear_clamped(grid, values, pts, masked=True)
        # Finite cells with clear sign bits: the unmasked lookup is exact.
        clear = np.abs(np.nan_to_num(values, nan=0.5))
        expect_unmasked = reference.bilinear_clamped(grid, clear, pts, masked=False)
        expect_std = reference.bilinear(grid, clear, pts)
    assert same_bits(bilinear(grid, values, pts), expect)
    assert same_bits(bilinear_clamped(grid, values, pts, masked=True), expect_clamped)
    assert same_bits(bilinear_clamped(grid, clear, pts, masked=False), expect_unmasked)
    layer = StaRMapLayer(RelationKind.DISTANCE, "way", grid, values, clear, sample_count=2)
    mean, std = interpolate_many(layer, pts)
    assert same_bits(mean, expect) and same_bits(std, expect_std)
    assert nodes_read_exactly(grid) == reference.nodes_read_exactly(grid)


def test_one_point_clamps_to_one_row():
    out = clamp_to_bbox([5.0, -5.0], (0.0, 0.0, 1.0, 1.0))
    np.testing.assert_array_equal(out, [[1.0, 0.0]])


def test_bbox_is_bounded_by_the_coordinate_bound():
    assert GridSpec(bbox=(-MAX_COORD, -MAX_COORD, MAX_COORD, MAX_COORD), rows=2, cols=2)
    beyond = np.nextafter(MAX_COORD, np.inf)
    for i in range(4):
        for value in (beyond if i >= 2 else -beyond, np.nan, np.inf):
            bbox = [-1.0, -1.0, 1.0, 1.0]
            bbox[i] = value
            with pytest.raises(ConfigurationError, match="^grid bbox must be finite and within"):
                GridSpec(bbox=tuple(bbox), rows=2, cols=2)
