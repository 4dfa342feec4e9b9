"""Tagged vector maps with per-feature uncertainty.

A map is a set of vertices and edges partitioned into features; every
feature carries a nonempty set of semantic tags, and vertices may carry a
scalar depth sounding. Each feature has an associated perturbation model (a
random linear map plus a random translation) from which randomized map
variants are drawn; all vertices of one feature share a single draw per
variant, so features move rigidly.

sample_vertex_variants takes every draw of a call at once, an
(n, n_features, 4) block of standard normals in variant-major order, and
then applies them one feature at a time over all n variants together.
"""

from __future__ import annotations

import fnmatch
import itertools
from dataclasses import astuple, dataclass, field

import numpy as np

from . import jsonio
from .errors import ConfigurationError, FormatError
from .projection import LocalFrame


@dataclass(frozen=True)
class FeaturePerturbation:
    """Distribution over rigid-ish transforms applied to one feature: the
    three spreads of a perturbation config entry, each at least 0.

    The linear part is an isotropic scale times a rotation about the frame
    origin: scale ~ N(1, scale_std^2), angle ~ N(0, rotation_std_rad^2).
    The translation is isotropic, N(0, translation_std_m^2 I) in meters.
    All-zero spreads (the default) reproduce the input vertices exactly.
    """

    translation_std_m: float = 0.0
    rotation_std_rad: float = 0.0
    scale_std: float = 0.0

    def __post_init__(self):
        if not all(spread >= 0 for spread in astuple(self)):
            raise ConfigurationError("perturbation spreads must be nonnegative")


@dataclass(frozen=True)
class MapFeature:
    """One feature to assemble into a VectorMap: local geometry plus tags.

    Its rings are exactly the declared ones: edges that happen to close a
    loop do not make a ring (polygon_feature and load_geojson declare
    every polygon ring).
    """

    points: tuple[tuple[float, float], ...]
    tags: frozenset[str]
    edges: tuple[tuple[int, int], ...] = ()
    rings: tuple[tuple[int, ...], ...] = ()  # closed loops, local indices, no repeat
    depths: tuple[float | None, ...] = ()


def polygon_feature(points, tags, depths=()) -> MapFeature:
    """Convenience: a single closed ring over the given points."""
    n = len(points)
    edges = tuple((i, (i + 1) % n) for i in range(n))
    return MapFeature(
        points=tuple((float(x), float(y)) for x, y in points),
        tags=frozenset(tags),
        edges=edges,
        rings=(tuple(range(n)),),
        depths=tuple(depths),
    )


def line_feature(points, tags) -> MapFeature:
    n = len(points)
    return MapFeature(
        points=tuple((float(x), float(y)) for x, y in points),
        tags=frozenset(tags),
        edges=tuple((i, i + 1) for i in range(n - 1)),
    )


def point_feature(point, tags, depth: float | None = None) -> MapFeature:
    return MapFeature(
        points=((float(point[0]), float(point[1])),),
        tags=frozenset(tags),
        depths=(depth,),
    )


@dataclass(frozen=True)
class VectorMap:
    """Immutable tagged vertex/edge map in local-frame meters."""

    vertices: np.ndarray  # (V, 2) float64
    edges: tuple[tuple[int, int], ...]
    feature_of_vertex: np.ndarray  # (V,) int
    tags_of_feature: tuple[frozenset[str], ...]
    rings: tuple[tuple[int, ...], ...] = ()
    depth_of_vertex: np.ndarray = field(default=None)  # (V,) float64, NaN = none

    def __post_init__(self):
        if self.depth_of_vertex is None:
            object.__setattr__(
                self, "depth_of_vertex", np.full(len(self.vertices), np.nan)
            )
        self.vertices.setflags(write=False)
        self.feature_of_vertex.setflags(write=False)
        self.depth_of_vertex.setflags(write=False)

    @property
    def n_features(self) -> int:
        return len(self.tags_of_feature)

    def validate(self) -> None:
        nv = len(self.vertices)
        for a, b in self.edges:
            if not (0 <= a < nv and 0 <= b < nv):
                raise ConfigurationError(f"edge ({a}, {b}) out of range for {nv} vertices")
            if self.feature_of_vertex[a] != self.feature_of_vertex[b]:
                raise ConfigurationError(
                    f"edge ({a}, {b}) connects vertices of different features"
                )
        for fid, tags in enumerate(self.tags_of_feature):
            if not tags:
                raise ConfigurationError(f"feature {fid} has an empty tag set")
        if self.feature_of_vertex.shape != (nv,):
            raise ConfigurationError("feature_of_vertex length mismatch")
        if (self.feature_of_vertex < 0).any() or (
            self.feature_of_vertex >= self.n_features
        ).any():
            raise ConfigurationError("feature ids out of range")
        for ring in self.rings:
            if len(ring) < 3:
                raise ConfigurationError(f"ring {ring} has fewer than 3 vertices")

    def features_with_tag(self, tag: str) -> list[int]:
        return [f for f, tags in enumerate(self.tags_of_feature) if tag in tags]

    @classmethod
    def build(cls, features: list[MapFeature]) -> "VectorMap":
        """Assemble a map; each MapFeature becomes one feature id."""
        verts: list[tuple[float, float]] = []
        edges: list[tuple[int, int]] = []
        fov: list[int] = []
        tags: list[frozenset[str]] = []
        rings: list[tuple[int, ...]] = []
        depths: list[float] = []
        for fid, feat in enumerate(features):
            if not feat.tags:
                raise ConfigurationError(f"feature {fid} has no tags")
            base = len(verts)
            verts.extend(feat.points)
            fov.extend([fid] * len(feat.points))
            ds = list(feat.depths) + [None] * (len(feat.points) - len(feat.depths))
            depths.extend(np.nan if d is None else float(d) for d in ds)
            edges.extend((base + a, base + b) for a, b in feat.edges)
            rings.extend(tuple(base + i for i in ring) for ring in feat.rings)
            tags.append(frozenset(feat.tags))
        vmap = cls(
            vertices=np.asarray(verts, dtype=float).reshape(len(verts), 2),
            edges=tuple(edges),
            feature_of_vertex=np.asarray(fov, dtype=int),
            tags_of_feature=tuple(tags),
            rings=tuple(rings),
            depth_of_vertex=np.asarray(depths, dtype=float),
        )
        vmap.validate()
        return vmap


# ---------------------------------------------------------------------------
# Variant sampling


def _require_full_coverage(vmap: VectorMap, perturbations) -> None:
    missing = [f for f in range(vmap.n_features) if f not in perturbations]
    if missing:
        raise ConfigurationError(
            f"no perturbation entry for feature ids {missing}; "
            "add entries (identity is allowed)"
        )


def sample_vertex_variants(
    vmap: VectorMap,
    perturbations: dict[int, FeaturePerturbation],
    n: int,
    rng: int | np.random.Generator,
) -> np.ndarray:
    """Draw n randomized vertex sets, shape (n, V, 2).

    The draw takes four standard normals per feature per variant,
    variant-major: r = standard_normal((n, n_features, 4)), so the stream
    lines up across configurations sharing a seed. For feature f in
    variant k, angle = rotation_std_rad * r[k, f, 0], scale = 1 + scale_std
    * r[k, f, 1] and translation = translation_std_m * r[k, f, 2:]. The
    linear map and the translation are applied to all the feature's
    vertices; edges, tags and depths are untouched by construction.
    """
    _require_full_coverage(vmap, perturbations)
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    raw = gen.standard_normal((n, vmap.n_features, 4))
    out = np.empty((n, len(vmap.vertices), 2))
    for fid in range(vmap.n_features):
        idx = np.flatnonzero(vmap.feature_of_vertex == fid)
        p, r = perturbations[fid], raw[:, fid]
        angle = p.rotation_std_rad * r[:, 0]
        scale = 1.0 + p.scale_std * r[:, 1]
        c, s = np.cos(angle), np.sin(angle)
        phi = np.stack([scale * c, -scale * s, scale * s, scale * c], axis=1).reshape(n, 2, 2)
        # These operand layouts give each variant the bits of a one-variant
        # `vertices @ phi.T + t`: BLAS picks its kernel by layout.
        t = p.translation_std_m * r[:, None, 2:]
        out[:, idx] = vmap.vertices[idx][None] @ phi.transpose(0, 2, 1) + t
    return out


# ---------------------------------------------------------------------------
# Perturbation configuration (JSON: tag pattern -> spreads)

# The largest spread of each kind: with vertices within about 4e7 m of the
# origin, every variant coordinate and its square stay finite.
MAX_SPREADS = {"translation_std_m": 1e7, "rotation_std_rad": 10.0, "scale_std": 10.0}


def perturbations_from_config(vmap: VectorMap, config: dict) -> dict[int, FeaturePerturbation]:
    """Resolve a pattern->spreads mapping to per-feature perturbations.

    Patterns are fnmatch globs matched against each feature's tags in config
    order; the first entry matching any tag wins. A feature matching nothing
    is a configuration error (add a "*" entry for a catch-all). Every spread
    is a JSON number in [0, MAX_SPREADS[key]]; a missing one is 0.
    """
    entries = []
    for pattern, params in config.items():
        jsonio.typed(params, dict, f"perturbation entry {pattern!r}")
        unknown = set(params) - set(MAX_SPREADS)
        if unknown:
            raise ConfigurationError(
                f"unknown perturbation keys {sorted(unknown)} under {pattern!r}"
            )
        spreads = {key: jsonio.number(value, f"perturbation {key} under {pattern!r}", lo=0,
                                      hi=MAX_SPREADS[key])
                   for key, value in params.items()}
        entries.append((pattern, FeaturePerturbation(**spreads)))
    out: dict[int, FeaturePerturbation] = {}
    for fid, tags in enumerate(vmap.tags_of_feature):
        for pattern, perturbation in entries:
            if any(fnmatch.fnmatchcase(tag, pattern) for tag in sorted(tags)):
                out[fid] = perturbation
                break
        else:
            raise ConfigurationError(
                f"feature {fid} with tags {sorted(tags)} matches no perturbation "
                "pattern; add a '*' entry for a catch-all"
            )
    return out


def load_perturbation_config(source) -> dict:
    """The pattern -> spreads mapping from a JSON file or a parsed object."""
    return jsonio.typed(jsonio.load_source(source, "perturbation config"), dict,
                        "a perturbation config")


# ---------------------------------------------------------------------------
# GeoJSON ingestion

# A tuple, not a set: a geometry type read from JSON may be unhashable.
_GEOM_HANDLERS = ("Point", "MultiPoint", "LineString", "MultiLineString",
                  "Polygon", "MultiPolygon")


def load_geojson(source, origin: tuple[float, float] | None = None
                 ) -> tuple[VectorMap, LocalFrame]:
    """Load a GeoJSON FeatureCollection into a VectorMap.

    Coordinates are lon/lat degrees within [-180, 180] and [-90, 90], and
    are projected into a tangent frame centered on `origin` (lon, lat) or,
    by default, the midpoint of the collection's coordinate bounds. Every
    feature must carry a nonempty properties.tags list; Point features may
    carry a finite properties.depth in meters. Polygon rings become closed
    cycles, LineStrings open chains. One pass reads every feature in
    lon/lat; the vertices are projected once the origin is known.
    """
    obj = jsonio.load_source(source, "GeoJSON")
    if not isinstance(obj, dict) or obj.get("type") != "FeatureCollection":
        raise FormatError("expected a GeoJSON FeatureCollection")
    features = obj.get("features", [])
    if not isinstance(features, list) or not features:
        raise FormatError("FeatureCollection has no features")

    parsed = []  # per feature: tags, lon/lat points, edges, rings, depths
    for i, feat in enumerate(features):
        jsonio.typed(feat, dict, f"feature {i}")
        props = feat.get("properties") or {}
        tags = props.get("tags") if isinstance(props, dict) else None
        if not isinstance(tags, list) or not tags or not all(isinstance(t, str) for t in tags):
            raise FormatError(f"feature {i} needs a nonempty properties.tags string list")
        geom = feat.get("geometry") or {}
        gtype = geom.get("type") if isinstance(geom, dict) else None
        if gtype not in _GEOM_HANDLERS:
            raise FormatError(f"feature {i}: unsupported geometry type {gtype!r}")
        points: list[tuple[float, float]] = []
        edges: list[tuple[int, int]] = []
        rings: list[tuple[int, ...]] = []
        depths: list[float | None] = []

        def add_point(c, depth=None):
            key = f"feature {i} coordinates"
            points.append((jsonio.number(c[0], key), jsonio.number(c[1], key)))
            depths.append(depth)
            return len(points) - 1

        def add_chain(coords, close: bool):
            coords = list(coords)
            if close and len(coords) > 1 and coords[0] == coords[-1]:
                coords = coords[:-1]
            idx = [add_point(c) for c in coords]
            for a, b in zip(idx, idx[1:]):
                edges.append((a, b))
            if close:
                if len(idx) < 3:
                    raise FormatError(f"feature {i}: ring with fewer than 3 points")
                edges.append((idx[-1], idx[0]))
                rings.append(tuple(idx))

        coords = geom.get("coordinates")
        try:
            if gtype in ("Point", "MultiPoint"):
                depth = props.get("depth")
                depth = None if depth is None else jsonio.number(depth, f"feature {i} depth")
                for c in [coords] if gtype == "Point" else coords:
                    add_point(c, depth)
            elif gtype == "LineString":
                add_chain(coords, close=False)
            elif gtype == "MultiLineString":
                for chain in coords:
                    add_chain(chain, close=False)
            elif gtype == "Polygon":
                for ring in coords:
                    add_chain(ring, close=True)
            elif gtype == "MultiPolygon":
                for poly in coords:
                    for ring in poly:
                        add_chain(ring, close=True)
        except (LookupError, TypeError) as exc:
            raise FormatError(f"feature {i}: malformed coordinates: {exc}") from exc
        parsed.append((tags, points, edges, rings, depths))
    lon, lat = np.array([p for _, points, *_ in parsed for p in points]).reshape(-1, 2).T
    if not lon.size:
        raise FormatError("FeatureCollection contains no coordinates")
    if (np.abs(lon) > 180).any() or (np.abs(lat) > 90).any():
        raise FormatError("coordinates must lie in lon [-180, 180], lat [-90, 90] degrees")
    if origin is None:
        origin = (float(lon.min() + lon.max()) / 2.0, float(lat.min() + lat.max()) / 2.0)
    frame = LocalFrame(origin_lon=origin[0], origin_lat=origin[1])
    x, y = frame.to_xy(lon, lat)
    xy = zip(x.tolist(), y.tolist())
    return VectorMap.build([
        MapFeature(points=tuple(itertools.islice(xy, len(points))), tags=frozenset(tags),
                   edges=tuple(edges), rings=tuple(rings), depths=tuple(depths))
        for tags, points, edges, rings, depths in parsed
    ]), frame
