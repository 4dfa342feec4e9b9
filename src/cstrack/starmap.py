"""Raster layers of empirical relation statistics over randomized maps.

For each (relation, tag) pair and each grid node x, N randomized map
variants M^(1..N) yield samples r(M^(k), x, tag); the layer stores their
sample mean and the square root of the unbiased (1/(N-1)) sample variance.
The same N variants are shared by every node and every layer, so results
are independent of evaluation order and the sampling cost is amortized.

Cells whose relation evaluation fails (e.g. distance to a tag that is
absent from the map) are flagged; flagged cells hold NaN and poison any
interpolation that gives them a nonzero weight.

Each layer takes one relation evaluation over the whole (n, V, 2) variant
stack, which returns the (n, nodes) samples directly.

build_starmap logs one INFO line per layer (relation:tag, wall time,
flagged fraction, and how much of the relation's work each node took: for
over the share of nodes tested in every variant, for distance the mean and
max candidate segments per node, for depth the mean and max candidate
soundings per node); `cstrack build-starmap -v` shows them on stderr. The
timings and counts never reach the layers or the files written from them.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import jsonio
from .errors import ConfigurationError, FormatError, NoDepthDataError
from .grids import GridSpec, bilinear, nodes_read_exactly, raster_grid, write_pgm
from .relations import RelationKind, eval_relation_many
from .vectormap import FeaturePerturbation, VectorMap, sample_vertex_variants

log = logging.getLogger(__name__)

# The most map variants one build samples; a layer holds (samples, nodes)
# relation values while it is built.
MAX_SAMPLES = 10_000


@dataclass(frozen=True)
class StaRMapLayer:
    """Per-node (mean, std) of one relation/tag pair; NaN marks flagged cells."""

    relation: RelationKind
    tag: str
    grid: GridSpec
    mean: np.ndarray  # (rows, cols)
    std: np.ndarray  # (rows, cols)
    sample_count: int
    # (2, rows, cols): mean and std in one array, of which the two fields
    # are views, so that one bilinear stencil reads both.
    moments: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        expect = (self.grid.rows, self.grid.cols)
        if self.mean.shape != expect or self.std.shape != expect:
            raise ConfigurationError(
                f"layer arrays {self.mean.shape} do not match grid {expect}"
            )
        moments = np.stack([self.mean, self.std])
        moments.setflags(write=False)
        object.__setattr__(self, "moments", moments)
        object.__setattr__(self, "mean", moments[0])
        object.__setattr__(self, "std", moments[1])

    @property
    def key(self) -> tuple[str, str]:
        return (self.relation.value, self.tag)

    @property
    def flagged(self) -> np.ndarray:
        return ~(np.isfinite(self.mean) & np.isfinite(self.std))

    def validate(self) -> None:
        ok = ~self.flagged
        if (self.std[ok] < 0).any():
            raise ConfigurationError(f"layer {':'.join(self.key)} has negative std cells")
        if self.relation is RelationKind.OVER:
            vals = self.mean[ok]
            if ((vals < 0) | (vals > 1)).any():
                raise ConfigurationError(f"layer over:{self.tag} has mean outside [0, 1]")


def _check_unique(keys) -> None:
    """ConfigurationError naming the first (relation, tag) key listed twice."""
    for i, key in enumerate(keys):
        if key in keys[:i]:
            raise ConfigurationError(f"layers[{i}] repeats layer {key[0]}:{key[1]}")


def _moment_arrays(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-pass mean and unbiased std along axis 0; non-finite -> NaN."""
    n = samples.shape[0]
    with np.errstate(invalid="ignore"):
        mean = samples.sum(axis=0) / n
        # Squared in place, so that one (n, nodes) temporary lives at a
        # time wherever numpy does not elide temporaries itself.
        dev = samples - mean
        dev *= dev
        var = dev.sum(axis=0) / (n - 1)
        del dev
        std = np.sqrt(var)
    bad = ~np.isfinite(samples).all(axis=0)
    mean = np.where(bad, np.nan, mean)
    std = np.where(bad, np.nan, std)
    return mean, std


# How the INFO line of a layer reports the stats eval_relation_many fills.
_STAT_TEXTS = (
    (("segments_mean", "segments_max"), ", candidate segments per node mean %.2f max %d"),
    (("band_fraction",), ", share of nodes tested per variant %.4f"),
    (("candidates_mean", "candidates_max"), ", depth candidates per node mean %.2f max %d"),
)


def build_starmap(
    vmap: VectorMap,
    perturbations: dict[int, FeaturePerturbation],
    relations: list[tuple[RelationKind, str]],
    grid: GridSpec,
    n: int,
    rng: int | np.random.Generator,
) -> list[StaRMapLayer]:
    """Build one layer per (relation, tag) pair on a shared variant set."""
    if not 2 <= n <= MAX_SAMPLES:
        raise ConfigurationError(f"need at least 2 samples for a variance estimate and "
                                 f"at most {MAX_SAMPLES}, got {n}")
    if not relations:
        raise ConfigurationError("no (relation, tag) pairs requested")
    _check_unique([(RelationKind(rel).value, tag) for rel, tag in relations])
    variants = sample_vertex_variants(vmap, perturbations, n, rng)
    points = grid.node_points()
    layers = []
    for rel, tag in relations:
        started = time.perf_counter()
        rel = RelationKind(rel)
        stats: dict = {}
        try:
            samples = eval_relation_many(vmap, rel, points, tag, vertices=variants,
                                         stats=stats)
        except NoDepthDataError:
            samples = np.full((n, len(points)), np.nan)  # whole layer flagged
        mean, std = _moment_arrays(samples)
        # Two layers' (n, nodes) samples alive at once would set the peak.
        del samples
        layer = StaRMapLayer(
            relation=rel,
            tag=tag,
            grid=grid,
            mean=mean.reshape(grid.rows, grid.cols),
            std=std.reshape(grid.rows, grid.cols),
            sample_count=n,
        )
        layer.validate()
        layers.append(layer)
        extra = "".join(text % tuple(stats[k] for k in keys)
                        for keys, text in _STAT_TEXTS if keys[0] in stats)
        log.info("layer %s:%s: %.3f s, flagged fraction %.4f%s", rel.value, tag,
                 time.perf_counter() - started, float(layer.flagged.mean()), extra)
    return layers


def interpolate_many(layer: StaRMapLayer,
                     points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear (mean, std) at each point, through one stencil; a point
    outside the layer bbox reads the layer's edge."""
    mean, std = bilinear(layer.grid, layer.moments, points)
    return mean, std


def moments_at_nodes(layer: StaRMapLayer,
                     grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """(mean, std) at each node of grid, row-major: interpolate_many(layer,
    grid.node_points()), bit for bit. On the layer's own grid that is the
    stored values plus 0.0 (a stored -0.0 reads +0.0, NaN stays NaN), read
    without interpolating wherever grids.nodes_read_exactly holds."""
    if layer.grid == grid and nodes_read_exactly(grid):
        return layer.mean.ravel() + 0.0, layer.std.ravel() + 0.0
    return interpolate_many(layer, grid.node_points())


def find_layer(layers: list[StaRMapLayer], rel: RelationKind, tag: str) -> StaRMapLayer:
    rel = RelationKind(rel)
    for layer in layers:
        if layer.relation is rel and layer.tag == tag:
            return layer
    available = ", ".join(f"{a}:{b}" for a, b in sorted(l.key for l in layers))
    raise ConfigurationError(
        f"no starmap layer for {rel.value}:{tag} (available: {available or 'none'})"
    )


# ---------------------------------------------------------------------------
# Persistence: a jsonio raster file of each layer's mean then its std, in
# the order of the header's layers list.


def save_starmap(layers: list[StaRMapLayer], path,
                 origin_lonlat: tuple[float, float] | None = None) -> None:
    if not layers:
        raise ConfigurationError("no layers to save")
    grid = layers[0].grid
    if any(layer.grid != grid for layer in layers):
        raise ConfigurationError("layers in one starmap must share a grid")
    header = {
        "bbox": list(grid.bbox),
        "resolution": [grid.rows, grid.cols],
        "sample_count": layers[0].sample_count,
        "origin_lonlat": list(origin_lonlat) if origin_lonlat is not None else None,
        "layers": [{"relation": layer.relation.value, "tag": layer.tag} for layer in layers],
    }
    jsonio.dump_rasters(header, [layer.moments for layer in layers], path)


def _starmap_from_file(header: dict, rasters):
    """The layers and origin of a starmap header and its rasters, held to
    the checks build_starmap makes: a sample count in [2, MAX_SAMPLES],
    each (relation, tag) once, and each layer's validate()."""
    grid = raster_grid(header)
    n = jsonio.number(header["sample_count"], "sample_count", integer=True, lo=2,
                      hi=MAX_SAMPLES)
    entries = jsonio.typed(header["layers"], list, "layers")
    if not entries:
        raise FormatError("starmap has no layers")
    keys = []
    for i, entry in enumerate(entries):
        extra = sorted(set(jsonio.typed(entry, dict, f"layers[{i}]")) - {"relation", "tag"})
        if extra:
            raise FormatError(f"layers[{i}] must hold only relation and tag, got {extra}")
        relation, tag = (jsonio.typed(entry[name], str, f"layers[{i}].{name}")
                         for name in ("relation", "tag"))
        keys.append((RelationKind.parse(relation).value, tag))
    _check_unique(keys)
    moments = rasters(2 * len(keys), grid.rows, grid.cols)
    layers = [StaRMapLayer(RelationKind(relation), tag, grid, *moments[2 * i:2 * i + 2], n)
              for i, (relation, tag) in enumerate(keys)]
    for layer in layers:
        layer.validate()
    origin = header.get("origin_lonlat")
    origin = None if origin is None else jsonio.point(origin, "origin_lonlat")
    return layers, origin


def load_starmap(path) -> tuple[list[StaRMapLayer], tuple[float, float] | None]:
    return jsonio.load_rasters(path, "starmap file", _starmap_from_file)


def write_layer_pgm(layer: StaRMapLayer, path) -> None:
    """The layer's mean raster; an over layer is scaled on [0, 1]."""
    if layer.relation is RelationKind.OVER:
        write_pgm(path, layer.mean, vmin=0.0, vmax=1.0)
    else:
        write_pgm(path, layer.mean)
