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
from .grids import (ENCODING, GridSpec, bilinear, decode_raster, encode_raster,
                    nodes_read_exactly, raster_grid, write_pgm)
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
            raise ConfigurationError("layer has negative std cells")
        if self.relation is RelationKind.OVER:
            vals = self.mean[ok]
            if ((vals < 0) | (vals > 1)).any():
                raise ConfigurationError("over layer has mean outside [0, 1]")


def _moment_arrays(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-pass mean and unbiased std along axis 0; non-finite -> NaN."""
    n = samples.shape[0]
    with np.errstate(invalid="ignore"):
        mean = samples.sum(axis=0) / n
        var = ((samples - mean) ** 2).sum(axis=0) / (n - 1)
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
    seen = set()
    for rel, tag in relations:
        key = (RelationKind(rel).value, tag)
        if key in seen:
            raise ConfigurationError(f"duplicate layer requested: {key}")
        seen.add(key)
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
    """Bilinear (mean, std) at each point, through one stencil; NaN outside
    the layer bbox."""
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
# Persistence: each layer's mean and std as one grids.encode_raster string.


def starmap_to_json(layers: list[StaRMapLayer],
                    origin_lonlat: tuple[float, float] | None = None) -> dict:
    if not layers:
        raise ConfigurationError("no layers to save")
    grid = layers[0].grid
    for layer in layers:
        if layer.grid != grid:
            raise ConfigurationError("layers in one starmap must share a grid")
    return {
        "bbox": list(grid.bbox),
        "resolution": [grid.rows, grid.cols],
        "sample_count": layers[0].sample_count,
        "origin_lonlat": list(origin_lonlat) if origin_lonlat is not None else None,
        "encoding": ENCODING,
        "layers": [
            {
                "relation": layer.relation.value,
                "tag": layer.tag,
                "mean": encode_raster(layer.mean),
                "std": encode_raster(layer.std),
            }
            for layer in layers
        ],
    }


def starmap_from_json(obj: dict) -> tuple[list[StaRMapLayer], tuple[float, float] | None]:
    try:
        grid = raster_grid(obj)
        n = jsonio.number(obj["sample_count"], "sample_count", integer=True)
        layers = []
        for i, entry in enumerate(obj["layers"]):
            mean, std = (decode_raster(entry[name], f"layers[{i}].{name}", grid)
                         for name in ("mean", "std"))
            relation, tag = (jsonio.typed(entry[name], str, f"layers[{i}].{name}")
                             for name in ("relation", "tag"))
            layers.append(StaRMapLayer(RelationKind.parse(relation), tag, grid, mean, std, n))
        origin = obj.get("origin_lonlat")
        origin = None if origin is None else jsonio.point(origin, "origin_lonlat")
    except (KeyError, TypeError, ValueError, FormatError) as exc:
        raise FormatError(f"bad starmap JSON: {exc}") from exc
    if not layers:
        raise FormatError("starmap has no layers")
    return layers, origin


def save_starmap(layers, path, origin_lonlat=None) -> None:
    jsonio.dump(starmap_to_json(layers, origin_lonlat), path)


def load_starmap(path) -> tuple[list[StaRMapLayer], tuple[float, float] | None]:
    return starmap_from_json(jsonio.load(path, "starmap file"))


def write_layer_pgm(layer: StaRMapLayer, path) -> None:
    """The layer's mean raster; an over layer is scaled on [0, 1]."""
    if layer.relation is RelationKind.OVER:
        write_pgm(path, layer.mean, vmin=0.0, vmax=1.0)
    else:
        write_pgm(path, layer.mean)
