"""Precomputed rasters of the constitutional probability.

When the environment and measurement policy are static, evaluating the
constitution on a grid once and interpolating afterwards replaces per-point
inference in the tracking loop (field mode). Field mode and direct mode
(ConstitutionEvaluator) share the per-particle protocol
particle_probabilities(positions, z) -> (N,), with z of shape (2,) or
(N, 2): both clamp positions into the bbox (field mode inside
grids.bilinear_clamped, direct mode through grids.clamp_to_bbox), and
both return NaN wherever the interpolation gives a flagged node a
nonzero weight. What the filter does with NaN is decided by
particlefilter._compliance_factor alone.

A field file stores the raster as a starmap stores a layer: the grid's
bbox and resolution, and the values as one grids.encode_raster string, so
every value survives bit for bit and NaN marks a flagged node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import jsonio
from ..errors import ConfigurationError, FormatError
from ..grids import (ENCODING, GridSpec, bilinear_clamped, decode_raster, encode_raster,
                     raster_grid, write_pgm)
from ..starmap import StaRMapLayer, interpolate_many, moments_at_nodes
from .environment import ConstitutionEvaluator
from .terms import Program


@dataclass(frozen=True)
class ConstitutionField:
    """Raster of P(constitution | x, z) at grid nodes; NaN marks flagged cells."""

    grid: GridSpec
    values: np.ndarray  # (rows, cols)
    _masked: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.values.shape != (self.grid.rows, self.grid.cols):
            raise ConfigurationError(
                f"field shape {self.values.shape} does not match grid "
                f"{self.grid.rows}x{self.grid.cols}"
            )
        self.values.setflags(write=False)
        # Lookups need zero-weight masks only if some cell is NaN, infinite
        # or carries a sign bit; the values never change.
        masked = not (np.isfinite(self.values) & ~np.signbit(self.values)).all()
        object.__setattr__(self, "_masked", bool(masked))

    def at_clamped(self, points) -> np.ndarray:
        """Bilinear interpolation with points clamped into the bbox."""
        return bilinear_clamped(self.grid, self.values, points, self._masked)

    def particle_probabilities(self, positions, z) -> np.ndarray:
        """Per-particle compliance (field mode); NaN where undefined.

        z is not read: the field fixed the measurement when it was
        precomputed.
        """
        return self.at_clamped(positions)

    def to_json(self) -> dict:
        return {
            "bbox": list(self.grid.bbox),
            "resolution": [self.grid.rows, self.grid.cols],
            "encoding": ENCODING,
            "values": encode_raster(self.values),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ConstitutionField":
        try:
            grid = raster_grid(obj)
            values = decode_raster(obj["values"], "values", grid)
        except (KeyError, TypeError, FormatError) as exc:
            raise FormatError(f"bad field JSON: {exc}") from exc
        return cls(grid=grid, values=values)

    def save(self, path) -> None:
        jsonio.dump(self.to_json(), path)

    @classmethod
    def load(cls, path) -> "ConstitutionField":
        return cls.from_json(jsonio.load(path, "field file"))

    def write_pgm(self, path) -> None:
        write_pgm(path, self.values, vmin=0.0, vmax=1.0)


def precompute_field(program: Program, layers: list[StaRMapLayer], grid: GridSpec,
                     measurement="state") -> ConstitutionField:
    """Evaluate the constitution at every grid node.

    measurement policy: the string "state" evaluates each node with the
    measurement bound to the node itself; a 2-sequence fixes one
    measurement for all nodes. Nodes over flagged starmap cells (or outside
    the starmap bbox) are flagged NaN rather than aborting the build.

    The values are those of ConstitutionEvaluator.probabilities at the
    node points, bit for bit; a layer on the field's own grid is read at
    its nodes (starmap.moments_at_nodes) instead of interpolated.
    """
    evaluator = ConstitutionEvaluator(program, layers)
    n = grid.rows * grid.cols
    if isinstance(measurement, str):
        if measurement != "state":
            raise ConfigurationError(
                f"unknown measurement policy {measurement!r}; "
                "use 'state' or a fixed point"
            )
        fixed = None
    else:
        fixed = np.asarray(measurement, dtype=float).reshape(1, 2)

    def moments(layer, at):
        if at == "measurement" and fixed is not None:
            return interpolate_many(layer, fixed)
        return moments_at_nodes(layer, grid)

    values = evaluator.row_probabilities(evaluator.parameter_rows(n, moments))
    return ConstitutionField(grid=grid, values=values.reshape(grid.rows, grid.cols))
