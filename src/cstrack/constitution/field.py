"""Precomputed rasters of the constitutional probability.

When the environment and measurement policy are static, evaluating the
constitution on a grid once and interpolating afterwards replaces per-point
inference in the tracking loop (field mode). Field mode and direct mode
(ConstitutionEvaluator) share the per-particle protocol
particle_probabilities(positions, z) -> (A, N), for the (A, N, 2)
positions and (A, 2) measurements of A filter arms. Both read their
rasters through grids.bilinear, which clamps every point into the
raster's bbox, so a point outside reads the edge in either mode; both
return NaN wherever the interpolation gives a flagged node a nonzero
weight. What the filter does with NaN is decided by
particlefilter._compliance_factor alone.

A field file is a raster file (jsonio.dump_rasters) as a starmap is: a
header line of the grid's bbox and resolution, then the values as raw
float64, so every value survives bit for bit and NaN marks a flagged node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import jsonio
from ..errors import ConfigurationError
from ..grids import GridSpec, bilinear, raster_grid, write_pgm
from ..starmap import StaRMapLayer, interpolate_many, moments_at_nodes
from .environment import ConstitutionEvaluator
from .terms import Program


@dataclass(frozen=True)
class ConstitutionField:
    """Raster of P(constitution | x, z) at grid nodes; NaN marks flagged cells."""

    grid: GridSpec
    values: np.ndarray  # (rows, cols)

    def __post_init__(self):
        if self.values.shape != (self.grid.rows, self.grid.cols):
            raise ConfigurationError(
                f"field shape {self.values.shape} does not match grid "
                f"{self.grid.rows}x{self.grid.cols}"
            )
        self.values.setflags(write=False)

    def at_clamped(self, points) -> np.ndarray:
        """Bilinear interpolation with points clamped into the bbox."""
        return bilinear(self.grid, self.values, points)

    def particle_probabilities(self, positions, z) -> np.ndarray:
        """(A, N) compliance (field mode) of (A, N, 2) positions; NaN where
        undefined. z is not read: the field fixed the measurement when it
        was precomputed."""
        positions = np.asarray(positions, dtype=float)
        return self.at_clamped(positions.reshape(-1, 2)).reshape(positions.shape[:-1])

    def save(self, path) -> None:
        jsonio.dump_rasters({"bbox": list(self.grid.bbox),
                             "resolution": [self.grid.rows, self.grid.cols]},
                            [self.values], path)

    @classmethod
    def load(cls, path) -> "ConstitutionField":
        def parse(header, rasters):
            grid = raster_grid(header)
            return cls(grid=grid, values=rasters(1, grid.rows, grid.cols)[0])

        return jsonio.load_rasters(path, "field file", parse)

    def write_pgm(self, path) -> None:
        write_pgm(path, self.values, vmin=0.0, vmax=1.0)


def precompute_field(program: Program, layers: list[StaRMapLayer], grid: GridSpec,
                     measurement=None) -> ConstitutionField:
    """Evaluate the constitution at every grid node.

    measurement: None evaluates each node with the measurement bound to
    the node itself; an (x, y) point fixes one measurement for all nodes.
    Nodes over flagged starmap cells are flagged NaN rather than aborting
    the build; a node or measurement outside a layer's bbox reads the
    layer's edge.

    The values are those of ConstitutionEvaluator.probabilities at the
    node points, bit for bit; a layer on the field's own grid is read at
    its nodes (starmap.moments_at_nodes) instead of interpolated.
    """
    evaluator = ConstitutionEvaluator(program, layers)
    n = grid.rows * grid.cols
    fixed = None if measurement is None else np.asarray(measurement, dtype=float).reshape(1, 2)

    def moments(layer, at):
        if at == "measurement" and fixed is not None:
            return interpolate_many(layer, fixed)
        return moments_at_nodes(layer, grid)

    values = evaluator.row_probabilities(evaluator.parameter_rows(n, moments))
    return ConstitutionField(grid=grid, values=values.reshape(grid.rows, grid.cols))
