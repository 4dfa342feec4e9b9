"""Exact inference by exhaustive model enumeration.

The probability of a query atom is the sum, over all assignments of the k
probabilistic ground atoms, of the product of per-atom probabilities,
restricted to assignments whose (unique, stratified) model satisfies the
query. Assignments are enumerated in chunks as bit patterns and all rule
evaluation is vectorized over the chunk.

Because the set of satisfying assignments depends only on program
structure, it is computed once (CompiledQuery) and re-weighted under new
parameter vectors cheaply. That is what makes per-particle evaluation
with position-dependent map parameters affordable. The engine has one
input and one output shape: CompiledQuery(gp) compiles the ground
program's own query, and evaluate maps an (N, k) batch of parameter
vectors to (N,) query probabilities.
"""

from __future__ import annotations

import numpy as np

from ..errors import CapacityError
from .grounder import GroundProgram

DEFAULT_ATOM_LIMIT = 24
_CHUNK_BITS = 16


def _rules_by_head(gp: GroundProgram) -> dict[int, list]:
    table: dict[int, list] = {}
    for rule in gp.rules:
        table.setdefault(rule.head, []).append(rule)
    return table


def _eval_assignments(gp: GroundProgram, fact_bits: np.ndarray,
                      rules_by_head: dict[int, list]) -> np.ndarray:
    """Truth values of every atom under each assignment.

    fact_bits: (C, k) bool, column i = value of gp.fact_atoms[i].
    Returns (n_atoms, C) bool.
    """
    c = fact_bits.shape[0]
    vals = np.zeros((len(gp.atom_names), c), dtype=bool)
    for i, atom in enumerate(gp.fact_atoms):
        vals[atom] = fact_bits[:, i]
    for atom in gp.topo_order:
        out = np.zeros(c, dtype=bool)
        for rule in rules_by_head.get(atom, ()):
            fire = np.ones(c, dtype=bool)
            for code in rule.body:
                idx = abs(code) - 1
                fire &= ~vals[idx] if code < 0 else vals[idx]
                if not fire.any():
                    break
            out |= fire
        vals[atom] = out
    return vals


def _bit_chunks(k: int):
    """Yield (C, k) bool chunks covering all 2**k assignments."""
    total = 1 << k
    step = min(total, 1 << _CHUNK_BITS)
    cols = np.arange(k, dtype=np.uint64)
    for lo in range(0, total, step):
        idx = np.arange(lo, min(lo + step, total), dtype=np.uint64)
        bits = ((idx[:, None] >> cols[None, :]) & 1).astype(bool)
        yield bits


class CompiledQuery:
    """Satisfying-assignment table of a ground query, reusable across parameters.

    evaluate() computes the query probability for many parameter vectors at
    once; each row's result does not depend on the other rows of the batch.
    """

    def __init__(self, gp: GroundProgram):
        k = gp.n_probabilistic
        if k > DEFAULT_ATOM_LIMIT:
            raise CapacityError(
                f"{k} probabilistic ground atoms exceed the enumeration limit "
                f"({DEFAULT_ATOM_LIMIT}); factor the program or precompute a field"
            )
        self.k = k
        rbh = _rules_by_head(gp)
        chunks = []
        for bits in _bit_chunks(k):
            vals = _eval_assignments(gp, bits, rbh)
            chunks.append(bits[vals[gp.query]])
        self.satisfying_bits = (
            np.concatenate(chunks) if chunks else np.zeros((0, k), dtype=bool)
        )

    @property
    def n_satisfying(self) -> int:
        return self.satisfying_bits.shape[0]

    def evaluate(self, params: np.ndarray) -> np.ndarray:
        """(N,) query probabilities for an (N, k) batch of parameter vectors."""
        params = np.asarray(params, dtype=float)
        if params.ndim != 2 or params.shape[1] != self.k:
            raise ValueError(
                f"expected an (N, {self.k}) parameter batch, got shape {params.shape}"
            )
        bits = self.satisfying_bits
        n = params.shape[0]
        if bits.shape[0] == 0:
            return np.zeros(n)
        # Fixed mask blocking and per-row contiguous reductions keep the
        # floating-point result identical for every batch shape, so a row
        # evaluated alone and the same row in a precomputed field agree
        # bit for bit.
        out = np.empty(n)
        mask_block = min(bits.shape[0], 1 << _CHUNK_BITS)
        row_step = max(1, 4_000_000 // mask_block)
        for rlo in range(0, n, row_step):
            rows = params[rlo : rlo + row_step]
            acc = np.zeros(rows.shape[0])
            for mlo in range(0, bits.shape[0], mask_block):
                block = bits[mlo : mlo + mask_block]
                prod = np.ones((rows.shape[0], block.shape[0]))
                for i in range(self.k):
                    col = rows[:, i][:, None]
                    prod *= np.where(block[:, i][None, :], col, 1.0 - col)
                acc += prod.sum(axis=1)
            out[rlo : rlo + row_step] = acc
        return out
