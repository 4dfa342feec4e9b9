"""Exact inference by exhaustive model enumeration.

The probability of a query atom is the sum, over all assignments of the k
probabilistic ground atoms, of the product of per-atom probabilities,
restricted to assignments whose (unique, stratified) model satisfies the
query. Assignments are enumerated in chunks as bit patterns and all rule
evaluation is vectorized over the chunk.

Because the set of satisfying assignments depends only on program
structure, it is computed once (CompiledQuery) and re-weighted under new
parameter vectors cheaply. That is what makes per-particle evaluation
with position-dependent map parameters affordable; a single query under
the program's own parameters (query_probability) takes the same path.
"""

from __future__ import annotations

import numpy as np

from ..errors import CapacityError, GroundingError
from .grounder import GroundProgram
from .terms import Atom

DEFAULT_ATOM_LIMIT = 24
_CHUNK_BITS = 16


def _rules_by_head(gp: GroundProgram) -> dict[int, list]:
    table: dict[int, list] = {}
    for rule in gp.rules:
        table.setdefault(rule.head, []).append(rule)
    return table


def _eval_assignments(gp: GroundProgram, fact_bits: np.ndarray,
                      rules_by_head=None) -> np.ndarray:
    """Truth values of every atom under each assignment.

    fact_bits: (C, k) bool, column i = value of gp.fact_atoms[i].
    Returns (n_atoms, C) bool.
    """
    if rules_by_head is None:
        rules_by_head = _rules_by_head(gp)
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
    """Yield (offset, bits) covering all 2**k assignments."""
    total = 1 << k
    step = min(total, 1 << _CHUNK_BITS)
    cols = np.arange(k, dtype=np.uint64)
    for lo in range(0, total, step):
        idx = np.arange(lo, min(lo + step, total), dtype=np.uint64)
        bits = ((idx[:, None] >> cols[None, :]) & 1).astype(bool)
        yield idx, bits


def _resolve_query(gp: GroundProgram, query: Atom | None) -> int:
    if query is None:
        return gp.query
    idx = gp.atom_index(query)
    if idx is None:
        raise GroundingError(
            f"query atom {query.key()} does not occur in the ground program"
        )
    return idx


def query_probability(gp: GroundProgram, query: Atom | None = None) -> float:
    """Exact probability of the query atom under the program's own parameters."""
    return CompiledQuery(gp, query).evaluate(gp.static_params())


class CompiledQuery:
    """Satisfying-assignment table of a ground query, reusable across parameters.

    evaluate() computes the query probability for many parameter vectors at
    once; a single shared code path keeps scalar and batched evaluation
    bit-identical.
    """

    def __init__(self, gp: GroundProgram, query: Atom | None = None):
        k = gp.n_probabilistic
        if k > DEFAULT_ATOM_LIMIT:
            raise CapacityError(
                f"{k} probabilistic ground atoms exceed the enumeration limit "
                f"({DEFAULT_ATOM_LIMIT}); factor the program or precompute a field"
            )
        self.ground_program = gp
        self.k = k
        q_idx = _resolve_query(gp, query)
        rbh = _rules_by_head(gp)
        chunks = []
        for idx, bits in _bit_chunks(k):
            vals = _eval_assignments(gp, bits, rbh)
            chunks.append(bits[vals[q_idx]])
        self.satisfying_bits = (
            np.concatenate(chunks) if chunks else np.zeros((0, k), dtype=bool)
        )

    @property
    def n_satisfying(self) -> int:
        return self.satisfying_bits.shape[0]

    def evaluate(self, params: np.ndarray) -> np.ndarray:
        """Query probabilities for a (N, k) batch of parameter vectors."""
        params = np.asarray(params, dtype=float)
        single = params.ndim == 1
        params = np.atleast_2d(params)
        if params.shape[1] != self.k:
            raise ValueError(f"expected {self.k} parameters, got {params.shape[1]}")
        bits = self.satisfying_bits
        n = params.shape[0]
        if bits.shape[0] == 0:
            out = np.zeros(n)
            return float(out[0]) if single else out
        # Fixed mask blocking and per-row contiguous reductions keep the
        # floating-point result identical for every batch shape, so scalar
        # queries and precomputed fields agree bit for bit.
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
        return float(out[0]) if single else out
