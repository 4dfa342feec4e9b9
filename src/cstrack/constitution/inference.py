"""Exact inference by compiling the ground query to a reduced ordered BDD.

One bottom-up pass over the ground program's topological order builds the
binary decision diagram (Bryant, IEEE TC 1986) of every derived atom from
those of its rule bodies, with AND, OR and NOT over one unique table and
one memo, as ProbLog does (Fierens et al., TPLP 2015). Variable i is the
probabilistic atom gp.fact_atoms[i], so each interval-selector chain stays
contiguous in the order. Every fact assignment induces a unique model (the
program is stratified), so the query's diagram holds exactly its
satisfying assignments, and the query probability is the diagram evaluated
as an arithmetic circuit: each node is p_v * P(hi) + (1 - p_v) * P(lo).

Because the diagram depends only on program structure, it is compiled once
(CompiledQuery) and re-weighted under new parameter vectors cheaply. That
is what makes per-particle evaluation with position-dependent map
parameters affordable. The engine has one input and one output shape:
CompiledQuery(gp) compiles the ground program's own query, and evaluate
maps an (N, k) batch of parameter vectors to (N,) query probabilities.
"""

from __future__ import annotations

import logging
import time

import numpy as np

from ..errors import CapacityError
from .grounder import GroundProgram

MAX_BDD_NODES = 100_000
_BLOCK_VALUES = 4_000_000  # node values evaluate holds at once

log = logging.getLogger("cstrack.constitution")


class _Diagram:
    """Unique table and memo of one compilation. Node u tests variable
    var[u]; the terminals 0 (false) and 1 (true) sit below every variable."""

    def __init__(self, k: int):
        self.var, self.lo, self.hi = [k, k], [0, 1], [0, 1]
        self.unique, self.memo = {}, {}

    def node(self, v: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (v, lo, hi)
        if key not in self.unique:
            if len(self.unique) >= MAX_BDD_NODES:
                raise CapacityError(
                    f"the ground query needs more than {MAX_BDD_NODES} BDD nodes; "
                    "simplify the program or declare related facts together"
                )
            self.unique[key] = len(self.var)
            self.var.append(v)
            self.lo.append(lo)
            self.hi.append(hi)
        return self.unique[key]

    def negate(self, u: int) -> int:
        if u < 2:
            return 1 - u
        if ("not", u) not in self.memo:
            self.memo[("not", u)] = self.node(
                self.var[u], self.negate(self.lo[u]), self.negate(self.hi[u]))
        return self.memo[("not", u)]

    def apply(self, conj: bool, u: int, w: int) -> int:
        """u AND w if conj, else u OR w."""
        unit = int(conj)  # 1 for AND, 0 for OR; the other terminal absorbs
        if u == 1 - unit or w == 1 - unit:
            return 1 - unit
        if u == unit or u == w:
            return w
        if w == unit:
            return u
        key = (conj, min(u, w), max(u, w))
        if key not in self.memo:
            v = min(self.var[u], self.var[w])
            ulo, uhi = (self.lo[u], self.hi[u]) if self.var[u] == v else (u, u)
            wlo, whi = (self.lo[w], self.hi[w]) if self.var[w] == v else (w, w)
            self.memo[key] = self.node(
                v, self.apply(conj, ulo, wlo), self.apply(conj, uhi, whi))
        return self.memo[key]


class CompiledQuery:
    """BDD of a ground query, reusable across parameters.

    size counts the diagram nodes reachable from the query, terminals
    excluded; n_satisfying is the exact number of satisfying assignments of
    the k probabilistic atoms. evaluate() computes the query probability for
    many parameter vectors at once; each row's result does not depend on
    the other rows of the batch.
    """

    def __init__(self, gp: GroundProgram):
        t0 = time.perf_counter()
        self.k = gp.n_probabilistic
        bdd = _Diagram(self.k)
        f = {atom: bdd.node(i, 0, 1) for i, atom in enumerate(gp.fact_atoms)}
        rules_by_head: dict[int, list] = {}
        for rule in gp.rules:
            rules_by_head.setdefault(rule.head, []).append(rule)
        try:
            for atom in gp.topo_order:
                disj = 0
                for rule in rules_by_head[atom]:
                    conj = 1
                    for code in rule.body:
                        lit = f.get(abs(code) - 1, 0)  # undefined atoms are false
                        conj = bdd.apply(True, conj, bdd.negate(lit) if code < 0 else lit)
                    disj = bdd.apply(False, disj, conj)
                f[atom] = disj
        except RecursionError:  # the recursion goes one level per variable
            raise CapacityError(f"the ground query's BDD over {self.k} variables is "
                                "too deep to compile") from None
        root = f.get(gp.query, 0)

        # A node is made after its children: sorted ids put children first.
        reach, stack = set(), [root]
        while stack:
            u = stack.pop()
            if u > 1 and u not in reach:
                reach.add(u)
                stack += (bdd.lo[u], bdd.hi[u])
        order = sorted(reach)
        slot = {u: s for s, u in enumerate([0, 1] + order)}
        self._steps = [(bdd.var[u], slot[bdd.lo[u]], slot[bdd.hi[u]]) for u in order]
        self._root = slot[root]
        self.size = len(order)
        # Exact model count: count[u] counts the assignments of the
        # variables from var[u] on that lead from u to the true terminal.
        count = {0: 0, 1: 1}
        for u in order:
            v, lo, hi = bdd.var[u], bdd.lo[u], bdd.hi[u]
            count[u] = (count[lo] << (bdd.var[lo] - v - 1)) + (count[hi] << (bdd.var[hi] - v - 1))
        self.n_satisfying = count[root] << bdd.var[root]
        log.info("compiled query: k=%d, %d BDD nodes, %d satisfying assignments, %.2f ms",
                 self.k, self.size, self.n_satisfying, 1e3 * (time.perf_counter() - t0))

    def evaluate(self, params: np.ndarray) -> np.ndarray:
        """(N,) query probabilities for an (N, k) batch of parameter vectors."""
        params = np.asarray(params, dtype=float)
        if params.ndim != 2 or params.shape[1] != self.k:
            raise ValueError(
                f"expected an (N, {self.k}) parameter batch, got shape {params.shape}"
            )
        out = np.empty(params.shape[0])
        # Every operation is elementwise, so a row gets the same bits in any
        # batch; the row blocks only bound the memory.
        step = max(1, _BLOCK_VALUES // max(1, self.size))
        for rlo in range(0, len(out), step):
            p = np.ascontiguousarray(params[rlo : rlo + step].T)
            q = 1.0 - p
            vals = [0.0, 1.0]
            for v, lo, hi in self._steps:
                vals.append(p[v] * vals[hi] + q[v] * vals[lo])
            out[rlo : rlo + step] = vals[self._root]
        return out
