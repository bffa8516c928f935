"""2-core peeling and solution lift-back.

Repeatedly delete any variable of degree <= 1 together with its equation
(if it has one); what survives is the 2-core of the constraint hypergraph:
the unique maximal sub-system in which every variable appears in at least
two equations.  The result is independent of removal order.

We peel in synchronous rounds on numpy arrays (Jiang, Mitzenmacher &
Thaler, "Parallel Peeling Algorithms", arXiv:1302.7014): each round removes
every live variable of degree <= 1 at once.  For each variable we keep its
live degree and the sum of the ids of its live equations; at degree 1 that
sum is the id of its one equation, so no incidence lists are kept.  The
sums are added in int64, each at most (m - 1) * degree (`_id_sums`).  When
several variables of a round have the same equation, the least id takes it
and the others are removed in the next round at degree 0.  The next
frontier is the set of touched variables that are still live at degree
<= 1, in ascending order (`_next_frontier`): fewer than n / 64 of them are
sorted and deduplicated, so the many small rounds near the core threshold
cost O(touched), not O(n); more are marked in a bool array and read back by
one scan of its n marks.

The trace is int64 arrays only: one (S, 2) array of (variable, equation)
removals, rounds in order, ascending variable ids within a round,
equation -1 for a degree-0 removal; and the sorted core variable and
equation ids.  It holds no equation rows; they are read from the
instance, which lift-back and the JSON form both take.

A solution of the core extends to a solution of the full system by
replaying the trace backwards: each peeled variable had sole responsibility
for its equation at removal time, so it can always be set to satisfy it
(degree-0 removals get value 0).  Hence the original system is solvable iff
its core is.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from xorsatlab.errors import from_json
from xorsatlab.instances import MODEL_CONSTRAINED, Instance


@dataclass(eq=False)
class PeelTrace:
    """Ordered removals plus the surviving (core) variable and equation ids.

    steps is a C-contiguous (S, 2) int64 array of (variable, equation)
    rows in removal order, equation -1 when the variable had degree 0.
    core_var_ids and core_eq_ids are sorted C-contiguous int64 arrays; the
    core instance indexes variables by their position in core_var_ids.
    """

    n: int
    m: int
    steps: np.ndarray
    core_var_ids: np.ndarray
    core_eq_ids: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, PeelTrace):
            return NotImplemented
        return (self.n, self.m) == (other.n, other.m) and all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in ("steps", "core_var_ids", "core_eq_ids"))

    def to_json_dict(self, inst: Instance) -> dict:
        """JSON form; each step is [var, eq, the row of equation eq], or [var,
        null, null] for a degree-0 removal, so `inst` must be the peeled instance."""
        rows = inst.rows
        return {
            "n": self.n,
            "m": self.m,
            "steps": [[v, e, rows[e]] if e >= 0 else [v, None, None] for v, e in self.steps.tolist()],
            "core_var_ids": self.core_var_ids.tolist(),
            "core_eq_ids": self.core_eq_ids.tolist(),
        }

    def dumps(self, inst: Instance) -> str:
        return json.dumps(self.to_json_dict(inst), separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, d: dict) -> "PeelTrace":
        """Parse `to_json_dict` output; raise ValueError on a missing, unknown or
        mistyped key, a variable id outside [0, n) or an equation id outside [0, m)."""
        f = from_json(_TraceJSON, d, ValueError, "peel trace")
        # ids are compared as Python ints, so one beyond int64 is refused before the arrays are built
        for name, size, ids in (
            ("variable", f.n, chain((v for v, _, _ in f.steps), f.core_var_ids)),
            ("equation", f.m, chain((e for _, e, _ in f.steps if e is not None), f.core_eq_ids)),
        ):
            bound = min(size, 1 << 63)
            bad = next((i for i in ids if not 0 <= i < bound), None)
            if bad is not None:
                raise ValueError(f"peel trace {name} id {bad} out of range [0, {bound})")
        steps = np.array([(v, -1 if e is None else e) for v, e, _ in f.steps], np.int64).reshape(-1, 2)
        return cls(f.n, f.m, steps, np.array(f.core_var_ids, np.int64), np.array(f.core_eq_ids, np.int64))


@dataclass
class _TraceJSON:
    """The JSON keys of a `PeelTrace`, with the types `from_json` reads them as."""

    n: int
    m: int
    steps: list[tuple[int, int | None, list[int] | None]]
    core_var_ids: list[int]
    core_eq_ids: list[int]


def _id_sums(flat: np.ndarray, ids: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """Exact int64 sums, per variable, of the int64 `ids` over the index
    entries `flat`.  `deg` counts each variable in `flat`, so a sum is at
    most max(ids) * deg[v]; past 2**63 OverflowError is raised rather than
    wrapping."""
    bound = int(ids.max(initial=0)) * int(deg.max(initial=0))
    if bound >= 1 << 63:
        raise OverflowError(f"equation id sums may reach {bound}, past int64")
    sums = np.zeros(deg.size, dtype=np.int64)
    np.add.at(sums, flat, ids)
    return sums


def _next_frontier(cand: np.ndarray, mark: np.ndarray) -> np.ndarray:
    """The distinct entries of `cand`, ascending; `mark` is an all-False
    bool array over the variables and is left all False.

    Fewer than n / 64 candidates are sorted and their neighbouring repeats
    dropped, at O(|cand| log |cand|); more are marked and read back by one
    `nonzero()` scan of all n marks.
    """
    if cand.size * 64 < mark.size:
        cand = np.sort(cand)
        keep = np.empty(cand.size, dtype=bool)
        keep[:1] = True
        np.not_equal(cand[1:], cand[:-1], out=keep[1:])
        return cand[keep]
    mark[cand] = True
    frontier = mark.nonzero()[0]
    mark[frontier] = False
    return frontier


def _peel_rounds(index: np.ndarray, n: int):
    """Round-synchronous peel of the (m, k) index array `index`.

    Returns (step_vars, step_eqs, var_alive, eq_alive): the removals
    in trace order, with step_eqs -1 for a degree-0 removal, and the
    survivor masks.
    """
    m, k = index.shape
    flat = index.ravel()
    deg = np.bincount(flat, minlength=n)
    # eqsum[v] is the sum of the ids of v's live equations, at most
    # (m - 1) * deg[v]: at degree 1 it is that one equation's id, so no
    # incidence lists are needed
    eqsum = _id_sums(flat, np.repeat(np.arange(m, dtype=np.int64), k), deg)
    var_alive = np.ones(n, dtype=bool)
    eq_alive = np.ones(m, dtype=bool)
    # ties go to the first claimant in round order, the least id
    claim = np.full(m, n, dtype=np.int64)
    mark = np.zeros(n, dtype=bool)
    empty = np.zeros(0, dtype=np.int64)
    step_vars, step_eqs = [empty], [empty]
    frontier = (deg <= 1).nonzero()[0]
    while frontier.size:
        eqs = np.where(deg.take(frontier) == 1, eqsum.take(frontier), -1)
        one = eqs >= 0
        cand, cand_eqs = frontier[one], eqs[one]
        np.minimum.at(claim, cand_eqs, cand)
        won = claim.take(cand_eqs) == cand
        peeled = ~one
        peeled[one] = won
        step_vars.append(frontier[peeled])
        step_eqs.append(eqs[peeled])
        var_alive[step_vars[-1]] = False
        gone = cand_eqs[won]
        eq_alive[gone] = False
        touched = index.take(gone, axis=0).ravel()
        np.subtract.at(deg, touched, 1)
        np.subtract.at(eqsum, touched, np.repeat(gone, k))
        # a claimant that lost its equation is now at degree 0; it was in
        # that equation's row, so it is among the touched variables
        frontier = _next_frontier(touched[var_alive.take(touched) & (deg.take(touched) <= 1)], mark)
    return np.concatenate(step_vars), np.concatenate(step_eqs), var_alive, eq_alive


def two_core(inst: Instance) -> tuple[Instance, PeelTrace]:
    """Peel to the 2-core; returns (core instance, trace).

    Each round removes every live variable of degree <= 1 at once, in
    ascending id order.  A degree-1 variable takes its equation unless a
    smaller id of the same round took it; it is then removed in the next
    round at degree 0.  The trace holds the (S, 2) array of (variable,
    equation) removals described in the module docstring and the sorted
    core variable and equation ids, all int64 arrays.  The core keeps the
    original equation order with variables renumbered by rank in
    core_var_ids; its order and size are core.n and core.m.
    """
    step_vars, step_eqs, var_alive, eq_alive = _peel_rounds(inst.index, inst.n)
    core_vars = var_alive.nonzero()[0]
    core_eqs = eq_alive.nonzero()[0]
    # a core variable's new id is its rank among the survivors
    rank = np.cumsum(var_alive, dtype=np.int64)
    rank -= 1
    core_index = rank.take(inst.index.take(core_eqs, axis=0))
    if core_vars.size and np.bincount(core_index.ravel(), minlength=core_vars.size).min() < 2:
        raise AssertionError("peeling left a variable of degree < 2 in the core")
    core_bits = inst.bits.take(core_eqs)
    core = Instance(inst.k, core_vars.size, core_eqs.size, core_index, core_bits, MODEL_CONSTRAINED, inst.seed)
    return core, PeelTrace(inst.n, inst.m, np.column_stack((step_vars, step_eqs)), core_vars, core_eqs)


def extend_solution(core_solution, trace: PeelTrace, inst: Instance) -> list[int]:
    """Lift a core solution back to a full assignment satisfying `inst`.

    Peeled variables of degree 0 keep value 0; the rest are set in reverse
    removal order so each satisfies its own equation, read from `inst`.
    `inst.lhs` then checks every equation; ValueError names the first one
    violated, for a `two_core` trace a core equation.
    """
    if len(core_solution) != trace.core_var_ids.size:
        raise ValueError("core solution length does not match the core variable count")
    x = np.zeros(inst.n, np.int64)
    x[trace.core_var_ids] = core_solution
    x = x.tolist()
    rows, rhs = inst.rows, inst.rhs
    for v, e in reversed(trace.steps.tolist()):
        if e >= 0:
            acc = rhs[e]
            for u in rows[e]:
                if u != v:
                    acc ^= x[u]
            x[v] = acc
    bad = np.flatnonzero(inst.lhs(x) != inst.bits)
    if bad.size:
        raise ValueError(f"lifted solution violates equation {bad[0]}")
    return x


__all__ = ["PeelTrace", "extend_solution", "two_core"]
