import gc
import hashlib
import json
import math
from collections import Counter, deque
from itertools import combinations, product

import numpy as np
import pytest

from conftest import chi2_pvalue
from xorsatlab import formulas as F
from xorsatlab import gf2
from xorsatlab.instances import (
    MODEL_CONSTRAINED,
    MODEL_UNCONSTRAINED,
    Instance,
    gen_constrained,
    gen_unconstrained,
)
from xorsatlab import peel
from xorsatlab.peel import PeelTrace, _id_sums, _next_frontier, _peel_rounds, extend_solution, two_core
from xorsatlab.rng import Seed


def naive_two_core_eq_ids(inst):
    """Fixed-point oracle: recompute degrees and drop degree-<=1 variables
    (plus their equations) in full rounds until nothing changes."""
    rows = inst.rows
    alive_eqs = set(range(inst.m))
    alive_vars = set(range(inst.n))
    while True:
        degree = Counter()
        for e in alive_eqs:
            for v in rows[e]:
                degree[v] += 1
        low = {v for v in alive_vars if degree[v] <= 1}
        if not low:
            return sorted(alive_eqs), sorted(v for v in alive_vars if degree[v] >= 2)
        alive_vars -= low
        alive_eqs = {e for e in alive_eqs if not low.intersection(rows[e])}


def replay_trace(inst, trace):
    """Check every removal had degree <= 1 at its moment and that the
    survivors match the recorded core ids; every trace field is a
    C-contiguous int64 array."""
    rows = inst.rows
    degree = Counter()
    for row in rows:
        for v in row:
            degree[v] += 1
    alive_eqs = set(range(inst.m))
    alive_vars = set(range(inst.n))
    for field in (trace.steps, trace.core_var_ids, trace.core_eq_ids):
        assert field.dtype == np.int64 and field.flags.c_contiguous
    assert trace.steps.shape == (inst.n - len(trace.core_var_ids), 2)
    for var, eq in trace.steps.tolist():
        assert var in alive_vars
        live = [e for e in alive_eqs if var in rows[e]]
        assert len(live) <= 1
        if eq == -1:
            assert not live
        else:
            assert live == [eq]
            alive_eqs.remove(eq)
        alive_vars.remove(var)
    assert sorted(alive_vars) == trace.core_var_ids.tolist()
    assert sorted(alive_eqs) == trace.core_eq_ids.tolist()


def sequential_two_core(inst):
    """The sequential peel that the round-synchronous one replaced: a queue of
    degree-<=1 variables over per-variable incidence lists.  Returns
    (core_var_ids, core_eq_ids, core rows, core rhs, (core order, core size))."""
    rows, rhs = inst.rows, inst.rhs
    incident = [[] for _ in range(inst.n)]
    for e, row in enumerate(rows):
        for v in row:
            incident[v].append(e)
    degree = [len(lst) for lst in incident]
    eq_alive = [True] * inst.m
    var_alive = [True] * inst.n
    queue = deque(v for v in range(inst.n) if degree[v] <= 1)
    while queue:
        v = queue.popleft()
        if not var_alive[v] or degree[v] > 1:
            continue
        var_alive[v] = False
        eq = next((e for e in incident[v] if eq_alive[e]), None)
        if eq is None:
            continue
        eq_alive[eq] = False
        for u in rows[eq]:
            if u != v and var_alive[u]:
                degree[u] -= 1
                if degree[u] <= 1:
                    queue.append(u)
    core_var_ids = [v for v in range(inst.n) if var_alive[v]]
    core_eq_ids = [e for e in range(inst.m) if eq_alive[e]]
    remap = {v: i for i, v in enumerate(core_var_ids)}
    core_rows = [[remap[v] for v in rows[e]] for e in core_eq_ids]
    core_rhs = [rhs[e] for e in core_eq_ids]
    return core_var_ids, core_eq_ids, core_rows, core_rhs, (len(core_var_ids), len(core_eq_ids))


def assert_matches_sequential(inst):
    core, trace = two_core(inst)
    assert (trace.core_var_ids.tolist(), trace.core_eq_ids.tolist(), core.rows, core.rhs, (core.n, core.m)) == (
        sequential_two_core(inst))
    assert (core.k, core.n, core.m, core.model_tag, core.seed) == (
        inst.k, len(trace.core_var_ids), len(trace.core_eq_ids), MODEL_CONSTRAINED, inst.seed)
    assert len(trace.steps) == inst.n - core.n
    replay_trace(inst, trace)
    assert PeelTrace.from_json_dict(json.loads(trace.dumps(inst))) == trace
    return trace


def test_matches_sequential_peel_on_random_instances():
    rng = np.random.default_rng(4)
    for t in range(40):
        k = 3 + t % 2
        n = int(rng.integers(50, 3001)) if t % 4 else int(rng.integers(50, 400))
        c = float(rng.uniform(0.7, 1.1))
        inst = gen_unconstrained(k, int(c * n), n, Seed(800, t))
        assert_matches_sequential(inst)


EDGE_CASES = [
    (3, 0, []),  # m = 0, n = 0
    (3, 6, []),  # m = 0: every variable isolated
    (3, 7, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]),  # isolated 4..6 around a core
    (3, 3, [[0, 1, 2]]),  # all three claim one equation in round 1
    (3, 5, [[0, 1, 2], [2, 3, 4]]),
    (1, 4, [[0], [0], [2], [3], [3], [3]]),
    (2, 5, [[0, 1], [1, 2], [2, 0], [3, 4]]),  # a cycle survives, a pendant edge does not
    (2, 4, [[0, 1], [1, 2], [2, 3]]),
]


@pytest.mark.parametrize("k, n, rows", EDGE_CASES)
def test_matches_sequential_peel_on_edge_cases(k, n, rows):
    inst = Instance(k, n, len(rows), rows, [i % 2 for i in range(len(rows))], MODEL_UNCONSTRAINED)
    assert_matches_sequential(inst)


def xor_peel_rounds(index, n):
    """The round peel that `_peel_rounds` replaced: each variable keeps the XOR
    of its live equation ids, and np.unique rebuilds every frontier."""
    m, k = index.shape
    deg = np.bincount(index.ravel(), minlength=n)
    eqx = np.zeros(n, dtype=np.int64)
    np.bitwise_xor.at(eqx, index.ravel(), np.repeat(np.arange(m, dtype=np.int64), k))
    var_alive = np.ones(n, dtype=bool)
    eq_alive = np.ones(m, dtype=bool)
    claim = np.full(m, n, dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)
    step_vars, step_eqs = [empty], [empty]
    frontier = (deg <= 1).nonzero()[0]
    while frontier.size:
        eqs = np.where(deg[frontier] == 1, eqx[frontier], -1)
        one = eqs >= 0
        cand, cand_eqs = frontier[one], eqs[one]
        np.minimum.at(claim, cand_eqs, cand)
        won = claim[cand_eqs] == cand
        peeled = ~one
        peeled[one] = won
        step_vars.append(frontier[peeled])
        step_eqs.append(eqs[peeled])
        var_alive[step_vars[-1]] = False
        gone = cand_eqs[won]
        eq_alive[gone] = False
        touched = index[gone].ravel()
        np.subtract.at(deg, touched, 1)
        np.bitwise_xor.at(eqx, touched, np.repeat(gone, k))
        frontier = np.unique(touched[var_alive[touched] & (deg[touched] <= 1)])
    return np.concatenate(step_vars), np.concatenate(step_eqs), var_alive, eq_alive


def assert_matches_xor_peel(inst):
    got, want = _peel_rounds(inst.index, inst.n), xor_peel_rounds(inst.index, inst.n)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_matches_xor_peel_on_random_instances():
    for k in range(1, 6):
        # below and above the core threshold; k = 1 has none (any repeated
        # variable is a core) and takes c = 0.4 and 0.6
        c_hat = F.c_hat(k) if k > 1 else 0.5
        for n in (k, 2 * k + 1, 40, 700, 12000, 100000):
            for i, c in enumerate((0.8 * c_hat, 1.2 * c_hat)):
                assert_matches_xor_peel(gen_unconstrained(k, int(c * n), n, Seed(2300 + k, 2 * n + i)))


@pytest.mark.parametrize(
    "k, n, rows",
    EDGE_CASES + [
        (1, 0, []),  # n = 0 at k = 1
        (3, 4, [[0, 0, 1], [1, 2, 3], [1, 2, 3]]),  # a repeated index counts twice towards the degree
        (2, 3, [[1, 1], [0, 2]]),
    ],
)
def test_matches_xor_peel_on_edge_cases(k, n, rows):
    assert_matches_xor_peel(Instance(k, n, len(rows), rows, [0] * len(rows), MODEL_UNCONSTRAINED))


@pytest.mark.parametrize("size", [0, 1, 5, 15, 16, 17, 400, 5000])
def test_next_frontier_matches_unique(size):
    # n = 1024: up to 15 candidates are sorted, from 16 on they are marked
    n = 1024
    rng = np.random.default_rng(size)
    for high in (n, 8):  # spread out, and crowded with repeats
        cand = rng.integers(0, high, size=size)
        mark = np.zeros(n, dtype=bool)
        got = _next_frontier(cand, mark)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.unique(cand))
        assert not mark.any()


def test_random_peels_take_both_frontier_branches(monkeypatch):
    # the random instances of test_matches_xor_peel_on_random_instances at
    # k = 3, n = 12000 and 1e5: the large early frontiers are marked, the
    # small late ones sorted; only the mark branch writes to `mark`
    taken = []

    class Marks(np.ndarray):
        def __setitem__(self, key, value):
            taken[-1] = "mark"
            super().__setitem__(key, value)

    def spy(cand, mark):
        taken.append("sort")
        return _next_frontier(cand, mark.view(Marks))

    monkeypatch.setattr(peel, "_next_frontier", spy)
    for n in (12000, 100000):
        for i, c in enumerate((0.8 * F.c_hat(3), 1.2 * F.c_hat(3))):
            taken.clear()
            assert_matches_xor_peel(gen_unconstrained(3, int(c * n), n, Seed(2303, 2 * n + i)))
            assert set(taken) == {"sort", "mark"}


def test_id_sums_are_exact_near_the_float_bound():
    big = 1 << 53
    # one var at degree 3 with ids just under 2**53: sums past 2**53, exact in int64
    flat = np.array([0, 0, 0, 1, 2, 2], dtype=np.int64)
    ids = np.array([big - 1, big - 3, big - 5, 7, 3 * 10**15 + 1, 3 * 10**15 + 3], dtype=np.int64)
    deg = np.bincount(flat, minlength=4)
    sums = _id_sums(flat, ids, deg)
    assert sums.dtype == np.int64
    assert sums.tolist() == [3 * big - 9, 7, 6 * 10**15 + 4, 0]
    # removing all but one equation leaves that equation's id, as at degree 1
    np.subtract.at(sums, flat[:2], ids[:2])
    assert sums[0] == big - 5
    # sums that could pass int64 are refused, not wrapped
    with pytest.raises(OverflowError):
        _id_sums(np.zeros(2, dtype=np.int64), np.full(2, 1 << 52, dtype=np.int64), np.array([1 << 11]))


def test_shared_equation_goes_to_first_claimant_in_round_order():
    inst = Instance(3, 3, 1, [[0, 1, 2]], [1], MODEL_UNCONSTRAINED)
    _, trace = two_core(inst)
    assert trace.steps.tolist() == [[0, 0], [1, -1], [2, -1]]
    x = extend_solution([], trace, inst)
    assert x[0] ^ x[1] ^ x[2] == 1


def test_trace_is_rounds_then_ascending_ids():
    # round 1 peels 0 (degree 1) and 5 (isolated); in round 2, 1 and 2 both
    # claim equation 1 and 1 takes it; round 3 peels 2 at degree 0
    rows = [[0, 1, 2], [1, 2, 3], [3, 4, 6], [3, 4, 6]]
    inst = Instance(3, 7, len(rows), rows, [0] * len(rows), MODEL_UNCONSTRAINED)
    _, trace = two_core(inst)
    assert trace.steps.tolist() == [[0, 0], [5, -1], [1, 1], [2, -1]]
    assert trace.to_json_dict(inst)["steps"] == [[0, 0, [0, 1, 2]], [5, None, None], [1, 1, [1, 2, 3]], [2, None, None]]
    assert trace.core_var_ids.tolist() == [3, 4, 6] and trace.core_eq_ids.tolist() == [2, 3]
    assert_matches_sequential(inst)


def test_constrained_instance_has_no_steps():
    inst = gen_constrained(3, 60, 50, Seed(900))
    core, trace = two_core(inst)
    assert trace.steps.shape == (0, 2)
    assert core.rows == inst.rows and core.rhs == inst.rhs
    assert trace.core_var_ids.tolist() == list(range(50)) and trace.core_eq_ids.tolist() == list(range(60))
    assert (core.n, core.m) == (50, 60)
    assert_matches_sequential(inst)


def test_trace_is_deterministic():
    inst = gen_unconstrained(3, 900, 1000, Seed(950))
    first = two_core(inst)
    again = two_core(inst)
    assert first == again
    assert PeelTrace.from_json_dict(json.loads(first[1].dumps(inst))) == first[1]


def test_garbage_collector_state_is_restored():
    inst = gen_unconstrained(3, 900, 1000, Seed(951))
    was_on = gc.isenabled()
    try:
        gc.enable()
        two_core(inst)
        assert gc.isenabled()
        gc.disable()
        two_core(inst)
        assert not gc.isenabled()
    finally:
        if was_on:
            gc.enable()


def test_min_degree_two_input_is_fixed():
    rows = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    inst = Instance(3, 4, 4, rows, [1, 0, 0, 1], MODEL_UNCONSTRAINED)
    core, trace = two_core(inst)
    assert trace.steps.shape == (0, 2)
    assert core.rows == rows and core.rhs == inst.rhs
    assert (core.n, core.m) == (4, 4)


def test_path_system_fully_peels():
    rows = [[0, 1, 2], [2, 3, 4], [4, 5, 6], [6, 7, 8]]
    inst = Instance(3, 9, 4, rows, [1, 1, 0, 1], MODEL_UNCONSTRAINED)
    core, trace = two_core(inst)
    assert core.n == 0 and core.m == 0
    x = extend_solution([], trace, inst)
    mat = gf2.BitMatrix.from_sparse_rows(9, rows)
    assert (gf2.matvec(mat, x) == np.array(inst.rhs, dtype=np.uint8)).all()


def test_matches_naive_fixed_point(rng):
    for t in range(60):
        n = 200
        m = int(0.95 * n)
        inst = gen_unconstrained(3, m, n, Seed(100, t))
        core, trace = two_core(inst)
        eq_ids, var_ids = naive_two_core_eq_ids(inst)
        assert trace.core_eq_ids.tolist() == eq_ids
        assert trace.core_var_ids.tolist() == var_ids
        replay_trace(inst, trace)


def test_degree_zero_variables_peel_with_no_equation():
    inst = Instance(2, 5, 2, [[0, 1], [0, 1]], [0, 1], MODEL_UNCONSTRAINED)
    core, trace = two_core(inst)
    orphans = [v for v, e in trace.steps.tolist() if e == -1]
    assert set(orphans) == {2, 3, 4}
    assert (core.n, core.m) == (2, 2)
    # inconsistent pair stays in the core and cannot be satisfied
    mat = gf2.BitMatrix.from_sparse_rows(core.n, core.rows)
    assert not gf2.solve(mat, core.rhs).consistent


def test_solvability_preserved_and_extension_valid():
    checked_sat = 0
    for t in range(120):
        n = int(150 + 50 * (t % 4))
        m = int(0.9 * n)
        inst = gen_unconstrained(3, m, n, Seed(300, t))
        core, trace = two_core(inst)
        core_mat = gf2.BitMatrix.from_sparse_rows(core.n, core.rows)
        core_res = gf2.solve(core_mat, core.rhs)
        full_mat = gf2.BitMatrix.from_sparse_rows(inst.n, inst.rows)
        full_res = gf2.solve(full_mat, inst.rhs)
        assert core_res.consistent == full_res.consistent
        if core_res.consistent:
            x = extend_solution(core_res.one_solution, trace, inst)
            assert (gf2.matvec(full_mat, x) == np.array(inst.rhs, dtype=np.uint8)).all()
            checked_sat += 1
    assert checked_sat > 40


def test_extension_rejects_infeasible_core_solution():
    rows = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    inst = Instance(3, 4, 4, rows, [1, 0, 0, 0], MODEL_UNCONSTRAINED)
    core, trace = two_core(inst)
    mat = gf2.BitMatrix.from_sparse_rows(core.n, core.rows)
    res = gf2.solve(mat, core.rhs)
    assert res.consistent
    bad = [1 - b for b in res.one_solution]
    with pytest.raises(ValueError):
        extend_solution(bad, trace, inst)
    with pytest.raises(ValueError):
        extend_solution(res.one_solution.tolist() + [0], trace, inst)


def test_extension_checks_every_equation_of_a_corrupted_trace():
    # a trace whose step names another equation lifts to an assignment that
    # may break the step's true equation; it must raise, never return it
    inst = gen_unconstrained(3, 80, 100, Seed(500))
    core, trace = two_core(inst)
    res = gf2.solve(gf2.BitMatrix.from_sparse_rows(core.n, core.rows), core.rhs)
    assert res.consistent
    full = gf2.BitMatrix.from_sparse_rows(inst.n, inst.rows)
    raised = 0
    for i in np.flatnonzero(trace.steps[:, 1] >= 0):
        steps = trace.steps.copy()
        steps[i, 1] = (steps[i, 1] + 1) % inst.m
        bad = PeelTrace(trace.n, trace.m, steps, trace.core_var_ids, trace.core_eq_ids)
        try:
            x = extend_solution(res.one_solution, bad, inst)
        except ValueError as exc:
            assert "violates equation" in str(exc)
            raised += 1
        else:
            assert (gf2.matvec(full, x) == np.array(inst.rhs, dtype=np.uint8)).all()
    assert raised > 0


def test_peel_free_extension_is_identity():
    rows = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    inst = Instance(3, 4, 4, rows, [1, 1, 0, 0], MODEL_UNCONSTRAINED)
    core, trace = two_core(inst)
    res = gf2.solve(gf2.BitMatrix.from_sparse_rows(core.n, core.rows), core.rhs)
    assert res.consistent
    assert extend_solution(res.one_solution, trace, inst) == res.one_solution.tolist()


def test_trace_serialization_round_trip():
    inst = gen_unconstrained(3, 80, 100, Seed(400))
    _, trace = two_core(inst)
    again = PeelTrace.from_json_dict(trace.to_json_dict(inst))
    assert again == trace
    assert PeelTrace.from_json_dict(__import__("json").loads(trace.dumps(inst)).copy()) == trace


_GOOD_TRACE = {"n": 2, "m": 1, "steps": [[0, 0, [0, 1]], [1, None, None]], "core_var_ids": [], "core_eq_ids": []}


@pytest.mark.parametrize("d,message", [
    ({}, "peel trace JSON has no 'n', 'm', 'steps', 'core_var_ids', 'core_eq_ids'"),
    ([_GOOD_TRACE], "peel trace JSON must be an object, not list"),
    ({**_GOOD_TRACE, "steps": [[0]]},
     "peel trace field 'steps' must be list[tuple[int, int | None, list[int] | None]], got [[0]]"),
    ({**_GOOD_TRACE, "n": "x"}, "peel trace field 'n' must be int, got 'x'"),
    ({**_GOOD_TRACE, "rows": []}, "unknown peel trace keys: rows"),
    # ids outside [0, n) or [0, m), compared before anything is cast to int64
    ({**_GOOD_TRACE, "steps": [[2**70, None, None]]}, f"peel trace variable id {2**70} out of range [0, 2)"),
    ({**_GOOD_TRACE, "n": 2**80, "steps": [[2**70, None, None]]},
     f"peel trace variable id {2**70} out of range [0, {2**63})"),
    ({"n": 2, "m": 0, "steps": [], "core_var_ids": [5, 9], "core_eq_ids": [3]},
     "peel trace variable id 5 out of range [0, 2)"),
    ({"n": 2, "m": 0, "steps": [], "core_var_ids": [], "core_eq_ids": [3]},
     "peel trace equation id 3 out of range [0, 0)"),
    ({**_GOOD_TRACE, "steps": [[7, 4, [1, 2]]]}, "peel trace variable id 7 out of range [0, 2)"),
    ({**_GOOD_TRACE, "steps": [[1, 4, [1, 2]]]}, "peel trace equation id 4 out of range [0, 1)"),
    ({**_GOOD_TRACE, "steps": [[1, -1, [0, 1]]]}, "peel trace equation id -1 out of range [0, 1)"),
], ids=["empty", "list", "short_step", "str_n", "unknown_key", "var_beyond_int64", "var_beyond_int64_huge_n",
        "core_ids_past_n_m", "core_eq_past_m", "step_past_n_m", "step_eq_past_m", "step_eq_negative"])
def test_trace_reader_refuses_malformed_json(d, message):
    with pytest.raises(ValueError) as err:
        PeelTrace.from_json_dict(d)
    assert type(err.value) is ValueError and str(err.value) == message
    good = PeelTrace.from_json_dict(_GOOD_TRACE)
    assert good.steps.tolist() == [[0, 0], [1, -1]] and good.steps.dtype == np.int64
    assert good.core_var_ids.dtype == good.core_eq_ids.dtype == np.int64 and good.core_var_ids.shape == (0,)


def test_trace_json_and_core_bytes_pinned():
    # trace JSON, core rows, core rhs and core_check's (core_vars, core_eqs,
    # ratio) fields of k=3, n=1000 instances at c = 0.75..0.978 (five of
    # them have an empty core); each trace also reads back from its JSON
    h = hashlib.sha256()
    for t in range(20):
        inst = gen_unconstrained(3, 750 + 12 * t, 1000, Seed(1100, t))
        core, trace = two_core(inst)
        text = trace.dumps(inst)
        assert PeelTrace.from_json_dict(json.loads(text)) == trace
        h.update(text.encode())
        h.update(json.dumps([core.rows, core.rhs, [core.n, core.m, repr(core.m / core.n) if core.n else ""]]).encode())
    assert h.hexdigest() == "34560b815ac88d35a8d5514b52c205dd2944eeaf9b5edeed06d1754e1d1fa8b3"


def test_core_density_against_prediction_single_shot():
    # one medium instance; the 20-trial n=1e5 versions run in acceptance
    inst = gen_unconstrained(3, int(0.95 * 30_000), 30_000, Seed(500))
    core, _ = two_core(inst)
    mu = F.mu_of(3, 0.95)
    pred_vars = (math.exp(mu) - 1 - mu) / math.exp(mu)
    assert abs(core.n / 30_000 - pred_vars) < 0.02
    assert abs(core.m / core.n - F.psi(mu) / 3) < 0.02


def test_subcritical_density_has_empty_core():
    empties = sum(
        two_core(gen_unconstrained(3, int(0.7 * 20_000), 20_000, Seed(600, t)))[0].n == 0
        for t in range(5)
    )
    assert empties == 5


def test_core_conditionally_uniform_on_tiny_space():
    """Condition on (core order, size) = (3, 3) for k=3, n=5, m=4: the core is
    three identical triples; every vertex-triple key must be equally likely."""
    triples = list(combinations(range(5), 3))
    # exact conditional distribution by enumerating all 10^4 ordered row combos
    exact = Counter()
    for rows in product(triples, repeat=4):
        inst = Instance(3, 5, 4, [list(r) for r in rows], [0, 0, 0, 0], MODEL_UNCONSTRAINED)
        core, trace = two_core(inst)
        if (core.n, core.m) == (3, 3):
            key = tuple(rows[e] for e in trace.core_eq_ids.tolist())
            exact[key] += 1
    assert len(exact) == len(triples)
    assert len(set(exact.values())) == 1  # uniform over keys
    total = sum(exact.values())
    # now sample and chi-square against that conditional law
    samples, hits = 40_000, Counter()
    for i in range(samples):
        inst = gen_unconstrained(3, 4, 5, Seed(700, i))
        core, trace = two_core(inst)
        if (core.n, core.m) == (3, 3):
            rows = inst.rows
            hits[tuple(tuple(rows[e]) for e in trace.core_eq_ids.tolist())] += 1
    n_cond = sum(hits.values())
    assert n_cond > 500
    expected = [n_cond / len(triples)] * len(triples)
    observed = [hits.get(tuple([t] * 3), 0) for t in triples]
    assert chi2_pvalue(observed, expected) > 1e-3
