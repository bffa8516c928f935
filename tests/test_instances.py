import hashlib
import math
import re
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, islice, product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chi2_pvalue, run_capped_child
from test_series import dp_power, terms_ge2
from xorsatlab import formulas as F
from xorsatlab import instances as instances_module
from xorsatlab.errors import BudgetExceededError, InstanceFormatError, RejectionBudgetError
from xorsatlab.instances import (
    _SORT_BLOCK,
    ChipAllocation,
    Instance,
    _degree_law,
    _degrees,
    _gen_C,
    _has_row_duplicate,
    _hit_probability,
    _repeats_in_sorted_rows,
    _sort_rows,
    collision_count,
    count_C_exact,
    gen_C_model,
    gen_constrained,
    gen_unconstrained,
    sample_truncated_poisson,
)
from xorsatlab.peel import two_core
from xorsatlab.rng import Seed

CHI2_SIGNIFICANCE = 1e-3


class TestUnconstrained:
    def test_k_equals_n_rows_are_full(self):
        inst = gen_unconstrained(4, 6, 4, Seed(1))
        assert all(row == [0, 1, 2, 3] for row in inst.rows)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            gen_unconstrained(5, 3, 4, Seed(0))

    def test_determinism(self):
        a = gen_unconstrained(3, 500, 400, Seed(7, 3))
        b = gen_unconstrained(3, 500, 400, Seed(7, 3))
        assert a.to_bytes() == b.to_bytes()
        c = gen_unconstrained(3, 500, 400, Seed(7, 4))
        assert c.to_bytes() != a.to_bytes()

    def test_degree_distribution_chi2(self):
        from scipy.stats import binom

        k, m, n = 3, 10_000, 10_000
        inst = gen_unconstrained(k, m, n, Seed(2024))
        degrees = np.zeros(n, dtype=np.int64)
        for row in inst.rows:
            for v in row:
                degrees[v] += 1
        buckets = 20
        observed = np.bincount(np.minimum(degrees, buckets - 1), minlength=buckets)
        pmf = binom.pmf(np.arange(buckets - 1), m, k / n)
        expected = np.append(pmf, 1.0 - pmf.sum()) * n
        assert chi2_pvalue(observed, expected) > CHI2_SIGNIFICANCE

    def test_rhs_unbiased(self):
        inst = gen_unconstrained(3, 20_000, 5_000, Seed(5))
        frac = np.mean(inst.rhs)
        assert abs(frac - 0.5) < 5 * 0.5 / math.sqrt(20_000)


class TestTruncatedPoisson:
    def test_small_lambda_limit(self):
        draws = sample_truncated_poisson(1e-3, rng=Seed(3).generator(), size=100_000)
        assert (draws == 2).mean() >= 0.999

    def test_mean_matches_psi(self):
        lam = F.lambda_of(3.0)  # psi(lam) = 3
        draws = sample_truncated_poisson(lam, rng=Seed(4).generator(), size=100_000)
        sd = math.sqrt(F.var_Z(lam) / draws.size)
        assert abs(draws.mean() - 3.0) < 3 * sd

    def test_variance_matches_formula(self):
        lam = 3.058
        draws = sample_truncated_poisson(lam, rng=Seed(6).generator(), size=300_000).astype(float)
        v = draws.var()
        target = F.var_Z(lam)
        assert lam / 3.0 <= target <= lam
        centered = draws - draws.mean()
        var_of_var = (centered**4).mean() - v * v
        assert abs(v - target) < 3 * math.sqrt(var_of_var / draws.size)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            sample_truncated_poisson(0.0, rng=Seed(0).generator())


class TestChipModel:
    def test_structural_invariants(self):
        alloc = gen_C_model(3, 600, 500, Seed(11))
        alloc.validate()
        deg = alloc.column_degrees()
        assert deg.min() >= 2 and deg.sum() == 1800
        rows = alloc.row_columns()
        assert rows.shape == (600, 3) and (np.diff(rows, axis=1) >= 0).all()

    def test_collision_count_trivial(self):
        spread = ChipAllocation(3, 2, 6, np.array([0, 1, 2, 3, 4, 5]))
        assert collision_count(spread) == 0
        # one cell with 3 chips, every other cell holding at most 1 -> C(3,2)
        triple = ChipAllocation(3, 2, 4, np.array([0, 0, 0, 1, 2, 3]))
        assert collision_count(triple) == 3
        mixed = ChipAllocation(3, 2, 2, np.array([0, 0, 0, 0, 1, 1]))
        assert collision_count(mixed) == 3 + 1
        # two cells with 2 chips each
        pairs = ChipAllocation(3, 2, 2, np.array([0, 0, 1, 0, 1, 1]))
        assert collision_count(pairs) == 2
        # against a tally of the (row, column) cells
        rng = np.random.default_rng(5)
        for k in range(1, 7):
            for n in (1, 3, 20):
                cols = rng.integers(0, n, size=40 * k)
                cells = Counter(zip(np.arange(40 * k) // k, cols.tolist()))
                assert collision_count(ChipAllocation(k, 40, n, cols)) == sum(c * (c - 1) // 2 for c in cells.values())

    def test_uniform_over_allocations(self):
        # k=3, m=2, n=2: exactly 50 chip->column maps, all equally likely
        assert count_C_exact(3, 2, 2) == 50
        samples = 20_000
        counts = Counter()
        for i in range(samples):
            alloc = gen_C_model(3, 2, 2, Seed(77, i))
            counts[tuple(alloc.chip_columns.tolist())] += 1
        assert len(counts) == 50
        p = 1.0 / 50
        sigma = math.sqrt(samples * p * (1 - p))
        for key, cnt in counts.items():
            assert abs(cnt - samples * p) <= 5 * sigma
        assert chi2_pvalue(list(counts.values()), [samples * p] * 50) > CHI2_SIGNIFICANCE

    def test_degree_retry_count_near_local_limit_prediction(self):
        k, m, n = 3, 1000, 1000
        lam = F.lambda_of(k * m / n)
        predicted = math.sqrt(2 * math.pi * n * F.var_Z(lam))
        retries = [gen_C_model(k, m, n, Seed(13, i)).retries for i in range(300)]
        mean = np.mean(retries)
        assert predicted / 2 <= mean <= predicted * 2

    def test_mean_collisions_tracks_gamma(self):
        k, m, n = 3, 600, 500
        lam = F.lambda_of(k * m / n)
        g = F.gamma(k, lam)
        vals = [collision_count(gen_C_model(k, m, n, Seed(21, i))) for i in range(1500)]
        assert abs(np.mean(vals) - g) < 0.05 * g


class TestConstrained:
    def test_requires_enough_chips(self):
        with pytest.raises(ValueError):
            gen_constrained(3, 2, 4, Seed(0))
        with pytest.raises(ValueError):
            gen_constrained(5, 10, 4, Seed(0))

    def test_structure(self):
        inst = gen_constrained(3, 60, 50, Seed(9))
        inst.validate()
        deg = np.zeros(50, dtype=int)
        for row in inst.rows:
            assert len(set(row)) == 3
            for v in row:
                deg[v] += 1
        assert deg.min() >= 2

    def test_acceptance_rate_near_exp_neg_gamma(self):
        # scaled-down version; the full 10^4-attempt 15% gate runs in acceptance
        k, m, n = 3, 600, 500
        lam = F.lambda_of(k * m / n)
        target = math.exp(-F.gamma(k, lam))
        attempts = 3_000
        rng = Seed(31).generator()
        accepted = sum(
            collision_count(_gen_C(rng, k, m, n, _degrees(rng, _degree_law(k, m, n)))) == 0 for _ in range(attempts)
        )
        assert abs(accepted / attempts - target) < 0.25 * target

    def test_budget_error_has_diagnostics(self, monkeypatch):
        monkeypatch.setattr(instances_module, "_MAX_REJECTIONS", 1)
        with pytest.raises(RejectionBudgetError) as err:
            gen_constrained(3, 600, 500, Seed(1))
        assert "acceptance" in str(err.value)
        # k = 2 has no gamma: the budget error reads nan instead of failing in gamma
        monkeypatch.setattr(instances_module, "_MAX_REJECTIONS", 0)
        with pytest.raises(RejectionBudgetError, match="expected acceptance ~nan"):
            gen_constrained(2, 30, 20, Seed(1))

    def test_uniform_over_tiny_spaces(self):
        # A_{3,3} with k=3 has a single matrix (rows forced to {0,1,2});
        # instances then differ only through the 8 equally likely rhs vectors
        samples = 2500
        counts = Counter()
        for i in range(samples):
            inst = gen_constrained(3, 3, 3, Seed(41, i))
            assert inst.rows == [[0, 1, 2]] * 3
            counts[tuple(inst.rhs)] += 1
        assert chi2_pvalue(list(counts.values()), [samples / 8] * 8) > CHI2_SIGNIFICANCE

    def test_uniform_over_A_3rows_4cols(self):
        # enumerate A_{m=3,n=4} for k=3 by brute force, then chi-square
        space = []
        triples = list(combinations(range(4), 3))
        for rows in product(triples, repeat=3):
            deg = [0] * 4
            for row in rows:
                for v in row:
                    deg[v] += 1
            if min(deg) >= 2:
                space.append(rows)
        assert len(space) == 24
        samples = 8_000
        counts = Counter()
        for i in range(samples):
            inst = gen_constrained(3, 3, 4, Seed(43, i))
            counts[tuple(tuple(r) for r in inst.rows)] += 1
        assert set(counts) <= set(space)
        observed = [counts.get(key, 0) for key in space]
        assert chi2_pvalue(observed, [samples / 24] * 24) > CHI2_SIGNIFICANCE


def _has_row_duplicate_by_sorting(chip_columns, k, m):
    """The sort-based check `_has_row_duplicate` replaced, kept as its oracle."""
    cols = np.sort(chip_columns.reshape(m, k), axis=1)
    return bool((np.diff(cols, axis=1) == 0).any())


class TestSamplerInternals:
    @pytest.mark.parametrize(
        "k,m,n", [(3, 2, 2), (3, 4, 4), (3, 10, 8), (2, 50, 40), (4, 30, 50), (5, 24, 40), (3, 40, 30)]
    )
    def test_hit_probability_matches_exact_count(self, k, m, n):
        # P(S_n = km) = |allocations| lam^km / ((km)! f(lam)^n) for i.i.d. truncated Poissons
        km = k * m
        lam = F.lambda_of(km / n)
        exact = float(Fraction(count_C_exact(k, m, n), math.factorial(km))) * lam**km / F.f(lam) ** n
        assert _hit_probability(lam, n, km) == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("total", [12, 13])
    def test_degree_multisets_follow_conditioned_law(self, total):
        # n = 4 i.i.d. truncated Poissons given their sum: P(d) is proportional
        # to prod 1/d_i! over vectors with entries >= 2 summing to total
        n = 4
        law = Counter()
        for d in product(range(2, total + 1), repeat=n):
            if sum(d) == total:
                law[tuple(sorted(d))] += Fraction(1, math.prod(math.factorial(x) for x in d))
        degree_law = _degree_law(1, total, n)
        stream = _degrees(np.random.default_rng(total), degree_law)
        samples = 20_000
        counts = Counter()
        tries = 0
        for _ in range(samples):
            degrees, t = next(stream)
            counts[tuple(degrees.tolist())] += 1
            tries += t
        assert set(counts) <= set(law)
        weight = sum(law.values())
        keys = sorted(law)
        expected = [samples * float(law[key] / weight) for key in keys]
        assert chi2_pvalue([counts.get(key, 0) for key in keys], expected) > CHI2_SIGNIFICANCE
        # the candidate counts are Geometric(p_hit): mean 1/p_hit, sd sqrt(1-p)/p
        p_hit = degree_law.p_hit
        assert abs(tries / samples - 1 / p_hit) < 5 * math.sqrt((1 - p_hit) / samples) / p_hit

    def test_chip_streams_pinned(self):
        # the draws of the degree generator, the chip sampler and the
        # constrained sampler, as produced by the queue-based degree stream
        # the generator replaced; (2, 30, 30) is the km = 2n case
        h = hashlib.sha256()
        for k, m, n in [(3, 40, 30), (4, 1100, 1000), (2, 30, 30)]:
            for degrees, count in islice(_degrees(Seed(k, n).generator(), _degree_law(k, m, n)), 300):
                h.update(degrees.astype("<i8").tobytes())
                h.update(count.to_bytes(8, "little"))
        assert h.hexdigest() == "0d4a9fbb6ec9bc9b2563c458117b2afe81f85e69cebf4607a2c4bb1d6e7d18e9"
        h = hashlib.sha256()
        for i in range(50):
            h.update(gen_C_model(3, 80, 60, Seed(17, i)).chip_columns.astype("<i8").tobytes())
        assert h.hexdigest() == "437cc5995ee19d37d35bd2af63d6a9a93f1afea762e5ba115891e10d575c5502"
        h = hashlib.sha256()
        for i in range(30):
            h.update(gen_constrained(3, 44, 40, Seed(3, i)).to_bytes())
        assert h.hexdigest() == "5b55fcd6e7a38ad96a0a095755526e5b6870beddbce41069a05001773d61f5eb"

    def test_unconstrained_stream_pinned(self):
        # the draws of the unconstrained sampler, as produced by its earlier
        # np.diff duplicate check; at n close to 2k a third to most of the
        # first draw's rows hold a repeat, so the redraw loop runs many times
        h = hashlib.sha256()
        shapes = [(k, 50, n) for k in (3, 4, 5) for n in range(2 * k, 13)]
        shapes += [(1, 50, n) for n in (2, 5, 12)] + [(3, 0, 6), (1, 0, 1)]
        for k, m, n in shapes:
            for i in range(5):
                h.update(gen_unconstrained(k, m, n, Seed(100 * k + n, i)).to_bytes())
        assert h.hexdigest() == "d14ca83b9265f6affbe2d388888e2abbe4688e37ed39b60607b45c47ca67549e"

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_row_duplicate_check_matches_sorting(self, k):
        rng = np.random.default_rng(k)
        for trial in range(200):
            m = int(rng.integers(1, 40))
            n = int(rng.integers(k, 4 * k + 60))
            # distinct rows, then plant one duplicate pair in one row in half the trials
            cols = np.array([rng.choice(n, k, replace=False) for _ in range(m)], dtype=np.int64)
            if k > 1 and trial % 2:
                row, (a, b) = rng.integers(m), rng.choice(k, 2, replace=False)
                cols[row, a] = cols[row, b]
            flat = cols.ravel()
            assert _has_row_duplicate(flat, k, m) == _has_row_duplicate_by_sorting(flat, k, m)
            assert _has_row_duplicate(flat, k, m) == bool(k > 1 and trial % 2)
            # unconstrained draws: duplicates wherever chance puts them
            flat = rng.integers(0, n, size=m * k)
            assert _has_row_duplicate(flat, k, m) == _has_row_duplicate_by_sorting(flat, k, m)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_sort_rows_matches_numpy_sort(self, k):
        rng = np.random.default_rng(40 + k)
        top = np.iinfo(np.int64).max
        cases = [
            np.zeros((0, k), dtype=np.int64),
            rng.integers(0, 1000, size=(500, k)),
            # more than two blocks of the sorting network, the last one short
            rng.integers(0, 1000, size=(2 * _SORT_BLOCK + 7, k)),
            # few values: many rows repeat an index, some several times
            rng.integers(0, 3, size=(500, k)),
            # near the int64 maximum, repeats included
            top - rng.integers(0, 4, size=(500, k)),
            np.array([[top - j % 2 for j in range(k)], [top] * k, [-top - 1] + [top] * (k - 1)], dtype=np.int64),
        ]
        for rows in cases:
            want = np.sort(rows, axis=1)
            got = rows.copy()
            _sort_rows(got)
            assert np.array_equal(got, want)
            # equal values end up adjacent, so the repeat check flags the same rows
            has_repeat = np.array([len(set(row)) < k for row in rows.tolist()], dtype=bool)
            assert np.array_equal(_repeats_in_sorted_rows(got), has_repeat)


class TestAllocationCounts:
    def test_single_column(self):
        assert count_C_exact(3, 2, 1) == 1

    def test_brute_force_agreement(self):
        for k, m, n in [(3, 2, 2), (3, 2, 3), (2, 4, 3), (3, 4, 2)]:
            km = k * m
            expected = 0
            for assign in product(range(n), repeat=km):
                tallies = [0] * n
                for col in assign:
                    tallies[col] += 1
                expected += all(t >= 2 for t in tallies)
            assert count_C_exact(k, m, n) == expected

    def test_log_matches_asymptotic_form(self):
        # (km)! f(lam)^n / lam^{km} / sqrt(2 pi n Var Z) within 5%
        k, m, n = 3, 100, 100
        got = count_C_exact(k, m, n)
        assert got == dp_power(terms_ge2(k * m), n, k * m)[k * m]
        lam = F.lambda_of(k * m / n)
        approx = (
            math.lgamma(k * m + 1)
            + n * math.log(F.f(lam))
            - k * m * math.log(lam)
            - 0.5 * math.log(2 * math.pi * n * F.var_Z(lam))
        )
        assert abs(math.exp(math.log(got) - approx) - 1.0) < 0.05

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            count_C_exact(3, 300, 100)


class TestSerialization:
    def test_json_round_trip(self):
        inst = gen_constrained(3, 20, 18, Seed(8, 2))
        again = Instance.loads(inst.dumps())
        assert again == inst

    def test_binary_round_trip(self):
        for model_gen in (
            lambda: gen_unconstrained(4, 30, 40, Seed(1, 5)),
            lambda: gen_constrained(3, 25, 20, Seed(2, 5)),
        ):
            inst = model_gen()
            blob = inst.to_bytes()
            again = Instance.from_bytes(blob)
            assert again == inst
            assert again.to_bytes() == blob

    def test_seed_outside_u64_is_stored_as_its_key(self):
        # a seed is its Philox key, the pair mod 2**64: it draws, compares and serializes as that key
        inst = gen_unconstrained(3, 6, 10, Seed(-1, 2))
        assert inst.seed == Seed(2**64 - 1, 2) == Seed(2**65 - 1, 2**64 + 2)
        assert inst == gen_unconstrained(3, 6, 10, Seed(2**64 - 1, 2))
        assert Instance.from_bytes(inst.to_bytes()) == inst
        assert inst.to_json_dict()["seed"] == {"master": 2**64 - 1, "stream": 2}

    def test_binary_rejects_garbage(self):
        with pytest.raises(ValueError):
            Instance.from_bytes(b"NOPE" + b"\x00" * 20)

    @pytest.mark.parametrize("rows, message", [([[2, 1, 0]], "row indices must be strictly increasing"),
                                               ([[-1, 1, 2]], "variable index -1 out of range")],
                             ids=["decreasing_row", "negative_first_index"])
    def test_binary_writer_refuses_a_negative_varint(self, rows, message):
        # a negative varint never ends, so the writer runs in a child with a
        # timeout and an address-space cap: a regression fails, not hangs
        code = (
            "from xorsatlab.errors import InstanceFormatError\n"
            "from xorsatlab.instances import Instance\n"
            f"inst = Instance(3, 5, 1, {rows!r}, [0], 'unconstrained')\n"
            "try:\n"
            "    inst.to_bytes()\n"
            "except InstanceFormatError as exc:\n"
            "    print(exc)\n"
        )
        proc = run_capped_child(code)
        assert (proc.returncode, proc.stdout) == (0, message + "\n"), proc.stderr

    def test_binary_writer_refuses_a_size_made_negative(self):
        # the constructor refuses n < 0, but the field can be set afterwards
        code = (
            "from xorsatlab.errors import InstanceFormatError\n"
            "from xorsatlab.instances import Instance\n"
            "inst = Instance(3, 5, 0, [], [], 'unconstrained')\n"
            "inst.n = -1\n"
            "try:\n"
            "    inst.to_bytes()\n"
            "except InstanceFormatError as exc:\n"
            "    print(exc)\n"
        )
        proc = run_capped_child(code)
        assert (proc.returncode, proc.stdout) == (0, "need k >= 1 and n >= 0, got k=3, n=-1\n"), proc.stderr

    @pytest.mark.parametrize("rows, message", [([[0, 0, 1]], "row indices must be strictly increasing"),
                                               ([[0, 1, 7]], "variable index 7 out of range")],
                             ids=["repeated_index", "index_past_n"])
    def test_writers_refuse_what_their_readers_refuse(self, rows, message):
        inst = Instance(3, 5, 1, rows, [0], "unconstrained")
        for write in (inst.to_bytes, inst.dumps, inst.to_json_dict):
            with pytest.raises(InstanceFormatError, match=message):
                write()

    @pytest.mark.parametrize(
        "blob, message",
        [
            (b"XLI1\x03", "truncated varint"),
            (b"XLI1\x03\x04\x01", "truncated header"),
            (b"XLI1\x03\x04\x01\x02\x00", "bad model byte 2"),
            (b"XLI1\x03\x04\x01\x03\x00", "bad model byte 3"),
            (b"XLI1\x03\x04\x01\x00\x02", "bad seed flag 2"),
            (b"XLI1\x03\x04\x01\x00\x01\x00", "truncated seed"),
            (b"XLI1\x03\x04\x80\x00\x00\x00", "non-canonical varint"),
            # 2^63 rows in a 6-byte blob: refused before any row is read
            (b"XLI1\x03\x04\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01\x00\x00" + b"\x00" * 6, "cannot hold"),
            (b"XLI1\x03\x04\x01\x00\x00\x00\x01\x01\x00\x00", "expected 1 rhs bytes, found 2"),
            (b"XLI1\x03\x04\x01\x00\x00\x00\x01\x01\x02", "nonzero padding"),
            (b"XLI1\x03\x04\x01\x00\x00\x00\x01\x05\x00", "out of range"),
        ],
        ids=lambda v: v if isinstance(v, str) else "blob",
    )
    def test_binary_format_errors(self, blob, message):
        with pytest.raises(InstanceFormatError, match=message):
            Instance.from_bytes(blob)

    def test_json_format_errors(self):
        good = Instance(3, 4, 1, [[0, 1, 3]], [1], "unconstrained", Seed(2, 3)).to_json_dict()
        assert Instance.from_json_dict(good).to_json_dict() == good
        for d, message in [
            ([], "must be an object"),
            ({"k": 3, "n": 4}, "no 'm'"),
            ({**good, "m": "1"}, "'m' must be int, got '1'"),
            ({**good, "k": True}, "'k' must be int, got True"),
            ({**good, "rows": [[0, 1, 3.0]]}, r"'rows' must be list\[list\[int\]\]"),
            ({**good, "rhs": 1}, r"'rhs' must be list\[int\], got 1"),
            ({**good, "seed": {"stream": 1}}, "no 'master'"),
            ({**good, "seed": 5}, "'seed' must be"),
            ({**good, "extra": 1}, "unknown instance keys: extra"),
            ({**good, "seed": {"master": 2, "salt": 1}}, "unknown Seed keys: salt"),
            ({**good, "k": 0, "rows": [[]]}, "need k >= 1"),
            # refused by counting row slots, before a degree tally of 1e15 entries
            ({**good, "n": 10**15, "model_tag": "constrained"}, "degree < 2"),
        ]:
            with pytest.raises(InstanceFormatError, match=message):
                Instance.from_json_dict(d)
        with pytest.raises(InstanceFormatError, match="not JSON"):
            Instance.loads('{"k": 3')

    def test_validation_catches_bad_instances(self):
        inst = Instance(3, 5, 1, [[0, 1, 1]], [0], "unconstrained")
        with pytest.raises(ValueError):
            inst.validate()
        inst = Instance(3, 5, 1, [[0, 1, 2]], [0], "constrained")
        with pytest.raises(ValueError):
            inst.validate()
        relaxed = Instance(3, 5, 1, [[0, 1, 1]], [0], "relaxed_C")
        with pytest.raises(InstanceFormatError, match="^unknown model_tag 'relaxed_C'$"):
            relaxed.validate()
        Instance(2, 3, 1, [[np.int64(0), True]], [np.int64(1)], "unconstrained").validate()

    @pytest.mark.parametrize("bad", [1.0, 1.5, "1", None, np.float64(1.0)])
    def test_validation_refuses_a_non_integer_index(self, bad):
        # refused, not truncated to an integer index
        with pytest.raises(InstanceFormatError, match=f"^variable index {re.escape(repr(bad))} is not an integer$"):
            Instance(2, 3, 1, [[0, bad]], [0], "unconstrained").validate()


class TestLhs:
    """`Instance.lhs` against `gf2.matvec` on the packed rows."""

    def test_matches_matvec_on_both_models(self, rng):
        from xorsatlab.gf2 import BitMatrix, matvec

        shapes = [(3, 40, 50), (4, 90, 60), (2, 0, 5)]  # (k, m, n); m = 0 gives an empty lhs
        cases = [gen_unconstrained(k, m, n, Seed(7, t)) for t, (k, m, n) in enumerate(shapes)]
        cases += [gen_constrained(k, m, n, Seed(8, t)) for t, (k, m, n) in enumerate([(3, 30, 40), (4, 50, 60)])]
        for inst in cases:
            mat = BitMatrix.from_sparse_rows(inst.n, inst.index)
            batch = rng.integers(0, 2, size=(inst.n, 17))
            got = inst.lhs(batch)
            assert got.shape == (inst.m, 17) and got.dtype == np.uint8
            for j in range(batch.shape[1]):
                want = matvec(mat, batch[:, j])
                assert np.array_equal(inst.lhs(batch[:, j]), want)
                assert np.array_equal(inst.lhs(batch[:, j].tolist()), want)
                assert np.array_equal(got[:, j], want)

    @pytest.mark.parametrize(
        "x, message",
        [([0, 2, 0, 1], "entries must be 0 or 1"), ([0, -1, 0, 1], "entries must be 0 or 1"),
         ([0, 1, 0], "length"), ([0, 1, 0, 1, 1], "length"), (np.zeros((3, 2)), "length"), (1, "length")],
        ids=["two", "minus_one", "short", "long", "short_batch", "scalar"],
    )
    def test_refuses_bad_assignments(self, x, message):
        inst = Instance(2, 4, 2, [[0, 1], [2, 3]], [0, 1], "unconstrained")
        with pytest.raises(ValueError, match=message):
            inst.lhs(x)


@st.composite
def small_instances(draw):
    """Valid instances of every model, small enough to mutate byte by byte."""
    model = draw(st.sampled_from(["unconstrained", "constrained"]))
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 9))
    m = draw(st.integers(0, 12))
    rows = [sorted(draw(st.sets(st.integers(0, n - 1), min_size=k, max_size=k))) for _ in range(m)]
    rhs = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    seed = draw(st.none() | st.builds(Seed, st.integers(-(2**65), 2**65), st.integers(-(2**65), 2**65)))
    inst = Instance(k, n, m, rows, rhs, model, seed)
    try:
        inst.validate()
    except InstanceFormatError:  # a constrained draw with a degree < 2
        inst.model_tag = "unconstrained"
    return inst


def _validate_by_loop(inst):
    """The per-index loop `Instance.validate` replaced, kept as its oracle; reads
    the fields of `inst`, an instance or the lists one would be built from."""
    if inst.model_tag not in ("unconstrained", "constrained"):
        raise InstanceFormatError(f"unknown model_tag {inst.model_tag!r}")
    if inst.k < 1 or inst.n < 0:
        raise InstanceFormatError(f"need k >= 1 and n >= 0, got k={inst.k}, n={inst.n}")
    rows, rhs = inst.rows, inst.rhs
    if len(rows) != inst.m or len(rhs) != inst.m:
        raise InstanceFormatError("row/rhs count does not match m")
    for row in rows:
        if len(row) != inst.k:
            raise InstanceFormatError("row weight does not match k")
        for a, b in zip(row, row[1:]):
            if b <= a:
                raise InstanceFormatError("row indices must be strictly increasing")
        for j in row:
            if not 0 <= j < inst.n:
                raise InstanceFormatError(f"variable index {j} out of range")
    if any(b not in (0, 1) for b in rhs):
        raise InstanceFormatError("rhs must be 0/1")
    if inst.model_tag == "constrained" and inst.n:
        km = inst.k * inst.m
        if 2 * inst.n > km or np.bincount(
            np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=km), minlength=inst.n
        ).min() < 2:
            raise InstanceFormatError("constrained instance has a variable of degree < 2")


_FAULTS = ["none", "ragged", "unsorted", "repeat", "negative", "too_large", "huge", "rhs", "extra_variable"]


def _fields_of(inst) -> SimpleNamespace:
    """The constructor arguments of `inst`, with its rows and rhs as fresh lists."""
    return SimpleNamespace(
        k=inst.k, n=inst.n, m=inst.m, rows=inst.rows, rhs=inst.rhs, model_tag=inst.model_tag, seed=inst.seed)


@st.composite
def instances_with_one_fault(draw):
    """(fault, fields): the fields of a valid instance, as lists, with at most
    one fault injected into one row, the rhs or n.  The lists are made faulty
    before any instance is built from them, since an `Instance` stores arrays
    and its `rows`/`rhs` are copies.

    An extra variable has degree 0, a fault only under constrained, so it
    comes with the constrained tag half of the time."""
    inst = draw(small_instances().filter(lambda inst: inst.m > 0))
    fields = _fields_of(inst)
    fault = draw(st.sampled_from(_FAULTS))
    row = fields.rows[draw(st.integers(0, inst.m - 1))]
    at = draw(st.integers(0, inst.k - 1))
    if fault == "ragged" and draw(st.booleans()):
        row.insert(at, row[at])
    elif fault == "ragged":
        row.pop(at)
    elif fault == "unsorted":
        row.reverse()
    elif fault == "repeat" and inst.k > 1:
        at = max(at, 1)
        row[at] = row[at - 1]
    elif fault == "negative":
        row[at] = draw(st.integers(-3, -1))
    elif fault == "too_large":
        row[at] = inst.n + draw(st.integers(0, 2))
    elif fault == "huge":
        row[at] = draw(st.sampled_from([2**70, -(2**70), 2**63]))
    elif fault == "rhs":
        fields.rhs[draw(st.integers(0, inst.m - 1))] = 2
    elif fault == "extra_variable":
        fields.n += 1
        if draw(st.booleans()):
            fields.model_tag = "constrained"
    return fault, fields


def _build(fields, rows=None, rhs=None) -> Instance:
    """An instance from `fields`, with its rows and rhs replaced when given."""
    return Instance(fields.k, fields.n, fields.m, fields.rows if rows is None else rows,
                    fields.rhs if rhs is None else rhs, fields.model_tag, fields.seed)


def _build_and_validate(fields, **arrays) -> None:
    _build(fields, **arrays).validate()


def _refusal(validate, inst):
    try:
        validate(inst)
    except InstanceFormatError as exc:
        return str(exc)
    return None


@st.composite
def mutated_blobs(draw):
    blob = bytearray(draw(small_instances()).to_bytes())
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["truncate", "set", "insert", "append"]))
        at = draw(st.integers(0, len(blob)))
        if op == "truncate":
            del blob[at:]
        elif op == "set" and at < len(blob):
            blob[at] = draw(st.integers(0, 255))
        elif op == "insert":
            blob[at:at] = draw(st.binary(min_size=1, max_size=3))
        else:
            blob += draw(st.binary(min_size=1, max_size=3))
    return bytes(blob)


def _json_containers(inner):
    """One level of JSON nesting around `inner`: a list or an object of it."""
    return st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**65) | st.floats(allow_nan=False) | st.text(max_size=3),
    _json_containers,
    max_leaves=12,
)


@st.composite
def mutated_json(draw):
    d = draw(small_instances()).to_json_dict()
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(sorted(d) + ["master", "stream"]))
        if key in ("master", "stream"):
            if isinstance(d.get("seed"), dict):
                d["seed"] = {**d["seed"], key: draw(_json_values)}
        elif draw(st.booleans()):
            del d[key]
        else:
            d[key] = draw(_json_values)
    return d


class TestFormatFuzz:
    """Any byte string or JSON object either round-trips or raises InstanceFormatError."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(max_size=40), st.binary(max_size=40).map(lambda b: b"XLI1" + b), mutated_blobs()))
    def test_bytes_round_trip_or_format_error(self, blob):
        try:
            inst = Instance.from_bytes(blob)
        except InstanceFormatError:
            return
        assert inst.to_bytes() == blob

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_json_values, mutated_json()))
    def test_json_round_trip_or_format_error(self, d):
        try:
            inst = Instance.from_json_dict(d)
        except InstanceFormatError:
            return
        assert Instance.loads(inst.dumps()) == inst
        blob = inst.to_bytes()
        assert Instance.from_bytes(blob).to_bytes() == blob

    def test_validate_matches_the_loop(self):
        refused = set()

        @settings(max_examples=400, deadline=None)
        @given(instances_with_one_fault())
        def check(case):
            fault, fields = case
            message = _refusal(_build_and_validate, fields)
            assert message == _refusal(_validate_by_loop, fields)
            if message is not None:
                refused.add(fault)

        check()
        # the faults reach the instance: each kind is refused at least once
        assert refused == set(_FAULTS) - {"none"}

    @settings(max_examples=50, deadline=None)
    @given(small_instances())
    def test_valid_instances_round_trip(self, inst):
        assert Instance.from_bytes(inst.to_bytes()) == inst
        assert Instance.loads(inst.dumps()) == inst


def _arrays_of(fields) -> dict:
    """The rows and rhs of `fields` as an (m, k) int64 and an (m,) uint8 array."""
    return {"rows": np.array(fields.rows, dtype=np.int64).reshape(fields.m, fields.k),
            "rhs": np.array(fields.rhs, dtype=np.uint8)}


def assert_lists_and_arrays_agree(fields, rng) -> None:
    """Built from lists or from arrays, one instance refuses with the same
    message or serializes, peels and evaluates the same."""
    arrays = _arrays_of(fields)
    refusal = _refusal(_build_and_validate, fields)
    assert _refusal(lambda f: _build_and_validate(f, **arrays), fields) == refusal
    if refusal is not None:
        return
    a, b = _build(fields), _build(fields, **arrays)
    assert a == b and a.rows == fields.rows and b.rhs == fields.rhs
    assert a.dumps() == b.dumps() and a.to_bytes() == b.to_bytes()
    (core_a, trace_a), (core_b, trace_b) = two_core(a), two_core(b)
    assert (core_a, trace_a) == (core_b, trace_b)
    assert core_a.dumps() == core_b.dumps() and trace_a.dumps(a) == trace_b.dumps(b)
    x = rng.integers(0, 2, size=(a.n, 5))
    assert np.array_equal(a.lhs(x), b.lhs(x))


class TestArrayStorage:
    """An instance stores (m, k) int64 rows and uint8 rhs bits, whether it was built from lists or arrays."""

    @settings(max_examples=200, deadline=None)
    @given(small_instances())
    def test_lists_and_arrays_agree_on_valid_instances(self, inst):
        assert_lists_and_arrays_agree(_fields_of(inst), np.random.default_rng(0))

    @settings(max_examples=200, deadline=None)
    @given(instances_with_one_fault().filter(lambda case: case[0] not in ("ragged", "huge")))
    def test_lists_and_arrays_agree_on_faulty_instances(self, case):
        assert_lists_and_arrays_agree(case[1], np.random.default_rng(0))

    def test_lists_and_arrays_agree_on_sampler_draws(self, rng):
        draws = [gen_unconstrained(k, m, n, Seed(31, t)) for t, (k, m, n) in enumerate(
            [(3, 90, 100), (3, 130, 150), (4, 70, 80), (3, 5, 4), (2, 0, 5)])]  # (3, 5, 4) takes the dense branch
        draws += [gen_constrained(k, m, n, Seed(32, t)) for t, (k, m, n) in enumerate([(3, 40, 50), (4, 60, 80)])]
        for inst in draws:
            assert inst.index.dtype == np.int64 and inst.index.flags.c_contiguous and inst.bits.dtype == np.uint8
            assert inst.index.shape == (inst.m, inst.k) and inst.bits.shape == (inst.m,)
            fields = _fields_of(inst)
            assert_lists_and_arrays_agree(fields, rng)
            assert _build(fields) == inst and _build(fields, **_arrays_of(fields)) == inst

    def test_rows_and_rhs_are_copies(self):
        inst = Instance(2, 4, 2, [[0, 1], [2, 3]], [0, 1], "unconstrained")
        inst.rows[0][0] = 3
        inst.rhs[0] = 1
        assert inst.rows == [[0, 1], [2, 3]] and inst.rhs == [0, 1]
        with pytest.raises(AttributeError):
            inst.rows = [[1, 2], [2, 3]]

    @pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.int64])
    def test_integer_arrays_are_stored_as_int64(self, dtype):
        inst = Instance(2, 4, 2, np.array([[0, 1], [2, 3]], dtype=dtype), np.array([0, 1]), "unconstrained")
        inst.validate()
        assert inst.index.dtype == np.int64 and inst.bits.dtype == np.uint8
        assert inst == Instance(2, 4, 2, [[0, 1], [2, 3]], [0, 1], "unconstrained")

    @pytest.mark.parametrize("rows, rhs, message", [
        ([[0, 1], [2]], [0, 1], "^row weight does not match k$"),
        ([[0, 2**70], [2, 3]], [0, 1], f"^variable index {2**70} out of range$"),
        ([[2**70, 2**71], [2, 3]], [0, 1], f"^variable index {2**70} out of range$"),
        ([[2**70, 1], [2, 3]], [0, 1], "^row indices must be strictly increasing$"),
        (np.array([[0, 2**63 + 1], [2, 3]], dtype=np.uint64), [0, 1], f"^variable index {2**63 + 1} out of range$"),
        ([[0, 1], [2, 3]], [0, -1], "^rhs must be 0/1$"),
        ([[0, 1], [2, 3]], [2**70, 1], "^rhs must be 0/1$"),
        ([[0, 1], [2, 3]], [0, "1"], "^rhs must be 0/1$"),
    ], ids=["ragged", "beyond_int64", "two_beyond_int64", "beyond_int64_unsorted", "uint64", "rhs_negative",
            "rhs_beyond_int64", "rhs_str"])
    def test_constructor_refuses_what_no_array_holds(self, rows, rhs, message):
        with pytest.raises(InstanceFormatError, match=message):
            Instance(2, 4, 2, rows, rhs, "unconstrained")

    def test_uint8_rhs_above_one_is_refused_by_validate(self):
        inst = Instance(2, 4, 2, [[0, 1], [2, 3]], np.array([0, 2], dtype=np.uint8), "unconstrained")
        with pytest.raises(InstanceFormatError, match="^rhs must be 0/1$"):
            inst.validate()

    def test_validate_names_the_first_index_out_of_range(self):
        for rows in ([[0, 5], [-2, 7]], np.array([[0, 5], [-2, 7]], dtype=np.int32)):
            inst = Instance(2, 4, 2, rows, [0, 1], "unconstrained")
            assert _refusal(Instance.validate, inst) == _refusal(_validate_by_loop, inst) == "variable index 5 out of range"

    def test_absurd_k_without_rows_is_refused(self):
        with pytest.raises(InstanceFormatError, match="too large"):
            Instance(2**70, 2**71, 0, [], [], "unconstrained")
        with pytest.raises(InstanceFormatError, match="need k >= 1"):
            Instance(-1, 3, 0, [], [], "unconstrained")
