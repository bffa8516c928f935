import math
from itertools import product

import pytest

from conftest import run_capped_child
from xorsatlab.errors import BudgetExceededError
from xorsatlab.formulas import count_maps_even, count_maps_ge2, exact_a, exact_b
from xorsatlab.instances import count_C_exact

# The binomial-convolution DP the closed-form sums replaced, kept as the slow
# reference.  A series g(z) = sum_j g_j z^j / j! is stored by g_j = j! [z^j] g,
# so a product is (g * h)_t = sum_j C(t, j) g_j h_{t-j}.


def terms_ge2(order: int) -> list[int]:
    """j![z^j] of e^z - 1 - z."""
    return [0, 0] + [1] * (order - 1) if order >= 2 else [0] * (order + 1)


def terms_even_ge2(order: int) -> list[int]:
    """j![z^j] of cosh z - 1."""
    return [1 if j >= 2 and j % 2 == 0 else 0 for j in range(order + 1)]


def terms_exp(order: int, nu: int) -> list[int]:
    """j![z^j] of e^{nu z}."""
    return [nu**j for j in range(order + 1)]


def dp_convolve(a: list[int], b: list[int], order: int) -> list[int]:
    return [sum(math.comb(t, j) * a[j] * b[t - j] for j in range(t + 1)) for t in range(order + 1)]


def dp_power(terms: list[int], p: int, order: int) -> list[int]:
    """t![z^t] g(z)^p for t = 0..order, by binary powering."""
    result = [1] + [0] * order
    base = list(terms[: order + 1])
    while p:
        if p & 1:
            result = dp_convolve(result, base, order)
        p >>= 1
        if p:
            base = dp_convolve(base, base, order)
    return result


def brute_count_ge2(total: int, n_cols: int) -> int:
    """Enumerate chip->column maps where every column gets >= 2 chips."""
    count = 0
    for assign in product(range(n_cols), repeat=total):
        tallies = [0] * n_cols
        for col in assign:
            tallies[col] += 1
        count += all(t >= 2 for t in tallies)
    return count


def test_known_small_counts():
    # 6!(1/(2!4!) + 1/(3!3!) + 1/(4!2!)) = 15 + 20 + 15
    assert count_maps_ge2(2, 6) == 50
    # single column absorbs all chips
    assert count_maps_ge2(1, 6) == 1
    assert count_maps_ge2(1, 8) == 1
    # infeasible: fewer than 2 chips per column
    assert count_maps_ge2(3, 5) == 0


@pytest.mark.parametrize("total,n_cols", [(6, 2), (6, 3), (8, 2), (9, 3), (12, 2)])
def test_matches_brute_force_enumeration(total, n_cols):
    assert count_maps_ge2(n_cols, total) == brute_count_ge2(total, n_cols)


def test_even_series_parity():
    # coefficient of z^t in (cosh z - 1): 1/t! for even t >= 2, else 0
    for t in range(2, 12):
        expected = 1 if t % 2 == 0 else 0
        assert count_maps_even(1, t) == expected


def test_even_series_two_columns():
    # 6![z^6](cosh z - 1)^2: compositions (2,4),(4,2) -> 15 + 15
    assert count_maps_even(2, 6) == 30
    # odd total is impossible
    assert count_maps_even(2, 9) == 0


def test_exp_convolution_is_binomial_sum():
    # e^{3z} alone: t![z^t] = 3^t; e^{3z}(e^z - 1 - z): 4^t - 3^t - t 3^{t-1}
    assert count_maps_ge2(0, 5, 3) == 3**5
    assert count_maps_ge2(1, 5, 3) == 4**5 - 3**5 - 5 * 3**4


def test_sums_match_the_dp_on_a_grid():
    order = 39
    for p in range(12):
        fpow = dp_power(terms_ge2(order), p, order)
        for free in (0, 1, 3):
            want = dp_convolve(terms_exp(order, free), fpow, order)
            assert [count_maps_ge2(p, t, free) for t in range(order + 1)] == want, (p, free)
        want = dp_power(terms_even_ge2(order), p, order)
        assert [count_maps_even(p, t) for t in range(order + 1)] == want, p


def test_counts_past_the_old_log_range_are_exact():
    # orders 121..600 once went through a float log mode that returned -inf
    # for positive counts; one column gets every chip, two columns miss only
    # the splits that leave a column with 0 or 1 chips
    for k in range(2, 7):
        for m in range(121 // k + 1, 600 // k + 1):
            order = k * m
            assert count_C_exact(k, m, 1) == 1
            assert count_C_exact(k, m, 2) == 2**order - 2 - 2 * order
    # the criterion-10 point, (k, m, n) = (3, 100, 100)
    assert count_C_exact(3, 100, 100) == count_maps_ge2(100, 300) == dp_power(terms_ge2(300), 100, 300)[300]


def test_largest_admitted_count_is_exact():
    assert count_C_exact(2, 300, 300) == math.factorial(600) // 2**300


def test_infeasible_counts_are_zero():
    assert count_maps_ge2(4, 5) == 0
    assert count_maps_even(4, 7) == 0
    # a huge column count is refused by 2p > order before any sum runs
    assert count_C_exact(3, 2, 10**6) == 0
    assert exact_a(3, 2, 10**6) == 0
    assert exact_b(3, 40, 1, 1, 10**6) == 0


def test_negative_sizes_raise():
    # the DP looped forever on a negative power, so run in a capped child
    calls = [
        "count_maps_ge2(-1, 4)", "count_maps_ge2(1, -4)", "count_maps_ge2(1, 4, -1)",
        "count_maps_even(-1, 4)", "count_maps_even(1, -4)",
        "exact_b(3, 4, 1, 5, 3)", "exact_a(3, 2, -1)", "exact_EY(3, 4, -2, 1)",
        "count_C_exact(3, 2, -1)", "count_C_exact(3, -2, 1)",
    ]
    code = (
        "from xorsatlab.formulas import count_maps_even, count_maps_ge2, exact_a, exact_b, exact_EY\n"
        "from xorsatlab.instances import count_C_exact\n"
        f"for call in {calls!r}:\n"
        "    try:\n"
        "        eval(call)\n"
        "        print(call, 'returned')\n"
        "    except ValueError:\n"
        "        print(call, 'ValueError')\n"
    )
    proc = run_capped_child(code)
    assert (proc.returncode, proc.stdout) == (0, "".join(f"{c} ValueError\n" for c in calls)), proc.stderr


def test_budget_guards():
    with pytest.raises(BudgetExceededError):
        exact_a(3, 44, 1)
    with pytest.raises(BudgetExceededError):
        count_C_exact(3, 234, 1)
