"""Closed forms versus the BFS oracle, plus the near-balanced case records."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

from linewiener import (
    BalancedQuipu,
    CASES,
    ParameterError,
    Path,
    Spider,
    SubdividedQuipu,
    balanced_spider_case,
    build,
    d2_quipu,
    d2_spider,
    d2_ua,
    deficit_quotient,
    iterated_line_graph,
    path_deficit,
    r2_path,
    spider_case_arms,
    w_path,
    w_quipu,
    w_spider,
    w_ua,
)

from linewiener._fast import wiener2_tree_layout, wiener_tree_layout

from oracles import level_sequence, naive_wiener


def oracle_w_and_d2(g):
    w = naive_wiener(g)
    w2 = naive_wiener(iterated_line_graph(g, 2))
    return w, w - w2


def test_path_closed_forms_against_oracle():
    for n in range(1, 41):
        assert w_path(n) == naive_wiener(build(Path(n)))
    for n in range(3, 41):
        g2 = iterated_line_graph(build(Path(n)), 2)
        w2 = naive_wiener(g2) if g2.vertex_count else 0
        assert r2_path(n) == Fraction(w2, w_path(n))
        assert path_deficit(n) == 1 - r2_path(n)


def test_path_frozen_values():
    assert w_path(22) == 1771
    assert r2_path(22) == Fraction(190, 253)
    assert path_deficit(22) == Fraction(126, 506)  # reduces to 63/253


def test_spider_closed_forms_against_oracle():
    for arms in itertools.product(range(1, 5), repeat=3):
        w, d2 = oracle_w_and_d2(build(Spider(*arms)))
        assert w_spider(*arms) == w, arms
        if min(arms) >= 2:
            assert d2_spider(*arms) == d2, arms


def test_spider_frozen_values():
    assert w_spider(7, 7, 7) == 1428
    assert d2_spider(7, 7, 7) == 357
    assert w_spider(3, 4, 5) == 304
    assert d2_spider(3, 4, 5) == 113
    assert w_spider(1, 1, 1) == 9  # the 4-star


def test_spider_formulas_are_symmetric():
    for perm in itertools.permutations((2, 5, 7)):
        assert w_spider(*perm) == w_spider(2, 5, 7)
        assert d2_spider(*perm) == d2_spider(2, 5, 7)


def test_quipu_closed_forms_against_oracle():
    # the d2 coefficients came from this exact comparison; a quartic fit
    # is overdetermined well before a = 12
    for a in range(2, 13):
        w, d2 = oracle_w_and_d2(build(BalancedQuipu(a)))
        assert w_quipu(a) == w
        assert d2_quipu(a) == d2


def test_quipu_frozen_values():
    assert w_quipu(2) == 68
    assert [d2_quipu(a) for a in range(2, 10)] == [
        22, 61, 139, 276, 496, 827, 1301, 1954,
    ]


def test_subdivided_quipu_closed_forms_against_oracle():
    for a in range(2, 11):
        w, d2 = oracle_w_and_d2(build(SubdividedQuipu(a)))
        assert w_ua(a) == w, a
        assert d2_ua(a) == d2, a


def test_subdivided_quipu_closed_forms_against_tree_kernels():
    for a in range(2, 201):
        layout = level_sequence(build(SubdividedQuipu(a)))
        w = wiener_tree_layout(layout)
        assert w_ua(a) == w, a
        assert d2_ua(a) == w - wiener2_tree_layout(layout), a


# 6(D2 n(n+1) - 6(n-1) W) at n = a^2 + 3a, highest power first: its sign
# is the sign of U_a's deficit gap over the path, since W n(n+1) > 0
UA_CERTIFICATE = (1, 0, -60, -216, -136, 144, 15, 0, 0)


def ua_certificate(a):
    return sum(c * a ** (8 - i) for i, c in enumerate(UA_CERTIFICATE))


def test_subdivided_quipu_beats_the_path_iff_a_is_at_least_ten():
    # both sides have degree 8 in a, so agreeing at 10 points makes them
    # the same polynomial
    for a in range(2, 12):
        n = a * a + 3 * a
        gap = 6 * (d2_ua(a) * n * (n + 1) - 6 * (n - 1) * w_ua(a))
        assert gap == ua_certificate(a), a
    # Cauchy: every root has |a| < 1 + max |c_i| / c_0 = 217, so past 217
    # the leading term decides and the certificate stays positive
    bound = 1 + max(map(abs, UA_CERTIFICATE[1:])) // UA_CERTIFICATE[0]
    assert bound == 217
    for a in range(2, bound + 1):
        assert (ua_certificate(a) > 0) == (a >= 10), a


def test_parameter_validation():
    for call in (
        lambda: w_path(0),
        lambda: r2_path(2),
        lambda: path_deficit(1),
        lambda: w_spider(0, 1, 1),
        lambda: d2_spider(1, 2, 2),
        lambda: w_quipu(1),
        lambda: d2_quipu(0),
        lambda: w_ua(1),
        lambda: d2_ua(1),
        lambda: balanced_spider_case(1, "i"),
        lambda: balanced_spider_case(3, "iv"),
        lambda: spider_case_arms(3, "II"),
    ):
        with pytest.raises(ParameterError):
            call()


def test_case_arms_and_orders():
    assert spider_case_arms(4, "i") == (4, 4, 4)
    assert spider_case_arms(4, "ii") == (4, 4, 5)
    assert spider_case_arms(4, "iii") == (4, 5, 5)
    for a in range(2, 6):
        for case, n in zip(CASES, (3 * a + 1, 3 * a + 2, 3 * a + 3)):
            values = balanced_spider_case(a, case)
            assert values.n == n
            assert sum(spider_case_arms(a, case)) + 1 == n


def test_case_records_agree_with_generic_formulas():
    for a in range(2, 13):
        for case in CASES:
            arms = spider_case_arms(a, case)
            values = balanced_spider_case(a, case)
            assert values.w == w_spider(*arms)
            assert values.d2 == d2_spider(*arms)
            assert values.one_minus_r2_tree == Fraction(values.d2, values.w)
            assert values.one_minus_r2_path == path_deficit(values.n)


def test_balanced_case_frozen_record():
    values = balanced_spider_case(7, "i")
    assert (values.n, values.w, values.d2) == (22, 1428, 357)
    assert values.one_minus_r2_tree == Fraction(1, 4)
    assert values.one_minus_r2_path == Fraction(126, 506)
    assert values.beats_path


def test_beats_path_flips_at_seven():
    for case in CASES:
        assert not balanced_spider_case(6, case).beats_path
        assert balanced_spider_case(7, case).beats_path


def test_deficit_quotient_values():
    assert deficit_quotient(7, "i") == Fraction(253, 252)
    target = Fraction(15, 14)
    for case in CASES:
        assert deficit_quotient(2, case) < 1 < deficit_quotient(7, case)
        q100 = deficit_quotient(100, case)
        q1000 = deficit_quotient(1000, case)
        assert abs(q1000 - target) < Fraction(1, 100)
        assert abs(q1000 - target) < abs(q100 - target)


# case -> (P, the factors of D), coefficients highest power first, where
# (1 - R2(T)) - (1 - R2(P_n)) = P(a) / D(a) for the case's spider T: its
# two deficits cross-multiplied over their positive denominators. These
# make ROADMAP item 4's spider certificate, for every a >= 2
SPIDER_GAPS = {
    "i": ((9, -54, -33, -6), ((1, 1), (7, 2), (3, 1), (3, 2))),
    "ii": ((3, -17, -16, -4), ((1, 1), (1, 1), (7, 2), (3, 2))),
    "iii": ((3, -13, -32, -16), ((1, 1), (7, 16, 8), (3, 4))),
}


def poly(coefficients, a):
    """The polynomial with these coefficients, highest power first, at a."""
    value = 0
    for c in coefficients:
        value = value * a + c
    return value


@pytest.mark.parametrize("case", CASES)
def test_spider_gap_is_its_numerator_over_a_positive_denominator(case):
    # P is a cubic over D, so agreeing at 13 points, more than the 4 that
    # fix a cubic, makes a slip in any coefficient fail
    numerator, factors = SPIDER_GAPS[case]
    # D(a) > 0 for every a >= 0: each factor has positive coefficients
    assert all(c > 0 for factor in factors for c in factor)
    for a in [*range(2, 13), 100, 1000]:
        values = balanced_spider_case(a, case)
        gap = values.one_minus_r2_tree - values.one_minus_r2_path
        denominator = math.prod(poly(factor, a) for factor in factors)
        assert Fraction(poly(numerator, a), denominator) == gap, a


@pytest.mark.parametrize(
    "case, bound", [("i", 7), ("ii", Fraction(20, 3)), ("iii", Fraction(35, 3))]
)
def test_spider_beats_the_path_iff_a_is_at_least_seven(case, bound):
    # Cauchy: every root of P has |a| < 1 + max |c_i| / c_0, so from the
    # bound on the positive leading term decides and P stays positive;
    # below it, a = 2..12 are read one by one
    numerator, _ = SPIDER_GAPS[case]
    lead = numerator[0]
    assert lead > 0
    assert 1 + max(Fraction(abs(c), lead) for c in numerator[1:]) == bound
    assert bound <= 12
    for a in range(2, 13):
        assert poly(numerator, a) != 0, a
        assert (poly(numerator, a) > 0) == (a >= 7), a
        assert balanced_spider_case(a, case).beats_path == (a >= 7), a


@pytest.mark.parametrize("case", CASES)
def test_deficit_quotient_limit_is_exactly_15_14(case):
    # n = 3a + r, so the path deficit 6(n-1) / (n(n+1)) is 2/a to leading
    # order; the tree deficit adds P / D, a cubic over a quartic, so it is
    # (2 + lead(P) / lead(D)) / a = 15 / (7a); the quotient tends to the
    # ratio of the two leading terms
    numerator, factors = SPIDER_GAPS[case]
    assert len(numerator) - 1 == 3
    assert sum(len(factor) - 1 for factor in factors) == 4
    path_lead = Fraction(6, 3)
    tree_lead = path_lead + Fraction(
        numerator[0], math.prod(factor[0] for factor in factors)
    )
    assert (tree_lead, path_lead) == (Fraction(15, 7), 2)
    assert tree_lead / path_lead == Fraction(15, 14)
    # and the quotient is 1 + (P / D) / (1 - R2(P_n)), exactly
    for a in (2, 7, 100):
        n = balanced_spider_case(a, case).n
        gap = Fraction(
            poly(numerator, a),
            math.prod(poly(factor, a) for factor in factors),
        )
        assert deficit_quotient(a, case) == 1 + gap / path_deficit(n), a
