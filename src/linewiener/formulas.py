"""Closed-form Wiener indices and second-iterate deficits, exact.

Everything here is integer or `fractions.Fraction` arithmetic; no floats.
Half-integer intermediates (the spider and quipu polynomials have them) are
evaluated over rationals and then checked integral rather than rearranged
by hand, so a transcription slip raises CrossCheckError instead of rounding.

Families covered:

* P_n, the path.
* T_{a,b,c}, the spider with three arms of a, b, c edges.
* Q_a, the balanced quipu: path on a+2 vertices whose a internal vertices
  each carry a pendant path of a vertices.
* U_a, the subdivided quipu: Q_a with both end spine edges subdivided into
  paths of a edges, order a^2 + 3a. `scan --case ua` needs no graph.

"Deficit" means 1 - R_2 = D_2/W where D_2 = W - W(L^2); a tree beats the
path at its order exactly when its deficit exceeds the path's.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .errors import CrossCheckError, ParameterError

CASES = ("i", "ii", "iii")


def _integral(value: Fraction, name: str, *args: int) -> int:
    """`value` as an int; a fraction here means a wrong closed form."""
    if value.denominator != 1:
        shown = ", ".join(map(str, args))
        raise CrossCheckError(f"{name}({shown}) = {value} is not integral")
    return int(value)


def w_path(n: int) -> int:
    """W(P_n) = (n-1)n(n+1)/6."""
    if n < 1:
        raise ParameterError(f"w_path needs n >= 1, got {n}")
    return (n - 1) * n * (n + 1) // 6


def r2_path(n: int) -> Fraction:
    """R_2(P_n) = (n-2)(n-3) / (n(n+1)).

    Rejects n < 3: the second line-graph iterate of P_2 is empty, so the
    ratio has no meaning there.
    """
    if n < 3:
        raise ParameterError(f"r2_path needs n >= 3, got {n}")
    return Fraction((n - 2) * (n - 3), n * (n + 1))


def path_deficit(n: int) -> Fraction:
    """1 - R_2(P_n) = 6(n-1) / (n(n+1)), the benchmark every tree is
    measured against."""
    if n < 3:
        raise ParameterError(f"path_deficit needs n >= 3, got {n}")
    return Fraction(6 * (n - 1), n * (n + 1))


def w_spider(a: int, b: int, c: int) -> int:
    """W(T_{a,b,c}) = s(s+1)(s+2)/6 - abc with s = a+b+c."""
    if min(a, b, c) < 1:
        raise ParameterError(f"w_spider needs arms >= 1, got {(a, b, c)}")
    s = a + b + c
    return s * (s + 1) * (s + 2) // 6 - a * b * c


def d2_spider(a: int, b: int, c: int) -> int:
    """D_2(T_{a,b,c}) = (a^2+b^2+c^2)/2 + 2(ab+ac+bc) - (a+b+c)/2.

    The formula is only established for arms of length >= 2, so shorter
    arms are rejected; compute those few trees with the BFS oracle instead.
    """
    if min(a, b, c) < 2:
        raise ParameterError(f"d2_spider needs arms >= 2, got {(a, b, c)}")
    value = (
        Fraction(a * a + b * b + c * c, 2)
        + 2 * (a * b + a * c + b * c)
        - Fraction(a + b + c, 2)
    )
    return _integral(value, "d2_spider", a, b, c)


def w_quipu(a: int) -> int:
    """W(Q_a) = (2/3)a^5 + a^4 + 2a^3 + (5/2)a^2 + (11/6)a + 1."""
    if a < 2:
        raise ParameterError(f"w_quipu needs a >= 2, got {a}")
    value = (
        Fraction(2, 3) * a**5
        + a**4
        + 2 * a**3
        + Fraction(5, 2) * a**2
        + Fraction(11, 6) * a
        + 1
    )
    return _integral(value, "w_quipu", a)


def d2_quipu(a: int) -> int:
    """D_2(Q_a) = (1/6)a^4 + a^3 + (4/3)a^2 + (5/2)a + 1.

    The coefficients are pinned by exact BFS computation on built quipus,
    and a quartic is overdetermined well before the a = 2..12 agreement the
    tests demand. The sub-leading terms are easy to mis-derive by hand, so
    treat the oracle comparison as the authority on them.
    """
    if a < 2:
        raise ParameterError(f"d2_quipu needs a >= 2, got {a}")
    value = (
        Fraction(1, 6) * a**4
        + a**3
        + Fraction(4, 3) * a**2
        + Fraction(5, 2) * a
        + 1
    )
    return _integral(value, "d2_quipu", a)


def w_ua(a: int) -> int:
    """W(U_a) = (2/3)a^5 + 4a^4 + (16/3)a^3 - (1/2)a^2 - (1/2)a."""
    if a < 2:
        raise ParameterError(f"w_ua needs a >= 2, got {a}")
    value = Fraction(2, 3) * a**5 + 4 * a**4 + Fraction(16, 3) * a**3
    value -= Fraction(1, 2) * a**2 + Fraction(1, 2) * a
    return _integral(value, "w_ua", a)


def d2_ua(a: int) -> int:
    """D_2(U_a) = (1/6)a^4 + 3a^3 + (19/3)a^2 - (9/2)a + 1, pinned like
    d2_quipu by BFS and by the O(n) tree kernels on built U_a."""
    if a < 2:
        raise ParameterError(f"d2_ua needs a >= 2, got {a}")
    value = Fraction(1, 6) * a**4 + 3 * a**3 + Fraction(19, 3) * a**2
    value += 1 - Fraction(9, 2) * a
    return _integral(value, "d2_ua", a)


class SpiderCaseValues(Record):
    """Exact data for the near-balanced spider of a given residue case.

    Case "i" is T_{a,a,a} at order n = 3a+1, case "ii" is T_{a,a,a+1} at
    n = 3a+2, case "iii" is T_{a,a+1,a+1} at n = 3a+3. `one_minus_r2_tree`
    and `one_minus_r2_path` are the two deficits whose comparison decides
    whether the spider beats the path.
    """

    case: str
    a: int
    n: int
    w: int
    d2: int
    one_minus_r2_tree: Fraction
    one_minus_r2_path: Fraction

    @property
    def beats_path(self) -> bool:
        return self.one_minus_r2_tree > self.one_minus_r2_path


def spider_case_arms(a: int, case: str) -> tuple[int, int, int]:
    """Arm lengths of the case's spider."""
    if case == "i":
        return (a, a, a)
    if case == "ii":
        return (a, a, a + 1)
    if case == "iii":
        return (a, a + 1, a + 1)
    raise ParameterError(f"case must be one of {CASES}, got {case!r}")


def balanced_spider_case(a: int, case: str) -> SpiderCaseValues:
    """Evaluate the near-balanced spider of order 3a+1, 3a+2, or 3a+3.

    Each quantity uses its dedicated per-case closed form; the generic
    spider formulas and r2_path agree with these identically (the test
    suite pins that down), so either route could serve as the other's
    oracle.
    """
    if a < 2:
        raise ParameterError(f"balanced_spider_case needs a >= 2, got {a}")
    arms = spider_case_arms(a, case)
    if case == "i":
        n = 3 * a + 1
        w = a * (a + 1) * (7 * a + 2) // 2
        d2 = _integral(Fraction(3, 2) * a * (5 * a - 1), "case i D2", a)
        tree = Fraction(3 * (5 * a - 1), (a + 1) * (7 * a + 2))
        path = Fraction(18 * a, (3 * a + 1) * (3 * a + 2))
    elif case == "ii":
        n = 3 * a + 2
        w = w_spider(*arms)
        d2 = d2_spider(*arms)
        tree = Fraction(a * (15 * a + 7), (a + 1) ** 2 * (7 * a + 2))
        path = Fraction(2 * (3 * a + 1), (a + 1) * (3 * a + 2))
    else:
        n = 3 * a + 3
        w = w_spider(*arms)
        d2 = d2_spider(*arms)
        tree = Fraction(
            (3 * a + 1) * (5 * a + 4),
            (a + 1) * (7 * a * a + 16 * a + 8),
        )
        path = Fraction(2 * (3 * a + 2), (a + 1) * (3 * a + 4))
    return SpiderCaseValues(
        case=case,
        a=a,
        n=n,
        w=w,
        d2=d2,
        one_minus_r2_tree=tree,
        one_minus_r2_path=path,
    )


def deficit_quotient(a: int, case: str) -> Fraction:
    """(1 - R_2(T)) / (1 - R_2(P_n)) for the case's spider.

    Exceeds 1 exactly when the spider beats the path; tends to 15/14 as
    a grows, in every case.
    """
    values = balanced_spider_case(a, case)
    return values.one_minus_r2_tree / values.one_minus_r2_path
