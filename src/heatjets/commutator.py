"""Multiple commutators [B, A; J] and the filtration sums X_m.

For linear operators A, B and a vector J = (j_1, ..., j_r) of nonnegative
integers, the multiple commutator is defined inductively by

    [B, A; 0] = B,
    [B, A; j] = [[B, A; j-1], A],
    [B, A; J cup j] = [B [B, A; J], A; j]   (append j on the right),

so each new component left-multiplies by B and then applies ad_A := [., A]
j more times.  Grading vectors by filtration weight |J| + r gives the level
sets V_m, and the operator sums X_m = sum_{J in V_m} [B, A; J] admit both a
recurrence (X_1 = B, X_m = B X_{m-1} + [X_{m-1}, A]) and a closed form
(sum_k (-1)^k C(m,k) (A-B)^k A^(m-k)).  The three formulations are
implemented separately so they can cross-check each other exactly.  With
A = Delta_0 (Delta frozen at the base point) and B = Delta_0 - Delta, the
closed form is eq310's binomial sum in ``heat_invariant_via_frozen``.

Everything works over any associative algebra providing +, -, * and scalar
multiplication by exact rationals; ``RationalMatrix`` is the concrete test
instance.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


class RationalMatrix:
    """Immutable square matrix over exact rationals."""

    __slots__ = ("rows", "n")

    def __init__(self, rows):
        self.rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        self.n = len(self.rows)
        if any(len(row) != self.n for row in self.rows):
            raise ValueError("matrix must be square")

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)]
                    for i in range(n)])

    @classmethod
    def random(cls, n, rng, lo=-5, hi=5):
        return cls([[Fraction(rng.randint(lo, hi), rng.randint(1, 3))
                     for _ in range(n)] for _ in range(n)])

    def __add__(self, other):
        return RationalMatrix(
            [[a + b for a, b in zip(ra, rb)]
             for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return RationalMatrix(
            [[a - b for a, b in zip(ra, rb)]
             for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return RationalMatrix([[-a for a in row] for row in self.rows])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalMatrix(
                [[a * other for a in row] for row in self.rows])
        cols = list(zip(*other.rows))
        return RationalMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols]
             for row in self.rows])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.rows == other.rows

    __hash__ = None

    def __repr__(self):
        return f"RationalMatrix({[list(map(str, r)) for r in self.rows]})"


def commutator(x, a):
    """[x, a] = x a - a x."""
    return x * a - a * x


def multiple_commutator(b, a, index):
    """[B, A; J] for a vector J of nonnegative integers (left to right)."""
    index = tuple(index)
    if not index:
        raise ValueError("the index vector must have at least one component")
    if any(j < 0 for j in index):
        raise ValueError("index components must be nonnegative")
    acc = None
    for j in index:
        base = b if acc is None else b * acc
        for _ in range(j):
            base = commutator(base, a)
        acc = base
    return acc


def filtration_vectors(m):
    """All J = (j_1..j_r) with |J| + r = m: r parts summing to m - r.

    Weak compositions via bar placement; the total count is 2^(m-1).
    """
    if m < 1:
        raise ValueError("filtration level must be >= 1")
    for r in range(1, m + 1):
        total = m - r
        # place r-1 bars among total + r - 1 slots
        for bars in combinations(range(total + r - 1), r - 1):
            parts = []
            prev = -1
            for bar in bars:
                parts.append(bar - prev - 1)
                prev = bar
            parts.append(total + r - 2 - prev)
            yield tuple(parts)


def _power(x, k):
    out = None
    for _ in range(k):
        out = x if out is None else out * x
    return out


def x_operator_by_sum(b, a, m):
    """X_m as the literal sum of multiple commutators over V_m."""
    total = None
    for index in filtration_vectors(m):
        term = multiple_commutator(b, a, index)
        total = term if total is None else total + term
    return total


def x_operator_recurrence(b, a, m):
    """X_m via X_1 = B, X_m = B X_{m-1} + [X_{m-1}, A]."""
    if m < 1:
        raise ValueError("m must be >= 1")
    x = b
    for _ in range(m - 1):
        x = b * x + commutator(x, a)
    return x


def x_operator_closed(b, a, m):
    """X_m = sum_{k=0}^m (-1)^k C(m,k) (A-B)^k A^(m-k)."""
    from math import comb
    if m < 1:
        raise ValueError("m must be >= 1")
    d = a - b
    total = None
    for k in range(m + 1):
        factors = []
        if k:
            factors.append(_power(d, k))
        if m - k:
            factors.append(_power(a, m - k))
        term = factors[0] if len(factors) == 1 else factors[0] * factors[1]
        term = term * Fraction((-1) ** k * comb(m, k))
        total = term if total is None else total + term
    return total
