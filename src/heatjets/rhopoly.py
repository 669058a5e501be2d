"""Exact sparse Laurent polynomials in the Taylor coefficients of a conformal factor.

The formal variables are

    rho_ab  =  coefficient of u^a v^b in the Taylor expansion of rho at (0,0),

keyed by the pair (a, b).  A ``RhoPoly`` is one dict ``num`` from monomial to
nonzero exact coefficient.  A monomial is ``(e, vars)``: ``e`` is the exponent
of rho_00 and may be negative, and ``vars`` is the sorted tuple of the other
variables, each repeated by its exponent.  This form is unique, so equality is
dict equality, and a monomial product is ``(e1 + e2, sorted(v1 + v2))``.

The public view is a numerator over a power of rho_00: ``den`` is the
smallest d >= 0 that clears every negative rho_00 exponent, and ``terms()``
yields the numerator's monomials as sorted tuples of ((a, b), exp) pairs.
``RhoPoly(num, den)`` builds a value from that view.

Coefficients are ``int`` where possible and ``fractions.Fraction`` otherwise;
the two mix freely and compare equal.  ``inverse`` gives an ``int``
coefficient when the reciprocal is integral, so the generic factor's eq311
pipeline runs on integers throughout.

``RhoPoly.dot`` is the fused multiply-accumulate of the ring: the sum of
p * q over many pairs, built in one dict.  ``Jet2D`` products use it once
per output slot, where a chain of two-term sums would copy the slot's
numerator at every step.

``PiScaled`` carries exact scalars of the shape q * pi^(-e): every constant
of the heat-coefficient formulas is an exact rational times a nonnegative
power of 1/pi.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby

from .errors import NonInvertibleConstantTerm

VAR00 = (0, 0)

# The constant monomial: rho_00^0 and no other variable.
_ONE = (0, ())


def mono_weight(mono):
    """Total derivative-order weight of a ``terms()`` monomial: sum exp * (a + b)."""
    return sum(exp * (a + b) for (a, b), exp in mono)


def mono_degree(mono):
    """Total degree of a ``terms()`` monomial."""
    return sum(exp for _, exp in mono)


def _num(value):
    """The term dict of a RhoPoly or of an exact scalar."""
    if isinstance(value, RhoPoly):
        return value.num
    return {_ONE: value} if value else {}


class RhoPoly:
    """Sparse Laurent polynomial in rho_00 over the other rho_ab variables."""

    __slots__ = ("num",)

    def __init__(self, num=None, den=0):
        """Build numerator / rho_00^den from {((a, b), exp) tuple: coeff}."""
        out = {}
        for mono, c in (num or {}).items():
            e, rest = -den, []
            for var, exp in mono:
                if var == VAR00:
                    e += exp
                else:
                    rest += [var] * exp
            key = (e, tuple(sorted(rest)))
            out[key] = out.get(key, 0) + c
        self.num = {m: c for m, c in out.items() if c}

    @classmethod
    def _make(cls, num):
        """Wrap a term dict that already has no zero coefficient."""
        poly = cls.__new__(cls)
        poly.num = num
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value):
        value = value if isinstance(value, (int, Fraction)) else Fraction(value)
        return cls._make({_ONE: value} if value else {})

    @classmethod
    def var(cls, a, b):
        if a < 0 or b < 0:
            raise ValueError("variable indices must be nonnegative")
        return cls._make({(1, ()) if (a, b) == VAR00 else (0, ((a, b),)): 1})

    @classmethod
    def zero(cls):
        return cls._make({})

    @classmethod
    def one(cls):
        return cls.const(1)

    @property
    def den(self):
        """Power of rho_00 under the numerator that ``terms()`` yields."""
        return max(0, -min((e for e, _ in self.num), default=0))

    # -- ring structure ----------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, RhoPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return RhoPoly.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RhoPoly.sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return RhoPoly._make({m: -c for m, c in self.num.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RhoPoly.sum((self, -other))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RhoPoly.sum((other, -self))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return RhoPoly.zero()
            return RhoPoly._make({m: c * other for m, c in self.num.items()})
        if not isinstance(other, RhoPoly):
            return NotImplemented
        return RhoPoly.dot(((self, other),))

    __rmul__ = __mul__

    def __pow__(self, exp):
        if not isinstance(exp, int) or exp < 0:
            raise ValueError("RhoPoly powers must be nonnegative integers")
        result = RhoPoly.one()
        base = self
        while exp:
            if exp & 1:
                result = result * base
            exp >>= 1
            if exp:
                base = base * base
        return result

    @classmethod
    def sum(cls, items):
        """Sum an iterable of RhoPoly values."""
        out = {}
        for p in items:
            for m, c in p.num.items():
                prev = out.get(m)
                out[m] = c if prev is None else prev + c
        return cls._make({m: c for m, c in out.items() if c})

    @classmethod
    def dot(cls, pairs):
        """Sum of p * q over `pairs`; either factor may be an int or Fraction.

        Every product goes straight into one dict, so the sum drops its
        cancelled terms once instead of once per pair.
        """
        out = {}
        for p, q in pairs:
            q_num = _num(q)
            for (e1, v1), c1 in _num(p).items():
                for (e2, v2), c2 in q_num.items():
                    mono = (e1 + e2, tuple(sorted(v1 + v2)))
                    prev = out.get(mono)
                    out[mono] = c1 * c2 if prev is None else prev + c1 * c2
        return cls._make({m: c for m, c in out.items() if c})

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num

    __hash__ = None

    # -- partial inversion ---------------------------------------------------

    def inverse(self):
        """Exact reciprocal, defined only for q * rho_00^d values."""
        if not self.num:
            raise NonInvertibleConstantTerm("cannot invert the zero element")
        (e, rest), coeff = next(iter(self.num.items()))
        if len(self.num) != 1 or rest:
            raise NonInvertibleConstantTerm(
                "only rational multiples of rho_00 powers are invertible")
        inv = 1 / Fraction(coeff)
        if inv.denominator == 1:
            inv = inv.numerator
        return RhoPoly._make({(-e, ()): inv})

    # -- structure queries ---------------------------------------------------

    def terms(self):
        """(monomial, coefficient) pairs of the numerator over rho_00^den.

        A monomial is a sorted tuple of ((a, b), exp) pairs with positive
        exponents; the empty tuple is the constant monomial.
        """
        den = self.den
        out = []
        for (e, rest), c in self.num.items():
            mono = tuple((var, len(list(run))) for var, run in groupby(rest))
            if e + den:
                mono = ((VAR00, e + den),) + mono
            out.append((mono, c))
        return out

    def substitute(self, values):
        """Evaluate at concrete rational Taylor coefficients.

        `values` maps (a, b) to a rational; unlisted variables are zero.
        """
        rho00 = Fraction(values.get(VAR00, 0))
        if self.den and not rho00:
            raise NonInvertibleConstantTerm("substitution with rho_00 = 0")
        total = Fraction(0)
        for (e, rest), c in self.num.items():
            term = Fraction(c) * rho00 ** e
            for var in rest:
                term *= values.get(var, 0)
            total += term
        return total

    def as_fraction(self):
        """The value as a rational, when no variables other than rho_00 appear."""
        if not self.num:
            return Fraction(0)
        if list(self.num) == [_ONE]:
            return Fraction(self.num[_ONE])
        raise ValueError("RhoPoly is not a plain rational constant")

    def weights(self):
        """Set of derivative-order weights over the numerator monomials."""
        return {mono_weight(m) for m, _ in self.terms()}

    def __repr__(self):
        if not self.num:
            return "RhoPoly(0)"
        parts = []
        for mono, c in sorted(self.terms()):
            factors = [f"rho{a}{b}^{e}" if e > 1 else f"rho{a}{b}"
                       for (a, b), e in mono]
            parts.append(f"{c}" + ("*" + "*".join(factors) if factors else ""))
        body = " + ".join(parts)
        if self.den:
            return f"RhoPoly(({body}) / rho00^{self.den})"
        return f"RhoPoly({body})"


class PiScaled:
    """An exact scalar q * pi^(-e) with rational q and integer e >= 0.

    Zero is canonicalized to pi-power 0 and acts as the universal additive
    identity; otherwise addition requires matching pi-powers.
    """

    __slots__ = ("q", "pi_power")

    def __init__(self, q, pi_power=0):
        q = q if isinstance(q, Fraction) else Fraction(q)
        if pi_power < 0:
            raise ValueError("pi_power must be nonnegative")
        if not q:
            pi_power = 0
        self.q = q
        self.pi_power = pi_power

    def __add__(self, other):
        if not isinstance(other, PiScaled):
            return NotImplemented
        if not self.q:
            return other
        if not other.q:
            return self
        if self.pi_power != other.pi_power:
            raise ValueError(
                f"cannot add pi powers {self.pi_power} and {other.pi_power}")
        return PiScaled(self.q + other.q, self.pi_power)

    def __neg__(self):
        return PiScaled(-self.q, self.pi_power)

    def __sub__(self, other):
        if not isinstance(other, PiScaled):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PiScaled):
            return PiScaled(self.q * other.q, self.pi_power + other.pi_power)
        if isinstance(other, (int, Fraction)):
            return PiScaled(self.q * other, self.pi_power)
        return NotImplemented

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.q)

    def __eq__(self, other):
        if not isinstance(other, PiScaled):
            return NotImplemented
        return self.q == other.q and self.pi_power == other.pi_power

    def __hash__(self):
        return hash((self.q, self.pi_power))

    def __repr__(self):
        if self.pi_power == 0:
            return f"PiScaled({self.q})"
        return f"PiScaled({self.q}/pi^{self.pi_power})"
