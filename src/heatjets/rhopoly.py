"""Exact sparse Laurent polynomials in the Taylor coefficients of a conformal factor.

The formal variables are

    rho_ab  =  coefficient of u^a v^b in the Taylor expansion of rho at (0,0),

keyed by the pair (a, b).  A ``RhoPoly`` is one dict ``num`` from monomial to
nonzero exact coefficient.  A monomial is one int, a packed exponent vector
(Monagan and Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007) of 16-bit fields, lowest first:

* field 0 holds e + 2^14, where e is the exponent of rho_00 and may be
  negative;
* field 1 holds the total degree d of the other variables;
* field i + 2 holds the exponent of variable number
  i = (a + b)(a + b + 1)/2 + b - 1, which numbers rho_10, rho_01, rho_20,
  rho_11, rho_02, ... in order of a + b, then b.

The form is unique, so equality is dict equality, and the product of the
monomials m1 and m2 is the one int addition m1 + (m2 - ONE), where ONE = 2^14
is the constant monomial.  A key is valid when bit 15 of fields 0 and 1 is
clear, that is -2^14 <= e < 2^14 and d < 2^15.  Then every exponent is below
2^15, so the fields of a product of two valid keys sum to less than 2^16 and
no carry crosses a field; a negative rho_00 field of the product borrows,
which leaves its bit 15 set.  ``dot`` checks its output keys once for those
two bits, and every constructor checks what it packs: an out-of-range
exponent raises ``IndexOutOfRange`` and never wraps.  A field's position
grows with (a + b)^2, so variables are limited to a + b <= MAX_VAR_ORDER,
which keeps a key under 4.1 KiB.

The public view is a numerator over a power of rho_00: ``den`` is the
smallest d >= 0 that clears every negative rho_00 exponent, and ``terms()``
yields the numerator's monomials as sorted tuples of ((a, b), exp) pairs.
``RhoPoly(num, den)`` builds a value from that view.  Keys are decoded only
there, in ``substitute`` and in ``inverse``.

Coefficients are ``int`` where possible and ``fractions.Fraction`` otherwise;
the two mix freely and compare equal.  ``inverse`` gives an ``int``
coefficient when the reciprocal is integral, so the generic factor's eq311
pipeline runs on integers throughout.

``RhoPoly.dot`` is the fused multiply-accumulate of the ring: the sum of
p * q over many pairs, built in one dict.  ``Jet2D`` products use it once
per output slot, where a chain of two-term sums would copy the slot's
numerator at every step.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import IndexOutOfRange, NonInvertibleConstantTerm

VAR00 = (0, 0)

#: Largest a + b of a variable rho_ab.
MAX_VAR_ORDER = 63

_WIDTH = 16
_MASK = (1 << _WIDTH) - 1
_GUARD = 1 << (_WIDTH - 1)
#: Bits that are clear in every valid key: bit 15 of fields 0 and 1.
_GUARDS = _GUARD | _GUARD << _WIDTH
#: The constant monomial: rho_00^0 and degree 0.
_ONE = 1 << (_WIDTH - 2)


def _shift(a, b):
    """Bit offset of the field of rho_ab, (a, b) != (0, 0)."""
    if a < 0 or b < 0:
        raise ValueError("variable indices must be nonnegative")
    s = a + b
    if s > MAX_VAR_ORDER:
        raise IndexOutOfRange(
            f"variable rho_{a},{b} has a + b > {MAX_VAR_ORDER}")
    return _WIDTH * (s * (s + 1) // 2 + b + 1)


def _var_at(shift):
    """Inverse of ``_shift``: the (a, b) whose field starts at bit `shift`."""
    t = shift // _WIDTH - 1
    s = (isqrt(8 * t + 1) - 1) // 2
    b = t - s * (s + 1) // 2
    return s - b, b


def _out_of_range():
    return IndexOutOfRange(
        "a monomial leaves the packed range: the rho_00 exponent must lie in "
        f"[-{_ONE}, {_ONE}) and the total degree below {_GUARD}")


def _pack(mono, e):
    """Key of rho_00^e times the ((a, b), exp) powers in `mono`."""
    key = degree = 0
    for (a, b), exp in mono:
        if (a, b) == VAR00:
            e += exp
        elif exp < 0:
            raise ValueError("exponents of rho_ab other than rho_00 must be "
                             "nonnegative")
        else:
            key += exp << _shift(a, b)
            degree += exp
    if not (-_ONE <= e < _ONE and degree < _GUARD):
        raise _out_of_range()
    return key + (degree << _WIDTH) + e + _ONE


def _unpack(key):
    """(rho_00 exponent, ((a, b), exp) pairs in field order) of a key."""
    powers = []
    shift = 2 * _WIDTH
    rest = key >> shift
    while rest:
        exp = rest & _MASK
        if exp:
            powers.append((_var_at(shift), exp))
        rest >>= _WIDTH
        shift += _WIDTH
    return (key & _MASK) - _ONE, powers


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
            key = _pack(mono, -den)
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
        return cls._make({_pack((((a, b), 1),), 0): 1})

    @classmethod
    def zero(cls):
        return cls._make({})

    @classmethod
    def one(cls):
        return cls.const(1)

    @property
    def den(self):
        """Power of rho_00 under the numerator that ``terms()`` yields."""
        return max(0, _ONE - min((m & _MASK for m in self.num), default=_ONE))

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
        cancelled terms once instead of once per pair.  A monomial product
        is one int addition; the output keys are checked once against the
        packed range.
        """
        out = {}
        for p, q in pairs:
            right = _num(q).items()
            for m1, c1 in _num(p).items():
                m1 -= _ONE
                for m2, c2 in right:
                    mono = m1 + m2
                    prev = out.get(mono)
                    out[mono] = c1 * c2 if prev is None else prev + c1 * c2
        num = {m: c for m, c in out.items() if c}
        if any(m & _GUARDS for m in num):
            raise _out_of_range()
        return cls._make(num)

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
        key, coeff = next(iter(self.num.items()))
        if len(self.num) != 1 or key >> _WIDTH:
            raise NonInvertibleConstantTerm(
                "only rational multiples of rho_00 powers are invertible")
        inv = 1 / Fraction(coeff)
        if inv.denominator == 1:
            inv = inv.numerator
        return RhoPoly._make({_pack((), _ONE - key): inv})

    # -- structure queries ---------------------------------------------------

    def terms(self):
        """(monomial, coefficient) pairs of the numerator over rho_00^den.

        A monomial is a sorted tuple of ((a, b), exp) pairs with positive
        exponents; the empty tuple is the constant monomial.
        """
        den = self.den
        out = []
        for key, c in self.num.items():
            e, powers = _unpack(key)
            mono = tuple(sorted(powers))
            if e + den:
                mono = ((VAR00, e + den),) + mono
            out.append((mono, c))
        return out

    def substitute(self, values):
        """Evaluate at given Taylor coefficients.

        `values` maps (a, b) to a rational or a ``RhoPoly``; unlisted
        variables are zero.  The value is a ``Fraction`` when every given
        value is rational, and a ``RhoPoly`` otherwise; then the value of
        rho_00 is inverted as ``inverse`` inverts, where the numerator's
        rho_00 exponent is negative.
        """
        if any(isinstance(v, RhoPoly) for v in values.values()):
            return self._substitute_polys(values)
        rho00 = Fraction(values.get(VAR00, 0))
        if self.den and not rho00:
            raise NonInvertibleConstantTerm("substitution with rho_00 = 0")
        total = Fraction(0)
        for key, c in self.num.items():
            e, powers = _unpack(key)
            term = Fraction(c) * rho00 ** e
            for var, exp in powers:
                term *= values.get(var, 0) ** exp
            total += term
        return total

    def _substitute_polys(self, values):
        """``substitute`` on the ``RhoPoly`` ring: one fused ``dot``.

        A monomial's variables are multiplied in field order, and the
        product of all but the last is kept, so monomials that share those
        variables share it; the last factor's power is multiplied into the
        sum by the ``dot``, with the coefficient and the power of rho_00
        folded into the kept product.
        """
        if self.den and not values.get(VAR00):
            raise NonInvertibleConstantTerm("substitution with rho_00 = 0")
        powers, prefixes = {}, {(): RhoPoly.one()}

        def power(var, exp):
            p = powers.get((var, exp))
            if p is None:
                base = RhoPoly._coerce(values[var])
                p = powers[(var, exp)] = (base ** exp if exp > 0 else
                                          base.inverse() ** -exp)
            return p

        def prefix(factors):
            p = prefixes.get(factors)
            if p is None:
                p = prefixes[factors] = prefix(factors[:-1]) * power(
                    *factors[-1])
            return p

        pairs = []
        for key, c in self.num.items():
            e, factors = _unpack(key)
            if not all(values.get(var) for var, _ in factors) or (
                    e and not values.get(VAR00)):
                continue  # a variable that is zero
            scale = power(VAR00, e) * c if e else c
            if factors:
                pairs.append((prefix(tuple(factors[:-1])) * scale,
                              power(*factors[-1])))
            else:
                pairs.append((scale, 1))
        return RhoPoly.dot(pairs)

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

