"""Exact sparse polynomials in the Taylor coefficients of a conformal factor.

A ``RhoPoly`` is a quotient  numerator / rho_00^e  where the numerator is a
sparse multivariate polynomial over exact rationals in the formal variables

    rho_ab  =  coefficient of u^a v^b in the Taylor expansion of rho at (0,0)

and the denominator is a power of the constant coefficient rho_00.  Variables
are keyed by the pair (a, b); a monomial is a sorted tuple of ((a, b), exp)
pairs with positive exponents; the zero polynomial has an empty numerator.

Canonical form invariants, maintained by every constructor and operation:

  * no stored coefficient is zero;
  * when the denominator power e is positive, at least one numerator monomial
    does not contain rho_00 (common rho_00 factors are cancelled).

Equality is decidable by direct comparison of canonical forms.  Coefficients
are ``int`` where possible and ``fractions.Fraction`` otherwise; the two mix
freely and compare equal.  ``inverse`` gives an ``int`` coefficient when
the reciprocal is integral, so the generic factor's eq311 pipeline runs on
integers throughout.

``RhoPoly.dot`` is the fused multiply-accumulate of the ring: the sum of
p * q over many pairs, built in one numerator with one rho_00 denominator
alignment and one canonicalisation.  ``Jet2D`` products use it once per
output slot, where a chain of two-term sums would copy the slot's
numerator at every step.

``PiScaled`` carries exact scalars of the shape q * pi^(-e): every constant
of the heat-coefficient formulas is an exact rational times a nonnegative
power of 1/pi.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NonInvertibleConstantTerm

VAR00 = (0, 0)

# A monomial in canonical form: tuple(((a, b), exp), ...) sorted by (a, b),
# all exponents positive.  The empty tuple is the constant monomial.
_ONE_MONO = ()


def _mono_mul(m1, m2):
    """Merge two canonical monomials (add exponents of shared variables)."""
    if not m1:
        return m2
    if not m2:
        return m1
    merged = dict(m1)
    for var, exp in m2:
        prev = merged.get(var)
        merged[var] = exp if prev is None else prev + exp
    return tuple(sorted(merged.items()))


def _mono_rho00_exp(mono):
    """Exponent of rho_00 in a canonical monomial ((0,0) sorts first)."""
    if mono and mono[0][0] == VAR00:
        return mono[0][1]
    return 0


def _mono_shift_rho00(mono, delta):
    """Return the monomial with the rho_00 exponent changed by `delta`."""
    if delta == 0:
        return mono
    exp = _mono_rho00_exp(mono) + delta
    rest = mono[1:] if (mono and mono[0][0] == VAR00) else mono
    if exp < 0:
        raise ValueError("negative rho_00 exponent")
    if exp == 0:
        return rest
    return ((VAR00, exp),) + rest


def mono_weight(mono):
    """Total derivative-order weight: sum of exp * (a + b) over the monomial."""
    return sum(exp * (a + b) for (a, b), exp in mono)


def mono_degree(mono):
    return sum(exp for _, exp in mono)


def _numerator(value):
    """(numerator dict, denominator power) of a RhoPoly or exact scalar."""
    if isinstance(value, RhoPoly):
        return value.num, value.den
    return ({_ONE_MONO: value} if value else {}), 0


class RhoPoly:
    """Sparse polynomial in the rho_ab variables over a rho_00-power denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num=None, den=0, _canonical=False):
        if num is None:
            num = {}
        if _canonical:
            self.num = num
            self.den = den
            return
        num = {m: c for m, c in num.items() if c}
        if not num:
            self.num = {}
            self.den = 0
            return
        if den > 0:
            common = min(_mono_rho00_exp(m) for m in num)
            drop = min(common, den)
            if drop:
                num = {_mono_shift_rho00(m, -drop): c for m, c in num.items()}
                den -= drop
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value):
        value = value if isinstance(value, (int, Fraction)) else Fraction(value)
        if not value:
            return cls({}, 0, _canonical=True)
        return cls({_ONE_MONO: value}, 0, _canonical=True)

    @classmethod
    def var(cls, a, b):
        if a < 0 or b < 0:
            raise ValueError("variable indices must be nonnegative")
        return cls({(((a, b), 1),): 1}, 0, _canonical=True)

    @classmethod
    def zero(cls):
        return cls({}, 0, _canonical=True)

    @classmethod
    def one(cls):
        return cls.const(1)

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
        return RhoPoly({m: -c for m, c in self.num.items()}, self.den,
                       _canonical=True)

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
            return RhoPoly({m: c * other for m, c in self.num.items()},
                           self.den, _canonical=True)
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
        """Sum an iterable of RhoPoly values with one denominator alignment."""
        items = [p for p in items if p.num]
        if not items:
            return cls.zero()
        if len(items) == 1:
            return items[0]
        den = max(p.den for p in items)
        out = {}
        for p in items:
            shift = den - p.den
            for m, c in p.num.items():
                mono = _mono_shift_rho00(m, shift)
                prev = out.get(mono)
                if prev is None:
                    out[mono] = c
                else:
                    s = prev + c
                    if s:
                        out[mono] = s
                    else:
                        del out[mono]
        return cls(out, den)

    @classmethod
    def dot(cls, pairs):
        """Sum of p * q over `pairs`; either factor may be an int or Fraction.

        Every product goes straight into one numerator over the largest
        denominator power of the pairs, so the sum is aligned and
        canonicalised once instead of once per term.
        """
        factors = []
        den = 0
        for p, q in pairs:
            p_num, p_den = _numerator(p)
            q_num, q_den = _numerator(q)
            if p_num and q_num:
                factors.append((p_num, q_num, p_den + q_den))
                den = max(den, p_den + q_den)
        out = {}
        for p_num, q_num, d in factors:
            if d != den:
                p_num = {_mono_shift_rho00(m, den - d): c
                         for m, c in p_num.items()}
            for m1, c1 in p_num.items():
                for m2, c2 in q_num.items():
                    mono = _mono_mul(m1, m2)
                    prev = out.get(mono)
                    out[mono] = c1 * c2 if prev is None else prev + c1 * c2
        return cls(out, den)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.den == other.den and self.num == other.num

    __hash__ = None

    # -- partial inversion ---------------------------------------------------

    def is_rho00_monomial(self):
        """True when the value is q * rho_00^d for some rational q and d >= 0."""
        if len(self.num) != 1:
            return False
        (mono,) = self.num
        return mono == _ONE_MONO or (len(mono) == 1 and mono[0][0] == VAR00)

    def inverse(self):
        """Exact reciprocal, defined only for q * rho_00^d monomial values."""
        if not self.num:
            raise NonInvertibleConstantTerm("cannot invert the zero element")
        if not self.is_rho00_monomial():
            raise NonInvertibleConstantTerm(
                "only rational multiples of rho_00 powers are invertible")
        ((mono, coeff),) = self.num.items()
        d = _mono_rho00_exp(mono)
        num_mono = ((VAR00, self.den),) if self.den else _ONE_MONO
        inv = 1 / Fraction(coeff)
        if inv.denominator == 1:
            inv = inv.numerator
        return RhoPoly({num_mono: inv}, d)

    # -- structure queries ---------------------------------------------------

    def terms(self):
        """Iterate (monomial, coefficient) pairs of the numerator."""
        return self.num.items()

    def substitute(self, values):
        """Evaluate at concrete rational Taylor coefficients.

        `values` maps (a, b) to a rational; unlisted variables are zero.
        """
        rho00 = Fraction(values.get(VAR00, 0))
        if self.den and not rho00:
            raise NonInvertibleConstantTerm("substitution with rho_00 = 0")
        total = Fraction(0)
        for mono, c in self.num.items():
            term = Fraction(c)
            for var, exp in mono:
                val = values.get(var)
                if not val:
                    term = None
                    break
                term *= Fraction(val) ** exp
            if term is not None:
                total += term
        if self.den:
            total /= rho00 ** self.den
        return total

    def as_fraction(self):
        """The value as a rational, when no variables other than rho_00 appear."""
        if not self.num:
            return Fraction(0)
        if self.den == 0 and list(self.num) == [_ONE_MONO]:
            return Fraction(self.num[_ONE_MONO])
        raise ValueError("RhoPoly is not a plain rational constant")

    def weights(self):
        """Set of derivative-order weights over the numerator monomials."""
        return {mono_weight(m) for m in self.num}

    def __repr__(self):
        if not self.num:
            return "RhoPoly(0)"
        parts = []
        for mono, c in sorted(self.num.items()):
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
