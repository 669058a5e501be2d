"""Truncated bivariate Taylor expansions with exact coefficients.

A ``Jet2D`` of order N represents a function of (u, v) near the origin known
modulo O(|(u, v)|^(N+1)): coefficients are stored sparsely for total degree
a + b <= N and every higher coefficient is unknown, not zero.  Coefficients
may be ``int``/``Fraction`` (concrete metrics) or ``RhoPoly`` (the generic
conformal factor).  The two rings meet only in the symbolic pipelines, where
concrete jets are multiplied by ``RhoPoly`` values:

* symbolic eq311 multiplies the concrete powers of u^2 + v^2 by the
  ``RhoPoly`` scalar rho_0^j D c_nk (``heatinv._radial_terms``), and the
  table of ``heatinv`` reads each such term back as its weight on the one
  complex monomial (z zbar)^j;
* symbolic eq310 multiplies the frozen images of its concrete seed jets
  by 1/rho_00 (the frozen Laplacian) and by its ``RhoPoly`` weights.

A product of a ``RhoPoly`` and an int or ``Fraction`` is a ``RhoPoly``, so a
jet that has met the generic factor stays in the ``RhoPoly`` ring.

Order bookkeeping is valuation-aware.  If f is trusted to order N with lowest
nonzero total degree vf, and g to order M with valuation vg, then the unknown
tails contribute f*err_g = O(vf + M + 1) and g*err_f = O(vg + N + 1), so

    order(f * g) = min(N + vg, M + vf).

This is what keeps deep Laplacian pipelines cheap: repeatedly applying a
second-order operator to a high-degree monomial yields jets whose band
(order - valuation) stays bounded, so the conformal factor and its inverse
are only ever read to small degree.  Addition trusts only min(N, M);
differentiation by (i, j) lowers the order by i + j.

The empty jet of order N is the function that vanishes to order N; its
valuation is reported as N + 1 (the first unknown degree).

Both rings share one layout: ``num`` maps the packed key d * STRIDE + b of
each nonzero slot (a, b), d = a + b, to what the slot holds.  The key of a
product's slot is the sum of its factors' keys, and keys sort by degree
first: the terms of degree <= e are those with key below (e + 1) * STRIDE.
One fixed stride lets jets of any order multiply without repacking; orders
at or above it are refused with ``IndexOutOfRange``.

A concrete jet (int or ``Fraction`` coefficients) stores int numerators
over one common denominator ``den`` > 0, with their content divided out,
so ``den`` is the lcm of the coefficients' denominators and the form is
unique.  Every concrete operation runs on this form and builds no
``Fraction`` per slot: products, multiples by a scalar p/q (the numerators
times p, the denominator times q, the content divided out), sums,
derivatives, truncation, the Newton inverse and ``compose``.  The one
multiply-accumulate loop, ``_capped_product``, accumulates the int
numerators per output slot, so a product costs one gcd over its slots
instead of one per coefficient pair.  It serves ``Jet2D._mul_capped`` and
``ConformalLaplacian.apply`` (``heatjets.laplace``), which multiplies the
flat part -(f_uu + f_vv) of a concrete jet by 1/rho.

A jet with a ``RhoPoly`` coefficient stores the coefficients themselves
under the same keys, with ``den`` None; a result in which no ``RhoPoly``
survives goes back to the concrete form.  Its products take one fused
``RhoPoly.dot`` per slot, and its Laplacians divide by rho rather than
multiply by 1/rho (``heatjets.laplace``).  ``coeffs`` is a read view
{(a, b): coefficient} built on first read.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm, perm

from .errors import IndexOutOfRange, NonInvertibleConstantTerm, OrderExhausted
from .rhopoly import RhoPoly

#: Key stride of the slot layout; every jet order is below it, so a key
#: (and the sum of two keys of a product) stays below 2^30.
STRIDE = 1 << 15


def invert_coefficient(c):
    """Reciprocal of an exact coefficient (Fraction, int, or RhoPoly)."""
    if isinstance(c, RhoPoly):
        return c.inverse()
    if isinstance(c, (int, Fraction)):
        if not c:
            raise NonInvertibleConstantTerm("zero constant term")
        return Fraction(c.denominator, c.numerator)
    raise TypeError(f"cannot invert coefficient of type {type(c).__name__}")


def _has_rhopoly(jet):
    return jet.den is None


def _check_order(order):
    if order >= STRIDE:
        raise IndexOutOfRange(
            f"jet order {order} is not below the key stride {STRIDE}")


def _slot(key):
    """(a, b) of a packed key."""
    d, b = divmod(key, STRIDE)
    return d - b, b


def _capped_product(left, right, cap):
    """left * right to total degree cap, for concrete jets.

    The left terms run in degree order; a left term of degree d multiplies
    the right terms of degree <= cap - d, taken once per degree, and the int
    numerators are multiplied and accumulated per output key over
    left.den * right.den.  This is the one integer multiply-accumulate loop:
    every concrete jet product and every concrete Laplacian runs through it.
    """
    acc = {}
    degree = -1
    for k1, n1 in left._upto(cap):
        d = k1 // STRIDE
        if d != degree:
            degree, right_terms = d, right._upto(cap - d)
        for k2, n2 in right_terms:
            k = k1 + k2
            acc[k] = acc.get(k, 0) + n1 * n2
    return Jet2D._form(left.den * right.den, acc, cap)


class Jet2D:
    """Sparse exact 2-D jet of the coefficients {(a, b): c}, a + b <= order,
    kept by packed key in ``num``: int numerators over ``den``, or the
    coefficients themselves (``den`` None) when one is a ``RhoPoly``."""

    __slots__ = ("order", "den", "num", "_coeffs", "_terms")

    def __new__(cls, coeffs, order):
        if order < 0:
            raise ValueError("jet order must be nonnegative")
        _check_order(order)
        return cls._form(None, {(a + b) * STRIDE + b: c
                                for (a, b), c in coeffs.items()
                                if a + b <= order}, order)

    @classmethod
    def _form(cls, den, num, order):
        """The jet of `num` by packed key, zero slots dropped.  With den > 0
        `num` holds int numerators, divided with den by gcd(den, *num); with
        den None it holds coefficients, kept as they are if a ``RhoPoly``
        survives and put over the lcm of their denominators otherwise."""
        jet = object.__new__(cls)
        jet.order, jet._coeffs, jet._terms = order, None, None
        if den is None:
            num = {k: c for k, c in num.items() if c}
            if RhoPoly in map(type, num.values()):
                jet.den, jet.num = None, num
                return jet
            # over the lcm of the reduced denominators no content is left
            ratios = {k: c.as_integer_ratio() for k, c in num.items()}
            jet.den = den = lcm(*[d for _, d in ratios.values()])
            jet.num = {k: n * (den // d) for k, (n, d) in ratios.items()}
            return jet
        g = gcd(den, *num.values())
        jet.den = den // g
        jet.num = ({k: n // g for k, n in num.items() if n} if g > 1
                   else {k: n for k, n in num.items() if n})
        return jet

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, order):
        return cls({(0, 0): value}, order)

    @classmethod
    def zero(cls, order):
        return cls({}, order)

    @classmethod
    def from_ratios(cls, triples, order):
        """The concrete jet of the coefficients p/q at (a, b), from triples
        (a, b, (p, q)) with q > 0, without a ``Fraction`` each; those of
        degree above `order` are left out."""
        if order < 0:
            raise ValueError("jet order must be nonnegative")
        _check_order(order)
        kept = [((a + b) * STRIDE + b, p, q)
                for a, b, (p, q) in triples if a + b <= order]
        den = lcm(*[q for _, _, q in kept])
        return cls._form(den, {k: p * (den // q) for k, p, q in kept}, order)

    # -- inspection --------------------------------------------------------

    def _values(self):
        """{key: coefficient}: ``num`` itself on the ``RhoPoly`` ring, the
        numerators over ``den`` otherwise."""
        den = self.den
        if den is None:
            return self.num
        return {k: n if den == 1 else Fraction(n, den)
                for k, n in self.num.items()}

    @property
    def coeffs(self):
        """{(a, b): coefficient}, built on first read."""
        coeffs = self._coeffs
        if coeffs is None:
            coeffs = self._coeffs = {_slot(k): c
                                     for k, c in self._values().items()}
        return coeffs

    def _upto(self, e):
        """The (key, numerator) terms of degree <= e, sorted by key.

        The sorted terms are built on first use and kept, so a factor read
        by many products is sorted once and each call is one bisection and
        a slice.
        """
        terms = self._terms
        if terms is None:
            terms = self._terms = sorted(self.num.items())
        return terms[:bisect_left(terms, ((e + 1) * STRIDE,))]

    def valuation(self):
        """Lowest total degree with a nonzero coefficient, order+1 if none."""
        return min(self.num, default=(self.order + 1) * STRIDE) // STRIDE

    def coefficient(self, a, b):
        if a + b > self.order:
            raise IndexOutOfRange(
                f"coefficient ({a},{b}) beyond tracked order {self.order}")
        c = self.num.get((a + b) * STRIDE + b, 0)
        return Fraction(c, self.den) if c and self.den not in (None, 1) else c

    def constant_term(self):
        return self.coefficient(0, 0)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if not isinstance(other, Jet2D):
            return NotImplemented
        if (self.den is None) != (other.den is None):  # one RhoPoly jet
            return (self.order == other.order
                    and self._values() == other._values())
        return (self.order == other.order and self.den == other.den
                and self.num == other.num)

    __hash__ = None

    def __repr__(self):
        if not self:
            return f"Jet2D(0; order={self.order})"
        parts = [f"{c}*u^{a}v^{b}"
                 for (a, b), c in sorted(self.coeffs.items())]
        return f"Jet2D({' + '.join(parts)}; order={self.order})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Jet2D):
            return NotImplemented
        order = min(self.order, other.order)
        end = (order + 1) * STRIDE
        if self.den is None or other.den is None:
            num = {k: c for k, c in self._values().items() if k < end}
            for k, c in other._values().items():
                if k < end:
                    prev = num.get(k)
                    num[k] = c if prev is None else prev + c
            return Jet2D._form(None, num, order)
        den = lcm(self.den, other.den)
        num = {}
        for jet in (self, other):
            scale = den // jet.den
            for k, n in jet.num.items():
                if k < end:
                    num[k] = num.get(k, 0) + n * scale
        return Jet2D._form(den, num, order)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        if not isinstance(other, Jet2D):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Jet2D):
            order = min(self.order + other.valuation(),
                        other.order + self.valuation())
            return self._mul_capped(other, order)
        # scalar from the coefficient ring
        if not other:
            return Jet2D.zero(self.order)
        if self.den is None or isinstance(other, RhoPoly):
            return Jet2D._form(None, {k: c * other for k, c
                                      in self._values().items()}, self.order)
        p, q = other.as_integer_ratio()
        return Jet2D._form(self.den * q,
                           {k: n * p for k, n in self.num.items()}, self.order)

    __rmul__ = __mul__

    def _mul_capped(self, other, cap):
        """Product keeping only total degree <= cap, trusted to order cap.

        Concrete factors multiply in ``_capped_product``.  With RhoPoly
        coefficients on either side, the coefficient pairs are grouped by
        output key and each slot is one fused ``RhoPoly.dot``.
        """
        _check_order(cap)
        if self.den is not None and other.den is not None:
            return _capped_product(self, other, cap)
        end = (cap + 1) * STRIDE
        right = other._values().items()
        slots = {}
        for k1, c1 in self._values().items():
            for k2, c2 in right:
                k = k1 + k2
                if k < end:
                    pairs = slots.get(k)
                    if pairs is None:
                        slots[k] = [(c1, c2)]
                    else:
                        pairs.append((c1, c2))
        return Jet2D._form(None, {k: RhoPoly.dot(pairs)
                                  for k, pairs in slots.items()}, cap)

    # -- calculus ----------------------------------------------------------

    def diff(self, du=0, dv=0):
        """Partial derivative d^(du+dv) / du^du dv^dv; order drops by du+dv."""
        order = self.order - du - dv
        if order < 0:
            raise OrderExhausted(
                f"derivative of total order {du + dv} exhausts jet order "
                f"{self.order}")
        if du == 0 and dv == 0:
            return self
        shift = (du + dv) * STRIDE + dv
        num = {}
        for k, c in self.num.items():
            a, b = _slot(k)
            if a >= du and b >= dv:
                num[k - shift] = c * (perm(a, du) * perm(b, dv))
        return Jet2D._form(self.den, num, order)

    def truncate(self, order):
        """Forget terms above `order`; cannot exceed the tracked order."""
        if order > self.order:
            raise ValueError(
                f"cannot extend jet of order {self.order} to {order}")
        if order == self.order:
            return self
        end = (order + 1) * STRIDE
        return Jet2D._form(self.den,
                           {k: c for k, c in self.num.items() if k < end},
                           order)

    def inverse(self, order=None):
        """Multiplicative inverse by Newton iteration x <- x(2 - f x).

        Each step doubles the trusted order; requires an invertible constant
        term.  `order` defaults to the jet's own order.  Both products of a
        step go through ``_mul_capped``, so on concrete jets the iteration
        runs on int numerators and on ``RhoPoly`` jets as fused dots.
        """
        if order is None:
            order = self.order
        if order > self.order:
            raise OrderExhausted(
                f"inverse to order {order} needs jet order >= {order}, "
                f"have {self.order}")
        x = Jet2D.constant(invert_coefficient(self.constant_term()), 0)
        two = Jet2D.constant(2, order)
        m = 0
        while m < order:
            m = min(2 * m + 1, order)
            x = x._mul_capped(two - self.truncate(m)._mul_capped(x, m), m)
        return x

    def log_nonconstant(self):
        """log(f) minus its (transcendental) value at the origin.

        Computed as log(1 + w) with w = f/f0 - 1 via the alternating series
        sum (-1)^(i+1) w^i / i; the dropped constant log(f0) never survives
        differentiation, which is all downstream users need.
        """
        n = self.order
        c0 = self.constant_term()
        inv0 = invert_coefficient(c0)
        w = self * inv0 - Jet2D.constant(1, n)
        if w.valuation() < 1:
            raise NonInvertibleConstantTerm(
                "logarithm requires an invertible constant term")
        acc = w
        w_pow = w
        for i in range(2, n + 1):
            w_pow = w_pow._mul_capped(w, n)
            if not w_pow:
                break
            acc = acc + w_pow * Fraction((-1) ** (i + 1), i)
        return acc

    def compose(self, p, q):
        """f(p(u, v), q(u, v)) for jets p and q that vanish at the origin,
        trusted to order min(self.order, p.order, q.order)."""
        if p.constant_term() or q.constant_term():
            raise ValueError("compose needs p and q without a constant term")
        n = min(self.order, p.order, q.order)
        pow_p, pow_q = [Jet2D.constant(1, n)], [Jet2D.constant(1, n)]
        for _ in range(n):
            pow_p.append(pow_p[-1]._mul_capped(p, n))
            pow_q.append(pow_q[-1]._mul_capped(q, n))
        return sum((pow_p[a]._mul_capped(pow_q[b], n) * c
                    for (a, b), c in self.truncate(n).coeffs.items()),
                   Jet2D.zero(n))
