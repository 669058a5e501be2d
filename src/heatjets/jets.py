"""Truncated bivariate Taylor expansions with exact coefficients.

A ``Jet2D`` of order N represents a function of (u, v) near the origin known
modulo O(|(u, v)|^(N+1)): coefficients are stored sparsely for total degree
a + b <= N and every higher coefficient is unknown, not zero.  Coefficients
may be ``int``/``Fraction`` (concrete metrics) or ``RhoPoly`` (the generic
conformal factor).  The two rings meet only in the symbolic pipelines, where
concrete jets are multiplied by ``RhoPoly`` values:

* symbolic eq311 multiplies the concrete powers of u^2 + v^2 by the
  ``RhoPoly`` scalar rho_0^j D c_nk (``heatinv._radial_terms``);
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

Concrete jets have one integer form, ``_IntegralJet``: int numerators over
one common denominator D, keyed by a packed int per slot, and one kernel,
``_capped_product``, that multiplies two such forms up to a degree cap.  It
multiplies and accumulates the int numerators per output slot, so a product
costs one gcd per slot, when the result becomes a ``Jet2D`` again, instead
of one per coefficient pair.  Every concrete product runs through it: the
scalar branch of ``Jet2D._mul_capped`` (and with it the Newton inverse, the
frozen Laplacian and the curvature pull-back) and ``laplacian``, which applies
Delta f = -(1/rho)(f_uu + f_vv) to the integral form of f and keeps it in
that form, so the chain of applications (the Horner sum
``heatinv._nested_laplacian_sum`` that every route runs) builds one
``Fraction`` at its constant term.  ``RhoPoly`` products take one
fused ``RhoPoly.dot`` per slot instead, and ``RhoPoly`` jets divide by rho
rather than multiply by 1/rho (``heatjets.laplace``).
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm

from .errors import IndexOutOfRange, NonInvertibleConstantTerm, OrderExhausted
from .rhopoly import RhoPoly


def invert_coefficient(c):
    """Reciprocal of an exact coefficient (Fraction, int, or RhoPoly)."""
    if isinstance(c, RhoPoly):
        return c.inverse()
    if isinstance(c, (int, Fraction)):
        if not c:
            raise NonInvertibleConstantTerm("zero constant term")
        return Fraction(1, 1) / c
    raise TypeError(f"cannot invert coefficient of type {type(c).__name__}")


def _has_rhopoly(jet):
    return RhoPoly in map(type, jet.coeffs.values())


class _IntegralJet:
    """A concrete jet as int numerators over one common denominator.

    ``num`` maps the packed key d * stride + b of each slot (a, b), where
    d = a + b <= order < stride, to its int numerator over ``den``.  The key
    of a product's slot is the sum of its factors' keys, so keys of one
    stride are never repacked, and keys sort by degree first: slot k has
    degree k // stride, and the terms of degree <= e are those with key
    below (e + 1) * stride.

    ``_capped_product`` returns the form with numerators not divided by
    their content and possibly zero.  ``reduced`` divides the content out,
    so ``den`` is the lcm of the reduced coefficients' denominators, and
    ``jet`` builds one ``Fraction`` per nonzero slot.
    """

    __slots__ = ("den", "num", "order", "stride", "_terms")

    def __init__(self, den, num, order, stride):
        self.den, self.num, self.order, self.stride = den, num, order, stride
        self._terms = None

    @classmethod
    def of(cls, jet, stride=None):
        """The form of a concrete Jet2D over the lcm D of the denominators
        of the terms it keeps.

        The stride defaults to order + 1; terms of degree >= stride are
        left out, so the form is trusted to order min(order, stride - 1).
        """
        if stride is None:
            stride = jet.order + 1
        ratios = {(a + b) * stride + b: c.as_integer_ratio()
                  for (a, b), c in jet.coeffs.items() if a + b < stride}
        den = lcm(*[d for _, d in ratios.values()])
        return cls(den, {k: n * (den // d) for k, (n, d) in ratios.items()},
                   min(jet.order, stride - 1), stride)

    def jet(self):
        """The Jet2D: one ``Fraction(n, den)`` per nonzero slot, or the int
        n when den is 1."""
        stride, den = self.stride, self.den
        out = {}
        for k, n in self.num.items():
            if n:
                d, b = divmod(k, stride)
                out[(d - b, b)] = n if den == 1 else Fraction(n, den)
        return Jet2D(out, self.order, _canonical=True)

    def reduced(self):
        """The same values, the zero slots dropped and every numerator and
        the denominator divided by g = gcd(den, *num).

        lcm_i(D / gcd(D, n_i)) = D / gcd(D, n_1, ..., n_k), so the new
        denominator is the lcm of the reduced coefficients' denominators.
        """
        g = gcd(self.den, *self.num.values())
        return _IntegralJet(self.den // g,
                            {k: n // g for k, n in self.num.items() if n},
                            self.order, self.stride)

    def constant_term(self):
        return Fraction(self.num.get(0, 0), self.den)

    def upto(self, e):
        """The (key, numerator) terms of degree <= e, sorted by key.

        The sorted terms are built on first use and kept, so a cached
        factor is sorted once and each call is one bisection and a slice.
        """
        if self._terms is None:
            self._terms = sorted(self.num.items())
        return self._terms[:bisect_left(self._terms, ((e + 1) * self.stride,))]

    def __add__(self, other):
        """The sum over lcm(D1, D2), trusted to the smaller order."""
        if self.stride != other.stride:
            raise ValueError("integral jets of different strides")
        order, stride = min(self.order, other.order), self.stride
        den = lcm(self.den, other.den)
        num = {}
        for form in (self, other):
            scale = den // form.den
            for k, n in form.num.items():
                num[k] = num.get(k, 0) + n * scale
        end = (order + 1) * stride
        return _IntegralJet(den, {k: n for k, n in num.items()
                                  if n and k < end}, order, stride)


def _capped_product(left, right, cap):
    """left * right to total degree cap, over left.den * right.den.

    The two forms share a stride > cap.  The left terms run in degree
    order; a left term of degree d multiplies ``right.upto(cap - d)``, taken
    once per degree, and the int numerators are multiplied and accumulated
    per output key.  The result is not ``reduced``.  This is the one
    integer multiply-accumulate loop: every concrete jet product and every
    concrete Laplacian runs through it.
    """
    stride = left.stride
    acc = {}
    degree = -1
    for k1, n1 in left.upto(cap):
        d = k1 // stride
        if d != degree:
            degree, right_terms = d, right.upto(cap - d)
        for k2, n2 in right_terms:
            k = k1 + k2
            acc[k] = acc.get(k, 0) + n1 * n2
    return _IntegralJet(left.den * right.den, acc, cap, stride)


def laplacian(f, inverse_terms):
    """-(1/rho)(f_uu + f_vv) of an ``_IntegralJet`` f, trusted to order
    f.order - 2, as an ``_IntegralJet`` of the same stride.

    The int numerators of s = -(f_uu + f_vv) over f's denominator D_f are
    accumulated per slot ((a, b) feeds (a - 2, b) with a(a - 1) and
    (a, b - 2) with b(b - 1)) and divided by their gcd with D_f, so s is
    over the lcm of its reduced coefficients' denominators.  Then
    ``inverse_terms(need, stride)`` gives 1/rho trusted to order need = the
    output order minus the valuation of s, as an ``_IntegralJet``, and
    ``_capped_product`` multiplies the two.  When s vanishes to the output
    order the result is zero and 1/rho is not asked for.  The product's
    numerators come back over D_s * D_(1/rho), not yet ``reduced``.
    """
    order = f.order - 2
    if order < 0:
        raise OrderExhausted(
            f"derivative of total order 2 exhausts jet order {f.order}")
    stride = f.stride
    s = {}
    for k, n in f.num.items():
        d, b = divmod(k, stride)
        a = d - b
        if a > 1:
            j = k - 2 * stride
            s[j] = s.get(j, 0) - a * (a - 1) * n
        if b > 1:
            j = k - 2 * stride - 2
            s[j] = s.get(j, 0) - b * (b - 1) * n
    g = gcd(f.den, *s.values())
    s = {k: n // g for k, n in s.items() if n}
    if not s:
        return _IntegralJet(1, {}, order, stride)
    need = order - min(s) // stride
    return _capped_product(_IntegralJet(f.den // g, s, order, stride),
                           inverse_terms(need, stride), order)


class Jet2D:
    """Sparse exact 2-D jet: dict {(a, b): coeff} with a + b <= order."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order, _canonical=False):
        if order < 0:
            raise ValueError("jet order must be nonnegative")
        if _canonical:
            self.coeffs = coeffs
        else:
            self.coeffs = {k: c for k, c in coeffs.items()
                           if c and k[0] + k[1] <= order}
        self.order = order

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, order):
        if not value:
            return cls({}, order, _canonical=True)
        return cls({(0, 0): value}, order, _canonical=True)

    @classmethod
    def zero(cls, order):
        return cls({}, order, _canonical=True)

    # -- inspection --------------------------------------------------------

    def valuation(self):
        """Lowest total degree with a nonzero coefficient, order+1 if none."""
        if not self.coeffs:
            return self.order + 1
        return min(a + b for a, b in self.coeffs)

    def coefficient(self, a, b):
        if a + b > self.order:
            raise IndexOutOfRange(
                f"coefficient ({a},{b}) beyond tracked order {self.order}")
        return self.coeffs.get((a, b), 0)

    def constant_term(self):
        return self.coeffs.get((0, 0), 0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Jet2D):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self):
        if not self.coeffs:
            return f"Jet2D(0; order={self.order})"
        parts = [f"{c}*u^{a}v^{b}"
                 for (a, b), c in sorted(self.coeffs.items())]
        return f"Jet2D({' + '.join(parts)}; order={self.order})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Jet2D):
            return NotImplemented
        order = min(self.order, other.order)
        out = {k: c for k, c in self.coeffs.items() if k[0] + k[1] <= order}
        for k, c in other.coeffs.items():
            if k[0] + k[1] > order:
                continue
            prev = out.get(k)
            if prev is None:
                out[k] = c
            else:
                s = prev + c
                if s:
                    out[k] = s
                else:
                    del out[k]
        return Jet2D(out, order, _canonical=True)

    def __neg__(self):
        return Jet2D({k: -c for k, c in self.coeffs.items()}, self.order,
                     _canonical=True)

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
        return Jet2D({k: c * other for k, c in self.coeffs.items()},
                     self.order, _canonical=True)

    __rmul__ = __mul__

    def _mul_capped(self, other, cap):
        """Product keeping only total degree <= cap, trusted to order cap.

        With RhoPoly coefficients on either side, the coefficient pairs are
        grouped by output slot and each slot is one fused ``RhoPoly.dot``.

        Exact scalars go through ``_capped_product``: each factor is taken
        into the integral form with stride cap + 1, and the product comes
        back as one ``Fraction`` per nonzero slot (an int when both common
        denominators are 1).
        """
        if _has_rhopoly(self) or _has_rhopoly(other):
            slots = {}
            for (a1, b1), c1 in self.coeffs.items():
                for (a2, b2), c2 in other.coeffs.items():
                    a, b = a1 + a2, b1 + b2
                    if a + b > cap:
                        continue
                    pairs = slots.get((a, b))
                    if pairs is None:
                        slots[(a, b)] = [(c1, c2)]
                    else:
                        pairs.append((c1, c2))
            out = {}
            for key, pairs in slots.items():
                value = RhoPoly.dot(pairs)
                if value:
                    out[key] = value
            return Jet2D(out, cap, _canonical=True)
        stride = cap + 1
        return _capped_product(_IntegralJet.of(self, stride),
                               _IntegralJet.of(other, stride), cap).jet()

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
        out = {}
        for (a, b), c in self.coeffs.items():
            if a < du or b < dv:
                continue
            factor = 1
            for i in range(du):
                factor *= a - i
            for j in range(dv):
                factor *= b - j
            out[(a - du, b - dv)] = c * factor
        return Jet2D(out, order, _canonical=True)

    def truncate(self, order):
        """Forget terms above `order`; cannot exceed the tracked order."""
        if order > self.order:
            raise ValueError(
                f"cannot extend jet of order {self.order} to {order}")
        if order == self.order:
            return self
        out = {k: c for k, c in self.coeffs.items() if k[0] + k[1] <= order}
        return Jet2D(out, order, _canonical=True)

    def inverse(self, order=None):
        """Multiplicative inverse by Newton iteration x <- x(2 - f x).

        Each step doubles the trusted order; requires an invertible constant
        term.  `order` defaults to the jet's own order.  Both products of a
        step go through ``_mul_capped``, so on concrete jets they run on
        ints and on ``RhoPoly`` jets as fused dots.
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
