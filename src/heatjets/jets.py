"""Truncated bivariate Taylor expansions with exact coefficients.

A ``Jet2D`` of order N represents a function of (u, v) near the origin known
modulo O(|(u, v)|^(N+1)): coefficients are stored sparsely for total degree
a + b <= N and every higher coefficient is unknown, not zero.  Coefficients
may be ``int``/``Fraction`` (concrete metrics) or ``RhoPoly`` (the generic
conformal factor).  The two rings meet only in the symbolic pipelines, where
concrete jets are multiplied by ``RhoPoly`` values:

* symbolic eq311 multiplies the concrete powers of u^2 + v^2 by the
  ``RhoPoly`` scalar rho_0^j D c_nk (``heatinv._radial_terms``);
* symbolic eq310 applies both Laplacians of the generic factor to its
  concrete seed jets, which they divide by rho (``heatjets.laplace``).

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

Products of concrete jets run on integers.  Each factor is taken over one
common denominator (the lcm of its coefficients' denominators), and
``_integral_product`` multiplies and accumulates the int numerators per
output slot and builds one ``Fraction`` per nonzero slot, so one product
costs one gcd per slot instead of one per coefficient pair.  Every concrete
route (the Newton inverse, the curvature pull-back, the eq311 and eq310
Laplacians) multiplies jets through this one kernel; ``RhoPoly`` products
take one fused ``RhoPoly.dot`` per slot instead.

``laplacian`` applies Delta f = -(1/rho)(f_uu + f_vv) to concrete jets in one
integral pass: the int numerators of -(f_uu + f_vv) over f's common
denominator go straight into the product kernel, so no ``Fraction`` is built
before the product's.  Concrete jets multiply by the cached inverse;
``RhoPoly`` jets divide by rho (``heatjets.laplace``).
"""

from __future__ import annotations

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
    return any(isinstance(c, RhoPoly) for c in jet.coeffs.values())


def _integral_terms(coeffs, stride):
    """(D, [(a + b, a * stride + b, c * D)]) of int/Fraction coefficients.

    D is the lcm of their denominators, so every c * D is an int; terms of
    degree >= stride are left out and the rest are sorted by degree.
    """
    den = lcm(*[c.denominator for c in coeffs.values()])
    return den, sorted(
        (a + b, a * stride + b, c.numerator * (den // c.denominator))
        for (a, b), c in coeffs.items() if a + b < stride)


def _laplacian_terms(coeffs, stride):
    """-(f_uu + f_vv) of int/Fraction coefficients, as ``_integral_terms``.

    The numerators over f's common denominator D_f are accumulated as ints:
    (a, b) feeds (a - 2, b) with a(a - 1) and (a, b - 2) with b(b - 1).  The
    returned denominator is D_f divided by its gcd with every numerator,
    which is the lcm of the reduced coefficients' denominators, so the
    product builds the same types as one taken on the jet of f_uu + f_vv.
    f's terms have degree at most stride + 1, so every output degree is
    below the stride.
    """
    den = lcm(*[c.denominator for c in coeffs.values()])
    acc = {}
    for (a, b), c in coeffs.items():
        n = c.numerator * (den // c.denominator)
        if a > 1:
            k = (a - 2) * stride + b
            acc[k] = acc.get(k, 0) - a * (a - 1) * n
        if b > 1:
            k = a * stride + b - 2
            acc[k] = acc.get(k, 0) - b * (b - 1) * n
    g = gcd(den, *acc.values())
    return den // g, sorted((sum(divmod(k, stride)), k, n // g)
                            for k, n in acc.items() if n)


def _integral_product(left, right, cap):
    """The jet of order cap of two ``(D, terms)`` factors, keyed by cap + 1.

    The int numerators are multiplied and accumulated in slots keyed
    a * (cap + 1) + b, so a product's key is the sum of its factors' keys,
    and each nonzero slot becomes one ``Fraction(acc, D1 * D2)`` (an int when
    D1 * D2 == 1).  The right factor's terms are sorted by degree, so each
    left term stops at the first right term that takes the product past the
    cap.
    """
    den1, left = left
    den2, right = right
    acc = {}
    for d1, k1, n1 in left:
        for d2, k2, n2 in right:
            if d1 + d2 > cap:
                break
            k = k1 + k2
            acc[k] = acc.get(k, 0) + n1 * n2
    stride = cap + 1
    den = den1 * den2
    if den == 1:
        out = {divmod(k, stride): v for k, v in acc.items() if v}
    else:
        out = {divmod(k, stride): Fraction(v, den)
               for k, v in acc.items() if v}
    return Jet2D(out, cap, _canonical=True)


def laplacian(f, inverse_factor):
    """-(1/rho)(f_uu + f_vv) of concrete f and rho, trusted to f.order - 2.

    ``inverse_factor(need)`` returns the jet of 1/rho trusted to order
    ``need``, the degree the product consumes: the output order minus the
    valuation of f_uu + f_vv.  When that sum vanishes to the output order,
    the result is the zero jet and 1/rho is not asked for.  The sum takes
    one integral pass (``_laplacian_terms``) into ``_integral_product``.
    """
    order = f.order - 2
    if order < 0:
        raise OrderExhausted(
            f"derivative of total order 2 exhausts jet order {f.order}")
    stride = order + 1
    den, terms = _laplacian_terms(f.coeffs, stride)
    if not terms:
        return Jet2D.zero(order)
    inv = inverse_factor(order - terms[0][0])
    return _integral_product(_integral_terms(inv.coeffs, stride),
                             (den, terms), order)


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

        Exact scalars go through the integral kernel: each factor is taken
        over one common denominator (the lcm D of its denominators, every
        coefficient becoming the int numerator * (D // denominator)) and
        multiplied by ``_integral_product``.
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
        return _integral_product(_integral_terms(self.coeffs, stride),
                                 _integral_terms(other.coeffs, stride), cap)

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
        term.  `order` defaults to the jet's own order.
        """
        if order is None:
            order = self.order
        if order > self.order:
            raise OrderExhausted(
                f"inverse to order {order} needs jet order >= {order}, "
                f"have {self.order}")
        c0 = self.constant_term()
        inv0 = invert_coefficient(c0)
        x = Jet2D.constant(inv0, 0)
        m = 0
        two = Jet2D.constant(2, order)
        while m < order:
            m = min(2 * m + 1, order)
            fm = self.truncate(m)
            fx = fm._mul_capped(x, m)
            x = x._mul_capped(two - fx, m)
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
