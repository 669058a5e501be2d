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
Laplacians) multiplies jets on ints; ``RhoPoly`` products take one fused
``RhoPoly.dot`` per slot instead.  The Newton inverse carries its iterate as
an int jet over its common denominator, so a step builds no ``Fraction``.

``laplacian`` applies Delta f = -(1/rho)(f_uu + f_vv) to a concrete jet in
``_IntegralJet`` form: int numerators over one common denominator D, keyed
by packed (a, b).  The numerators of -(f_uu + f_vv) go straight into the
product with 1/rho, and the result stays in that form with its content
gcd(D, numerators) divided out, so D stays the lcm of the reduced
coefficients' denominators.  A chain of applications (eq311's Horner sum,
eq310's powers) passes the form from one application to the next and
builds one ``Fraction`` at its constant term.  Concrete jets multiply by the
cached inverse; ``RhoPoly`` jets divide by rho (``heatjets.laplace``).
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


def _jet_of(den, acc, order, stride):
    """The Jet2D of int numerators ``acc`` (packed keys) over ``den``.

    Each nonzero slot becomes one ``Fraction(n, den)``, or the int n when
    den is 1.
    """
    if den == 1:
        out = {divmod(k, stride): n for k, n in acc.items() if n}
    else:
        out = {divmod(k, stride): Fraction(n, den)
               for k, n in acc.items() if n}
    return Jet2D(out, order, _canonical=True)


def _integral_product(left, right, cap):
    """The jet of order cap of two ``(D, terms)`` factors, keyed by cap + 1.

    The int numerators are multiplied and accumulated in slots keyed
    a * (cap + 1) + b, so a product's key is the sum of its factors' keys,
    and ``_jet_of`` builds the jet over D1 * D2.  The right factor's terms
    are sorted by degree, so each left term stops at the first right term
    that takes the product past the cap.
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
    return _jet_of(den1 * den2, acc, cap, cap + 1)


def _numerators(jet):
    """(D, D * jet): D is the lcm of the denominators of a concrete jet, so
    D * jet has int coefficients; (1, jet) for a ``RhoPoly`` jet."""
    if _has_rhopoly(jet):
        return 1, jet
    den = lcm(*[c.denominator for c in jet.coeffs.values()])
    return den, Jet2D({k: c.numerator * (den // c.denominator)
                       for k, c in jet.coeffs.items()},
                      jet.order, _canonical=True)


def _content_free(den, jet):
    """(den / g, jet / g) of the int jet over ``den``, g its gcd with every
    coefficient; unchanged when den is 1 (so also for ``RhoPoly`` jets)."""
    if den == 1:
        return den, jet
    g = gcd(den, *jet.coeffs.values())
    if g == 1:
        return den, jet
    return den // g, Jet2D({k: c // g for k, c in jet.coeffs.items()},
                           jet.order, _canonical=True)


class _IntegralJet:
    """A concrete jet as int numerators over one common denominator.

    ``num`` maps the packed key a * stride + b of each slot to its int
    numerator over ``den``; every key has a + b <= order < stride.  Keys of
    one Laplacian chain share a stride, so a product's key is the sum of its
    factors' keys and no key is repacked between applications.

    ``laplacian`` returns the form straight from its product: numerators
    not divided by their content and possibly zero.  ``reduced`` divides the
    content out, so ``den`` is the lcm of the reduced coefficients'
    denominators, and ``jet`` builds one ``Fraction`` per nonzero slot.
    """

    __slots__ = ("den", "num", "order", "stride")

    def __init__(self, den, num, order, stride):
        self.den, self.num, self.order, self.stride = den, num, order, stride

    @classmethod
    def of(cls, jet, stride=None):
        """The form of a concrete Jet2D; the stride defaults to order + 1."""
        if stride is None:
            stride = jet.order + 1
        den = lcm(*[c.denominator for c in jet.coeffs.values()])
        return cls(den, {a * stride + b: c.numerator * (den // c.denominator)
                         for (a, b), c in jet.coeffs.items()},
                   jet.order, stride)

    def jet(self):
        return _jet_of(self.den, self.num, self.order, self.stride)

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

    def prefixes(self):
        """(den, p): p[e] lists the (key, numerator) of degree <= e, for
        e = 0..order, so a product capped at c reads p[c - d] per degree d."""
        by_degree = [[] for _ in range(self.order + 1)]
        for k, n in self.num.items():
            by_degree[sum(divmod(k, self.stride))].append((k, n))
        out, upto = [], []
        for group in by_degree:
            upto = upto + group
            out.append(upto)
        return self.den, out

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
        if self.order == other.order:
            num = {k: n for k, n in num.items() if n}
        else:
            num = {k: n for k, n in num.items()
                   if n and sum(divmod(k, stride)) <= order}
        return _IntegralJet(den, num, order, stride)


def laplacian(f, inverse_terms):
    """-(1/rho)(f_uu + f_vv) of an ``_IntegralJet`` f, trusted to order
    f.order - 2, as an ``_IntegralJet`` of the same stride.

    The int numerators of s = -(f_uu + f_vv) over f's denominator D_f are
    accumulated per slot ((a, b) feeds (a - 2, b) with a(a - 1) and
    (a, b - 2) with b(b - 1)) and divided by their gcd with D_f, so s is
    over the lcm of its reduced coefficients' denominators.  Then
    ``inverse_terms(need, stride)`` gives 1/rho trusted to order need = the
    output order minus the valuation of s, as the ``prefixes`` of its
    integral form, and each degree-d group of s multiplies the prefix that
    stays within the output order.  When s vanishes to the output order the
    result is zero and 1/rho is not asked for.  The product's numerators
    come back over D_s * D_(1/rho), not yet ``reduced``.
    """
    order = f.order - 2
    if order < 0:
        raise OrderExhausted(
            f"derivative of total order 2 exhausts jet order {f.order}")
    stride = f.stride
    s = {}
    for k, n in f.num.items():
        a, b = divmod(k, stride)
        if a > 1:
            j = k - 2 * stride
            s[j] = s.get(j, 0) - a * (a - 1) * n
        if b > 1:
            s[k - 2] = s.get(k - 2, 0) - b * (b - 1) * n
    g = gcd(f.den, *s.values())
    by_degree = {}  # degree -> [(key, numerator)] of s over D_f / g
    for k, n in s.items():
        if n:
            d = sum(divmod(k, stride))
            by_degree.setdefault(d, []).append((k, n // g))
    if not by_degree:
        return _IntegralJet(1, {}, order, stride)
    den, prefixes = inverse_terms(order - min(by_degree), stride)
    acc = {}
    for d, group in by_degree.items():
        right = prefixes[order - d]
        for k1, n1 in group:
            for k2, n2 in right:
                k = k1 + k2
                acc[k] = acc.get(k, 0) + n1 * n2
    return _IntegralJet(f.den // g * den, acc, order, stride)


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
        term.  `order` defaults to the jet's own order.  On concrete jets x
        and f are carried as int jets over their common denominators
        (``_numerators``), so both products of a step run on ints and no
        ``Fraction`` is built until the last step's product is divided out.
        """
        if order is None:
            order = self.order
        if order > self.order:
            raise OrderExhausted(
                f"inverse to order {order} needs jet order >= {order}, "
                f"have {self.order}")
        inv0 = invert_coefficient(self.constant_term())
        if order == 0:
            return Jet2D.constant(inv0, 0)
        x_den, x = _numerators(Jet2D.constant(inv0, 0))
        m = 0
        while m < order:
            m = min(2 * m + 1, order)
            f_den, f = _numerators(self.truncate(m))
            den = f_den * x_den  # f x = (f_den f)(x_den x) / den
            y_den, y = _content_free(
                den, Jet2D.constant(2 * den, m) - f._mul_capped(x, m))
            x_den, x = x_den * y_den, x._mul_capped(y, m)
            if m < order:
                x_den, x = _content_free(x_den, x)
        if x_den == 1:
            return x
        return Jet2D({k: Fraction(c, x_den) for k, c in x.coeffs.items()},
                     order, _canonical=True)

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
