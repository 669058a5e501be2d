"""Laplacians of conformally flat 2-D metrics acting on jets.

For the metric rho(u, v) (du^2 + dv^2) the (nonnegative) Laplace operator is

    Delta f = -(1/rho) (f_uu + f_vv),

and its freezing at the origin replaces 1/rho by the constant 1/rho(0, 0).
Both act on Jet2D values over any exact coefficient ring and lower the jet
order by two per application.  Both take their flat part
s = -(f_uu + f_vv) from one function, ``flat_laplacian``, in the jet
arithmetic of f's ring.  The frozen operator is s times the constant jet
1/rho(0, 0) in the jet product of its ring.

For Delta, concrete jets multiply s by the cached inverse; ``RhoPoly`` jets
divide s by rho.  The kernel follows the ring of rho and of s, not of f: an
f whose ``RhoPoly`` coefficients sit below degree 2 has a concrete s.
Either way rho is read only to degree order(s) - valuation(s):

* on concrete jets, ``ConformalLaplacian`` inverts rho only to the largest
  degree asked for so far (by ``Jet2D.inverse``) and truncates that jet for
  smaller requests.  s, int numerators over one denominator, is multiplied
  by that jet in the one integral kernel, ``jets._capped_product``, so an
  application builds no ``Fraction``.  ``gaussian_curvature_jet`` and the
  table of ``heatinv`` borrow the cached inverse, so the curvature route
  inverts rho once for K, Delta K and every a_n;
* when s or rho has ``RhoPoly`` coefficients, ``_divided_laplacian`` solves
  rho g = s for g = Delta f degree by degree.  Each degree-d coefficient of
  1/rho is a dense polynomial in the rho_ab, while rho has one monomial per
  coefficient for the generic factor, so the division forms far fewer
  monomial products than the product with 1/rho.  On the packed keys of
  ``heatjets.jets`` keys subtract: g_(a-p, b-q), which rho_pq meets, has
  the key of (a, b) minus the key of (p, q).

The routes make no chain of applications: they read every a_n off the
table of ``heatinv``, the transpose of such a chain.  On the radial terms
of eq311 and eq310 it applies Delta nowhere, on either ring: it runs in the
complex coordinates z, zbar, where the flat part -4 d_z d_zbar moves each
monomial to one monomial, and gathers over the complex coefficients of
1/rho on concrete jets or divides by rho on ``RhoPoly`` ones.  Only the
curvature route, whose terms are not radial, keeps the gather over real
rows, and it applies Delta once, to the one term it reads last.
``ConformalLaplacian.apply``, with ``_divided_laplacian`` on the
``RhoPoly`` ring, is the independent reference the tests compare the table
with on both rings.  The ring of rho is read once, when an operator is
built.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import OrderExhausted
from .jets import (STRIDE, Jet2D, _capped_product, _has_rhopoly, _slot,
                   invert_coefficient)
from .rhopoly import RhoPoly


def flat_laplacian(f):
    """-(f_uu + f_vv), trusted to f.order - 2, in the ring of f: the flat
    part of both Laplacians, formed in one pass over the slots of f, so a
    concrete f pays one gcd.  The slot (a, b) of f gives -a(a-1) c to
    (a - 2, b) and -b(b-1) c to (a, b - 2)."""
    if f.order < 2:
        raise OrderExhausted(
            f"derivative of total order 2 exhausts jet order {f.order}")
    num = {}
    for k, c in f.num.items():
        a, b = _slot(k)
        for w, j in ((a * (a - 1), k - 2 * STRIDE),
                     (b * (b - 1), k - 2 * STRIDE - 2)):
            if w:
                prev = num.get(j)
                num[j] = -w * c if prev is None else prev - w * c
    return Jet2D._form(f.den, num, f.order - 2)


def _divided_laplacian(s, inv0, tail, known):
    """g = s / rho trusted to s.order, solved from rho g = s.

    s is the flat part -(f_uu + f_vv) of Delta f; `inv0` is 1/rho_00,
    `tail` lists (key of (p, q), -rho_pq / rho_00) for the nonzero rho_pq,
    (p, q) != (0, 0), sorted by key, and rho is known to degree `known`.
    From the valuation v of g, which is that of s, up to the output order,

        g_ab = (1/rho_00) (s_ab - sum rho_pq g_(a-p, b-q)),   p + q >= 1,

    and each slot is one ``RhoPoly.dot`` of the pairs (1/rho_00, s_ab) and
    (-rho_pq/rho_00, g_(a-p, b-q)); the sum reads rho to degree
    need = order - v.  When p > a or q > b the difference of the keys of
    (a, b) and (p, q) is no slot's key, so g_(a-p, b-q) is not found in g.
    """
    order, values = s.order, s._values()
    g = {}
    v = None
    for d in range(s.valuation(), order + 1):
        # tail keys below `reach` are rho_pq with p + q <= d - v
        reach = 0 if v is None else (d - v + 1) * STRIDE
        for k in range(d * STRIDE, d * STRIDE + d + 1):
            c = values.get(k)
            pairs = [] if c is None else [(inv0, c)]
            for kt, t in tail:
                if kt >= reach:
                    break
                c = g.get(k - kt)
                if c is not None:
                    pairs.append((t, c))
            if pairs:
                value = RhoPoly.dot(pairs)
                if value:
                    g[k] = value
        if v is None and g:
            v = d
            if order - v > known:
                raise OrderExhausted(
                    f"Delta f to order {order} reads rho to order "
                    f"{order - v}, have {known}")
    return Jet2D._form(None, g, order)


class ConformalLaplacian:
    """Delta f = -(1/rho)(f_uu + f_vv): a cached 1/rho jet for concrete
    jets, a division by rho for ``RhoPoly`` ones."""

    def __init__(self, rho: Jet2D):
        self.rho = rho
        self.inv0 = invert_coefficient(rho.constant_term())  # fail fast
        self.symbolic = _has_rhopoly(rho)  # the ring, read once
        self._inv = None   # 1/rho to the largest order requested so far
        self._tail = None  # division_tail(), built on first use

    def inverse_factor(self, order: int) -> Jet2D:
        """The jet of 1/rho trusted to `order`, recomputed only to go higher."""
        if self._inv is None or self._inv.order < order:
            self._inv = self.rho.inverse(order)
        return self._inv.truncate(order)

    def division_tail(self):
        """(key of (p, q), -rho_pq / rho_00) for the nonzero rho_pq,
        (p, q) != (0, 0), sorted by key: what a division by rho reads."""
        if self._tail is None:
            self._tail = sorted((k, -c * self.inv0)
                                for k, c in self.rho._values().items() if k)
        return self._tail

    def apply(self, f: Jet2D) -> Jet2D:
        """Delta f from its flat part s: s divided by rho when s or rho has
        ``RhoPoly`` coefficients, else s times 1/rho read to degree
        order(s) - valuation(s), on int numerators."""
        s = flat_laplacian(f)
        if self.symbolic or _has_rhopoly(s):
            return _divided_laplacian(s, self.inv0, self.division_tail(),
                                      self.rho.order)
        if not s:
            return s
        return _capped_product(
            s, self.inverse_factor(s.order - s.valuation()), s.order)


class FrozenLaplacian:
    """Delta_0 f = -(1/rho(0,0))(f_uu + f_vv), the origin-frozen operator."""

    def __init__(self, rho: Jet2D):
        self.inv0 = invert_coefficient(rho.constant_term())

    def apply(self, f: Jet2D) -> Jet2D:
        """Delta_0 f: the flat part times the constant 1/rho(0, 0), known to
        every degree, in the jet product of its ring."""
        s = flat_laplacian(f)
        return s * Jet2D.constant(self.inv0, s.order)


def gaussian_curvature_jet(rho: Jet2D,
                           lap: ConformalLaplacian | None = None) -> Jet2D:
    """Jet of the Gaussian curvature K = (1/2) Delta log rho; order drops by 2.

    Computed without a log series in divergence form,

        K = -(1/(2 rho)) (d_u(rho_u / rho) + d_v(rho_v / rho)),

    with three products.  1/rho is taken from `lap`, a Laplacian of the same
    rho, so that a caller which also applies Delta inverts rho once; without
    `lap` a fresh one is built.
    """
    ru, rv = rho.diff(1, 0), rho.diff(0, 1)
    inv = (lap or ConformalLaplacian(rho)).inverse_factor(ru.order)
    div = (ru * inv).diff(1, 0) + (rv * inv).diff(0, 1)
    return inv * div * Fraction(-1, 2)
