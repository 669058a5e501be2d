"""Laplacians of conformally flat 2-D metrics acting on jets.

For the metric rho(u, v) (du^2 + dv^2) the (nonnegative) Laplace operator is

    Delta f = -(1/rho) (f_uu + f_vv),

and its freezing at the origin replaces 1/rho by the constant 1/rho(0, 0).
Both act on Jet2D values over any exact coefficient ring and lower the jet
order by two per application.  The frozen operator is one line of jet
arithmetic: f_uu + f_vv times the constant jet 1/rho(0, 0) in the jet
product of its ring.

For Delta, concrete jets multiply by the cached inverse; ``RhoPoly`` jets
divide by rho.  Either way rho is read only to degree
order(result) - valuation(f_uu + f_vv):

* on concrete jets, ``ConformalLaplacian`` inverts rho only to the largest
  degree asked for so far (by ``Jet2D.inverse``) and truncates that jet for
  smaller requests.  ``jets.laplacian`` forms f_uu + f_vv on the int
  numerators of f and multiplies it by that jet in the one integral kernel,
  ``jets._capped_product``, so an application builds no ``Fraction``.
  ``gaussian_curvature_jet`` and the table of ``heatinv`` borrow the cached
  inverse, so the curvature route inverts rho once for K, Delta K and every
  a_n;
* when f or rho has ``RhoPoly`` coefficients, ``_divided_laplacian`` solves
  rho g = -(f_uu + f_vv) for g = Delta f degree by degree.  Each degree-d
  coefficient of 1/rho is a dense polynomial in the rho_ab, while rho has
  one monomial per coefficient for the generic factor, so the division
  forms far fewer monomial products than the product with 1/rho.  On the
  packed keys of ``heatjets.jets`` keys subtract: g_(a-p, b-q), which
  rho_pq meets, has the key of (a, b) minus the key of (p, q).

The routes make no chain of applications: they read every a_n off the
table of ``heatinv``, the transpose of such a chain, which applies Delta
once, to the one term it reads last.  Its division by rho is the transpose
of ``_divided_laplacian``, and ``ConformalLaplacian.apply`` is the
reference the tests compare the table with.  The ring of rho is read once,
when an operator is built.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import OrderExhausted
from .jets import (STRIDE, Jet2D, _has_rhopoly, _slot, invert_coefficient,
                   laplacian)
from .rhopoly import RhoPoly


def _divided_laplacian(f, inv0, tail, known):
    """Delta f trusted to order f.order - 2, solved from rho g = s.

    s = -(f_uu + f_vv); `inv0` is 1/rho_00, `tail` lists (key of (p, q),
    -rho_pq / rho_00) for the nonzero rho_pq, (p, q) != (0, 0), sorted by
    key, and rho is known to degree `known`.  From the valuation v of g,
    which is that of s, up to the output order,

        g_ab = (1/rho_00) (s_ab - sum rho_pq g_(a-p, b-q)),   p + q >= 1,

    and each slot is one ``RhoPoly.dot`` of the pairs
    (-(a+2)(a+1)/rho_00, f_(a+2, b)), (-(b+2)(b+1)/rho_00, f_(a, b+2)) and
    (-rho_pq/rho_00, g_(a-p, b-q)); the sum reads rho to degree
    need = order - v.  When p > a or q > b the difference of the keys of
    (a, b) and (p, q) is no slot's key, so g_(a-p, b-q) is not found in g.
    """
    order = f.order - 2
    if order < 0:
        raise OrderExhausted(
            f"derivative of total order 2 exhausts jet order {f.order}")
    scaled = {}  # m -> -m / rho_00
    slots = {}   # key of (a, b) -> the pairs of s_ab
    for k, c in f._values().items():
        a, b = _slot(k)
        for m, j in ((a * (a - 1), k - 2 * STRIDE),
                     (b * (b - 1), k - 2 * STRIDE - 2)):
            if m:
                if m not in scaled:
                    scaled[m] = -m * inv0
                slots.setdefault(j, []).append((scaled[m], c))
    g = {}
    v = None
    for d in range(min(slots, default=(order + 1) * STRIDE) // STRIDE,
                   order + 1):
        # tail keys below `reach` are rho_pq with p + q <= d - v
        reach = 0 if v is None else (d - v + 1) * STRIDE
        for k in range(d * STRIDE, d * STRIDE + d + 1):
            pairs = slots.get(k, [])
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
        self._symbolic = _has_rhopoly(rho)
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
        """Delta f: on int numerators for concrete f and rho, by division
        for ``RhoPoly`` ones."""
        if not (self._symbolic or _has_rhopoly(f)):
            return laplacian(f, self.inverse_factor)
        return _divided_laplacian(f, self.inv0, self.division_tail(),
                                  self.rho.order)


class FrozenLaplacian:
    """Delta_0 f = -(1/rho(0,0))(f_uu + f_vv), the origin-frozen operator."""

    def __init__(self, rho: Jet2D):
        self.inv0 = invert_coefficient(rho.constant_term())

    def apply(self, f: Jet2D) -> Jet2D:
        """Delta_0 f: f_uu + f_vv times the constant 1/rho(0, 0), known to
        every degree, in the jet product of its ring."""
        s = f.diff(2, 0) + f.diff(0, 2)
        return -(s * Jet2D.constant(self.inv0, s.order))


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
