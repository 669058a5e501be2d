"""Laplacians of conformally flat 2-D metrics acting on jets.

For the metric rho(u, v) (du^2 + dv^2) the (nonnegative) Laplace operator is

    Delta f = -(1/rho) (f_uu + f_vv),

and its freezing at the origin replaces 1/rho by the constant 1/rho(0, 0).
Both act on Jet2D values over any exact coefficient ring and lower the jet
order by two per application.

The reciprocal 1/rho is expensive for a fully generic conformal factor, but
the pipelines here never need it far: applying Delta repeatedly to a
homogeneous polynomial keeps the band order - valuation of every
intermediate jet bounded, so the product (1/rho) * (f_uu + f_vv) only
consumes the reciprocal up to degree order(result) - valuation(f_uu + f_vv).
``ConformalLaplacian`` therefore inverts rho only to the largest degree asked
for so far (by ``Jet2D.inverse``) and truncates that jet for smaller requests.
``gaussian_curvature_jet`` can borrow that cache, so a caller that needs K and
Delta K inverts rho once.

Both operators apply through ``jets.laplacian``: on concrete jets, f_uu + f_vv
is formed on int numerators and fed straight into the shared integral
product kernel, and the frozen operator is the same product with the
order-0 factor 1/rho(0, 0).
"""

from __future__ import annotations

from fractions import Fraction

from .jets import Jet2D, invert_coefficient, laplacian


class ConformalLaplacian:
    """Delta f = -(1/rho)(f_uu + f_vv) with a cached 1/rho jet."""

    def __init__(self, rho: Jet2D):
        self.rho = rho
        invert_coefficient(rho.constant_term())  # fail fast if degenerate
        self._inv = None  # 1/rho to the largest order requested so far

    def inverse_factor(self, order: int) -> Jet2D:
        """The jet of 1/rho trusted to `order`, recomputed only to go higher."""
        if self._inv is None or self._inv.order < order:
            self._inv = self.rho.inverse(order)
        return self._inv.truncate(order)

    def apply(self, f: Jet2D) -> Jet2D:
        return laplacian(f, self.inverse_factor)

    def apply_power(self, f: Jet2D, k: int) -> Jet2D:
        for _ in range(k):
            f = self.apply(f)
        return f


class FrozenLaplacian:
    """Delta_0 f = -(1/rho(0,0))(f_uu + f_vv), the origin-frozen operator."""

    def __init__(self, rho: Jet2D):
        self.inv0 = invert_coefficient(rho.constant_term())

    def apply(self, f: Jet2D) -> Jet2D:
        return laplacian(f, self._inverse_factor)

    def _inverse_factor(self, order: int) -> Jet2D:
        """The constant 1/rho(0, 0) as a jet trusted to `order`."""
        return Jet2D.constant(self.inv0, order)


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
