"""Independent verification oracles for the heat-coefficient engine.

Nothing here touches the constant tables or evaluators of the main path;
only the exact polynomial primitives are shared.  Two oracles, both exact:

  * the round sphere's explicit spectrum (eigenvalues l(l+1)/R^2 with
    multiplicity 2l+1).  Euler-Maclaurin summation gives its heat trace in
    closed form (H. P. Mulholland, Proc. Cambridge Philos. Soc. 24 (1928)),

        sum_l (2l+1) e^(-t l(l+1))
            = e^(t/4) (1/t + sum_{j>=0} -B_{2j+2}(1/2) (-t)^j / (j+1)!),

    with B_k(1/2) = (2^(1-k) - 1) B_k; dividing by the area 4 pi R^2 gives
    the diagonal kernel by homogeneity, so every a_n of the sphere is an
    exact rational over pi R^(2n).

  * the classical surface formula a_1 = (rho_u^2 + rho_v^2 - rho rho_uu
    - rho rho_vv) / (24 pi rho^3), built here directly as a polynomial for
    exact comparison.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .rhopoly import RhoPoly


def sphere_heat_coefficients(n_max: int) -> list:
    """[q_0, ..., q_(n_max)], where a_n = q_n / (pi R^(2n)) on the sphere.

    t K(t) = t trace / (4 pi R^2) is e^(t/4) times the power series
    p(t) = 1 + sum_j -B_{2j+2}(1/2) (-1)^j t^(j+1) / (j+1)! (in units of
    R^2), so q_n = (1/4) sum_m p_m / (4^(n-m) (n-m)!).
    """
    bernoulli = [Fraction(1)]
    for m in range(1, 2 * n_max + 1):
        bernoulli.append(-sum(comb(m + 1, k) * b
                              for k, b in enumerate(bernoulli)) / (m + 1))
    p = [Fraction(1)] + [
        (1 - Fraction(1, 2 ** (2 * j + 1))) * bernoulli[2 * j + 2]
        * (-1) ** j / factorial(j + 1)
        for j in range(n_max)]
    return [sum(p[m] / (4 ** (n - m) * factorial(n - m))
                for m in range(n + 1)) / 4
            for n in range(n_max + 1)]


def golden_a1():
    """The classical a_1 closed form, constructed without the main engine.

    Returns (polynomial in Taylor-coefficient variables over rho_00^3,
    pi power), representing (rho_u^2 + rho_v^2 - rho rho_uu - rho rho_vv)
    / (24 pi rho^3) with derivative values rewritten as Taylor coefficients
    (rho_uu = 2 t_20 and so on).
    """
    t = RhoPoly.var
    num = (t(1, 0) ** 2 + t(0, 1) ** 2
           - 2 * t(0, 0) * t(2, 0) - 2 * t(0, 0) * t(0, 2))
    poly = num * Fraction(1, 24) * RhoPoly({(): 1}, den=3)
    return poly, 1
