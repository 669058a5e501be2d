"""Independent verification oracles for the heat-coefficient engine.

Nothing here touches the constant tables or evaluators of the main path;
only the exact polynomial primitives are shared.  Two oracles:

  * the round sphere's explicit spectrum (eigenvalues l(l+1)/R^2 with
    multiplicity 2l+1) gives the heat trace as a rapidly convergent series;
    dividing by the area gives the diagonal kernel by homogeneity, and a
    divided-difference fit of t K(t) = a_0 + a_1 t + a_2 t^2 + ... on a
    small geometric t-grid recovers the leading coefficients to many digits
    with an honest error estimate.  It runs in mpmath at a configurable
    precision.  The computation path is exact; besides this module, only
    ``heatinv verify`` (criterion 4 runs this fit) and ``--approx`` use
    mpmath, and both import it when they run.

  * the classical surface formula a_1 = (rho_u^2 + rho_v^2 - rho rho_uu
    - rho rho_vv) / (24 pi rho^3), built here directly as a polynomial for
    exact comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from .errors import IllConditionedFit, TailNotConverged
from .rhopoly import RhoPoly

DEFAULT_DPS = 64


@dataclass(frozen=True)
class SphereSpectrum:
    """Laplace spectrum of the round 2-sphere of radius R."""
    radius: Fraction = Fraction(1)

    def area(self):
        return 4 * mpmath.pi * self._r2()

    def _r2(self):
        r = self.radius
        return mpmath.mpf(r.numerator) ** 2 / mpmath.mpf(r.denominator) ** 2


def _sphere_tail_bound(tau, lmax):
    """Upper bound for sum_{l > lmax} (2l+1) e^(-l(l+1) tau).

    With r = e^(-2(lmax+1) tau), each step past lmax shrinks the exponential
    by at least r, so the tail is dominated by e^(-lmax(lmax+1) tau) times
    a geometric-plus-arithmetic series.
    """
    r = mpmath.exp(-2 * (lmax + 1) * tau)
    head = mpmath.exp(-lmax * (lmax + 1) * tau)
    return head * ((2 * lmax + 1) * r / (1 - r) + 2 * r / (1 - r) ** 2)


def sphere_heat_trace(radius, t, lmax=None, tol=None, dps=DEFAULT_DPS,
                      with_bound=False):
    """Sum of e^(-t lambda) over the sphere spectrum, tail-bounded.

    `lmax` is chosen automatically from the tail bound when omitted;
    passing it explicitly raises TailNotConverged if the dropped tail
    cannot be certified below `tol`.
    """
    with mpmath.workdps(dps):
        spec = SphereSpectrum(Fraction(radius))
        tau = mpmath.mpf(t) / spec._r2()
        if tau <= 0:
            raise ValueError("t must be positive")
        if tol is None:
            tol = mpmath.mpf(10) ** (-(dps - 8))
        if lmax is None:
            lmax = 1
            while _sphere_tail_bound(tau, lmax) > tol:
                lmax = max(lmax + 1, int(lmax * 1.3))
        bound = _sphere_tail_bound(tau, lmax)
        if bound > tol:
            raise TailNotConverged(
                f"dropped tail bound {mpmath.nstr(bound, 3)} exceeds "
                f"tolerance {mpmath.nstr(mpmath.mpf(tol), 3)} at lmax={lmax}")
        total = mpmath.mpf(0)
        for l in range(lmax + 1):
            total += (2 * l + 1) * mpmath.exp(-l * (l + 1) * tau)
        if with_bound:
            return total, bound, lmax
        return total


@dataclass
class AsymptoticFit:
    """Diagonal-coefficient estimates with drop-a-node error estimates."""
    coefficients: list
    error_estimates: list
    residual: object
    t_grid: list = field(default_factory=list)


def _newton_monomial_coefficients(xs, ys):
    """Monomial coefficients of the interpolating polynomial through (xs, ys)."""
    n = len(xs)
    dd = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
    coeffs = [mpmath.mpf(0)] * n
    coeffs[0] = dd[n - 1]
    for j in range(n - 2, -1, -1):
        for i in range(n - 1, 0, -1):
            coeffs[i] = coeffs[i - 1] - xs[j] * coeffs[i]
        coeffs[0] = dd[j] - xs[j] * coeffs[0]
    return coeffs


def default_t_grid(dps=DEFAULT_DPS):
    """Geometric grid in [1e-3, 1e-1] with ratio 2."""
    with mpmath.workdps(dps):
        base = mpmath.mpf(1) / 1000
        grid = []
        t = base
        while t <= mpmath.mpf(1) / 10:
            grid.append(t)
            t = t * 2
        return grid


def fit_diagonal_coefficients(model: SphereSpectrum, n_terms=3, t_grid=None,
                              dps=DEFAULT_DPS) -> AsymptoticFit:
    """Estimate a_0 .. a_(n_terms-1) of K(t,x,x) ~ (1/t) sum a_n t^n.

    On the sphere K(t,x,x) = trace/area pointwise, so t K(t) is a power
    series in t whose leading coefficients are read off an interpolating
    polynomial over the t-grid.  Error estimates come from re-fitting
    without the largest node (which carries the worst asymptotic
    truncation); the fit is rejected as ill-conditioned when an estimate
    swamps its coefficient.
    """
    with mpmath.workdps(dps):
        if t_grid is None:
            t_grid = default_t_grid(dps)
        t_grid = sorted(mpmath.mpf(t) for t in t_grid)
        if n_terms > len(t_grid) - 1:
            raise IllConditionedFit(
                f"{n_terms} coefficients need at least {n_terms + 1} grid "
                f"nodes, got {len(t_grid)}")
        area = model.area()
        ys = [t * sphere_heat_trace(model.radius, t, dps=dps) / area
              for t in t_grid]
        full = _newton_monomial_coefficients(t_grid, ys)
        trimmed = _newton_monomial_coefficients(t_grid[:-1], ys[:-1])
        coefficients = full[:n_terms]
        errors = [abs(full[i] - trimmed[i]) for i in range(n_terms)]
        for value, err in zip(coefficients, errors):
            if err > abs(value) / 2:
                raise IllConditionedFit(
                    "coefficient estimate lost all significant digits: "
                    f"value {mpmath.nstr(value, 5)}, drift "
                    f"{mpmath.nstr(err, 5)}")
        return AsymptoticFit(coefficients=coefficients,
                             error_estimates=errors,
                             residual=max(errors),
                             t_grid=t_grid)


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
