#!/usr/bin/env python3
"""Fit heat-trace asymptotics on the round sphere and compare with the
exact engine values a_0 = 1/(4 pi), a_1 = 1/(12 pi R^2), a_2 (computed).

Usage: python3 scripts/spectral_fit_demo.py [--radius 1] [--dps 64]
"""

import argparse
from fractions import Fraction

import mpmath

from heatjets.heatinv import (
    WEYL_A0,
    heat_invariant,
    render_pi_scaled,
    required_order,
)
from heatjets.metrics import expand_metric, parse_metric_spec
from heatjets.oracle import SphereSpectrum, fit_diagonal_coefficients


def exact_values(radius):
    spec = parse_metric_spec({"kind": "sphereStereographic",
                              "R": str(radius)})
    values = [WEYL_A0]
    for n in (1, 2):
        rho = expand_metric(spec, required_order(n, "eq311"))
        values.append(heat_invariant(n, rho).form)
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--radius", type=Fraction, default=Fraction(1))
    parser.add_argument("--dps", type=int, default=64)
    args = parser.parse_args()

    fit = fit_diagonal_coefficients(SphereSpectrum(args.radius),
                                    n_terms=3, dps=args.dps)
    exact = exact_values(args.radius)
    with mpmath.workdps(args.dps):
        print(f"sphere R = {args.radius}, grid "
              f"[{mpmath.nstr(fit.t_grid[0], 4)} .. "
              f"{mpmath.nstr(fit.t_grid[-1], 4)}], {len(fit.t_grid)} nodes")
        for n, (value, est) in enumerate(zip(exact, fit.error_estimates)):
            target = (mpmath.mpf(value.q.numerator) / value.q.denominator
                      / mpmath.pi)
            got = fit.coefficients[n]
            rel = abs(got - target) / abs(target)
            print(f"a_{n}: fitted {mpmath.nstr(got, 20)}")
            print(f"     exact  {mpmath.nstr(target, 20)}"
                  f"  ({render_pi_scaled(value)})")
            print(f"     relative error {mpmath.nstr(rel, 3)}, "
                  f"relative estimate {mpmath.nstr(est / abs(target), 3)}")


if __name__ == "__main__":
    main()
