"""Tests for the sphere-spectrum and closed-form oracles."""

from fractions import Fraction

import mpmath

from heatjets.heatinv import WEYL_A0
from heatjets.oracle import golden_a1, sphere_heat_coefficients


def test_sphere_heat_coefficients_values():
    assert sphere_heat_coefficients(8) == [
        Fraction(1, 4), Fraction(1, 12), Fraction(1, 60), Fraction(1, 315),
        Fraction(1, 1260), Fraction(1, 3465), Fraction(191, 1351350),
        Fraction(58, 675675), Fraction(2833, 45945900)]
    assert sphere_heat_coefficients(0) == [Fraction(1, 4)]


def test_sphere_heat_coefficients_match_the_spectrum():
    # The unit sphere's heat trace sum_l (2l+1) e^(-t l(l+1)) is
    # 4 pi sum_n a_n t^(n-1) = 4 sum_n q_n t^(n-1) up to O(t^N); at
    # t = 1/100 the partial sum to l = 200 drops a tail below e^(-400).
    with mpmath.workdps(40):
        t = mpmath.mpf(1) / 100
        trace = sum((2 * l + 1) * mpmath.exp(-t * l * (l + 1))
                    for l in range(201))
        series = 4 * sum(mpmath.mpf(q.numerator) / q.denominator * t ** (n - 1)
                         for n, q in enumerate(sphere_heat_coefficients(8)))
        assert abs(trace - series) / trace < mpmath.mpf(10) ** -12


def test_weyl_term_is_q0():
    assert WEYL_A0.q == sphere_heat_coefficients(0)[0]


def test_golden_a1_matches_engine():
    from heatjets.heatinv import symbolic_heat_invariant

    poly, pi_power = golden_a1()
    assert pi_power == 1
    assert symbolic_heat_invariant(1).form.poly == poly


def test_golden_a1_on_sphere_jet():
    from heatjets.heatinv import ClosedForm, PiScaled
    from heatjets.jets import Jet2D

    poly, _ = golden_a1()
    form = ClosedForm(n=1, poly=poly)
    rho = Jet2D({(0, 0): Fraction(4), (2, 0): Fraction(-8),
                 (0, 2): Fraction(-8)}, order=2)
    assert form.substitute(rho) == PiScaled(Fraction(1, 12))
