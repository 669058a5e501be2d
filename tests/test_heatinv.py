"""Heat-invariant engine: constants, closed forms, paths, and rendering."""

import functools
import json
import random
from fractions import Fraction

import pytest

from heatjets.errors import IndexOutOfRange, OrderExhausted
from heatjets.heatinv import (WEYL_A0, _radial_terms, closed_form_to_json,
                              gamma_half_rational, generic_rho_jet,
                              heat_constant, heat_invariant,
                              heat_invariant_via_frozen,
                              parse_closed_form_json, render_closed_form,
                              render_pi_scaled, required_order,
                              symbolic_heat_invariant)
from heatjets.jets import Jet2D
from heatjets.laplace import ConformalLaplacian
from heatjets.rhopoly import PiScaled, RhoPoly, mono_degree

GOLDEN_A1_PLAIN = "(rho_u^2 + rho_v^2 - rho*rho_uu - rho*rho_vv) / (24*pi*rho^3)"


def golden_a1_poly():
    t = RhoPoly.var
    num = (t(1, 0) ** 2 + t(0, 1) ** 2
           - 2 * t(0, 0) * t(2, 0) - 2 * t(0, 0) * t(0, 2))
    return num * Fraction(1, 24) * RhoPoly({(): 1}, den=3)


def sphere_rho(radius, order):
    r2 = Fraction(radius) ** 2
    base = Jet2D({(0, 0): r2, (2, 0): Fraction(1), (0, 2): Fraction(1)},
                 order)
    return (base ** 2).inverse() * (4 * r2 ** 2)


def random_metric_jet(rng, order=16):
    coeffs = {(a, b): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for a in range(order + 1) for b in range(order + 1 - a)}
    coeffs[(0, 0)] = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    return Jet2D(coeffs, order)


def test_gamma_half_rational_values():
    assert gamma_half_rational(0) == 1
    assert gamma_half_rational(1) == Fraction(1, 2)
    assert gamma_half_rational(2) == Fraction(3, 4)
    with pytest.raises(IndexOutOfRange):
        gamma_half_rational(-1)


def test_heat_constant_hand_values():
    assert heat_constant(1, 2, 0, 2) == PiScaled(Fraction(-1, 32), 1)
    assert heat_constant(1, 2, 1, 2) == PiScaled(Fraction(-1, 32), 1)


def test_heat_constant_range_checks():
    for bad in [(1, 1, 0, 2), (1, 2, 2, 2), (1, 2, 0, 5), (1, 3, 0, 2),
                (0, 1, 0, 1)]:
        with pytest.raises(IndexOutOfRange):
            heat_constant(*bad)


def test_radial_terms_are_the_summed_heat_constants():
    # The paper's Gamma sums C_nksm, summed over m, are the closed-form
    # weights of P_k = c_nk scale^(k-n) (u^2 + v^2)^(k-n): exact, n = 1..8.
    # The helper returns D P_k with the common denominator D of the c_nk.
    scale = Fraction(3, 2)
    for n in range(1, 9):
        d, term = _radial_terms(n, scale,
                                Jet2D({(2, 0): 1, (0, 2): 1}, 8 * n))
        for k in range(n + 1, 4 * n + 1):
            expected = {
                (2 * (k - n - s), 2 * s): scale ** (k - n) * sum(
                    heat_constant(n, k, s, m).q for m in range(k, 4 * n + 1))
                for s in range(k - n + 1)}
            assert term(k) * Fraction(1, d) == Jet2D(expected, 2 * k), (n, k)
        _, unit = _radial_terms(n, 1, Jet2D({(2, 0): 1, (0, 2): 1}, 8 * n))
        assert all(type(c) is int for k in range(n + 1, 4 * n + 1)
                   for c in unit(k).coeffs.values())


def test_symbolic_a1_matches_golden_formula():
    cf = symbolic_heat_invariant(1).form
    assert cf.poly == golden_a1_poly()
    assert cf.pi_power == 1


def test_symbolic_a1_via_frozen_matches_golden():
    def via_frozen(n):
        rho = generic_rho_jet(required_order(n, "eq310"))
        return heat_invariant_via_frozen(n, rho).form
    assert via_frozen(1).poly == golden_a1_poly()
    assert symbolic_heat_invariant(2).form.poly == via_frozen(2).poly


def test_render_plain_golden_string():
    cf = symbolic_heat_invariant(1).form
    assert render_closed_form(cf, "plain") == GOLDEN_A1_PLAIN


def test_render_latex_smoke():
    cf = symbolic_heat_invariant(1).form
    s = render_closed_form(cf, "latex")
    assert s.startswith(r"\frac{") and r"\rho_{uu}" in s and r"\pi" in s


def test_render_zero():
    from heatjets.heatinv import ClosedForm
    assert render_closed_form(
        ClosedForm(n=1, poly=RhoPoly.zero(), pi_power=1)) == "0"


def test_json_round_trip():
    for n in (1, 2):
        cf = symbolic_heat_invariant(n).form
        doc = json.loads(json.dumps(closed_form_to_json(cf)))
        back = parse_closed_form_json(doc)
        assert back.poly == cf.poly
        assert back.pi_power == cf.pi_power
        assert back.n == n


def test_flat_metric_zeros():
    for n in (1, 2, 3):
        for c in (Fraction(1), Fraction(7, 3)):
            rho = Jet2D.constant(c, 8 * n)
            assert not heat_invariant(n, rho).form
            assert not heat_invariant_via_frozen(n, rho).form


def test_unit_sphere_a1_exact():
    rho = sphere_rho(1, 8)
    assert heat_invariant(1, rho).form == PiScaled(Fraction(1, 12), 1)
    assert render_pi_scaled(heat_invariant(1, rho).form) == "1/(12*pi)"


def test_sphere_a1_scales_with_curvature():
    # a1 = K/(12 pi) with K = 1/R^2
    rho = sphere_rho(2, 8)
    assert heat_invariant(1, rho).form == PiScaled(Fraction(1, 48), 1)


def test_sphere_higher_coefficients_exact():
    # a_n = c_n / (pi R^(2n)) from the sphere heat trace
    radius = Fraction(3, 2)
    rho = sphere_rho(radius, 40)
    for n, c in ((3, Fraction(1, 315)), (4, Fraction(1, 1260)),
                 (5, Fraction(1, 3465))):
        assert heat_invariant(n, rho.truncate(8 * n)).form == \
            PiScaled(c / radius ** (2 * n), 1)


def test_cross_path_equality_random_jets():
    rng = random.Random(20240817)
    for _ in range(3):
        rho = random_metric_jet(rng)
        for n in (1, 2):
            assert heat_invariant(n, rho).form == \
                heat_invariant_via_frozen(n, rho).form
    rho = random_metric_jet(rng, order=24)
    assert heat_invariant(3, rho).form == heat_invariant_via_frozen(3, rho).form


def test_eq311_uses_4n_laplacian_applications(monkeypatch):
    calls = []
    apply = ConformalLaplacian.apply

    def counted(self, f):
        calls.append(f)
        return apply(self, f)

    monkeypatch.setattr(ConformalLaplacian, "apply", counted)
    rng = random.Random(4)
    for n in (1, 2, 3):
        calls.clear()
        heat_invariant(n, random_metric_jet(rng, order=8 * n))
        assert len(calls) == 4 * n


def test_scaling_covariance():
    rng = random.Random(5)
    rho = random_metric_jet(rng)
    for n in (1, 2):
        base = heat_invariant(n, rho).form
        for c in (Fraction(2), Fraction(3, 5)):
            scaled = heat_invariant(n, rho * c).form
            assert scaled == base * c ** (-n)


def test_rotation_invariance():
    rng = random.Random(11)
    rho = random_metric_jet(rng)
    c, s = Fraction(3, 5), Fraction(4, 5)
    rotated = rho.compose_linear(c, -s, s, c)
    for n in (1, 2):
        assert heat_invariant(n, rotated).form == heat_invariant(n, rho).form


@functools.cache
def closed_form(n):
    return symbolic_heat_invariant(n).form


def test_symbolic_a3_size():
    cf = closed_form(3)
    assert (len(cf.poly.num), cf.poly.den) == (80, 9)


def test_symbolic_a4_size():
    cf = closed_form(4)
    assert (len(cf.poly.num), cf.poly.den) == (307, 12)


def test_symbolic_products_are_fused_and_integral(monkeypatch):
    # Inside a jet product no RhoPoly is summed term by term, and every
    # coefficient the eq311 pipeline of the generic factor forms is an int.
    depth = [0]
    sums_inside = []
    coefficients = []
    mul_capped, rho_sum = Jet2D._mul_capped, RhoPoly.sum.__func__

    def counted_mul(self, other, cap):
        depth[0] += 1
        try:
            result = mul_capped(self, other, cap)
        finally:
            depth[0] -= 1
        for c in result.coeffs.values():
            if isinstance(c, RhoPoly):
                coefficients.extend(c.num.values())
        return result

    def counted_sum(cls, items):
        if depth[0]:
            sums_inside.append(items)
        return rho_sum(cls, items)

    monkeypatch.setattr(Jet2D, "_mul_capped", counted_mul)
    monkeypatch.setattr(RhoPoly, "sum", classmethod(counted_sum))
    assert symbolic_heat_invariant(2).form.poly == closed_form(2).poly
    assert not sums_inside
    assert coefficients and all(type(c) is int for c in coefficients)


def test_homogeneity_of_closed_forms():
    for n in (1, 2, 3, 4):
        cf = closed_form(n)
        assert cf.poly.weights() == {2 * n}
        for mono, _ in cf.poly.terms():
            assert mono_degree(mono) - cf.poly.den == -n


def test_substitution_matches_numeric_path():
    rng = random.Random(99)
    rho = random_metric_jet(rng)
    for n in (1, 2, 3, 4):
        assert closed_form(n).substitute(rho) == heat_invariant(n, rho).form


def test_order_requirement_enforced():
    # a_n reads rho to order 2n: one order less is refused, and the value at
    # that order is the value of the longer jet
    rng = random.Random(12)
    for n in (1, 2, 3):
        rho = random_metric_jet(rng, order=8 * n)
        for path, route in (("eq311", heat_invariant),
                            ("eq310", heat_invariant_via_frozen)):
            order = required_order(n, path)
            assert order == 2 * n
            with pytest.raises(OrderExhausted):
                route(n, rho.truncate(order - 1))
            assert route(n, rho.truncate(order)).form == route(n, rho).form


def test_n_must_be_positive():
    with pytest.raises(IndexOutOfRange):
        heat_invariant(0, Jet2D.constant(Fraction(1), 8))


def test_weyl_constant():
    assert WEYL_A0 == PiScaled(Fraction(1, 4), 1)
    assert render_pi_scaled(WEYL_A0) == "1/(4*pi)"


def test_pi_scaled_renderings():
    assert render_pi_scaled(PiScaled(Fraction(-3, 8), 2)) == "-3/(8*pi^2)"
    assert render_pi_scaled(PiScaled(Fraction(5), 0)) == "5"
    assert render_pi_scaled(PiScaled(Fraction(2, 3), 0)) == "2/3"
    assert render_pi_scaled(PiScaled(Fraction(1), 1)) == "1/pi"
    assert render_pi_scaled(PiScaled(0)) == "0"
    with pytest.raises(ValueError):
        render_pi_scaled(PiScaled(Fraction(1, 12), 1), "json")


def test_generic_rho_jet_shape():
    rho = generic_rho_jet(4)
    assert rho.constant_term() == RhoPoly.var(0, 0)
    assert len(rho.coeffs) == 15
