"""Heat-invariant engine: constants, closed forms, paths, and rendering."""

import functools
import json
import random
from collections import Counter
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heatjets.errors import IndexOutOfRange, OrderExhausted
from heatjets.heatinv import (WEYL_A0, ClosedForm, PiScaled, _ComplexChain,
                              _GatherChain, _GaussianChain, _radial_powers,
                              _radial_sums,
                              _radial_terms, closed_form_to_json,
                              gamma_half_rational, generic_rho_jet,
                              heat_constant, heat_invariant,
                              heat_invariant_via_frozen, heat_invariants,
                              heat_invariants_via_frozen,
                              parse_closed_form_json, render_closed_form,
                              render_pi_scaled, required_order,
                              symbolic_heat_invariant)
from heatjets.jets import STRIDE, Jet2D
from heatjets.laplace import ConformalLaplacian, FrozenLaplacian
from heatjets.oracle import sphere_heat_coefficients
from heatjets.rhopoly import RhoPoly, mono_degree

GOLDEN_A1_PLAIN = "(rho_u^2 + rho_v^2 - rho*rho_uu - rho*rho_vv) / (24*pi*rho^3)"
GOLDEN_A2_PLAIN = (
    "(25*rho_u^4 + 50*rho_u^2*rho_v^2 + 25*rho_v^4"
    " - 44*rho*rho_u^2*rho_uu - 20*rho*rho_v^2*rho_uu + 9*rho^2*rho_uu^2"
    " - 48*rho*rho_u*rho_v*rho_uv + 8*rho^2*rho_uv^2"
    " - 20*rho*rho_u^2*rho_vv - 44*rho*rho_v^2*rho_vv"
    " + 10*rho^2*rho_uu*rho_vv + 9*rho^2*rho_vv^2"
    " + 12*rho^2*rho_u*rho_uuu + 12*rho^2*rho_v*rho_uuv"
    " + 12*rho^2*rho_u*rho_uvv + 12*rho^2*rho_v*rho_vvv"
    " - 2*rho^3*rho_uuuu - 4*rho^3*rho_uuvv - 2*rho^3*rho_vvvv)"
    " / (240*pi*rho^6)")
GOLDEN_A2_LATEX = (
    r"\frac{25 \rho_{u}^{4} + 50 \rho_{u}^{2} \rho_{v}^{2} + 25 \rho_{v}^{4}"
    r" - 44 \rho \rho_{u}^{2} \rho_{uu} - 20 \rho \rho_{v}^{2} \rho_{uu}"
    r" + 9 \rho^{2} \rho_{uu}^{2}"
    r" - 48 \rho \rho_{u} \rho_{v} \rho_{uv} + 8 \rho^{2} \rho_{uv}^{2}"
    r" - 20 \rho \rho_{u}^{2} \rho_{vv} - 44 \rho \rho_{v}^{2} \rho_{vv}"
    r" + 10 \rho^{2} \rho_{uu} \rho_{vv} + 9 \rho^{2} \rho_{vv}^{2}"
    r" + 12 \rho^{2} \rho_{u} \rho_{uuu} + 12 \rho^{2} \rho_{v} \rho_{uuv}"
    r" + 12 \rho^{2} \rho_{u} \rho_{uvv} + 12 \rho^{2} \rho_{v} \rho_{vvv}"
    r" - 2 \rho^{3} \rho_{uuuu} - 4 \rho^{3} \rho_{uuvv}"
    r" - 2 \rho^{3} \rho_{vvvv}}{240 \pi \rho^{6}}")


def golden_a1_poly():
    t = RhoPoly.var
    num = (t(1, 0) ** 2 + t(0, 1) ** 2
           - 2 * t(0, 0) * t(2, 0) - 2 * t(0, 0) * t(0, 2))
    return num * Fraction(1, 24) * RhoPoly({(): 1}, den=3)


def sphere_rho(radius, order):
    """rho = 4 R^4 / (R^2 + u^2 + v^2)^2 in stereographic coordinates."""
    r2 = Fraction(radius) ** 2
    base = Jet2D({(0, 0): r2, (2, 0): Fraction(1), (0, 2): Fraction(1)},
                 order)
    return (base * base).inverse() * (4 * r2 ** 2)


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
    assert heat_constant(1, 2, 0, 2) == PiScaled(Fraction(-1, 32))
    assert heat_constant(1, 2, 1, 2) == PiScaled(Fraction(-1, 32))


def test_heat_constant_range_checks():
    for bad in [(1, 1, 0, 2), (1, 2, 2, 2), (1, 2, 0, 5), (1, 3, 0, 2),
                (0, 1, 0, 1)]:
        with pytest.raises(IndexOutOfRange):
            heat_constant(*bad)


def test_radial_terms_are_the_summed_heat_constants():
    # The paper's Gamma sums C_nksm, summed over m, are the closed-form
    # weights of P_k = c_nk scale^(k-n) (u^2 + v^2)^(k-n): exact, n = 1..8.
    # The helper returns the terms T_0..T_4n of the nested sum: None for
    # k <= n and D P_k above, with the common denominator D of the c_nk.
    scale = Fraction(3, 2)
    for n in range(1, 9):
        r2 = Jet2D({(2, 0): 1, (0, 2): 1}, 8 * n)
        d, terms = _radial_terms(n, scale, _radial_powers(r2, n))
        assert len(terms) == 4 * n + 1 and terms[:n + 1] == [None] * (n + 1)
        for k in range(n + 1, 4 * n + 1):
            expected = {
                (2 * (k - n - s), 2 * s): scale ** (k - n) * sum(
                    heat_constant(n, k, s, m).q for m in range(k, 4 * n + 1))
                for s in range(k - n + 1)}
            assert terms[k] * Fraction(1, d) == Jet2D(expected, 2 * k), \
                (n, k)
        _, unit = _radial_terms(n, 1, _radial_powers(r2, n))
        assert all(type(c) is int for t in unit[n + 1:]
                   for c in t.coeffs.values())


@st.composite
def cubic_tails(draw, order):
    """A sparse rational jet of valuation >= 3 and the given order."""
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        d = draw(st.integers(3, order))
        a = draw(st.integers(0, d))
        terms[(a, d - a)] = draw(
            st.fractions(min_value=-5, max_value=5, max_denominator=6))
    return Jet2D(terms, order)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 3), seed=st.integers(0, 2 ** 16), data=st.data())
def test_radial_sum_reads_only_the_two_jet(n, seed, data):
    # S_n(f) = sum_k c_nk Delta^k(f^(k-n))(0) is eq311's a_n for every f
    # with the 2-jet rho_0 (u^2 + v^2); a u v term changes it
    rho = random_metric_jet(random.Random(seed), order=2 * n)
    lap = ConformalLaplacian(rho)
    rho0 = rho.constant_term()
    f = Jet2D({(2, 0): rho0, (0, 2): rho0}, 2 * n + 2) + \
        data.draw(cubic_tails(2 * n + 2))
    value = heat_invariant(n, rho).form.q

    def radial_sum(f):
        [(_, value)] = _radial_sums(lap, [n], 1, f)
        return value
    assert radial_sum(f) == value
    uv = Jet2D({(1, 1): 1}, 2 * n + 2)
    assert radial_sum(f + uv) != value


def test_symbolic_a1_matches_golden_formula():
    cf = symbolic_heat_invariant(1).form
    assert cf.poly == golden_a1_poly()


def test_symbolic_a1_via_frozen_matches_golden():
    def via_frozen(n):
        rho = generic_rho_jet(required_order(n, "eq310"))
        return heat_invariant_via_frozen(n, rho).form
    assert via_frozen(1).poly == golden_a1_poly()
    assert symbolic_heat_invariant(2).form.poly == via_frozen(2).poly


def generic_jet_with_rho00(rho00):
    """generic_rho_jet(4) with rho_00 replaced by `rho00`."""
    coeffs = dict(generic_rho_jet(4).coeffs)
    coeffs[(0, 0)] = rho00
    return Jet2D(coeffs, 4)


def test_int_rho00_keeps_the_rhopoly_ring():
    # the ring is that of the jet, not of rho_00: an int 1 among RhoPoly
    # coefficients gives the closed forms of RhoPoly.const(1)
    for route in (heat_invariants, heat_invariants_via_frozen):
        got = list(route((1, 2), generic_jet_with_rho00(1)))
        assert got == list(route((1, 2),
                                 generic_jet_with_rho00(RhoPoly.const(1))))
        assert [type(form) for _, form in got] == [ClosedForm, ClosedForm]


def test_render_plain_golden_string():
    cf = symbolic_heat_invariant(1).form
    assert render_closed_form(cf, "plain") == GOLDEN_A1_PLAIN


def test_render_latex_smoke():
    cf = symbolic_heat_invariant(1).form
    s = render_closed_form(cf, "latex")
    assert s.startswith(r"\frac{") and r"\rho_{uu}" in s and r"\pi" in s


def test_render_a2_golden_strings():
    cf = closed_form(2)
    assert render_closed_form(cf, "plain") == GOLDEN_A2_PLAIN
    assert render_closed_form(cf, "latex") == GOLDEN_A2_LATEX


def test_render_zero():
    # zero, and constant numerators, which print as their content alone
    cases = [
        (RhoPoly.zero(), "plain", "0"),
        (RhoPoly.zero(), "latex", "0"),
        (RhoPoly.const(2), "plain", "2 / (pi)"),
        (RhoPoly.const(2), "latex", r"\frac{2}{\pi}"),
        (RhoPoly.const(Fraction(1, 12)), "plain", "1 / (12*pi)"),
        (RhoPoly.const(Fraction(-1, 12)), "latex", r"-\frac{1}{12 \pi}"),
    ]
    for poly, fmt, expected in cases:
        form = ClosedForm(n=1, poly=poly)
        assert render_closed_form(form, fmt) == expected, (poly, fmt)


def test_json_round_trip():
    for n in (1, 2, 3, 4):
        cf = closed_form(n)
        doc = json.loads(json.dumps(closed_form_to_json(cf)))
        back = parse_closed_form_json(doc)
        assert back.poly == cf.poly
        assert back.n == n


def test_parse_rejects_other_pi_powers():
    doc = closed_form_to_json(closed_form(1))
    assert doc["piPower"] == 1
    with pytest.raises(ValueError, match="piPower must be 1, got 2"):
        parse_closed_form_json({**doc, "piPower": 2})


def test_flat_metric_zeros():
    for n in (1, 2, 3):
        for c in (Fraction(1), Fraction(7, 3)):
            rho = Jet2D.constant(c, 8 * n)
            assert not heat_invariant(n, rho).form
            assert not heat_invariant_via_frozen(n, rho).form


def test_sphere_higher_coefficients_exact():
    # a_n = q_n / (pi R^(2n)) from the sphere spectrum; the disc
    # rho = 4/(1 - u^2 - v^2)^2 has curvature -1, so there a_n = (-1)^n q_n/pi
    q = sphere_heat_coefficients(12)
    for radius in (Fraction(1), Fraction(3, 2)):
        rho = sphere_rho(radius, required_order(12, "eq311"))
        for n in range(1, 13):
            jet = rho.truncate(required_order(n, "eq311"))
            assert heat_invariant(n, jet).form == \
                PiScaled(q[n] / radius ** (2 * n))
    base = Jet2D({(0, 0): Fraction(1), (2, 0): Fraction(-1),
                  (0, 2): Fraction(-1)}, required_order(8, "eq311"))
    disc = (base * base).inverse() * 4
    for n in range(1, 9):
        jet = disc.truncate(required_order(n, "eq311"))
        assert heat_invariant(n, jet).form == PiScaled((-1) ** n * q[n])


def test_cross_path_equality_random_jets():
    rng = random.Random(20240817)
    for _ in range(3):
        rho = random_metric_jet(rng)
        for n in (1, 2):
            assert heat_invariant(n, rho).form == \
                heat_invariant_via_frozen(n, rho).form
    rho = random_metric_jet(rng, order=24)
    assert heat_invariant(3, rho).form == heat_invariant_via_frozen(3, rho).form
    for n in (4, 5):
        rho = random_metric_jet(rng, order=2 * n)
        assert heat_invariant(n, rho).form == \
            heat_invariant_via_frozen(n, rho).form


def test_cone_chain_on_the_sphere():
    # rho of the sphere is radial, so 1/rho has real coefficients on the
    # diagonal x = y of Z^x Zbar^y alone; a_1..a_10 of one request on both
    # routes are the spectrum's q_n / (pi R^(2n))
    q = sphere_heat_coefficients(10)
    for radius in (Fraction(1), Fraction(7, 5)):
        rho = sphere_rho(radius, 20)
        chain = _GaussianChain(ConformalLaplacian(rho), 40)
        assert all(key // STRIDE == 2 * (key % STRIDE) and not im
                   for key, _, im in chain.upto[-1])
        expected = {n: PiScaled(q[n] / radius ** (2 * n))
                    for n in range(1, 11)}
        assert dict(heat_invariants(range(1, 11), rho)) == expected
        assert dict(heat_invariants_via_frozen(range(1, 7), rho)) == {
            n: expected[n] for n in range(1, 7)}


def test_one_inverse_and_4n_table_steps_per_request(monkeypatch):
    # A request reads every a_n off one table: M_0 = 1/rho_00 and 4N - 1
    # steps of the cone chain, N its largest n, with one Newton inverse of
    # rho, to order 2N, and no application of Delta; eq310 also applies
    # Delta_0 m times to each seed f_m, m = n+1..4n, of every n
    calls = Counter()
    inverse_orders = []

    def count(cls, name):
        original = getattr(cls, name)

        def counted(*args):
            calls[f"{cls.__name__}.{name}"] += 1
            return original(*args)
        monkeypatch.setattr(cls, name, counted)

    count(_GaussianChain, "step")
    count(_GatherChain, "step")
    count(ConformalLaplacian, "apply")
    count(FrozenLaplacian, "apply")
    jet_inverse = Jet2D.inverse

    def inverse(self, order=None):
        inverse_orders.append(order)
        return jet_inverse(self, order)
    monkeypatch.setattr(Jet2D, "inverse", inverse)
    rho = random_metric_jet(random.Random(4), order=12)
    for ns in ([1], [3], [2, 1, 3, 2], [0, 2]):
        top = max(ns)
        calls.clear()
        inverse_orders.clear()
        list(heat_invariants(ns, rho))
        assert calls == {"_GaussianChain.step": 4 * top - 1}
        assert inverse_orders == [2 * top]
        calls.clear()
        inverse_orders.clear()
        list(heat_invariants_via_frozen(ns, rho))
        assert calls == {"_GaussianChain.step": 4 * top - 1,
                         "FrozenLaplacian.apply": sum(
                             m for n in set(ns) for m in range(n + 1, 4 * n + 1))}
        assert inverse_orders == [2 * top]


def test_concrete_chain_stays_integral(monkeypatch):
    # Every M_k the cone chain keeps on a dense rational jet is (re, im)
    # int pairs over an int denominator with their content divided out, and
    # no Fraction is built inside a step or a read: the table builds one
    # per a_n, when it sums that a_n's reads.
    states, built, values = [], [], []
    inside = [0]
    step, read = _GaussianChain.step, _GaussianChain.read
    fraction_new = Fraction.__dict__["__new__"]

    def counted_step(self, *args):
        inside[0] += 1
        try:
            step(self, *args)
        finally:
            inside[0] -= 1
        states.append((self.den, list(self.m.values())))

    def counted_read(self, t):
        inside[0] += 1
        try:
            return read(self, t)
        finally:
            inside[0] -= 1

    def counted_new(cls, *args, **kwargs):
        if inside[0]:
            built.append(args)
        return fraction_new.__func__(cls, *args, **kwargs)

    monkeypatch.setattr(_GaussianChain, "step", counted_step)
    monkeypatch.setattr(_GaussianChain, "read", counted_read)
    rng = random.Random(19)
    rhos = [random_metric_jet(rng, order=2 * n) for n in (1, 2, 3)]
    Fraction.__new__ = staticmethod(counted_new)
    try:
        for n, rho in enumerate(rhos, 1):
            states.clear()
            values.append(heat_invariant(n, rho).form)
            assert len(states) == 4 * n - 1
            for den, slots in states:
                nums = [c for slot in slots for c in slot]
                assert type(den) is int and den > 0 and gcd(den, *nums) == 1
                assert all(len(slot) == 2 for slot in slots)
                assert all(type(c) is int for c in nums)
            assert any(im for _, slots in states for _, im in slots)
    finally:
        Fraction.__new__ = fraction_new
    assert not built
    monkeypatch.undo()
    assert values == [heat_invariant_via_frozen(n, rho).form
                      for n, rho in enumerate(rhos, 1)]


def test_scaling_covariance():
    rng = random.Random(5)
    rho = random_metric_jet(rng)
    for n in (1, 2):
        base = heat_invariant(n, rho).form
        for c in (Fraction(2), Fraction(3, 5)):
            scaled = heat_invariant(n, rho * c).form
            assert scaled.q == base.q * c ** (-n)


def holomorphic_chart(coefficients, order):
    """Jets (p, q) of order `order` with p + i q = sum_k c_k z^k, z = u + i v.

    `coefficients` maps k >= 1 to the Gaussian rational c_k as (re, im);
    z^k contributes C(k, j) i^j u^(k-j) v^j for j = 0..k.
    """
    p, q = {}, {}
    for k, (x, y) in coefficients.items():
        for j in range(k + 1):
            re, im = ((x, y), (-y, x), (-x, -y), (y, -x))[j % 4]  # c_k i^j
            p[(k - j, j)] = p.get((k - j, j), 0) + comb(k, j) * re
            q[(k - j, j)] = q.get((k - j, j), 0) + comb(k, j) * im
    return Jet2D(p, order), Jet2D(q, order)


def pull_back(rho, p, q):
    """rho(p, q) (p_u^2 + q_u^2): when p + i q = phi is holomorphic, this is
    rho(phi) |phi'|^2, the conformal factor of the same metric in the chart
    phi."""
    p_u, q_u = p.diff(1, 0), q.diff(1, 0)
    return rho.compose(p, q) * (p_u * p_u + q_u * q_u)


gaussian_rationals = st.tuples(
    *[st.fractions(min_value=-2, max_value=2, max_denominator=4)] * 2)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), seed=st.integers(0, 2 ** 16),
       c1=gaussian_rationals.filter(any), a=gaussian_rationals,
       b=gaussian_rationals)
@example(n=2, seed=11, c1=(Fraction(3, 5), Fraction(4, 5)), a=(0, 0),
         b=(0, 0))
@example(n=2, seed=11, c1=(Fraction(3, 5), Fraction(4, 5)),
         a=(Fraction(1, 2), Fraction(-1, 3)), b=(0, 0))
def test_chart_invariance(n, seed, c1, a, b):
    # a_n is a local invariant of the metric: the holomorphic change of chart
    # phi(z) = c1 z + a z^2 + b z^3 leaves it fixed
    rho = random_metric_jet(random.Random(seed), order=2 * n)
    p, q = holomorphic_chart({1: c1, 2: a, 3: b}, 2 * n + 1)
    assert heat_invariant(n, pull_back(rho, p, q)).form == \
        heat_invariant(n, rho).form


def test_non_conformal_change_moves_a2():
    # u -> u + u^2/2, v -> v with the same factor is no change of chart of
    # the metric, so a_2 must move
    rho = random_metric_jet(random.Random(11), order=4)
    p = Jet2D({(1, 0): 1, (2, 0): Fraction(1, 2)}, 5)
    q = Jet2D({(0, 1): 1}, 5)
    assert heat_invariant(2, pull_back(rho, p, q)).form != \
        heat_invariant(2, rho).form


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
    # Inside a table step no RhoPoly is summed term by term (each slot is one
    # fused RhoPoly.dot), and every coefficient of every slot the generic
    # factor's eq311 table keeps is an int.
    depth = [0]
    sums_inside = []
    coefficients = []
    step, rho_sum = _ComplexChain.step, RhoPoly.sum.__func__

    def counted_step(self, *args):
        depth[0] += 1
        try:
            step(self, *args)
        finally:
            depth[0] -= 1
        for value in self.m.values():
            coefficients.extend(value.num.values())

    def counted_sum(cls, items):
        if depth[0]:
            sums_inside.append(items)
        return rho_sum(cls, items)

    monkeypatch.setattr(_ComplexChain, "step", counted_step)
    monkeypatch.setattr(RhoPoly, "sum", classmethod(counted_sum))
    assert symbolic_heat_invariant(2).form.poly == closed_form(2).poly
    assert not sums_inside
    assert coefficients and all(type(c) is int for c in coefficients)


def test_symbolic_routes_form_no_inverse(monkeypatch):
    # The table of the generic factor divides by rho in complex coordinates:
    # neither route forms a Newton inverse or applies Delta, a_n takes
    # 4n - 1 steps, each keeping at most the (2n + 1)(2n + 2)/2 slots of its
    # cone, and a_1..a_3 in one request form at most 5,000 monomial
    # products in RhoPoly.dot, the chain and the conversion included.
    calls = Counter()
    slots = []
    products = [0]

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            result = original(*args)
            if name == "step":
                slots.append(len(args[0].m))
            return result
        monkeypatch.setattr(owner, name, wrapper)

    def dot(cls, pairs):
        pairs = list(pairs)
        for p, q in pairs:
            products[0] += (len(p.num) if isinstance(p, RhoPoly) else 1) * (
                len(q.num) if isinstance(q, RhoPoly) else 1)
        return rho_dot(cls, pairs)

    counted(Jet2D, "inverse")
    counted(ConformalLaplacian, "inverse_factor")
    counted(ConformalLaplacian, "apply")
    counted(_ComplexChain, "step")
    for n in (1, 2, 3):
        calls.clear()
        slots.clear()
        symbolic_heat_invariant(n)
        assert calls == {"step": 4 * n - 1}
        assert max(slots) <= (2 * n + 1) * (2 * n + 2) // 2
    for n in (1, 2):
        calls.clear()
        heat_invariant_via_frozen(n, generic_rho_jet(2 * n))
        assert calls == {"step": 4 * n - 1}
    rho_dot = RhoPoly.dot.__func__
    monkeypatch.setattr(RhoPoly, "dot", classmethod(dot))
    forms = dict(heat_invariants([1, 2, 3], generic_rho_jet(6)))
    assert [form.poly for form in forms.values()] == [
        closed_form(n).poly for n in (1, 2, 3)]
    assert products[0] <= 5000


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
    assert WEYL_A0 == PiScaled(Fraction(1, 4))
    assert render_pi_scaled(WEYL_A0) == "1/(4*pi)"


def test_pi_scaled_renderings():
    assert render_pi_scaled(PiScaled(Fraction(-3, 8))) == "-3/(8*pi)"
    assert render_pi_scaled(PiScaled(Fraction(-3, 8)), "latex") == \
        r"-\frac{3}{8 \pi}"
    assert render_pi_scaled(PiScaled(Fraction(1))) == "1/pi"
    assert render_pi_scaled(PiScaled(Fraction(0))) == "0"
    assert not PiScaled(Fraction(0))
    with pytest.raises(ValueError):
        render_pi_scaled(PiScaled(Fraction(1, 12)), "json")


def test_generic_rho_jet_shape():
    rho = generic_rho_jet(4)
    assert rho.constant_term() == RhoPoly.var(0, 0)
    assert len(rho.coeffs) == 15
