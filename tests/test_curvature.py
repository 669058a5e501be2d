"""Curvature frames, degeneracy detection, and the invariant-path equality."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from heatjets.curvature import (FRAME_MIN_ORDER, curvature_frame,
                                heat_invariant_curvature_form,
                                heat_invariants_curvature_form)
from heatjets.errors import (DegenerateCurvatureCoordinates, IndexOutOfRange,
                             OrderExhausted)
from heatjets.heatinv import (_GatherChain, generic_rho_jet, heat_invariant,
                              heat_invariant_via_frozen, required_order)
from heatjets.jets import Jet2D
from heatjets.laplace import ConformalLaplacian, gaussian_curvature_jet

from test_heatinv import (generic_jet_with_rho00, holomorphic_chart,
                          pull_back, sphere_rho)


def frame_via_identities(rho):
    """(E, F, G) recomputed from the expanded product-rule identities.

    2E = 2 K DK - Delta(K^2), 2F = K D^2K + (DK)^2 - Delta(K DK),
    2G = 2 DK D^2K - Delta((DK)^2), all at the origin; an independent check
    of the gradient formulas of the frame, which share only K and DK.
    """
    lap = ConformalLaplacian(rho)
    k = gaussian_curvature_jet(rho, lap)
    dk = lap.apply(k)
    k0 = Fraction(k.constant_term())
    dk0 = Fraction(dk.constant_term())
    d2k0 = Fraction(lap.apply(dk).constant_term())
    e = (2 * k0 * dk0 - Fraction(lap.apply(k * k).constant_term())) / 2
    f = (k0 * d2k0 + dk0 ** 2
         - Fraction(lap.apply(k * dk).constant_term())) / 2
    g = (2 * dk0 * d2k0
         - Fraction(lap.apply(dk * dk).constant_term())) / 2
    return e, f, g


def reciprocal_linear_rho(a0, a1, a2, order):
    ell = Jet2D({(0, 0): Fraction(a0), (1, 0): Fraction(a1),
                 (0, 1): Fraction(a2)}, order)
    return ell.inverse()


def random_jet(rng, order=14):
    coeffs = {(a, b): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for a in range(order + 1) for b in range(order + 1 - a)}
    coeffs[(0, 0)] = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    return Jet2D(coeffs, order)


def test_flat_metric_is_degenerate():
    frame = curvature_frame(Jet2D.constant(Fraction(1), 8))
    assert frame.degenerate
    assert frame.k0 == 0 and frame.e == 0


def test_constant_curvature_sphere_is_degenerate():
    frame = curvature_frame(sphere_rho(1, 10))
    assert frame.k0 == 1
    assert frame.degenerate
    with pytest.raises(DegenerateCurvatureCoordinates):
        heat_invariant_curvature_form(1, sphere_rho(1, 14))


def test_reciprocal_linear_is_degenerate():
    # K and Delta K are both functions of the single linear form, so the
    # Jacobian vanishes although K is nonconstant.
    rho = reciprocal_linear_rho(2, 3, 5, 14)
    frame = curvature_frame(rho)
    assert frame.k0 == Fraction(-34, 4)  # -(a1^2 + a2^2)/(2 a0)
    assert frame.jacobian == 0 and frame.degenerate
    with pytest.raises(DegenerateCurvatureCoordinates):
        heat_invariant_curvature_form(1, rho)


def test_random_jets_are_nondegenerate_with_consistent_frame():
    rng = random.Random(77)
    for _ in range(5):
        rho = random_jet(rng)
        frame = curvature_frame(rho)
        assert not frame.degenerate
        assert (frame.e, frame.f, frame.g) == frame_via_identities(rho)
        # Lagrange identity: EG - F^2 = (Jacobian / rho_0)^2 > 0, E > 0
        rho0 = Fraction(rho.constant_term())
        assert frame.e > 0
        assert frame.e * frame.g - frame.f ** 2 \
            == (frame.jacobian / rho0) ** 2


def test_degenerate_jet_perturbed_generically_becomes_nondegenerate():
    # The curvature 3-jet that controls degeneracy pulls back to conformal
    # factor terms of degrees 3 and 5: a pure cubic bump of rho moves the
    # gradients of K and Delta K in parallel (so the Jacobian stays zero),
    # while a generic cubic + quintic bump breaks the degeneracy.
    rng = random.Random(6)
    for base in (sphere_rho(1, 14), Jet2D.constant(Fraction(1), 14)):
        assert curvature_frame(base).degenerate
        coeffs = {}
        for deg in (3, 5):
            for a in range(deg + 1):
                coeffs[(a, deg - a)] = Fraction(rng.randint(-9, 9),
                                                rng.randint(1, 7))
        assert not curvature_frame(base + Jet2D(coeffs, 14)).degenerate
    cubic_only = Jet2D({(3, 0): Fraction(1, 7), (2, 1): Fraction(1, 5)}, 14)
    assert curvature_frame(sphere_rho(1, 14) + cubic_only).degenerate


def test_curvature_path_matches_direct_path_n1():
    rng = random.Random(2024)
    for _ in range(3):
        rho = random_jet(rng)
        assert heat_invariant_curvature_form(1, rho).form \
            == heat_invariant(1, rho).form


def test_curvature_path_matches_direct_path_n2():
    rho = random_jet(random.Random(31), order=22)
    value = heat_invariant_curvature_form(2, rho).form
    assert value == heat_invariant(2, rho).form
    # eq310 shares the table with both routes, not their constants:
    # this checks its seeds, weights and frozen operator
    assert value == heat_invariant_via_frozen(2, rho.truncate(16)).form


def test_curvature_route_counts(monkeypatch):
    # One Newton inverse, to order 2N + 4 (the first derivatives of rho),
    # serves K, Delta K (one application) and the table of every n of the
    # request, which makes 4N - 2 steps, N the largest n, and one
    # application for the term read at k = 4N.  The jet products
    # are those of the inverse (two per Newton step), K (three), the two
    # squares that pull u^2 + v^2 back, built once, and the powers of the
    # pull-back up to 3N, also built once: every n reads them truncated.
    calls = Counter()
    inverse_orders = []

    def count(cls, name):
        original = getattr(cls, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)

    count(Jet2D, "inverse")
    count(Jet2D, "log_nonconstant")
    count(Jet2D, "_mul_capped")
    count(ConformalLaplacian, "apply")
    count(_GatherChain, "step")
    counted_inverse = Jet2D.inverse

    def inverse(self, order):
        inverse_orders.append(order)
        return counted_inverse(self, order)
    monkeypatch.setattr(Jet2D, "inverse", inverse)
    rng = random.Random(2024)
    for ns, products in (([1], 6 + 3 + 2 + 2), ([2], 8 + 3 + 2 + 5),
                         ([2, 1, 2], 8 + 3 + 2 + 5)):
        calls.clear()
        inverse_orders.clear()
        top = max(ns)
        list(heat_invariants_curvature_form(
            ns, random_jet(rng, order=8 * top + 6)))
        assert calls == {"inverse": 1, "apply": 2, "step": 4 * top - 2,
                         "_mul_capped": products}
        assert inverse_orders == [2 * top + 4]


def test_concrete_routes_build_few_fractions(monkeypatch):
    # A concrete jet keeps its integral form from input to result, so a
    # route builds a small number of Fraction values that depends on n, not
    # on the jet: the same count on a jet of twice the slots, where a
    # Fraction per slot per operation built hundreds to thousands.
    fraction_new = Fraction.__dict__["__new__"]
    built = [0]

    def counted_new(cls, *args, **kwargs):
        built[0] += 1
        return fraction_new.__func__(cls, *args, **kwargs)

    rng = random.Random(501)
    cases = ((lambda rho: heat_invariant_curvature_form(2, rho), 9, 70),
             (lambda rho: heat_invariant(3, rho), 6, 50),
             (lambda rho: rho.inverse(12), 12, 4))
    for route, order, most in cases:
        counts = []
        for jet_order in (order, order + 5):
            rho = random_jet(rng, jet_order)
            built[0] = 0
            monkeypatch.setattr(Fraction, "__new__",
                                staticmethod(counted_new))
            try:
                route(rho)
            finally:
                monkeypatch.undo()
            counts.append(built[0])
        assert counts[0] == counts[1] <= most, (order, counts)


def test_chart_change_moves_only_the_jacobian():
    # K, Delta K, E = |grad K|^2, F and G are invariants of the metric, so a
    # holomorphic change of chart phi moves none of them, nor the route's
    # a_1 and a_2; the Jacobian of (K, Delta K) is multiplied by
    # |phi'(0)|^2 = 5 for phi(z) = (2 + i) z + (1 - i/2) z^2 + z^3/3
    coefficients = {1: (2, 1), 2: (1, Fraction(-1, 2)), 3: (Fraction(1, 3), 0)}
    rng = random.Random(41)
    for _ in range(3):
        rho = random_jet(rng, order=9)
        p, q = holomorphic_chart(coefficients, 10)
        moved = pull_back(rho, p, q)
        before, after = curvature_frame(rho), curvature_frame(moved)
        assert (after.k0, after.dk0, after.e, after.f, after.g) == \
            (before.k0, before.dk0, before.e, before.f, before.g)
        assert after.jacobian == 5 * before.jacobian
        assert after.degenerate == before.degenerate
        for n in (1, 2):
            assert heat_invariant_curvature_form(n, moved).form == \
                heat_invariant_curvature_form(n, rho).form
    p, q = holomorphic_chart(coefficients, 11)
    sphere = curvature_frame(pull_back(sphere_rho(1, 10), p, q))
    assert sphere.k0 == 1 and sphere.degenerate


def test_order_requirements():
    # The frame reads rho to order 5 and the route to order 2n + 5: one order
    # less is refused, and the value at that order is eq311's.
    rng = random.Random(9)
    rho = random_jet(rng, order=22)
    assert FRAME_MIN_ORDER == 5
    with pytest.raises(OrderExhausted):
        curvature_frame(rho.truncate(4))
    frame = curvature_frame(rho.truncate(5))
    assert (frame.e, frame.f, frame.g) == frame_via_identities(rho)
    for n in (1, 2, 3):
        order = required_order(n, "curvature")
        assert order == 2 * n + 5
        with pytest.raises(OrderExhausted):
            heat_invariant_curvature_form(n, rho.truncate(order - 1))
        assert heat_invariant_curvature_form(n, rho.truncate(order)).form \
            == heat_invariant(n, rho).form
    with pytest.raises(IndexOutOfRange):
        heat_invariant_curvature_form(0, random_jet(rng, order=14))


def test_symbolic_input_rejected():
    # the ring is read from the jet, so an int rho_00 does not hide it
    for rho in (generic_rho_jet(8), generic_jet_with_rho00(1)):
        with pytest.raises(TypeError, match="concrete jets only"):
            curvature_frame(rho)
