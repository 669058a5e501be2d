"""Conformal and frozen Laplacian behavior on exact jets."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from heatjets.errors import NonInvertibleConstantTerm, OrderExhausted
from heatjets.heatinv import generic_rho_jet
from heatjets.jets import Jet2D, _has_rhopoly
from heatjets.laplace import (ConformalLaplacian, FrozenLaplacian,
                              gaussian_curvature_jet)
from heatjets.rhopoly import RhoPoly

from test_heatinv import sphere_rho

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def flat(c, order):
    return Jet2D.constant(Fraction(c), order)


@st.composite
def metric_jets(draw, order=6):
    coeffs = {}
    for _ in range(draw(st.integers(0, 6))):
        a = draw(st.integers(0, order))
        b = draw(st.integers(0, order - a))
        coeffs[(a, b)] = draw(rationals)
    # drawn last so a repeated (0, 0) index cannot zero it out
    coeffs[(0, 0)] = draw(rationals.filter(bool))
    return Jet2D(coeffs, order)


@st.composite
def operand_jets(draw):
    """Jets of order 0..7: rational, int-only, or with f_uu + f_vv = 0."""
    order = draw(st.integers(0, 7))
    kind = draw(st.sampled_from(("rational", "int", "harmonic")))
    if kind == "harmonic":  # constant, linear, u^2 - v^2 and uv terms
        c = [draw(rationals) for _ in range(5)]
        coeffs = {(0, 0): c[0], (1, 0): c[1], (0, 1): c[2], (2, 0): c[3],
                  (0, 2): -c[3], (1, 1): c[4]}
        return Jet2D(coeffs, max(order, 2))
    values = rationals if kind == "rational" else st.integers(-30, 30)
    coeffs = {}
    for _ in range(draw(st.integers(0, 12))):
        a = draw(st.integers(0, order))
        b = draw(st.integers(0, order - a))
        coeffs[(a, b)] = draw(values)
    return Jet2D(coeffs, order)


def reference_apply(f, factor):
    """-(factor(need) * (f_uu + f_vv)) on jet operations, as the Laplacians
    defined it before they took the integral pass."""
    s = f.diff(2, 0) + f.diff(0, 2)
    need = s.order - s.valuation()
    if need < 0:
        return Jet2D.zero(s.order)
    return -(factor(need) * s)


def operators(rho):
    """(operator, factor) pairs: 1/rho for Delta, 1/rho(0, 0) for Delta_0."""
    lap, frozen = ConformalLaplacian(rho), FrozenLaplacian(rho)
    return ((lap, lap.inverse_factor),
            (frozen, lambda need: Jet2D.constant(frozen.inv0, need)))


def assert_same_jet(got, want):
    assert got == want
    assert ({k: type(c) for k, c in got.coeffs.items()}
            == {k: type(c) for k, c in want.coeffs.items()})


@settings(max_examples=150)
@given(metric_jets(order=7), operand_jets())
def test_apply_matches_jet_operations(rho, f):
    for op, factor in operators(rho):
        if f.order < 2:
            with pytest.raises(OrderExhausted) as got:
                op.apply(f)
            with pytest.raises(OrderExhausted) as want:
                reference_apply(f, factor)
            assert str(got.value) == str(want.value)
        else:
            assert_same_jet(op.apply(f), reference_apply(f, factor))


#: rho with int coefficients and constant term 1, so 1/rho is integral
INT_RHO = Jet2D({(0, 0): 1, (1, 0): 2, (0, 2): -3, (2, 1): 5}, 7)
#: f_uu + f_vv = 0: u^2 - v^2, uv and a linear part
HARMONIC = Jet2D({(2, 0): Fraction(3, 4), (0, 2): Fraction(-3, 4),
                  (1, 1): Fraction(2, 3), (1, 0): 5}, 6)
#: -(f_uu + f_vv) = -2/3 over 3, times 1/rho = 3: the content cancels D
CANCELLING = Jet2D({(2, 0): Fraction(1, 3), (1, 1): Fraction(2, 3)}, 4)
#: f_uu + f_vv has valuation 0, so Delta f reads rho to order 4
DEEP = Jet2D({(2, 0): Fraction(1, 2), (3, 3): 2}, 6)


@settings(max_examples=120, deadline=None)
@given(metric_jets(order=7) | metric_jets(order=2), operand_jets())
@example(INT_RHO, Jet2D.zero(5))
@example(INT_RHO, HARMONIC)
@example(INT_RHO, Jet2D({(4, 1): 3, (2, 2): -7, (0, 3): 2}, 7))
@example(flat(Fraction(1, 3), 7), CANCELLING)
@example(Jet2D({(0, 0): Fraction(5, 2), (1, 0): 1}, 2), DEEP)
def test_apply_on_the_integral_form(rho, f):
    # Delta of a concrete jet is a concrete jet in the integral form, int
    # numerators with their content divided out over the lcm of the reduced
    # coefficients' denominators, built without a coefficient view, and
    # equal to the jet operations
    lap = ConformalLaplacian(rho)
    try:
        want = reference_apply(f, lap.inverse_factor)
    except OrderExhausted:
        with pytest.raises(OrderExhausted):
            lap.apply(f)
        return
    got = lap.apply(f)
    assert type(got) is Jet2D and got._coeffs is None
    assert type(got.den) is int and gcd(got.den, *got.num.values()) == 1
    assert all(type(n) is int and n for n in got.num.values())
    assert got == want
    assert got.den == lcm(*(Fraction(c).denominator
                            for c in want.coeffs.values()))

SPARSE = Jet2D({(2, 1): Fraction(1, 2), (0, 3): 3, (1, 0): 5}, 4)
V = RhoPoly.var
#: rho with multi-term coefficients up to degree 2, and an f whose
#: f_uu + f_vv has valuation 0, so Delta f reads all of them
MULTI_RHO = Jet2D({(0, 0): 2 * V(0, 0), (1, 0): V(1, 0) + 3 * V(0, 1),
                   (0, 1): 1 + V(2, 0) * Fraction(1, 2),
                   (2, 0): V(0, 0) * V(1, 1) - 1,
                   (1, 1): V(1, 0) ** 2 + V(0, 2),
                   (0, 2): V(0, 1) * V(2, 0) + Fraction(2, 3)}, 2)
LOW_VALUATION = Jet2D({(2, 0): 1, (1, 2): Fraction(1, 3), (3, 1): 2,
                       (0, 4): -1}, 4)
#: RhoPoly coefficients below degree 2 only, so f_uu + f_vv is concrete
LOW_RHOPOLY = Jet2D({(0, 0): V(1, 1), (1, 0): V(0, 1) - 1,
                     (2, 1): Fraction(1, 2), (0, 3): 3}, 4)


@st.composite
def rho_polys(draw, min_terms=1):
    """A RhoPoly of `min_terms` to three terms, each a rational times at most
    two variables rho_ab with a + b <= 3."""
    terms = []
    for _ in range(draw(st.integers(min_terms, 3))):
        term = RhoPoly.const(draw(rationals.filter(bool)))
        for _ in range(draw(st.integers(0, 2))):
            a = draw(st.integers(0, 3))
            term = term * RhoPoly.var(a, draw(st.integers(0, 3 - a)))
        terms.append(term)
    return RhoPoly.sum(terms)


@st.composite
def symbolic_rho_jets(draw):
    """rho over RhoPoly: the generic factor of order 0..5 with each rho_ab
    scaled by a rational, or one of order 0..4 whose coefficients have two
    or three terms; rho_00 is a rational multiple of the variable rho_00, so it
    is invertible."""
    generic = draw(st.booleans())
    order = draw(st.integers(0, 5 if generic else 4))
    coeffs = {}
    for a in range(order + 1):
        for b in range(order + 1 - a):
            coeffs[(a, b)] = (RhoPoly.var(a, b) * draw(rationals.filter(bool))
                              if generic else draw(rho_polys(2)))
    coeffs[(0, 0)] = RhoPoly.var(0, 0) * draw(rationals.filter(bool))
    return Jet2D(coeffs, order)


@settings(max_examples=80, deadline=None)
@given(symbolic_rho_jets() | metric_jets(order=5), operand_jets(),
       st.none() | rho_polys())
@example(generic_rho_jet(2), Jet2D.zero(4), None)
@example(generic_rho_jet(2), SPARSE, None)
@example(flat(Fraction(7, 3), 4), SPARSE, RhoPoly.var(1, 1))
@example(MULTI_RHO, LOW_VALUATION, None)
@example(MULTI_RHO, LOW_VALUATION, V(1, 2) - 1)
@example(generic_rho_jet(1), LOW_VALUATION, None)  # reads rho to order 2
@example(INT_RHO, LOW_RHOPOLY, None)
def test_apply_with_symbolic_coefficients(rho, f, scale):
    # RhoPoly on either side, or both: a RhoPoly f is a concrete one times
    # `scale`, or LOW_RHOPOLY, whose f_uu + f_vv is concrete.  A jet shorter
    # than the output order minus the valuation of f_uu + f_vv is refused,
    # as the inverse to that order was.
    if scale is not None:
        f = f * scale
    assume(_has_rhopoly(rho) or _has_rhopoly(f))
    for op, factor in operators(rho):
        try:
            want = reference_apply(f, factor)
        except OrderExhausted:
            with pytest.raises(OrderExhausted):
                op.apply(f)
        else:
            assert_same_jet(op.apply(f), want)


def test_flat_laplacian_known_values():
    lap = ConformalLaplacian(flat(1, 8))
    f = Jet2D({(4, 0): Fraction(1)}, 8)
    assert lap.apply(f).coeffs == {(2, 0): -12}
    assert lap.apply(lap.apply(f)).constant_term() == 24
    g = Jet2D({(2, 2): Fraction(1)}, 8)
    assert lap.apply(lap.apply(g)).constant_term() == 8


def test_constant_rescaling():
    f = Jet2D({(2, 0): Fraction(1), (0, 2): Fraction(3)}, 6)
    assert ConformalLaplacian(flat(1, 6)).apply(f) * Fraction(1, 4) == \
        ConformalLaplacian(flat(4, 6)).apply(f)


def test_frozen_agrees_with_full_on_flat_metrics():
    f = Jet2D({(3, 1): Fraction(2), (0, 4): Fraction(-1)}, 6)
    rho = flat(Fraction(7, 3), 6)
    assert ConformalLaplacian(rho).apply(f) == FrozenLaplacian(rho).apply(f)


@settings(max_examples=30)
@given(metric_jets(), st.integers(0, 3), st.integers(0, 3))
def test_frozen_only_sees_constant_term(rho, a, b):
    f = Jet2D({(a, b): Fraction(1)}, 6)
    frozen = FrozenLaplacian(rho)
    frozen_const = FrozenLaplacian(flat(rho.constant_term(), 6))
    assert frozen.apply(f) == frozen_const.apply(f)


def test_degenerate_conformal_factor_rejected():
    rho = Jet2D({(1, 0): Fraction(1)}, 4)
    with pytest.raises(NonInvertibleConstantTerm):
        ConformalLaplacian(rho)


def test_inverse_factor_cache_and_identity():
    rho = sphere_rho(1, 6)
    lap = ConformalLaplacian(rho)
    inv2 = lap.inverse_factor(2)
    assert lap._inv.order == 2
    inv6 = lap.inverse_factor(6)
    assert lap._inv.order == 6
    assert rho.truncate(2) * inv2 == Jet2D.constant(Fraction(1), 2)
    assert rho * inv6 == Jet2D.constant(Fraction(1), 6)
    with pytest.raises(OrderExhausted):
        lap.inverse_factor(7)


@settings(max_examples=25)
@given(metric_jets())
def test_laplacian_is_linear(rho):
    lap = ConformalLaplacian(rho)
    f = Jet2D({(2, 0): Fraction(1), (1, 1): Fraction(2)}, 6)
    g = Jet2D({(0, 2): Fraction(5), (3, 0): Fraction(-1)}, 6)
    assert lap.apply(f + g) == lap.apply(f) + lap.apply(g)
    assert lap.apply(f * Fraction(3, 2)) == lap.apply(f) * Fraction(3, 2)


def test_sphere_curvature_is_constant_one_over_radius_squared():
    for radius in (1, 2, Fraction(3, 2)):
        rho = sphere_rho(radius, 8)
        k = gaussian_curvature_jet(rho)
        assert k.order == 6
        assert k.coeffs == {(0, 0): Fraction(1) / Fraction(radius) ** 2}


def test_flat_curvature_vanishes():
    assert not gaussian_curvature_jet(flat(Fraction(7, 3), 6))


def test_reciprocal_linear_curvature():
    # rho = 1/(2 + 3u + 5v) has K = -(9 + 25)/(2 ell) with ell = 2 + 3u + 5v
    ell = Jet2D({(0, 0): Fraction(2), (1, 0): Fraction(3),
                 (0, 1): Fraction(5)}, 6)
    rho = ell.inverse()
    k = gaussian_curvature_jet(rho)
    expected = ell.inverse(order=4) * Fraction(-34, 2)
    assert k == expected


def test_curvature_matches_its_definition():
    # K = (1/2) Delta log rho, with the log series as the reference
    rng = random.Random(88)
    for order in (2, 3, 5, 8, 14):
        coeffs = {(a, b): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for a in range(order + 1) for b in range(order + 1 - a)}
        coeffs[(0, 0)] = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        rho = Jet2D(coeffs, order)
        lap = ConformalLaplacian(rho)
        k = gaussian_curvature_jet(rho)
        assert k == lap.apply(rho.log_nonconstant()) * Fraction(1, 2)
        assert gaussian_curvature_jet(rho, lap) == k


def test_curvature_needs_order_two():
    for order in (0, 1):
        with pytest.raises(OrderExhausted):
            gaussian_curvature_jet(Jet2D.constant(Fraction(2), order))
