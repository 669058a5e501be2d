"""The table of monomial images against the forward Horner chain it
transposes, the batch routes against their one-n calls, and the order in
which a batch request is admitted."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import heatjets.curvature as curvature
import heatjets.heatinv as heatinv
from heatjets.curvature import (_frame_and_coordinates,
                                heat_invariant_curvature_form,
                                heat_invariants_curvature_form)
from heatjets.errors import (DegenerateCurvatureCoordinates,
                             NonInvertibleConstantTerm, OrderExhausted)
from heatjets.heatinv import (WEYL_A0, _ComplexChain, _GaussianChain,
                              _complex_forms, _frozen_terms, _image_table,
                              _radial_powers, _radial_terms, _real_form,
                              generic_rho_jet,
                              heat_invariant, heat_invariant_via_frozen,
                              heat_invariants, heat_invariants_via_frozen,
                              required_order)
from heatjets.jets import STRIDE, Jet2D
from heatjets.laplace import ConformalLaplacian, FrozenLaplacian
from heatjets.rhopoly import RhoPoly

from test_heatinv import random_metric_jet, sphere_rho

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
ROUTES = ("eq311", "eq310", "curvature")


def horner_sum(lap, terms):
    """(sum_k Delta^k T_k)(0) by the forward Horner chain: Q_top = T_top and
    Q_k = T_k + Delta Q_(k+1), one application of Delta per k."""
    q = terms[-1]
    for t in reversed(terms[:-1]):
        q = lap.apply(q) if t is None else t + lap.apply(q)
    return q.constant_term()


def route_terms(path, ns, rho):
    """(Laplacian, {n: T_0..T_4n}, radial) that route `path` reads off its
    table, radial telling whether every term is w (u^2 + v^2)^j."""
    rho = rho.truncate(max(required_order(n, path) for n in ns))
    if path == "curvature":
        frame, lap, z, w = _frame_and_coordinates(rho)
        assume(not frame.degenerate)
        x = z * frame.f - w * frame.e
        r2 = z * z + x * x * (1 / (frame.e * frame.g - frame.f ** 2))
        powers = _radial_powers(r2, max(ns))
        return lap, {n: _radial_terms(n, 1 / frame.e, powers)[1]
                     for n in ns}, False
    lap = ConformalLaplacian(rho)
    if path == "eq310":
        frozen = FrozenLaplacian(rho)
        return lap, {n: _frozen_terms(n, frozen, rho.constant_term())
                     for n in ns}, True
    powers = _radial_powers(Jet2D({(2, 0): 1, (0, 2): 1}, 2 * max(ns) + 2),
                            max(ns))
    return lap, {n: _radial_terms(n, rho.constant_term(), powers)[1]
                 for n in ns}, True


def assert_table_is_horner(path, ns, rho):
    lap, terms, radial = route_terms(path, ns, rho)
    got = list(_image_table(lap, terms, radial))
    assert [n for n, _ in got] == sorted(terms)
    for n, total in got:
        assert total == horner_sum(lap, terms[n]), (path, n)


@settings(max_examples=30, deadline=None)
@given(path=st.sampled_from(ROUTES),
       ns=st.lists(st.integers(1, 3), min_size=1, max_size=3),
       seed=st.integers(0, 2 ** 16))
@example(path="eq311", ns=[1], seed=0)  # reads 1/rho to degree 2 at once
@example(path="curvature", ns=[2, 1], seed=3)
def test_table_equals_horner_on_concrete_jets(path, ns, seed):
    # every n of a batch, read off one table, is the forward Horner sum of
    # its own terms, on dense rational jets for all three routes
    rho = random_metric_jet(random.Random(seed), order=11)
    assert_table_is_horner(path, ns, rho)


@st.composite
def odd_v_jets(draw, order):
    """A rational jet of the given order with rho_00 > 0 and a nonzero
    coefficient of odd degree in v, so that the coefficients of 1/rho in
    z, zbar have imaginary parts."""
    coeffs = {(a, d - a): draw(st.just(0) | rationals)
              for d in range(1, order + 1) for a in range(d + 1)}
    coeffs[(0, 0)] = draw(rationals.filter(lambda c: c > 0))
    b = draw(st.integers(0, (order - 1) // 2)) * 2 + 1
    a = draw(st.integers(0, order - b))
    coeffs[(a, b)] = draw(rationals.filter(bool))
    return Jet2D(coeffs, order)


@settings(max_examples=25, deadline=None)
@given(path=st.sampled_from(("eq311", "eq310")),
       ns=st.lists(st.integers(1, 4), min_size=1, max_size=3),
       data=st.data())
def test_cone_chain_equals_horner_on_rational_jets(path, ns, data):
    # the cone chain on Gaussian integers, on jets whose 1/rho has complex
    # coefficients in z, zbar, equals the forward Horner sum exactly
    rho = data.draw(odd_v_jets(2 * max(ns)))
    lap = ConformalLaplacian(rho)
    assert any(im for _, _, im in _GaussianChain(lap, 4 * max(ns)).upto[-1])
    assert_table_is_horner(path, ns, rho)


def test_cone_chain_batch_cuts_low_slots():
    # in the batch [1, 4] the cone's lower bound k - 4 cuts the low slots
    # from k = 5 on, while a_1 is read off the slots near the origin up to
    # k = 4
    rho = random_metric_jet(random.Random(14), order=8)
    for path in ("eq311", "eq310"):
        assert_table_is_horner(path, [1, 4], rho)
    chain = _GaussianChain(ConformalLaplacian(rho), 16)
    for k in range(1, 9):
        chain.step(k)
    assert min(key // STRIDE - key % STRIDE for key in chain.m) >= 8 - 4


def test_complex_tables_read_only_radial_terms():
    # both complex chains read a term only as w (u^2 + v^2)^j, by one check
    rho = random_metric_jet(random.Random(5), order=4)
    chains = (_GaussianChain(ConformalLaplacian(rho), 8),
              _ComplexChain(ConformalLaplacian(generic_rho_jet(4)), 8))
    for chain in chains:
        for t in (Jet2D({(1, 1): 1}, 4), Jet2D({(2, 0): 1, (0, 2): 2}, 4),
                  Jet2D({(2, 0): 1, (0, 2): 1, (3, 0): 1}, 4),
                  Jet2D({(1, 0): 1}, 4)):
            with pytest.raises(ValueError, match="read only terms"):
                chain.read(t)
        assert chain.read(Jet2D({(2, 0): 3, (0, 2): 3}, 4)) is not None
        assert chain.read(Jet2D.constant(5, 4)) is None
        assert chain.read(Jet2D.zero(4)) is None


@st.composite
def rhopoly_jets(draw, order):
    """rho of the given order over RhoPoly: rho_00 a rational multiple of
    its variable, so invertible, and every other coefficient zero, a
    rational or a rational multiple of the variable rho_ab."""
    coeffs = {}
    for a in range(order + 1):
        for b in range(order + 1 - a):
            coeffs[(a, b)] = draw(st.just(0) | rationals | rationals.map(
                lambda c, a=a, b=b: RhoPoly.var(a, b) * c))
    coeffs[(0, 0)] = RhoPoly.var(0, 0) * draw(rationals.filter(bool))
    return Jet2D(coeffs, order)


@settings(max_examples=20, deadline=None)
@given(path=st.sampled_from(("eq311", "eq310")),
       ns=st.lists(st.integers(1, 2), min_size=1, max_size=2),
       data=st.data())
@example(path="eq311", ns=[1], data=None)  # the generic factor's a_1
def test_table_equals_horner_on_rhopoly_jets(path, ns, data):
    # the division chain in complex coordinates, converted to the rho_ab and
    # with rho's own coefficients put in, equals the forward division by
    # rho; the curvature route takes concrete jets only
    rho = (generic_rho_jet(2 * max(ns)) if data is None
           else data.draw(rhopoly_jets(2 * max(ns))))
    assert_table_is_horner(path, ns, rho)


def test_table_equals_horner_on_explicit_rhopoly_jets():
    # jets other than the generic factor: rho_00 an int or a rational
    # multiple of its variable, beside zero, rational and variable slots
    x = RhoPoly.var
    tail = {(1, 0): x(1, 0), (0, 1): 0, (2, 0): Fraction(3, 2),
            (1, 1): x(1, 1) * Fraction(-1, 3), (0, 2): x(0, 2), (3, 0): 0,
            (2, 1): 2, (1, 2): x(1, 2), (0, 3): Fraction(-5, 7),
            (4, 0): x(4, 0), (2, 2): Fraction(1, 4), (0, 4): x(0, 4) * 3}
    for rho00 in (2, x(0, 0) * Fraction(5, 2)):
        rho = Jet2D({(0, 0): rho00, **tail}, 4)
        for path in ("eq311", "eq310"):
            assert_table_is_horner(path, [1, 2], rho)


def gaussian_taylor(rho):
    """{(p, q): r_pq} of rho = sum rho_ab u^a v^b by its definition, with
    u = (z + zbar)/2 and v = (z - zbar)/(2i), as Gaussian rationals
    (real part, imaginary part) keyed by the powers of z and zbar."""
    def times(f, g):
        out = {}
        for (p1, q1), (x1, y1) in f.items():
            for (p2, q2), (x2, y2) in g.items():
                x, y = out.get((p1 + p2, q1 + q2), (0, 0))
                out[(p1 + p2, q1 + q2)] = (x + x1 * x2 - y1 * y2,
                                           y + x1 * y2 + y1 * x2)
        return out
    half = Fraction(1, 2)
    u = {(1, 0): (half, 0), (0, 1): (half, 0)}
    v = {(1, 0): (0, -half), (0, 1): (0, half)}  # 1/(2i) = -i/2
    r = {}
    for (a, b), c in rho.items():
        term = {(0, 0): (c, 0)}
        for _ in range(a):
            term = times(term, u)
        for _ in range(b):
            term = times(term, v)
        for key, (x, y) in term.items():
            x0, y0 = r.get(key, (0, 0))
            r[key] = (x0 + x, y0 + y)
    return r


def test_real_form_matches_the_complex_value():
    # a random polynomial of weight 2n in the r_pq, unchanged by
    # r_pq <-> r_qp, evaluated at the r_pq of random rational rho_ab as
    # Gaussian rationals, is real and equals its conversion to the rho_ab
    # at the same rho_ab
    rng = random.Random(32)
    for n in (1, 2, 3, 4):
        forms = _complex_forms(2 * n)
        for _ in range(4):
            rho = {(a, d - a): Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                   for d in range(2 * n + 1) for a in range(d + 1)}
            rho[(0, 0)] = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            r = gaussian_taylor(rho)
            num = {}
            for _ in range(5):
                mono, left = {}, 2 * n
                while left:
                    s = rng.randint(1, left)
                    p = rng.randint(0, s)
                    mono[(p, s - p)] = mono.get((p, s - p), 0) + 1
                    left -= s
                mono[(0, 0)] = rng.randint(0, 3)
                c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                for m in (mono, {(q, p): e for (p, q), e in mono.items()}):
                    key = tuple(sorted(m.items()))
                    num[key] = num.get(key, 0) + c
            poly = RhoPoly(num, rng.randint(0, 4))
            x, y = Fraction(0), Fraction(0)
            for mono, c in poly.terms():
                tx, ty = c / rho[(0, 0)] ** poly.den, Fraction(0)
                for (p, q), e in mono:
                    for _ in range(e):
                        rx, ry = r[(p, q)]
                        tx, ty = tx * rx - ty * ry, tx * ry + ty * rx
                x, y = x + tx, y + ty
            assert y == 0
            assert _real_form(poly, forms, 4 ** n).substitute(rho) == x


@settings(max_examples=10, deadline=None)
@given(ns=st.lists(st.integers(0, 3), min_size=1, max_size=5),
       seed=st.integers(0, 2 ** 16))
@example(ns=[3, 1, 3, 0], seed=501)
def test_batch_equals_its_one_n_calls(ns, seed):
    # unsorted, with repeats and n = 0: one entry per distinct n, in
    # increasing n, each the value of the one-n call (a_0 the Weyl term)
    rho = random_metric_jet(random.Random(seed), order=11)
    assume(not _frame_and_coordinates(rho.truncate(5))[0].degenerate)
    for batch, one in ((heat_invariants, heat_invariant),
                       (heat_invariants_via_frozen, heat_invariant_via_frozen),
                       (heat_invariants_curvature_form,
                        heat_invariant_curvature_form)):
        got = list(batch(ns, rho))
        assert [n for n, _ in got] == sorted(set(ns))
        for n, form in got:
            assert form == (one(n, rho).form if n else WEYL_A0)


def test_symbolic_batch_equals_its_one_n_calls():
    rho = generic_rho_jet(4)
    for batch, one in ((heat_invariants, heat_invariant),
                       (heat_invariants_via_frozen, heat_invariant_via_frozen)):
        assert dict(batch([2, 0, 1, 2], rho)) == {
            0: WEYL_A0, 1: one(1, rho).form, 2: one(2, rho).form}


def refuse(*args):
    raise AssertionError("work was started")


def test_batch_checks_every_n_before_any_work(monkeypatch):
    # the error is the one a loop over the request raises at its first
    # failing n, and no table is built first: on the curvature route the
    # first n meets the frame's degeneracy before the later n their orders
    monkeypatch.setattr(heatinv, "_image_table", refuse)
    rho = random_metric_jet(random.Random(7), order=12)
    for batch in (heat_invariants, heat_invariants_via_frozen,
                  heat_invariants_curvature_form):
        for ns, bad in (([2, 0, 9, 7], 9), ([7, 9], 7)):
            with pytest.raises(OrderExhausted, match=f"^a_{bad} on the"):
                list(batch(ns, rho))
    sphere = sphere_rho(1, 12)
    with pytest.raises(DegenerateCurvatureCoordinates):
        list(heat_invariants_curvature_form([0, 1, 9], sphere))
    with pytest.raises(OrderExhausted, match="^a_9 on the"):
        list(heat_invariants_curvature_form([9, 1], sphere))


def test_a0_alone_starts_no_work(monkeypatch):
    # n = 0 is the Weyl term on every route: no frame is built, so neither
    # a degenerate frame nor a jet too short for one is refused, and no
    # table is built
    monkeypatch.setattr(curvature, "_frame_and_coordinates", refuse)
    monkeypatch.setattr(heatinv, "_image_table", refuse)
    short = random_metric_jet(random.Random(3), order=3)
    for rho in (sphere_rho(1, 12), short):
        for batch in (heat_invariants, heat_invariants_via_frozen,
                      heat_invariants_curvature_form):
            assert list(batch([0], rho)) == [(0, WEYL_A0)]


def test_later_n_is_checked_before_rho_00_is_inverted():
    # rho_00 = 0 is met only when the sums are read, so the order of a_9
    # is refused first, as a loop over the request refuses it
    rho = Jet2D({(2, 0): 1, (1, 1): 2, (0, 2): 3}, 12)
    for batch in (heat_invariants, heat_invariants_via_frozen):
        with pytest.raises(NonInvertibleConstantTerm):
            list(batch([1], rho))
        with pytest.raises(OrderExhausted, match="^a_9 on the"):
            list(batch([1, 9], rho))
