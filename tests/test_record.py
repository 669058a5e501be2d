"""The value semantics of the package's records (``heatjets.record``)."""

from fractions import Fraction

import pytest

from heatjets.acceptance import Criterion
from heatjets.curvature import CurvatureFrame
from heatjets.heatinv import WEYL_A0, HeatInvariantResult, PiScaled
from heatjets.metrics import MetricSpec


def test_equality_is_by_type_and_fields():
    q = Fraction(1, 12)
    assert PiScaled(q) == PiScaled(q=Fraction(2, 24))
    assert PiScaled(q) != PiScaled(Fraction(1, 60))
    assert PiScaled(q) != (q,)
    # one field each, equal values: still different records
    assert PiScaled(q) != HeatInvariantResult(q)
    assert MetricSpec("flat") == MetricSpec(kind="flat")
    assert MetricSpec("flat") != MetricSpec("flat", order=0)


def test_records_hash_like_their_fields():
    q = Fraction(1, 12)
    assert hash(PiScaled(q)) == hash(PiScaled(Fraction(1, 12)))
    spec = MetricSpec("jet", coeffs=((0, 0, Fraction(1)),), order=2)
    frame = CurvatureFrame(*[Fraction(i) for i in range(6)], False)
    assert len({PiScaled(q), PiScaled(q), spec, spec, frame, frame}) == 3


def test_fields_refuse_assignment_and_deletion():
    with pytest.raises(AttributeError):
        WEYL_A0.q = Fraction(1)
    with pytest.raises(AttributeError):
        del WEYL_A0.q
    with pytest.raises(AttributeError):
        MetricSpec("flat").radius = Fraction(1)
    assert WEYL_A0 == PiScaled(Fraction(1, 4))


def test_construction_by_position_and_keyword():
    assert not PiScaled(Fraction(0))
    assert PiScaled(Fraction(-1, 3))
    spec = MetricSpec(kind="flat")
    assert (spec.radius, spec.linear, spec.coeffs, spec.order) == (None,) * 4
    frame = CurvatureFrame(k0=Fraction(1), dk0=Fraction(2), e=Fraction(3),
                           f=Fraction(4), g=Fraction(5), jacobian=Fraction(0),
                           degenerate=True)
    assert (frame.k0, frame.g, frame.degenerate) == (1, 5, True)
    criterion = Criterion(1, "name", 1.0, lambda: None)
    assert (criterion.number, criterion.budget_seconds) == (1, 1.0)
    for bad in (lambda: PiScaled(), lambda: PiScaled(1, 2),
                lambda: PiScaled(1, q=1), lambda: PiScaled(p=1),
                lambda: MetricSpec(radius=Fraction(1))):
        with pytest.raises(TypeError):
            bad()


def test_repr_names_the_class_and_fields():
    assert repr(PiScaled(Fraction(1, 4))) == "PiScaled(q=Fraction(1, 4))"
    text = repr(MetricSpec("sphereStereographic", radius=Fraction(2)))
    assert text.startswith("MetricSpec(kind='sphereStereographic', "
                           "radius=Fraction(2, 1), linear=None")
