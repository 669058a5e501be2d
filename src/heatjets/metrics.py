"""Conformal-factor specifications: parsing and expansion to jets.

A metric is described by a small JSON document giving the conformal factor
rho in isothermal coordinates, ds^2 = rho (du^2 + dv^2), with the base
point fixed at the chart origin.  Rationals travel as strings "[-]p[/q]".

Supported kinds:

  {"kind": "flat"}                               rho = 1
  {"kind": "sphereStereographic", "R": "p/q"}    rho = 4 R^4 / (R^2+u^2+v^2)^2
  {"kind": "reciprocalLinear",
   "a0": "p/q", "a1": "p/q", "a2": "p/q"}        rho = 1 / (a0 + a1 u + a2 v)
  {"kind": "jet", "order": N,
   "coeffs": [[a, b, "p/q"], ...]}               explicit Taylor coefficients

Named families expand to any requested order; an explicit jet carries only
its declared order and can be zero-extended on request (which reads the
spec as a polynomial conformal factor).  Every kind must give a conformal
factor that is positive at the base point.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import InvalidMetric, OrderExhausted, SchemaError
from .jets import Jet2D
from .record import Record

KINDS = ("flat", "sphereStereographic", "reciprocalLinear", "jet")


class MetricSpec(Record):
    """A parsed metric document; the fields that its kind does not use are
    None."""
    __slots__ = ("kind",
                 "radius",   # Fraction R for sphereStereographic
                 "linear",   # (a0, a1, a2) for reciprocalLinear
                 "coeffs",   # ((a, b, Fraction), ...) for jet
                 "order")    # declared order for jet
    _defaults = dict.fromkeys(__slots__[1:])


#: [-]digits[/digits]: no exponent, so a value has no more digits than text
RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _path(where):
    """("coeffs", 3, 2) -> "coeffs[3][2]", formatted only to raise."""
    return where[0] + "".join(f"[{i}]" for i in where[1:])


def _rational(value, *where):
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if not isinstance(value, str):
        raise SchemaError(_path(where), "expected a rational string \"p/q\"")
    match = RATIONAL.fullmatch(value)
    if match:
        p, q = match.groups()
        try:
            return Fraction(int(p), int(q or 1))
        except (ValueError, ZeroDivisionError):  # q = 0, or too long
            pass
    raise SchemaError(_path(where), f"not a rational \"p/q\": {value!r}")


def _index(value, *where):
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise SchemaError(_path(where), "expected a nonnegative integer")
    return value


def _reject_extras(doc, allowed):
    for key in doc:
        if key not in allowed:
            raise SchemaError(key, "unexpected field")


def parse_metric_spec(source) -> MetricSpec:
    """Parse a JSON document (text, bytes, or dict) into a MetricSpec."""
    if isinstance(source, (bytes, bytearray)):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError("<document>", f"not valid UTF-8: {exc}")
    if isinstance(source, str):
        try:
            doc = json.loads(source)
        except (ValueError, RecursionError) as exc:  # too long, too deep
            raise SchemaError("<document>", f"invalid JSON: {exc}")
    else:
        doc = source
    if not isinstance(doc, dict):
        raise SchemaError("<document>", "expected a JSON object")
    kind = doc.get("kind")
    if kind is None:
        raise SchemaError("kind", "missing field")
    if kind not in KINDS:
        raise SchemaError("kind", f"unknown kind {kind!r}; "
                          f"expected one of {', '.join(KINDS)}")

    if kind == "flat":
        _reject_extras(doc, {"kind"})
        return MetricSpec(kind="flat")

    if kind == "sphereStereographic":
        _reject_extras(doc, {"kind", "R"})
        if "R" not in doc:
            raise SchemaError("R", "missing field")
        radius = _rational(doc["R"], "R")
        if radius <= 0:
            raise InvalidMetric("sphere radius must be positive")
        return MetricSpec(kind="sphereStereographic", radius=radius)

    if kind == "reciprocalLinear":
        _reject_extras(doc, {"kind", "a0", "a1", "a2"})
        values = []
        for name in ("a0", "a1", "a2"):
            if name not in doc:
                raise SchemaError(name, "missing field")
            values.append(_rational(doc[name], name))
        if values[0] <= 0:
            raise InvalidMetric("reciprocalLinear requires a0 > 0, since "
                                "rho(0) = 1/a0 must be positive")
        return MetricSpec(kind="reciprocalLinear", linear=tuple(values))

    _reject_extras(doc, {"kind", "order", "coeffs"})
    if "order" not in doc:
        raise SchemaError("order", "missing field")
    order = _index(doc["order"], "order")
    raw = doc.get("coeffs")
    if not isinstance(raw, list):
        raise SchemaError("coeffs", "expected a list of [a, b, \"p/q\"] triples")
    seen = {}
    for i, entry in enumerate(raw):
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise SchemaError(f"coeffs[{i}]",
                              "expected a triple [a, b, \"p/q\"]")
        a = _index(entry[0], "coeffs", i, 0)
        b = _index(entry[1], "coeffs", i, 1)
        value = _rational(entry[2], "coeffs", i, 2)
        if (a, b) in seen:
            raise SchemaError(f"coeffs[{i}]",
                              f"duplicate coefficient ({a}, {b})")
        if a + b > order:
            raise InvalidMetric(
                f"coefficient ({a}, {b}) exceeds declared order {order}")
        seen[(a, b)] = value
    if seen.get((0, 0), Fraction(0)) <= 0:
        raise InvalidMetric("jet constant term rho(0) must be positive")
    triples = tuple(sorted((a, b, c) for (a, b), c in seen.items()))
    return MetricSpec(kind="jet", coeffs=triples, order=order)


def load_metric_spec(path) -> MetricSpec:
    with open(path, "rb") as fh:
        return parse_metric_spec(fh.read())


def expand_metric(spec: MetricSpec, order: int, extend=False) -> Jet2D:
    """Taylor-expand the conformal factor at the origin to the given order.

    Named families expand exactly to any order.  An explicit jet is
    truncated if the request is lower than its declared order; raising the
    order requires `extend`, which fills with zeros (reading the listed
    coefficients as a polynomial conformal factor).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    if spec.kind == "flat":
        return Jet2D.constant(Fraction(1), order)
    if spec.kind == "sphereStereographic":
        r2 = spec.radius ** 2
        base = Jet2D({(0, 0): r2, (2, 0): Fraction(1), (0, 2): Fraction(1)},
                     order=order)
        return (base * base).inverse() * (4 * r2 ** 2)
    if spec.kind == "reciprocalLinear":
        a0, a1, a2 = spec.linear
        lin = Jet2D({(0, 0): a0, (1, 0): a1, (0, 1): a2}, order=order)
        return lin.inverse()
    coeffs = {(a, b): c for a, b, c in spec.coeffs}
    if order <= spec.order:
        return Jet2D(coeffs, order=spec.order).truncate(order)
    if not extend:
        raise OrderExhausted(
            f"metric jet is declared to order {spec.order} but order "
            f"{order} is required; pass --jet-order {order} to zero-extend")
    return Jet2D(coeffs, order=order)
