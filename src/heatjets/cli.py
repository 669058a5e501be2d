"""Command-line front end: `heatinv`.

Three subcommands:

  compute    closed forms (symbolic) or exact values (numeric) of a_n
  verify     built-in acceptance checks, all of them exact
  curvature  curvature frame of a metric at the base point

Exit codes: 0 success, 2 schema or usage error, 3 mathematical
precondition failure (insufficient jet order, degenerate or singular
input), 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .curvature import (
    FRAME_MIN_ORDER,
    curvature_frame,
    heat_invariants_curvature_form,
)
from .errors import (
    DegenerateCurvatureCoordinates,
    IndexOutOfRange,
    InvalidMetric,
    NonInvertibleConstantTerm,
    OrderExhausted,
    SchemaError,
    ValueTooLong,
)
from .heatinv import (
    PiScaled,
    generic_rho_jet,
    heat_invariants,
    heat_invariants_via_frozen,
    render_closed_form,
    render_pi_scaled,
    closed_form_to_json,
    required_order,
)
from .jets import Jet2D, _check_order
from .metrics import expand_metric, load_metric_spec

#: Most decimal digits ``--approx`` prints.  The mpmath evaluation grows
#: faster than linearly in the digits, so a larger request is refused
#: before any work starts instead of running for minutes.
MAX_APPROX_DIGITS = 100_000

INPUT_ERRORS = (SchemaError, InvalidMetric)
PRECONDITION_ERRORS = (OrderExhausted, NonInvertibleConstantTerm,
                       DegenerateCurvatureCoordinates, IndexOutOfRange,
                       ValueTooLong)


class UsageError(Exception):
    """Flag combinations the schema cannot express."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatinv",
        description="Exact heat-kernel coefficients a_n(x) of surfaces "
                    "given by a conformal factor.")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser(
        "compute",
        help="compute a_n symbolically or for a concrete metric")
    c.add_argument("--metric", metavar="FILE",
                   help="metric-spec JSON file; omit for a fully "
                        "generic (symbolic) conformal factor")
    c.add_argument("--n", dest="ns", action="append", type=int,
                   required=True, metavar="N",
                   help="coefficient index; repeatable")
    c.add_argument("--path", choices=("eq311", "eq310", "curvature"),
                   default="eq311",
                   help="evaluation route (default eq311)")
    c.add_argument("--format", dest="fmt",
                   choices=("plain", "latex", "json"), default="plain")
    c.add_argument("--approx", type=int, metavar="DIGITS",
                   help="append a decimal approximation (numeric mode)")
    c.add_argument("--jet-order", dest="jet_order", type=int, metavar="ORDER",
                   help="working jet order; zero-extends an explicit jet")
    c.set_defaults(func=_cmd_compute)

    v = sub.add_parser("verify", help="run built-in acceptance checks")
    v.set_defaults(func=_cmd_verify)

    k = sub.add_parser(
        "curvature",
        help="print the curvature frame (K0, DeltaK0, E, F, G, degeneracy)")
    k.add_argument("--metric", metavar="FILE", required=True)
    k.add_argument("--jet-order", dest="jet_order", type=int, metavar="ORDER")
    k.set_defaults(func=_cmd_curvature)
    return parser


# -- compute -----------------------------------------------------------------

def _expand_for(args, needed: int) -> Jet2D:
    """The metric's jet, built no further than the order `needed` that the
    request reads.  An explicit jet is parsed and validated in full, and its
    working order (declared, or --jet-order) is refused at the key stride; a
    working order below `needed` is kept, for the routes to refuse."""
    spec = load_metric_spec(args.metric)
    order = args.jet_order
    if order is None:
        order = spec.order if spec.kind == "jet" else needed
    elif order < 0:
        raise UsageError("--jet-order must be nonnegative")
    if spec.kind == "jet":
        _check_order(order)
    return expand_metric(spec, min(order, needed), extend=True)


def _check_printable(what: str, values) -> None:
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and any(max(abs(q.numerator), q.denominator) >= 10 ** limit
                     for q in values):
        raise ValueTooLong(f"{what} has more than {limit} digits, more "
                           "than Python converts to text")


def _approx_string(value: PiScaled, digits: int) -> str:
    import mpmath
    with mpmath.workdps(digits + 10):
        x = mpmath.mpf(value.q.numerator) / value.q.denominator / mpmath.pi
        return mpmath.nstr(x, digits)


def _cmd_compute(args) -> int:
    ns = args.ns
    if any(n < 0 for n in ns):
        raise UsageError("--n must be nonnegative")
    mode = "numeric" if args.metric else "symbolic"
    if mode == "symbolic":
        if args.path == "curvature":
            raise UsageError("the curvature path needs a concrete metric")
        if args.approx is not None:
            raise UsageError("--approx applies to numeric results only")
        if args.jet_order is not None:
            raise UsageError("--jet-order applies to concrete metrics only")
    if args.approx is not None and args.approx < 1:
        raise UsageError("--approx needs at least one digit")
    if args.approx is not None and args.approx > MAX_APPROX_DIGITS:
        raise UsageError(f"--approx allows at most {MAX_APPROX_DIGITS} digits")

    needed = max(required_order(n, args.path) for n in ns)
    rho = _expand_for(args, needed) if args.metric else generic_rho_jet(needed)
    # one batch per request, called by module-level name, so a wrapper put
    # in place of a route sees every call
    if args.path == "eq311":
        batch = heat_invariants
    elif args.path == "eq310":
        batch = heat_invariants_via_frozen
    else:
        batch = heat_invariants_curvature_form
    start = time.perf_counter()
    done = {n: (value, time.perf_counter() - start)
            for n, value in batch(ns, rho)}
    results = []
    for n in ns:
        value, wall = done[n]
        results.append((n, value, required_order(n, args.path) if n else 0,
                        wall))
        if isinstance(value, PiScaled):
            _check_printable(f"a_{n}", [value.q])

    if args.fmt == "json":
        payload = []
        for n, value, order, wall in results:
            if isinstance(value, PiScaled):
                doc = {"kind": "numeric", "q": str(value.q), "piPower": 1}
                if args.approx is not None:
                    doc["approx"] = _approx_string(value, args.approx)
            else:
                doc = closed_form_to_json(value)
            payload.append({"n": n, "truncationOrder": order,
                            "wallTimeSeconds": round(wall, 6),
                            "value": doc})
        report = {"command": "compute", "mode": mode, "path": args.path,
                  "results": payload}
        print(json.dumps(report, indent=2))
        return 0

    for n, value, order, _ in results:
        if isinstance(value, PiScaled):
            text = render_pi_scaled(value, args.fmt)
            if args.approx is not None:
                text += f" (approx {_approx_string(value, args.approx)})"
        else:
            text = render_closed_form(value, args.fmt)
        print(f"a_{n} = {text}")
    return 0


# -- curvature ---------------------------------------------------------------

def _cmd_curvature(args) -> int:
    frame = curvature_frame(_expand_for(args, FRAME_MIN_ORDER))
    values = {"K0": frame.k0, "DeltaK0": frame.dk0, "E": frame.e,
              "F": frame.f, "G": frame.g}
    _check_printable("the curvature frame", values.values())
    for name, value in values.items():
        print(f"{name} = {value}")
    print(f"degenerate = {'yes' if frame.degenerate else 'no'}")
    return 0


# -- verify ------------------------------------------------------------------

def _cmd_verify(args) -> int:
    from .acceptance import CRITERIA
    failures = 0
    for criterion in CRITERIA:
        start = time.perf_counter()
        try:
            detail = criterion.check()
        except Exception as exc:  # a crash is a failure, not an abort
            detail = f"{type(exc).__name__}: {exc}"
        elapsed = f"({time.perf_counter() - start:.2f}s)"
        if detail is None:
            print(f"PASS {criterion.name} {elapsed}")
        else:
            failures += 1
            print(f"FAIL {criterion.name} {elapsed}: {detail}")
    print(f"{len(CRITERIA) - failures}/{len(CRITERIA)} criteria passed")
    return 4 if failures else 0


# -- entry point ---------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = getattr(args, "fmt", "plain")
    try:
        return args.func(args)
    except UsageError as exc:
        _emit_error(exc, fmt, kind="usage")
        return 2
    except INPUT_ERRORS as exc:
        _emit_error(exc, fmt, kind="input")
        return 2
    except OSError as exc:
        _emit_error(exc, fmt, kind="io")
        return 2
    except PRECONDITION_ERRORS as exc:
        _emit_error(exc, fmt, kind="precondition")
        return 3


def _emit_error(exc, fmt: str, kind: str) -> None:
    if fmt == "json":
        doc = {"error": {"kind": kind, "type": type(exc).__name__,
                         "message": str(exc)}}
        path = getattr(exc, "path", None)
        if path is not None:
            doc["error"]["path"] = path
        print(json.dumps(doc, indent=2))
    else:
        print(f"error: {exc}", file=sys.stderr)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
