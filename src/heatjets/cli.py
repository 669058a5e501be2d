"""Command-line front end: `heatinv`.

Three subcommands:

  compute    closed forms (symbolic) or exact values (numeric) of a_n
  verify     built-in acceptance checks, all of them exact
  curvature  curvature frame of a metric at the base point

Exit codes: 0 success, 2 schema or usage error, 3 mathematical
precondition failure (insufficient jet order, degenerate or singular
input), 4 verification failure.

``parse_args`` reads argv against one table, ``COMMANDS``, as argparse read
it, with argparse's messages, except that a flag is never abbreviated; no
argparse, gettext or locale is loaded.
"""

from __future__ import annotations

import json
import re
import sys
import time
from types import SimpleNamespace

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
from .record import Record

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


# -- command line ------------------------------------------------------------

class Flag(Record):
    """One option of a command.  `kind` reads its value: int, str, or a
    tuple of the accepted strings.  A `repeat` flag collects a list, a
    `required` one must be given, and an absent one leaves `default`."""
    __slots__ = ("option", "dest", "kind", "metavar", "help", "default",
                 "repeat", "required")
    _defaults = dict(metavar=None, help="", default=None, repeat=False,
                     required=False)


#: command -> (handler, summary, flags)
COMMANDS = {
    "compute": (
        _cmd_compute, "compute a_n symbolically or for a concrete metric",
        (Flag("--metric", "metric", str, "FILE",
              "metric-spec JSON file; omit for a fully generic (symbolic) "
              "conformal factor"),
         Flag("--n", "ns", int, "N", "coefficient index; repeatable",
              repeat=True, required=True),
         Flag("--path", "path", ("eq311", "eq310", "curvature"),
              help="evaluation route (default eq311)", default="eq311"),
         Flag("--format", "fmt", ("plain", "latex", "json"),
              default="plain"),
         Flag("--approx", "approx", int, "DIGITS",
              "append a decimal approximation (numeric mode)"),
         Flag("--jet-order", "jet_order", int, "ORDER",
              "working jet order; zero-extends an explicit jet"))),
    "verify": (_cmd_verify, "run built-in acceptance checks", ()),
    "curvature": (
        _cmd_curvature,
        "print the curvature frame (K0, DeltaK0, E, F, G, degeneracy)",
        (Flag("--metric", "metric", str, "FILE", required=True),
         Flag("--jet-order", "jet_order", int, "ORDER"))),
}

#: tokens that start with "-" and still read as values, as in argparse
NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _is_option(token: str, flags) -> bool:
    """Whether `token` reads as an option rather than a value: it starts
    with "-", is not "-" alone nor a negative number, and names a flag
    (before any "=") or -h, or else has no space in it."""
    if token[:1] != "-" or token == "-" or NEGATIVE_NUMBER.match(token):
        return False
    head = token.split("=", 1)[0]
    return head in flags or head == "--help" or token[:2] == "-h" \
        or " " not in token


def _metavar(flag: Flag) -> str:
    if isinstance(flag.kind, tuple):
        return "{" + ",".join(flag.kind) + "}"
    return flag.metavar


def _usage(command) -> str:
    if command is None:
        return f"usage: heatinv [-h] {{{','.join(COMMANDS)}}} ..."
    words = [f"usage: heatinv {command} [-h]"]
    for flag in COMMANDS[command][2]:
        word = f"{flag.option} {_metavar(flag)}"
        words.append(word if flag.required else f"[{word}]")
    return " ".join(words)


def _print_help(command) -> None:
    if command is None:
        about = ("Exact heat-kernel coefficients a_n(x) of surfaces given "
                 "by a conformal factor.")
        title, rows = "commands:", [(name, summary) for name, (_, summary, _)
                                    in COMMANDS.items()]
    else:
        _, about, flags = COMMANDS[command]
        title = "options:"
        rows = [("-h, --help", "show this help message and exit")]
        rows += [(f"{f.option} {_metavar(f)}", f.help) for f in flags]
    width = max(len(name) for name, _ in rows) + 2
    print(f"{_usage(command)}\n\n{about}\n\n{title}")
    for name, text in rows:
        print(f"  {name.ljust(width)}{text}".rstrip())
    raise SystemExit(0)


def _fail(command, message: str):
    """Report a usage error as argparse does, and exit 2."""
    prog = "heatinv" if command is None else f"heatinv {command}"
    print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv) -> SimpleNamespace:
    """Read `argv` against COMMANDS: the command, then its flags in any
    order as `--flag value` or `--flag=value`, never abbreviated.  A flag
    given twice keeps its last value, unless it is repeatable and collects
    them all.  -h or --help prints help and exits 0; a usage error exits 2
    with argparse's messages."""
    command, flags, values, extras = None, {}, {}, []
    tokens = iter(argv)
    for token in tokens:
        if command is None and (token == "--"
                                or not _is_option(token, flags)):
            if token not in COMMANDS:
                _fail(None, f"argument command: invalid choice: {token!r} "
                      f"(choose from {', '.join(map(repr, COMMANDS))})")
            command = token
            flags = {flag.option: flag for flag in COMMANDS[command][2]}
            values = {flag.dest: flag.default for flag in flags.values()}
        elif token == "--":  # what follows is positional, and none is taken
            extras += [token, *tokens]
        elif not _is_option(token, flags):
            extras.append(token)
        elif token in ("-h", "--help"):
            _print_help(command)
        elif token[:2] == "-h" or token.startswith("--help="):
            _fail(command, "argument -h/--help: ignored explicit argument "
                  f"{token.partition('=')[2] or token[2:]!r}")
        elif token.split("=", 1)[0] not in flags:
            extras.append(token)
        else:
            option, explicit, value = token.partition("=")
            flag = flags[option]
            if not explicit:
                value = next(tokens, "--")  # "--" is never a value
                if _is_option(value, flags):
                    _fail(command, f"argument {option}: expected one argument")
            if flag.kind is int:
                try:
                    value = int(value)
                except ValueError:
                    _fail(command, f"argument {option}: invalid int value: "
                          f"{value!r}")
            elif flag.kind is not str and value not in flag.kind:
                _fail(command, f"argument {option}: invalid choice: "
                      f"{value!r} (choose from "
                      f"{', '.join(map(repr, flag.kind))})")
            if flag.repeat:
                value = (values[flag.dest] or []) + [value]
            values[flag.dest] = value
    if command is None:
        _fail(None, "the following arguments are required: command")
    missing = [flag.option for flag in flags.values()
               if flag.required and values[flag.dest] is None]
    if missing:
        _fail(command, "the following arguments are required: "
              + ", ".join(missing))
    if extras:
        _fail(None, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=command, func=COMMANDS[command][0],
                           **values)


# -- entry point ---------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
