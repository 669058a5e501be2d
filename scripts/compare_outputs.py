#!/usr/bin/env python3
"""Check that two source trees print the same `heatinv compute` output.

Usage: python3 scripts/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a `heatjets` package (a
checkout's `src/`).  Every request below runs once per tree, each in a fresh
`python3 -I` with that tree first on `sys.path`:

* symbolic eq311 a_1..a_4 and symbolic eq310 a_1..a_3, in plain, latex and
  json, symbolic eq311 a_5 (1092 terms over rho^15) and a_6 (3643 terms over
  rho^18) in json, and symbolic eq310 a_4 (307 terms) in json, the longest
  chain of ``RhoPoly`` jet products, through the frozen Laplacian's
  constant jet;
* seeds 501-503 of the benchmark workloads dense, curvature and sphere
  (their metrics come from `perfbench/workloads.py`), in json, plain and
  latex with `--approx 12`;
* an unsorted request with a repeat and n = 0, `--n 3 --n 1 --n 3 --n 0`,
  in json on dense seed 501;
* every flag spelt `--flag=value`, `--metric=FILE --n=2 --format=json
  --path=eq310`, on dense seed 501;
* eq310 in json on the dense and sphere seeds;
* deeper orders in json, where the jets' denominators grow largest: eq311
  a_5 and a_6 on dense seed 501, and the curvature route's a_3 and a_4 on
  the curvature seeds (the workload jets, of order 32 and 22, hold enough
  terms for both);
* eq311 a_6 and a_7 in json on the sphere seeds, whose sparse jets leave
  the most slots of the integral kernels empty;
* eq310 a_5 and a_6 in json on dense seed 501; a_6 is the longest
  frozen-operator chain;
* the curvature frame (`heatinv curvature`: K, Delta K, E, F and G at the
  base point) of the curvature seeds;
* the named family reciprocalLinear (a0 = 2, a1 = 3, a2 = 5): eq311 a_1..a_3
  in plain, latex and json with `--approx 12`, eq310 a_1..a_3 in json, its
  curvature frame, and the curvature route, which exits 3 (its curvature
  depends on one linear form only), so the exit code and standard error are
  compared too;
* the flat metric on all three routes (eq311 and eq310 print zeros, the
  curvature route exits 3);
* the flat jet of order 12 on the curvature route, which pins the order
  in which a request is admitted: `--n 1 --n 9` exits 3 on the vanishing
  Jacobian, `--n 9 --n 1` and `--n 0 --n 9` exit 3 on a_9's order, and
  `--n 0` prints a_0 = 1/(4*pi);
* an all-integer jet of order 12 with constant term 1 (every denominator,
  also those of 1/rho, is 1): eq311 a_1..a_4 in plain and json, eq310
  a_1..a_4 and the curvature route's a_1 and a_2 in json, and `--n 2
  --n 9`, which exits 3 (a_9 reads order 18);
* a jet of order 11 whose denominators are the coprime primes 10007 and
  10009, which stresses the content division of the integral jets: eq311,
  eq310 and the curvature route's a_1..a_3 in json, and its curvature
  frame;
* the sphere of radius 7/5 at a_8 and a_12 in json;
* an asymmetric jet of order 12 (seeded numerators in [-9, 9] over
  [1, 7], every coefficient of odd degree in v nonzero, so 1/rho has
  complex coefficients in z, zbar): eq311 and eq310 a_5 and a_6, and the
  batch `--n 1 --n 4`, whose table cuts the low slots of its cone, in json;
* the flat metric's a_3 alone on eq311 and eq310 in json;
* the input-error contract, each in plain and json (exit 2, the message on
  standard error or in the JSON report): an unknown metric kind, a sphere
  of radius 0, a jet whose coeffs[1][2] is not a rational (its error names
  that path), and the usage error of `--approx` on a symbolic request.

The exit code, standard output and standard error must match byte for byte,
except for the `wallTimeSeconds` lines of the JSON reports.  Prints
`identical (96 requests)` and exits 0, or prints the first differing request
and exits 1.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FORMATS = ("plain", "latex", "json")
SEEDS = (501, 502, 503)
#: workload -> (seeds, orders n) of the deeper-order json requests
DEEPER = {"dense": ((501,), (5, 6)), "curvature": (SEEDS, (3, 4)),
          "sphere": (SEEDS, (6, 7))}
RECIPROCAL = {"kind": "reciprocalLinear", "a0": "2", "a1": "3", "a2": "5"}
INTEGER_ORDER = 12
COPRIME_ORDER = 11


def integer_jet():
    """The all-integer jet document: seeded coefficients in [-9, 9] and
    rho(0) = 1, so its inverse is integral too."""
    rng = random.Random("integer")
    coeffs = [[a, b, str(rng.randint(-9, 9))]
              for a in range(INTEGER_ORDER + 1)
              for b in range(INTEGER_ORDER + 1 - a) if a + b]
    return {"kind": "jet", "order": INTEGER_ORDER,
            "coeffs": [[0, 0, "1"], *coeffs]}


def coprime_jet():
    """The jet document of order COPRIME_ORDER with seeded numerators in
    [-9, 9] over 10007 or 10009 and rho(0) = 10009/10007."""
    rng = random.Random("coprime")
    coeffs = [[a, b, f"{rng.randint(-9, 9)}/{rng.choice((10007, 10009))}"]
              for a in range(COPRIME_ORDER + 1)
              for b in range(COPRIME_ORDER + 1 - a) if a + b]
    return {"kind": "jet", "order": COPRIME_ORDER,
            "coeffs": [[0, 0, "10009/10007"], *coeffs]}


def asymmetric_jet():
    """The jet document of order 12 with seeded numerators in [-9, 9] over
    [1, 7], nonzero where the degree in v is odd, and rho(0) = 3/2."""
    rng = random.Random("asymmetric")
    coeffs = []
    for a in range(INTEGER_ORDER + 1):
        for b in range(INTEGER_ORDER + 1 - a):
            if a + b:
                c = rng.choice((-1, 1)) * rng.randint(1, 9) if b % 2 else \
                    rng.randint(-9, 9)
                coeffs.append([a, b, f"{c}/{rng.randint(1, 7)}"])
    return {"kind": "jet", "order": INTEGER_ORDER,
            "coeffs": [[0, 0, "3/2"], *coeffs]}


#: name -> a metric document that `heatinv compute` refuses with exit 2
BAD_METRICS = {
    "unknown kind": {"kind": "torus"},
    "sphere R = 0": {"kind": "sphereStereographic", "R": "0"},
    "jet coefficient not rational": {
        "kind": "jet", "order": 2, "coeffs": [[0, 0, "1"], [2, 0, "1.5"]]},
}

#: Runs heatjets.cli.main on argv[2:] with the tree argv[1] first on the path.
RUNNER = """\
import sys
sys.path.insert(0, sys.argv[1])
import heatjets.cli
sys.exit(heatjets.cli.main(sys.argv[2:]))
"""


def load_workloads(src):
    """perfbench/workloads.py as a module; it imports heatjets from `src`."""
    sys.path.insert(0, str(src))
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def requests(workloads, tmp: Path):
    """(label, argv) of every request, metric files written under `tmp`."""
    for path, top in (("eq311", 4), ("eq310", 3)):
        ns = [arg for n in range(1, top + 1) for arg in ("--n", str(n))]
        for fmt in FORMATS:
            yield (f"symbolic {path} {fmt}",
                   ["compute", *ns, "--path", path, "--format", fmt])
    for n in ("5", "6"):
        yield (f"symbolic eq311 n={n} json",
               ["compute", "--n", n, "--format", "json"])
    yield ("symbolic eq310 n=4 json",
           ["compute", "--n", "4", "--path", "eq310", "--format", "json"])
    for workload in ("dense", "curvature", "sphere"):
        for seed in SEEDS:
            request = workloads.make_request(workload, seed)
            metric = tmp / f"{workload}-{seed}.json"
            metric.write_text(json.dumps(request.metric))
            argv = request.argv(metric)[:-1]  # drops "json" after --format
            for fmt in FORMATS:
                yield (f"{workload} seed {seed} {request.path} {fmt}",
                       [*argv, fmt, "--approx", "12"])
            if workload != "curvature":
                yield (f"{workload} seed {seed} eq310 json",
                       ["eq310" if a == request.path else a for a in argv]
                       + ["json"])
            else:
                yield (f"curvature seed {seed} frame",
                       ["curvature", "--metric", str(metric)])
            seeds, ns = DEEPER.get(workload, ((), ()))
            if seed in seeds:
                deeper = dataclasses.replace(request, ns=ns)
                yield (f"{workload} seed {seed} {request.path} n={ns} json",
                       deeper.argv(metric))
            if workload == "dense" and seed == SEEDS[0]:
                yield (f"dense seed {seed} n=3,1,3,0 json",
                       ["compute", "--metric", str(metric), "--n", "3",
                        "--n", "1", "--n", "3", "--n", "0", "--format",
                        "json"])
                yield (f"dense seed {seed} --flag=value eq310 n=2 json",
                       ["compute", f"--metric={metric}", "--n=2",
                        "--format=json", "--path=eq310"])
                for n in ("5", "6"):
                    yield (f"dense seed {seed} eq310 n={n} json",
                           ["compute", "--metric", str(metric), "--n", n,
                            "--path", "eq310", "--format", "json"])
    metric = tmp / "reciprocal.json"
    metric.write_text(json.dumps(RECIPROCAL))
    argv = ["compute", "--n", "1", "--n", "2", "--n", "3",
            "--metric", str(metric)]
    for fmt in FORMATS:
        yield (f"reciprocalLinear eq311 {fmt}",
               [*argv, "--format", fmt, "--approx", "12"])
    yield ("reciprocalLinear eq310 json",
           [*argv, "--path", "eq310", "--format", "json"])
    yield "reciprocalLinear curvature", [*argv, "--path", "curvature"]
    yield "reciprocalLinear frame", ["curvature", "--metric", str(metric)]
    metric = tmp / "flat.json"
    metric.write_text(json.dumps({"kind": "flat"}))
    argv = ["compute", "--n", "1", "--n", "2", "--n", "3",
            "--metric", str(metric)]
    for path in ("eq311", "eq310", "curvature"):
        yield f"flat {path}", [*argv, "--path", path, "--format", "json"]
    metric = tmp / "flat-jet.json"
    metric.write_text(json.dumps(
        {"kind": "jet", "order": 12, "coeffs": [[0, 0, "1"]]}))
    for ns in ((1, 9), (9, 1), (0,), (0, 9)):
        yield (f"flat jet curvature n={ns}",
               ["compute", *(a for n in ns for a in ("--n", str(n))),
                "--metric", str(metric), "--path", "curvature"])
    metric = tmp / "integer.json"
    metric.write_text(json.dumps(integer_jet()))
    ns = [arg for n in range(1, 5) for arg in ("--n", str(n))]
    argv = ["compute", *ns, "--metric", str(metric)]
    for fmt in ("plain", "json"):
        yield f"integer jet eq311 {fmt}", [*argv, "--format", fmt]
    yield ("integer jet eq310 json",
           [*argv, "--path", "eq310", "--format", "json"])
    yield ("integer jet curvature json",
           ["compute", "--n", "1", "--n", "2", "--metric", str(metric),
            "--path", "curvature", "--format", "json"])
    yield ("integer jet n=2,9 (exit 3)",
           ["compute", "--n", "2", "--n", "9", "--metric", str(metric)])
    metric = tmp / "coprime.json"
    metric.write_text(json.dumps(coprime_jet()))
    ns = [arg for n in range(1, 4) for arg in ("--n", str(n))]
    for path in ("eq311", "eq310", "curvature"):
        yield (f"coprime jet {path} json",
               ["compute", *ns, "--metric", str(metric), "--path", path,
                "--format", "json"])
    yield "coprime jet frame", ["curvature", "--metric", str(metric)]
    metric = tmp / "sphere-7-5.json"
    metric.write_text(json.dumps({"kind": "sphereStereographic", "R": "7/5"}))
    for n in ("8", "12"):
        yield (f"sphere R = 7/5 a_{n} json",
               ["compute", "--n", n, "--metric", str(metric), "--format",
                "json"])
    metric = tmp / "asymmetric.json"
    metric.write_text(json.dumps(asymmetric_jet()))
    for path in ("eq311", "eq310"):
        for ns in (("5",), ("6",), ("1", "4")):
            yield (f"asymmetric jet {path} n={','.join(ns)} json",
                   ["compute", *(a for n in ns for a in ("--n", n)),
                    "--metric", str(metric), "--path", path, "--format",
                    "json"])
    metric = tmp / "flat.json"
    for path in ("eq311", "eq310"):
        yield (f"flat {path} a_3 json",
               ["compute", "--n", "3", "--metric", str(metric), "--path",
                path, "--format", "json"])
    for name, doc in BAD_METRICS.items():
        metric = tmp / f"{name.replace(' ', '-')}.json"
        metric.write_text(json.dumps(doc))
        for fmt in ("plain", "json"):
            yield (f"{name} {fmt}", ["compute", "--n", "1", "--metric",
                                     str(metric), "--format", fmt])
    for fmt in ("plain", "json"):
        yield (f"symbolic --approx {fmt}",
               ["compute", "--n", "1", "--approx", "5", "--format", fmt])


def run(src, argv):
    """(exit code, stdout without wallTimeSeconds lines, stderr)."""
    proc = subprocess.run([sys.executable, "-I", "-c", RUNNER, str(src),
                           *argv], capture_output=True, text=True)
    stdout = "".join(line for line in proc.stdout.splitlines(keepends=True)
                     if '"wallTimeSeconds":' not in line)
    return proc.returncode, stdout, proc.stderr


def first_difference(old: str, new: str) -> str:
    for i, (a, b) in enumerate(zip(old.splitlines(), new.splitlines()), 1):
        if a != b:
            return f"line {i}:\n  old: {a[:200]}\n  new: {b[:200]}"
    return (f"one output ends first ({len(old.splitlines())} against "
            f"{len(new.splitlines())} lines)")


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old_src, new_src = (Path(a).resolve() for a in args)
    for src in (old_src, new_src):
        if not (src / "heatjets" / "cli.py").is_file():
            print(f"error: no heatjets sources under {src}", file=sys.stderr)
            return 2
    workloads = load_workloads(new_src)
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for label, cli_argv in requests(workloads, Path(tmp)):
            count += 1
            old, new = run(old_src, cli_argv), run(new_src, cli_argv)
            if old != new:
                print(f"differs: {label}\n  heatinv {' '.join(cli_argv)}")
                if old[0] != new[0]:
                    print(f"exit code: {old[0]} against {new[0]}")
                for name, a, b in (("stdout", old[1], new[1]),
                                   ("stderr", old[2], new[2])):
                    if a != b:
                        print(f"{name}: {first_difference(a, b)}")
                return 1
    print(f"identical ({count} requests)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
