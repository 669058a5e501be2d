#!/usr/bin/env python3
"""Known mutants of the heatjets sources, and the tests that must catch them.

Usage: python3 scripts/mutants.py [NAME ...]

Each entry of MUTANTS is (name, file, old text, new text, tests): `file` is
relative to `src/heatjets`, the old text occurs exactly once in it, and
`tests` are pytest node ids, relative to the repository root, of which at
least one must fail once the old text is replaced by the new.  The first of
them is a plain test or an explicit example that fails at once, so a mutant
is caught without waiting for a Hypothesis search to shrink.  For every
mutant (or only the named ones) the script copies `src/`, `tests/` and
`pyproject.toml` to a temporary directory, applies the patch there, and runs
the tests in a fresh `python3 -m pytest -x` bounded by TIMEOUT_S seconds of
wall time.  It prints one line per mutant: caught (with the time the tests
took), survived, timed out, or an error (a patch that no longer applies, or
a pytest run that neither passed nor failed).  It exits 0 when every mutant
was caught and 1 otherwise.  The repository itself is never modified.

Only the standard library is imported; pytest runs in the subprocess.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300

MUTANTS = (
    ("scalar multiple keeps its content", "jets.py",
     """        p, q = other.as_integer_ratio()
        return Jet2D._form(self.den * q,
                           {k: n * p for k, n in self.num.items()}, self.order)
""",
     """        p, q = other.as_integer_ratio()
        jet = Jet2D._form(self.den, self.num, self.order)
        jet.den, jet.num = self.den * q, {k: n * p for k, n in self.num.items()}
        return jet
""",
     ["tests/test_jets.py::"
      "test_concrete_operations_match_the_fraction_reference"]),
    ("product order one too high", "jets.py",
     "            order = min(self.order + other.valuation(),\n",
     "            order = 1 + min(self.order + other.valuation(),\n",
     ["tests/test_jets.py::test_valuation_aware_product_order"]),
    ("Newton step reads f one degree short", "jets.py",
     "x._mul_capped(two - self.truncate(m)._mul_capped(x, m), m)",
     "x._mul_capped(two - self.truncate(m - 1)._mul_capped(x, m), m)",
     ["tests/test_laplace.py::test_inverse_factor_cache_and_identity",
      "tests/test_jets.py::test_inverse_round_trip"]),
    ("product drops its cap degree", "jets.py",
     "degree, right_terms = d, right._upto(cap - d)",
     "degree, right_terms = d, right._upto(cap - d - 1)",
     ["tests/test_jets.py::test_valuation_aware_product_order",
      "tests/test_jets.py::test_integral_kernel_matches_schoolbook_product"]),
    ("view builds Fractions over denominator 1", "jets.py",
     "{k: n if den == 1 else Fraction(n, den)",
     "{k: Fraction(n, den)",
     ["tests/test_jets.py::"
      "test_concrete_operations_match_the_fraction_reference",
      "tests/test_jets.py::test_integral_kernel_keeps_int_coefficients"]),
    ("inverse_factor drops the top degree of 1/rho", "laplace.py",
     "        return self._inv.truncate(order)\n",
     "        return self._inv.truncate(max(order - 1, 0))\n",
     ["tests/test_laplace.py::test_inverse_factor_cache_and_identity"]),
    ("flat Laplacian takes f_uu twice", "laplace.py",
     "(b * (b - 1), k - 2 * STRIDE - 2)",
     "(a * (a - 1), k - 2 * STRIDE)",
     ["tests/test_laplace.py::test_apply_with_symbolic_coefficients"]),
    ("divided Laplacian reads rho one degree short", "laplace.py",
     "reach = 0 if v is None else (d - v + 1) * STRIDE",
     "reach = 0 if v is None else (d - v) * STRIDE",
     ["tests/test_laplace.py::test_apply_with_symbolic_coefficients"]),
    ("divided Laplacian reads rho beyond its order", "laplace.py",
     """            if order - v > known:
                raise OrderExhausted(
                    f"Delta f to order {order} reads rho to order "
                    f"{order - v}, have {known}")
""",
     "",
     ["tests/test_laplace.py::test_apply_with_symbolic_coefficients"]),
    ("divided Laplacian keeps the first pair of each dot", "laplace.py",
     "value = RhoPoly.dot(pairs)",
     "value = RhoPoly.dot(pairs[:1])",
     ["tests/test_laplace.py::test_apply_with_symbolic_coefficients"]),
    ("table gather reads 1/rho one degree short", "heatinv.py",
     "enumerate(self.inverse[:2 * k - d + 1])",
     "enumerate(self.inverse[:2 * k - d])",
     ["tests/test_table.py::test_table_equals_horner_on_concrete_jets"]),
    ("cone chain stores the conjugate half unconjugated", "heatinv.py",
     "images[(d + 2) * STRIDE + d - q + 1] = w * re, -w * im",
     "images[(d + 2) * STRIDE + d - q + 1] = w * re, w * im",
     ["tests/test_table.py::test_cone_chain_batch_cuts_low_slots",
      "tests/test_table.py::test_cone_chain_equals_horner_on_rational_jets"]),
    ("table division tail stops one degree early", "heatinv.py",
     "reach = 2 * k - d  # M_k vanishes above degree 2k",
     "reach = 2 * k - d - 1  # M_k vanishes above degree 2k",
     ["tests/test_table.py::test_table_equals_horner_on_rhopoly_jets"]),
    ("table division keeps the first pair of each dot", "heatinv.py",
     "value = RhoPoly.dot(pairs)",
     "value = RhoPoly.dot(pairs[:1])",
     ["tests/test_table.py::test_table_equals_horner_on_rhopoly_jets"]),
    ("table cone starts one step high", "heatinv.py",
     "lo, m, out = max(0, k - self.n), self.m, {}",
     "lo, m, out = max(0, k - self.n + 1), self.m, {}",
     ["tests/test_heatinv.py::test_symbolic_a1_matches_golden_formula"]),
    ("real form keeps odd v-weights", "heatinv.py",
     "        if v % 2 == 0:\n",
     "        if True:\n",
     ["tests/test_table.py::test_real_form_matches_the_complex_value"]),
    ("real form drops the sign of (-i)^B", "heatinv.py",
     "Fraction(-c if v % 4 else c, den)",
     "Fraction(c, den)",
     ["tests/test_heatinv.py::test_symbolic_a1_matches_golden_formula",
      "tests/test_table.py::test_real_form_matches_the_complex_value"]),
    ("real form weights a conjugate pair once", "heatinv.py",
     "half[mono] = c if mono == conj else 2 * c",
     "half[mono] = c",
     ["tests/test_table.py::test_real_form_matches_the_complex_value",
      "tests/test_heatinv.py::test_render_a2_golden_strings"]),
    ("route checks only the first n", "heatinv.py",
     """        for n in ns:
            if n:
                _require_order(n, rho, path)
""",
     "",
     ["tests/test_table.py::test_batch_checks_every_n_before_any_work"]),
    ("parser takes an option as a flag's value", "cli.py",
     "                if _is_option(value, flags):\n",
     "                if _is_option(value, flags) and value[:2] != \"--\":\n",
     ["tests/test_cli.py::test_parser_matches_argparse"]),
    ("Bernoulli recurrence with 2^(2j+2)", "oracle.py",
     "Fraction(1, 2 ** (2 * j + 1))",
     "Fraction(1, 2 ** (2 * j + 2))",
     ["tests/test_oracle.py::test_sphere_heat_coefficients_values"]),
)


def patched_source(file, old, new):
    """The text of src/heatjets/`file` with `old` replaced by `new`; raises
    ValueError unless `old` occurs exactly once."""
    text = (ROOT / "src" / "heatjets" / file).read_text()
    if text.count(old) != 1:
        raise ValueError(f"the old text occurs {text.count(old)} times in "
                         f"{file}, not once")
    return text.replace(old, new)


def run_mutant(file, old, new, tests):
    """(verdict, seconds) for one mutant, run in a temporary copy."""
    text = patched_source(file, old, new)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tmp / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        (tmp / "src" / "heatjets" / file).write_text(text)
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x",
                 "-p", "no:cacheprovider", *tests],
                cwd=tmp, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timed out", time.monotonic() - start
        elapsed = time.monotonic() - start
    verdict = {0: "survived", 1: "caught"}.get(
        proc.returncode, f"error (pytest exit {proc.returncode})")
    return verdict, elapsed


def main(names) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"error: unknown mutants {sorted(unknown)}", file=sys.stderr)
        return 2
    failures = 0
    for name, file, old, new, tests in MUTANTS:
        if names and name not in names:
            continue
        try:
            verdict, elapsed = run_mutant(file, old, new, tests)
        except ValueError as exc:
            verdict, elapsed = f"error ({exc})", 0.0
        failures += verdict != "caught"
        print(f"{verdict:>9} in {elapsed:5.1f} s: {name}", flush=True)
    print("every mutant caught" if not failures
          else f"{failures} mutant(s) not caught")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
