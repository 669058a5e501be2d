"""Tests for the spectral and closed-form oracles."""

import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from heatjets.errors import IllConditionedFit, TailNotConverged
from heatjets.oracle import (
    SphereSpectrum,
    default_t_grid,
    fit_diagonal_coefficients,
    golden_a1,
    sphere_heat_trace,
)


def test_spectrum_basics():
    spec = SphereSpectrum(Fraction(2))
    with mpmath.workdps(30):
        assert mpmath.almosteq(spec.area(), 16 * mpmath.pi)


def test_trace_large_time_is_constant_mode():
    # At t >> 1 only the zero mode survives.
    with mpmath.workdps(50):
        tr = sphere_heat_trace(1, 50)
        assert abs(tr - 1) < mpmath.mpf(10) ** -20


def test_trace_matches_small_time_expansion():
    # trace = (1/t)(1 + t/3 + t^2/15 + O(t^3)) on the unit sphere.
    with mpmath.workdps(50):
        t = mpmath.mpf(1) / 100
        tr = sphere_heat_trace(1, t)
        model = (1 / t) * (1 + t / 3 + t ** 2 / 15)
        assert abs(tr - model) / tr < mpmath.mpf(10) ** -6


def test_trace_scales_with_radius():
    # Spectrum depends on t/R^2 only.
    with mpmath.workdps(40):
        a = sphere_heat_trace(1, mpmath.mpf("0.02"))
        b = sphere_heat_trace(2, mpmath.mpf("0.08"))
        assert abs(a - b) < mpmath.mpf(10) ** -30


def test_tail_bound_is_sound():
    # Adding more modes moves the sum by less than the certified bound.
    with mpmath.workdps(40):
        t = mpmath.mpf(1) / 1000
        loose_tol = mpmath.mpf(10) ** -12
        value, bound, lmax = sphere_heat_trace(1, t, tol=loose_tol,
                                               with_bound=True)
        refined = sphere_heat_trace(1, t, lmax=lmax + 200,
                                    tol=mpmath.mpf(10) ** -30)
        assert abs(refined - value) < bound


def test_tail_not_converged():
    with pytest.raises(TailNotConverged):
        sphere_heat_trace(1, "0.001", lmax=5)


def test_trace_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        sphere_heat_trace(1, 0)


def test_fit_recovers_known_sphere_coefficients():
    fit = fit_diagonal_coefficients(SphereSpectrum(Fraction(1)), n_terms=3)
    with mpmath.workdps(64):
        exact = [1 / (4 * mpmath.pi), 1 / (12 * mpmath.pi),
                 1 / (60 * mpmath.pi)]
        rel = [abs(c - e) / abs(e)
               for c, e in zip(fit.coefficients, exact)]
        assert rel[0] < mpmath.mpf(10) ** -15
        assert rel[1] < mpmath.mpf(10) ** -12
        assert rel[2] < mpmath.mpf(10) ** -9


def test_fit_error_estimates_cover_true_error():
    fit = fit_diagonal_coefficients(SphereSpectrum(Fraction(1)), n_terms=3)
    with mpmath.workdps(64):
        exact = [1 / (4 * mpmath.pi), 1 / (12 * mpmath.pi),
                 1 / (60 * mpmath.pi)]
        for c, est, e in zip(fit.coefficients, fit.error_estimates, exact):
            assert abs(c - e) < est
        assert fit.residual == max(fit.error_estimates)


def test_fit_stable_under_window_halving():
    model = SphereSpectrum(Fraction(1))
    fit = fit_diagonal_coefficients(model, n_terms=3)
    halved = fit_diagonal_coefficients(
        model, n_terms=3, t_grid=[t / 2 for t in fit.t_grid])
    for i in range(3):
        drift = abs(fit.coefficients[i] - halved.coefficients[i])
        assert drift < fit.error_estimates[i]


def test_fit_radius_two():
    # a_1 = K/(12 pi) = 1/(12 pi R^2).
    fit = fit_diagonal_coefficients(SphereSpectrum(Fraction(2)), n_terms=2)
    with mpmath.workdps(64):
        exact = 1 / (48 * mpmath.pi)
        assert abs(fit.coefficients[1] - exact) / exact < mpmath.mpf(10) ** -10


def test_fit_rejects_clustered_nodes_at_low_precision():
    # Node spacing of 1e-9 at 16 digits leaves nothing after the divided
    # differences cancel; the refit drift then swamps every coefficient.
    with mpmath.workdps(16):
        grid = [mpmath.mpf("0.001") + k * mpmath.mpf("1e-9")
                for k in range(5)]
    with pytest.raises(IllConditionedFit):
        fit_diagonal_coefficients(SphereSpectrum(Fraction(1)), n_terms=3,
                                  t_grid=grid, dps=16)


def test_fit_rejects_too_few_nodes():
    with pytest.raises(IllConditionedFit):
        fit_diagonal_coefficients(SphereSpectrum(Fraction(1)), n_terms=3,
                                  t_grid=default_t_grid()[:3])


def test_golden_a1_matches_engine():
    from heatjets.heatinv import symbolic_heat_invariant

    poly, pi_power = golden_a1()
    assert pi_power == 1
    assert symbolic_heat_invariant(1).form.poly == poly


def test_golden_a1_on_sphere_jet():
    from heatjets.heatinv import ClosedForm, PiScaled
    from heatjets.jets import Jet2D

    poly, _ = golden_a1()
    form = ClosedForm(n=1, poly=poly)
    rho = Jet2D({(0, 0): Fraction(4), (2, 0): Fraction(-8),
                 (0, 2): Fraction(-8)}, order=2)
    assert form.substitute(rho) == PiScaled(Fraction(1, 12))


def test_spectral_fit_demo_script():
    # every printed relative error is within the fit's own estimate, both
    # relative to the exact value
    script = Path(__file__).resolve().parents[1] / "scripts" / \
        "spectral_fit_demo.py"
    proc = subprocess.run([sys.executable, str(script), "--dps", "30"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert [line[:4] for line in proc.stdout.splitlines()
            if line.startswith("a_")] == ["a_0:", "a_1:", "a_2:"]
    pairs = re.findall(r"relative error (\S+), relative estimate (\S+)$",
                       proc.stdout, re.M)
    assert len(pairs) == 3
    for error, estimate in pairs:
        assert float(error) <= float(estimate)
