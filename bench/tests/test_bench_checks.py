"""Each benchmark check accepts the right answer and rejects a wrong one.

Run with ``python3 -m pytest bench/tests`` from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402

POLYS = checks.BUNDLED_POLYS


def test_closed_form_sups_of_the_bundled_pairs():
    want = {"tilt-quarter": 0.25, "scale-150": 0.5,
            "quartic-vs-quadratic": 1.0, "tilt-vs-scale": 0.2,
            "cubic-shear": 0.45, "linear-pair": 0.5}
    for name, sup in want.items():
        assert checks.deriv_gap_sup(*POLYS[name]) == pytest.approx(sup, abs=1e-15)


def test_slope_table_sup_of_a_sampled_pair():
    # burgers vs 1.5 burgers: the end cell's chord slopes differ by
    # 0.5 (1 - 1/m) on m segments
    for m in (32, 128, 512):
        assert checks.chord_slope_sup(*POLYS["scale-150"], m) == pytest.approx(
            0.5 * (1.0 - 1.0 / m), rel=1e-14)


def test_estimate_above_the_sup_is_rejected():
    sup = 0.45
    assert checks.attains_sup(sup, sup)
    assert checks.attains_sup(0.96 * sup, sup)
    assert checks.attains_sup(sup * (1.0 + 1e-12), sup)  # rounding
    assert not checks.attains_sup(sup * (1.0 + 1e-6), sup)
    assert not checks.attains_sup(0.94 * sup, sup)


def test_pulse_value_off_by_1e_6_is_rejected():
    h, w, t = 0.8, 1.0, 0.5
    xs = np.array([-0.2, 0.1, 0.3, 0.6, 1.15, 1.3])
    want = checks.pulse_solution(h, w, t, xs)
    assert want.tolist() == pytest.approx([0.0, 0.2, 0.6, 0.8, 0.8, 0.0])
    assert checks.values_match(want + 4e-8, want)
    for k in range(xs.size):
        off = want.copy()
        off[k] += 1e-6
        assert not checks.values_match(off, want)


def test_mass_drift_and_variation_growth_are_rejected():
    a, b = -3.0, 3.0
    before = (np.array([-0.5, 0.0, 0.5]), np.array([-0.4, 0.4, -0.4, -0.4]))
    assert checks.step_integral(*before, a, b) == pytest.approx(
        -0.4 * 5.0 + 0.4 * 0.5 - 0.4 * 0.5)
    moved = (before[0] + 0.25, before[1])  # a translate keeps mass and TV
    assert checks.conserves(before, moved, a, b)
    drift = (np.array([-0.5, 1e-9, 0.5]), before[1])
    assert not checks.conserves(before, drift, a, b)
    grown = (before[0], np.array([-0.4, 0.5, -0.4, -0.4]))
    assert not checks.conserves(before, grown, a, b)


def test_contraction_violation_is_rejected():
    a, b = -3.0, 3.0
    u = (np.array([0.0]), np.array([0.0, 1.0]))
    v = (np.array([0.5]), np.array([0.0, 1.0]))
    assert checks.step_l1(u, v, a, b) == pytest.approx(0.5)
    assert checks.contracts(u, v, u, v, a, b)
    wider = (np.array([0.6]), np.array([0.0, 1.0]))
    assert not checks.contracts(u, v, u, wider, a, b)


def test_slope_outside_its_window_is_rejected():
    cs = np.array([8.0, 16.0, 32.0, 64.0])
    assert checks.loglog_slope(cs, 3.0 / cs ** 2) == pytest.approx(-2.0)
    assert checks.in_window(checks.loglog_slope(cs, 3.0 / cs ** 2), -2.3, -1.7)
    assert not checks.in_window(checks.loglog_slope(cs, 3.0 / cs), -2.3, -1.7)
    assert not checks.in_window(-2.31, -2.3, -1.7)
    assert not checks.in_window(0.2299, 0.23, 0.27)


def test_on_shock_right_limit_counts_as_failed_but_not_incorrect():
    ledger = checks.Ledger()
    right_limit = -checks.ON_SHOCK_LEFT  # what the evaluator returns today
    ledger.record("on-shock", checks.on_shock_ok(right_limit), known_fault=True)
    assert (ledger.attempted, ledger.failed, ledger.correct) == (1, 1, True)
    ledger.record("on-shock", checks.on_shock_ok(5.0 / 6.0), known_fault=True)
    assert (ledger.attempted, ledger.failed, ledger.correct) == (2, 1, True)


def test_any_other_wrong_answer_makes_the_run_incorrect():
    ledger = checks.Ledger()
    ledger.record("fine", True)
    ledger.record("estimate above sup", checks.attains_sup(0.6, 0.5))
    assert (ledger.attempted, ledger.failed, ledger.correct) == (2, 1, False)
    assert ledger.problems == ["estimate above sup"]


def test_bounds_in_closed_form():
    # linfty_saturating.cfg: burgers vs tilted_burgers -1 on [0, 1] at t = 0.5
    assert checks.window_bound(2.0, 1.0, 1.0, 0.5, 0.0, 1.0) == pytest.approx(20.0)
    assert checks.tv_decay_bound(0.75, 0.75, 0.125, 0.0, 1.0) == pytest.approx(
        2.0 * 2.0 * 1.375 / (0.75 * 0.125))
