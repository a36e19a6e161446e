"""Step-function algebra: construction, variation, exact L1 geometry."""

import numpy as np
import pytest

from fluxstab import PiecewiseConstantFn, l1_distance, total_variation


def sawtooth(period: float, amplitude: float, n_periods: int,
             offset: float = 0.0) -> PiecewiseConstantFn:
    """Square wave +A on the first half of each period, -A on the second.

    Built as an explicit finite table over ``n_periods`` periods starting
    at ``offset``, with value 0 outside; enough for windowed checks.
    """
    half = period / 2.0
    pieces = []
    for k in range(n_periods):
        x0 = offset + k * period
        pieces.append((x0, amplitude))
        pieces.append((x0 + half, -amplitude))
    pieces.append((offset + n_periods * period, 0.0))
    return PiecewiseConstantFn.from_steps(0.0, pieces)


def l1_reference(f, g, window):
    # independent cellwise integration in pure python
    a, b = window
    cuts = sorted({a, b}
                  | {float(x) for x in f.breakpoints if a < x < b}
                  | {float(x) for x in g.breakpoints if a < x < b})
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        m = 0.5 * (lo + hi)
        diff = np.atleast_1d(f(m)) - np.atleast_1d(g(m))
        total += (hi - lo) * float(np.linalg.norm(diff))
    return total


def random_fn(rng, dim=1, max_jumps=6):
    m = int(rng.integers(0, max_jumps + 1))
    bps = np.sort(rng.uniform(-2.0, 2.0, m))
    while np.any(np.diff(bps) == 0.0):
        bps = np.sort(rng.uniform(-2.0, 2.0, m))
    vals = rng.uniform(-1.5, 1.5, (m + 1, dim))
    return PiecewiseConstantFn(bps, vals)


# -- construction -----------------------------------------------------------

def test_invariants_rejected():
    with pytest.raises(ValueError):
        PiecewiseConstantFn([1.0, 0.0], [[0.0], [1.0], [2.0]])
    with pytest.raises(ValueError):
        PiecewiseConstantFn([0.0, 0.0], [[0.0], [1.0], [2.0]])
    with pytest.raises(ValueError):
        PiecewiseConstantFn([0.0], [[0.0]])  # needs m + 1 values
    with pytest.raises(ValueError):
        PiecewiseConstantFn([0.0], [[0.0], [np.inf]])


def test_right_limit_convention():
    f = PiecewiseConstantFn.step(0.0, 1.0, 2.0)
    assert f(0.0) == 2.0
    assert f(-1e-12) == 1.0
    assert f.dim == 1
    assert f.support == (0.0, 0.0)


def test_constant_has_no_support():
    c = PiecewiseConstantFn.constant([3.0, -1.0])
    assert c.support is None
    assert c.dim == 2
    assert total_variation(c) == 0.0


def test_from_steps_matches_manual():
    f = PiecewiseConstantFn.from_steps(0.0, [(0.0, 1.0), (1.0, 0.0)])
    assert f(0.5) == 1.0
    assert f(-0.5) == 0.0 and f(1.5) == 0.0
    np.testing.assert_array_equal(f.breakpoints, [0.0, 1.0])


# -- total variation ----------------------------------------------------------

def test_tv_single_vector_jump():
    f = PiecewiseConstantFn.step(0.0, [0.0, 0.0], [3.0, 4.0])
    assert total_variation(f) == 5.0  # euclidean jump size


def test_tv_sawtooth_window_enumeration():
    # period-2 wave, value 1 on [2k, 2k+1], -1 on [2k+1, 2k+2]
    u = sawtooth(2.0, 1.0, 3)
    # open window (0, 4): switches at 1, 2, 3, each of height 2
    assert total_variation(u, (0.0, 4.0)) == 6.0
    # two interior switches of height 2: window (0, 3)
    assert total_variation(u, (0.0, 3.0)) == 4.0
    assert total_variation(u, (0.0, 2.0)) == 2.0


def test_tv_excludes_boundary_jumps():
    f = PiecewiseConstantFn.from_steps(0.0, [(0.0, 1.0), (1.0, 0.0)])
    assert total_variation(f, (0.0, 1.0)) == 0.0
    assert total_variation(f, (-0.5, 1.5)) == 2.0


def test_tv_split_subadditive():
    rng = np.random.default_rng(7)
    for _ in range(50):
        f = random_fn(rng, dim=int(rng.integers(1, 3)))
        a, c = -3.0, 3.0
        b = float(rng.uniform(a, c))
        whole = total_variation(f, (a, c))
        split = total_variation(f, (a, b)) + total_variation(f, (b, c))
        assert split <= whole + 1e-12
        if b not in f.breakpoints:
            assert split == pytest.approx(whole, abs=1e-12)


# -- L1 distance ---------------------------------------------------------------

def test_l1_translated_step():
    v = np.array([3.0, 4.0])
    f = PiecewiseConstantFn.step(0.0, [0.0, 0.0], v)
    g = PiecewiseConstantFn.step(0.25, [0.0, 0.0], v)
    assert l1_distance(f, g, (-1.0, 1.0)) == pytest.approx(0.25 * 5.0)


def test_l1_offset_sawtooths_unit_window():
    # half-amplitude reading: values +-1/2, half-period offset -> gap 1
    u = sawtooth(1.0, 0.5, 2)
    v = sawtooth(1.0, 0.5, 2, offset=0.5)
    assert l1_distance(u, v, (0.5, 1.5)) == pytest.approx(1.0)
    # full-amplitude reading: values +-1 double the gap
    u2 = sawtooth(1.0, 1.0, 2)
    v2 = sawtooth(1.0, 1.0, 2, offset=0.5)
    assert l1_distance(u2, v2, (0.5, 1.5)) == pytest.approx(2.0)


def test_l1_against_cellwise_reference():
    rng = np.random.default_rng(11)
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        f, g = random_fn(rng, dim), random_fn(rng, dim)
        got = l1_distance(f, g, (-2.5, 2.5))
        assert got == pytest.approx(l1_reference(f, g, (-2.5, 2.5)), abs=1e-12)


def test_l1_metric_axioms():
    rng = np.random.default_rng(13)
    w = (-2.5, 2.5)
    for _ in range(60):
        f, g, h = (random_fn(rng) for _ in range(3))
        dfg = l1_distance(f, g, w)
        assert dfg >= 0.0
        assert dfg == l1_distance(g, f, w)
        assert dfg <= l1_distance(f, h, w) + l1_distance(h, g, w) + 1e-12
    f = random_fn(rng)
    assert l1_distance(f, f, w) == 0.0
    # zero distance forces a.e. equality on the window; g is f with a
    # redundant breakpoint at 0.123
    bp = np.union1d(f.breakpoints, [0.123])
    g = PiecewiseConstantFn(bp, np.concatenate([f.values[:1, 0], f(bp)]))
    assert l1_distance(f, g, w) == 0.0
    xs = rng.uniform(*w, 64)
    np.testing.assert_array_equal(f(xs), g(xs))


def test_l1_dimension_mismatch():
    f = PiecewiseConstantFn.constant(1.0)
    g = PiecewiseConstantFn.constant([1.0, 2.0])
    with pytest.raises(ValueError):
        l1_distance(f, g, (0.0, 1.0))


# -- structural operations -------------------------------------------------------

def test_simplified_drops_null_jumps():
    f = PiecewiseConstantFn([0.0, 1.0], [[2.0], [2.0], [3.0]])
    s = f.simplified()
    np.testing.assert_array_equal(s.breakpoints, [1.0])
    assert total_variation(s) == total_variation(f) == 1.0


def test_integral_exact():
    f = PiecewiseConstantFn.from_steps(1.0, [(0.0, -2.0), (1.5, 4.0)])
    got = f.integral((-1.0, 2.0))
    # 1*1 + (-2)*1.5 + 4*0.5
    np.testing.assert_allclose(got, [0.0], atol=1e-15)


def test_text_round_trip():
    # a 2-vector step function in the text form: every number reads back
    # as the float whose repr it is
    text = ("# comment\n"
            "dim 2\n"
            "-0.5 0.1 -2.0\n"
            "0.30000000000000004 1e-300 3.5\n"
            "\n"
            "inf -0.0 7.25\n")
    f = PiecewiseConstantFn.from_text(text)
    rows = [ln.split() for ln in text.splitlines()[2:] if ln]
    assert [repr(x) for x in f.breakpoints.tolist()] == [r[0] for r in rows[:-1]]
    assert [[repr(v) for v in row] for row in f.values.tolist()] == \
        [r[1:] for r in rows]


def test_text_rejects_malformed():
    with pytest.raises(ValueError):
        PiecewiseConstantFn.from_text("dim 1\n0.0 1.0\n")
    with pytest.raises(ValueError):
        PiecewiseConstantFn.from_text("0.0 1.0\ninf 2.0\n")
