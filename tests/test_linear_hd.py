"""Linear systems: spectral decomposition, jump fans, the seminorm distance."""

import numpy as np
import pytest

from fluxstab import (DecompositionError, decompose, hat_d_lin, operator_norm,
                      step_solution)
from fluxstab import linear_hd
from fluxstab.euler import classical_euler, relativistic_euler
from fluxstab.linear_hd import RTOL, _difference_cells, _phi_batch

INVSQ2 = 1.0 / np.sqrt(2.0)
# the ulps by which hat_d_lin pads ``upper``, plus one for the product
PAD = 17.0 * np.finfo(float).eps


def random_symmetric(rng, n=2, scale=2.0):
    M = rng.uniform(-scale, scale, (n, n))
    return 0.5 * (M + M.T)


def random_diagonalizable(rng, n=2):
    """Separated real spectrum and mild conditioning, as criterion 7 draws."""
    while True:
        lam = np.sort(rng.uniform(-2.0, 2.0, size=n))
        if np.min(np.diff(lam)) < 0.05:
            continue
        V = rng.normal(size=(n, n))
        s = np.linalg.svd(V, compute_uv=False)
        if s[-1] < 0.25 * s[0]:
            continue
        return V @ np.diag(lam) @ np.linalg.inv(V)


def jacobian_pairs(n_states=6):
    """Classical against relativistic Euler Jacobians at c = 8 ... 64."""
    rng = np.random.default_rng(64)
    states = np.column_stack([rng.uniform(0.5, 4.0, n_states),
                              rng.uniform(-2.0, 2.0, n_states)])
    A = classical_euler().jacobian(states)
    return [(A[i], relativistic_euler(c).jacobian(states)[i])
            for c in (8.0, 16.0, 32.0, 64.0) for i in range(n_states)]


def certified_pairs():
    rng = np.random.default_rng(41)
    pairs = [(random_diagonalizable(rng), random_diagonalizable(rng))
             for _ in range(30)]
    for n in (2, 3):
        pairs += [(random_symmetric(rng, n), random_symmetric(rng, n))
                  for _ in range(15)]
    return pairs + jacobian_pairs()


def sampled_phi_max(A, B, n_dirs=20000, seed=0):
    """Largest ``phi`` over random unit directions: a lower bound on d."""
    widths, mats = _difference_cells(decompose(A), decompose(B))
    n = np.shape(A)[0]
    X = np.random.default_rng(seed).normal(size=(n, n_dirs))
    return float(np.max(_phi_batch(widths, mats, X / np.linalg.norm(X, axis=0))))


def maximize_circle_reference(widths, mats, n_angles=4096):
    """The former n = 2 search: an angle scan, then 60 golden steps."""
    thetas = np.linspace(0.0, np.pi, n_angles, endpoint=False)
    extra = []
    for M in mats:
        _, svals, Vt = np.linalg.svd(M)
        if svals[-1] <= 1e-12 * max(1.0, svals[0]):
            v = Vt[-1]
            extra.append(np.arctan2(v[1], v[0]) % np.pi)
    if extra:
        thetas = np.sort(np.concatenate([thetas, np.asarray(extra)]))
    V = np.vstack([np.cos(thetas), np.sin(thetas)])
    phis = _phi_batch(widths, mats, V)
    j = int(np.argmax(phis))
    lo = thetas[j - 1] if j > 0 else thetas[j] - np.pi / n_angles
    hi = thetas[j + 1] if j + 1 < thetas.size else thetas[j] + np.pi / n_angles
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(60):
        ml = hi - invphi * (hi - lo)
        mr = lo + invphi * (hi - lo)
        Vm = np.array([[np.cos(ml), np.cos(mr)], [np.sin(ml), np.sin(mr)]])
        fl, fr = _phi_batch(widths, mats, Vm)
        if fl > fr:
            hi = mr
        else:
            lo = ml
    theta = 0.5 * (lo + hi)
    v = np.array([np.cos(theta), np.sin(theta)])
    return max(float(phis[j]), float(_phi_batch(widths, mats, v[:, None])[0]))


# -- decompose -----------------------------------------------------------------

def test_swap_matrix_worked_example():
    dec = decompose([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-12)
    # components tie in magnitude, so the sign convention is ulp-sensitive;
    # pin the spans, not the signs
    assert abs(np.dot(dec.right[:, 0], [INVSQ2, -INVSQ2])) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.dot(dec.right[:, 1], [INVSQ2, INVSQ2])) == pytest.approx(1.0, abs=1e-12)
    recon = dec.right @ np.diag(dec.eigenvalues) @ dec.left
    np.testing.assert_allclose(recon, dec.matrix, atol=1e-12)


def test_identity_decomposition():
    dec = decompose(np.eye(2))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(dec.right, np.eye(2), atol=1e-12)


def test_random_symmetric_matrices_decompose():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        for _ in range(20):
            A = random_symmetric(rng, n)
            dec = decompose(A)
            want = np.sort(np.linalg.eigvalsh(A))
            np.testing.assert_allclose(dec.eigenvalues, want, atol=1e-7)
            recon = dec.right @ np.diag(dec.eigenvalues) @ dec.left
            np.testing.assert_allclose(recon, A, atol=1e-6)


def test_projectors_resolve_identity():
    dec = decompose([[1.0, 2.0], [0.5, -0.3]])
    total = sum(dec.projector(j) for j in range(dec.n))
    np.testing.assert_allclose(total, np.eye(2), atol=1e-10)
    for j in range(dec.n):
        P = dec.projector(j)
        np.testing.assert_allclose(P @ P, P, atol=1e-10)


def test_rotation_matrix_rejected():
    with pytest.raises(DecompositionError):
        decompose([[0.0, -1.0], [1.0, 0.0]])  # eigenvalues +-i


def test_jordan_block_rejected():
    with pytest.raises(DecompositionError):
        decompose([[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("gap", [1e-6, 5e-7, 2.5e-7])
def test_close_eigenvalues_inside_the_cluster_threshold_decompose(gap):
    # one threshold clusters the eigenvalues and counts the null directions
    dec = decompose(np.diag([1.0, 1.0 + gap]))
    np.testing.assert_allclose(dec.eigenvalues, 1.0 + 0.5 * gap, rtol=1e-15)
    np.testing.assert_allclose(dec.right @ dec.left, np.eye(2), atol=1e-15)
    with pytest.raises(DecompositionError, match="defective"):
        decompose([[1.0, 1.0], [0.0, 1.0 + gap]])


def test_nonsquare_rejected():
    with pytest.raises(ValueError):
        decompose(np.ones((2, 3)))


# -- step_solution ---------------------------------------------------------------

def test_fan_of_decoupled_system():
    dec = decompose(np.diag([0.0, 2.0]))
    fan = step_solution(dec, 1.0, [0.0, 0.0], [0.0, 1.0])
    np.testing.assert_allclose(fan.breakpoints, [2.0], atol=1e-12)
    np.testing.assert_allclose(fan.values, [[0.0, 0.0], [0.0, 1.0]], atol=1e-14)


def test_fan_of_swap_matrix():
    dec = decompose([[0.0, 1.0], [1.0, 0.0]])
    fan = step_solution(dec, 1.0, [0.0, 0.0], [1.0, 0.0])
    np.testing.assert_allclose(fan.breakpoints, [-1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(
        fan.values, [[0.0, 0.0], [0.5, -0.5], [1.0, 0.0]], atol=1e-12)


def test_fan_endpoints_and_linearity():
    rng = np.random.default_rng(7)
    A = random_symmetric(rng, 3)
    dec = decompose(A)
    uL = rng.uniform(-1, 1, 3)
    uR = rng.uniform(-1, 1, 3)
    fan = step_solution(dec, 0.7, uL, uR)
    np.testing.assert_allclose(fan.values[0], uL, atol=1e-12)
    np.testing.assert_allclose(fan.values[-1], uR, atol=1e-10)
    # doubling the jump doubles every intermediate increment
    fan2 = step_solution(dec, 0.7, uL, uL + 2.0 * (uR - uL))
    np.testing.assert_allclose(
        fan2.values - uL, 2.0 * (fan.values - uL), atol=1e-10)


def test_fan_dilates_with_time():
    dec = decompose([[0.3, 1.1], [0.2, -0.5]])
    uL, uR = np.array([0.0, 0.0]), np.array([1.0, -1.0])
    f1 = step_solution(dec, 1.0, uL, uR)
    f3 = step_solution(dec, 3.0, uL, uR)
    np.testing.assert_allclose(f3.breakpoints, 3.0 * f1.breakpoints, atol=1e-12)
    np.testing.assert_allclose(f3.values, f1.values, atol=1e-14)


def test_equal_speeds_merge_to_one_jump():
    dec = decompose(np.eye(2))
    fan = step_solution(dec, 2.0, [0.0, 0.0], [1.0, 1.0])
    np.testing.assert_allclose(fan.breakpoints, [2.0], atol=1e-12)
    assert fan.values.shape == (2, 2)


def test_step_solution_input_checks():
    dec = decompose(np.diag([0.0, 1.0]))
    with pytest.raises(ValueError):
        step_solution(dec, 0.0, [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        step_solution(dec, 1.0, [0.0], [1.0, 1.0])


# -- hat_d_lin -------------------------------------------------------------------

def test_scalar_case_is_plain_distance():
    assert hat_d_lin([[0.3]], [[-0.4]]).value == pytest.approx(0.7, rel=1e-12)
    res = hat_d_lin([[1.0]], [[1.0]])
    assert res.value == 0.0 and res.n_cells == 0


def test_detached_eigenvalue_worked_example():
    res = hat_d_lin(np.diag([0.0, 1.0]), np.diag([0.0, 2.0]))
    assert res.value == pytest.approx(1.0, abs=1e-6)
    assert res.value == 1.0
    assert 1.0 <= res.upper <= 1.0 + PAD
    assert res.n_cells == 1
    assert abs(res.direction[1]) > 0.999
    assert np.linalg.norm(res.direction) == pytest.approx(1.0, abs=1e-12)


def test_swap_vs_diag_closed_form():
    # same spectrum, rotated eigenbasis: the single cell matrix is sqrt(2)/2
    # times an orthogonal matrix, so phi is constant sqrt(2) on the circle
    A = [[0.0, 1.0], [1.0, 0.0]]
    B = np.diag([-1.0, 1.0])
    res = hat_d_lin(A, B)
    assert res.value == pytest.approx(np.sqrt(2.0), rel=1e-9)
    assert res.value == pytest.approx(operator_norm(np.asarray(B) - A), rel=1e-9)
    assert res.value == pytest.approx(np.sqrt(2.0), abs=1e-13)
    assert res.value <= res.upper
    assert res.upper >= np.sqrt(2.0) * (1.0 - PAD)


def test_three_dim_two_cell_closed_form():
    # cells contribute |v_2| and 0.5 |v_3|: the sphere maximum is sqrt(1.25)
    res = hat_d_lin(np.diag([0.0, 1.0, 3.0]), np.diag([0.0, 2.0, 3.5]))
    assert res.value == pytest.approx(np.sqrt(1.25), rel=1e-6)
    assert res.n_cells == 2
    assert res.value == pytest.approx(np.sqrt(1.25), abs=1e-12)
    assert res.value <= res.upper
    assert res.upper >= np.sqrt(1.25) * (1.0 - PAD)


def test_metric_axioms_sampled():
    rng = np.random.default_rng(23)
    for _ in range(20):
        A = random_symmetric(rng)
        B = random_symmetric(rng)
        C = random_symmetric(rng)
        dab = hat_d_lin(A, B).value
        dba = hat_d_lin(B, A).value
        dac = hat_d_lin(A, C).value
        dbc = hat_d_lin(B, C).value
        assert dab >= 0.0
        assert dab == pytest.approx(dba, abs=1e-9)
        assert dac <= dab + dbc + 1e-6
        assert hat_d_lin(A, A).value == 0.0


def test_dominates_operator_norm():
    rng = np.random.default_rng(31)
    for n in (2, 3):
        for _ in range(10):
            A = random_symmetric(rng, n)
            B = random_symmetric(rng, n)
            assert hat_d_lin(A, B).value >= operator_norm(B - A) - 1e-6


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        hat_d_lin(np.eye(2), np.eye(3))


def test_operator_norm_known_values():
    assert operator_norm([[0.0, 1.0], [0.0, 0.0]]) == pytest.approx(1.0)
    assert operator_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)


# -- the certified bracket ---------------------------------------------------------

def assert_tight(res):
    assert res.value <= res.upper <= res.value * (1.0 + RTOL) * (1.0 + PAD)


def test_bracket_is_within_rtol_and_value_is_attained():
    for A, B in certified_pairs():
        res = hat_d_lin(A, B)
        assert_tight(res)
        widths, mats = _difference_cells(decompose(A), decompose(B))
        phi = _phi_batch(widths, mats, res.direction[:, None])[0]
        assert np.linalg.norm(res.direction) == pytest.approx(1.0, abs=1e-15)
        assert phi == pytest.approx(res.value, rel=1e-15)


def test_sampled_directions_never_exceed_upper():
    for k, (A, B) in enumerate(certified_pairs()):
        res = hat_d_lin(A, B)
        assert sampled_phi_max(A, B, seed=k) <= res.upper


def test_former_circle_search_lies_in_the_bracket():
    rng = np.random.default_rng(97)
    pairs = [(random_diagonalizable(rng), random_diagonalizable(rng))
             for _ in range(30)] + jacobian_pairs()
    for A, B in pairs:
        res = hat_d_lin(A, B)
        widths, mats = _difference_cells(decompose(A), decompose(B))
        old = maximize_circle_reference(widths, mats)
        assert old <= res.upper
        assert res.value == pytest.approx(old, rel=1e-13)


def test_near_flat_pairs_give_valid_brackets(monkeypatch):
    # phi = |(P - Q) v| + eps |<b, v>| with P, Q rank-one projectors 45
    # degrees apart: the first term is 1/sqrt(2) on the whole circle, so
    # d = 1/sqrt(2) + eps and phi is flat to within eps
    evaluations = [0]
    phi_batch = linear_hd._phi_batch

    def counting(widths, mats, V):
        evaluations[0] += V.shape[1]
        return phi_batch(widths, mats, V)

    monkeypatch.setattr(linear_hd, "_phi_batch", counting)
    c = s = INVSQ2
    R = np.array([[c, -s], [s, c]])
    for k in range(2, 16):
        eps = 10.0 ** -k
        evaluations[0] = 0
        res = hat_d_lin(np.diag([0.0, 1.0]),
                        R @ np.diag([0.0, 1.0 + eps]) @ R.T)
        d = INVSQ2 + eps
        assert res.value <= d * (1.0 + PAD)
        assert res.upper >= d * (1.0 - PAD)
        if res.upper > res.value * (1.0 + RTOL) * (1.0 + PAD):
            # a wider bracket only where the search spent its piece budget
            assert evaluations[0] > linear_hd.MAX_PIECES
            assert res.upper <= res.value * (1.0 + 1e-10)


def test_piece_budget_returns_a_wider_valid_bracket(monkeypatch):
    rng = np.random.default_rng(5)
    for n in (2, 3):
        A, B = random_symmetric(rng, n), random_symmetric(rng, n)
        full = hat_d_lin(A, B)
        monkeypatch.setattr(linear_hd, "MAX_PIECES", 1)
        cut = hat_d_lin(A, B)
        monkeypatch.undo()
        assert cut.value <= full.upper
        assert full.value <= cut.upper
        assert cut.upper - cut.value > full.upper - full.value
        assert sampled_phi_max(A, B) <= cut.upper


def test_sizes_above_three_rejected():
    with pytest.raises(ValueError, match="up to 3"):
        hat_d_lin(np.diag([0.0, 1.0, 2.0, 3.0]), np.diag([0.0, 1.0, 2.0, 4.0]))
    with pytest.raises(ValueError, match="up to 3"):
        hat_d_lin(np.eye(5), np.eye(5))
