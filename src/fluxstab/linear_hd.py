"""Linear hyperbolic systems: decomposition, jump solutions, flux distance.

For ``u_t + A u_x = 0`` with ``A`` real and diagonalizable over R, the
solution of a single-jump datum is an exact fan of contact waves moving at
the eigenvalues.  The distance between two such systems over normalized
single jumps reduces to maximizing

    phi(v) = sum_k w_k |M_k v|_2        over unit vectors v,

where the cells ``k`` partition the merged eigenvalue axis, ``w_k`` are the
cell widths and ``M_k`` the difference of the spectral projector sums that
have been crossed by each system inside the cell.  ``phi`` is a convex,
even seminorm, so its maximum over the circle (n = 2) or the sphere
(n = 3) is found by branch and bound on spherical simplices (Horst & Tuy,
*Global Optimization: Deterministic Approaches*, ch. 5-6).  The search
returns a certified bracket ``[value, upper]``, within ``RTOL`` unless it
reaches ``MAX_PIECES`` live pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .pwfun import PiecewiseConstantFn

__all__ = [
    "DecompositionError",
    "EigenDecomposition",
    "decompose",
    "step_solution",
    "HatDLinResult",
    "hat_d_lin",
    "operator_norm",
]


class DecompositionError(ValueError):
    """Matrix is not real-diagonalizable to working accuracy."""


@dataclass(frozen=True)
class EigenDecomposition:
    """``A = R diag(eigenvalues) L`` with ``L = R^-1``.

    Eigenvalues are ascending; each right eigenvector (column of ``R``) has
    unit length and its largest-magnitude component positive, so the
    decomposition is reproducible run to run.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    def projector(self, j: int) -> np.ndarray:
        """Rank-one spectral projector ``r_j l_j^T``."""
        return np.outer(self.right[:, j], self.left[j, :])


def decompose(A, tol: float = 1e-8) -> EigenDecomposition:
    """Real spectral decomposition with deterministic ordering and signs.

    Raises :class:`DecompositionError` when eigenvalues are complex beyond
    ``tol`` (relative to the matrix scale), when a repeated eigenvalue has
    too small an eigenspace (defective matrix), or when the eigenvector
    matrix fails to reproduce ``A``.  Eigenvalues within ``100 * tol`` times
    the scale form one cluster, and singular values that small are null.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"square matrix required, got shape {A.shape}")
    n = A.shape[0]
    scale = max(1.0, float(np.linalg.norm(A, 2)))
    if n == 1:
        v = np.array([[1.0]])
        return EigenDecomposition(matrix=A, eigenvalues=A[0].copy(),
                                  right=v, left=v)

    roots = np.linalg.eigvals(A)
    if np.max(np.abs(roots.imag)) > tol * scale:
        raise DecompositionError(
            f"complex eigenvalues {np.sort_complex(roots)} "
            f"(imag exceeds {tol * scale:g})")
    lams = np.sort(roots.real)

    # cluster nearly equal eigenvalues and take eigenspaces from the SVD
    cluster_tol = 100.0 * tol * scale
    right_cols: list[np.ndarray] = []
    eigvals_out: list[float] = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and lams[j + 1] - lams[j] <= cluster_tol:
            j += 1
        mult = j - i + 1
        lam = float(np.mean(lams[i:j + 1]))
        _, svals, Vt = np.linalg.svd(A - lam * np.eye(n))
        null_dim = int(np.sum(svals <= cluster_tol))
        if null_dim < mult:
            raise DecompositionError(
                f"eigenvalue {lam:.12g} has multiplicity {mult} but "
                f"eigenspace dimension {null_dim}: matrix is defective")
        basis = Vt[n - mult:, :].T  # orthonormal nullspace basis
        for col in basis.T:
            k = int(np.argmax(np.abs(col)))
            if col[k] < 0:
                col = -col
            right_cols.append(col)
            eigvals_out.append(lam)
        i = j + 1

    R = np.column_stack(right_cols)
    lams = np.asarray(eigvals_out)
    if abs(np.linalg.det(R)) < 1e-12:
        raise DecompositionError("eigenvector matrix is numerically singular")
    L = np.linalg.inv(R)
    recon = R @ np.diag(lams) @ L
    err = np.linalg.norm(recon - A, 2)
    if err > 1e-6 * scale:
        raise DecompositionError(
            f"reconstruction error {err:g} exceeds tolerance; "
            "matrix is too close to defective")
    return EigenDecomposition(matrix=A, eigenvalues=lams, right=R, left=L)


def step_solution(dec: EigenDecomposition, t: float,
                  uL, uR) -> PiecewiseConstantFn:
    """Exact solution of a single-jump datum at time ``t > 0``.

    The jump decomposes along eigenvectors and each component travels at
    its eigenvalue; the result is the fan of intermediate states as a step
    function of ``x``.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    uL = np.asarray(uL, dtype=float)
    uR = np.asarray(uR, dtype=float)
    n = dec.n
    if uL.shape != (n,) or uR.shape != (n,):
        raise ValueError("state dimension mismatch")
    c = dec.left @ (uR - uL)
    # states[k] = uL + sum_{j<k} c_j r_j
    increments = c[:, None] * dec.right.T
    states = np.vstack([uL, uL + np.cumsum(increments, axis=0)])
    bps_all = dec.eigenvalues * t
    keep = np.append(np.diff(bps_all) > 0, True)  # last state of equal speeds
    bps = bps_all[keep]
    vals = np.vstack([uL, states[1:][keep]])
    return PiecewiseConstantFn(bps, vals).simplified()


def _difference_cells(decA: EigenDecomposition, decB: EigenDecomposition):
    """Widths ``w_k`` and matrices ``M_k`` of the merged eigenvalue cells."""
    breaks = np.unique(np.concatenate([decA.eigenvalues, decB.eigenvalues]))
    if breaks.size < 2:
        return np.empty(0), np.empty((0, decA.n, decA.n))
    projA = np.stack([decA.projector(j) for j in range(decA.n)])
    projB = np.stack([decB.projector(j) for j in range(decB.n)])
    cumA = np.concatenate([np.zeros((1, decA.n, decA.n)),
                           np.cumsum(projA, axis=0)])
    cumB = np.concatenate([np.zeros((1, decB.n, decB.n)),
                           np.cumsum(projB, axis=0)])
    widths, mats = [], []
    proj_scale = max(1.0, float(np.max(np.abs(cumA))), float(np.max(np.abs(cumB))))
    for k in range(breaks.size - 1):
        w = breaks[k + 1] - breaks[k]
        nA = int(np.searchsorted(decA.eigenvalues, breaks[k], side="right"))
        nB = int(np.searchsorted(decB.eigenvalues, breaks[k], side="right"))
        M = cumA[nA] - cumB[nB]
        if np.max(np.abs(M)) <= 1e-14 * proj_scale:
            continue
        widths.append(w)
        mats.append(M)
    if not widths:
        return np.empty(0), np.empty((0, decA.n, decA.n))
    return np.asarray(widths), np.stack(mats)


def _phi_batch(widths: np.ndarray, mats: np.ndarray, V: np.ndarray) -> np.ndarray:
    """phi(v) for unit columns ``V``; shapes (m,), (m,n,n), (n,b) -> (b,)."""
    MV = mats @ V  # (m, n, b)
    return widths @ np.sqrt(np.einsum("mnb,mnb->mb", MV, MV))


@dataclass(frozen=True)
class HatDLinResult:
    """Bracket ``value <= d <= upper``, with ``phi(direction) = value``."""

    value: float
    upper: float
    direction: np.ndarray
    n_cells: int


# a piece is pruned once its bound is within RTOL of the best value found
RTOL = 1e-13
# live pieces allowed before the search returns the bracket reached so far
MAX_PIECES = 1 << 16

# Refinement tables (W, C): the rows of W weight a piece's vertices into
# its new points; C lists the children's vertices, n at a time, among the
# piece's vertices followed by its new points.  Arcs split into eight
# equal chords, triangles at their edge midpoints.
_SPLIT = {
    2: (np.column_stack([np.arange(7, 0, -1), np.arange(1, 8)]) / 8.0,
        np.array([0, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 1])),
    3: (np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
        np.array([0, 3, 5, 3, 1, 4, 5, 4, 2, 3, 4, 5])),
}


def _maximize(widths, mats, n: int) -> tuple[float, float, np.ndarray]:
    """Branch and bound for the max of ``phi`` on the unit sphere, n = 2, 3.

    Pieces are spherical simplices with unit vertex rows ``S``.  Every
    point of a piece is ``S^T b / |S^T b|`` with ``b >= 0``, and ``phi`` is
    convex and positively homogeneous, so on the piece
    ``phi <= max_i phi(v_i) |a|`` where ``S a = 1``.  Every bound is also
    capped by the Cauchy-Schwarz value ``sqrt(sum_k w_k) sigma_max`` of the
    stacked ``sqrt(w_k) M_k``, which is exact for a single cell.  Returns
    ``(value, upper, direction)``.
    """
    W, C = _SPLIT[n]
    stacked = np.concatenate([np.sqrt(w) * M for w, M in zip(widths, mats)])
    _, svals, Vt = np.linalg.svd(stacked)
    cap = np.sqrt(np.sum(widths)) * svals[0]
    seeds = np.vstack([np.eye(n), Vt[0]])
    vals = _phi_batch(widths, mats, seeds.T)
    j = int(np.argmax(vals))
    best, direction = float(vals[j]), seeds[j]
    # phi is even, so the cross-polytope facets with v_1 = e_1 cover it
    signs = np.array([(1.0,) + s for s in product((1.0, -1.0), repeat=n - 1)])
    S = signs[:, :, None] * np.eye(n)
    F = np.broadcast_to(vals[:n], signs.shape)
    upper = 0.0
    while True:
        a = np.linalg.solve(S, np.ones((1, n, 1)))
        bound = np.minimum(F.max(axis=1) * np.sqrt(np.sum(a * a, axis=(1, 2))),
                           cap)
        live = bound > best * (1.0 + RTOL)
        upper = max(upper, float(bound[~live].max(initial=0.0)))
        S, F = S[live], F[live]
        if S.shape[0] == 0:
            break
        if S.shape[0] > MAX_PIECES:
            upper = max(upper, float(bound[live].max()))
            break
        P = W @ S                                   # (p, q, n)
        P /= np.sqrt(np.sum(P * P, axis=2, keepdims=True))
        G = _phi_batch(widths, mats, P.reshape(-1, n).T).reshape(P.shape[:2])
        j = int(np.argmax(G))
        if G.flat[j] > best:
            best, direction = float(G.flat[j]), P.reshape(-1, n)[j].copy()
        S = np.concatenate([S, P], axis=1).take(C, axis=1).reshape(-1, n, n)
        F = np.concatenate([F, G], axis=1).take(C, axis=1).reshape(-1, n)
    # a few ulps cover the rounding of phi, of the bounds and of the cap
    upper = max(upper, best) * (1.0 + 16.0 * float(np.finfo(float).eps))
    return best, upper, direction


def hat_d_lin(A, B) -> HatDLinResult:
    """Distance between the linear systems ``A`` and ``B`` over unit jumps.

    Equals the supremum over single-jump data of the time-one L1 gap per
    unit jump size.  Both matrices must be real-diagonalizable and of size
    at most 3; larger sizes raise ``ValueError``.  The value dominates the
    spectral norm ``|B - A|_2``; for ``diag(0, 1)`` against ``diag(0, 2)``
    it equals 1.

    The result is a certified bracket ``value <= d <= upper``: ``upper``
    is within ``RTOL`` of ``value``, plus a few ulps, unless the search
    reaches ``MAX_PIECES`` live pieces and returns the wider bracket so far.
    """
    decA = decompose(A)
    decB = decompose(B)
    if decA.n != decB.n:
        raise ValueError("matrix dimensions differ")
    n = decA.n
    if n > 3:
        raise ValueError(f"hat_d_lin takes sizes up to 3, got {n}")
    widths, mats = _difference_cells(decA, decB)
    if widths.size == 0:
        return HatDLinResult(value=0.0, upper=0.0,
                             direction=np.eye(n)[:, 0], n_cells=0)
    if n == 1:
        value = float(np.sum(widths * np.abs(mats[:, 0, 0])))
        return HatDLinResult(value=value, upper=value,
                             direction=np.array([1.0]), n_cells=widths.size)
    value, upper, v = _maximize(widths, mats, n)
    return HatDLinResult(value=value, upper=upper, direction=v,
                         n_cells=int(widths.size))


def operator_norm(M) -> float:
    return float(np.linalg.norm(np.asarray(M, dtype=float), 2))
