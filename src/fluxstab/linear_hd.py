"""Linear hyperbolic systems: decomposition, jump solutions, flux distance.

For ``u_t + A u_x = 0`` with ``A`` real and diagonalizable over R, the
solution of a single-jump datum is an exact fan of contact waves moving at
the eigenvalues.  The distance between two such systems over normalized
single jumps reduces to maximizing

    phi(v) = sum_k w_k |M_k v|_2        over unit vectors v,

where the cells ``k`` partition the merged eigenvalue axis, ``w_k`` are the
cell widths and ``M_k`` the difference of the spectral projector sums that
have been crossed by each system inside the cell.  ``phi`` is a seminorm,
so the maximization is over a sphere; in two dimensions the sphere is a
circle and the maximum is located to high accuracy by an angle scan plus
golden refinement, in higher dimensions by quasirandom starts polished
with projected ascent.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    matrix fails to reproduce ``A``.  Eigenvalues closer than ``100 * tol``
    times the scale are treated as a single cluster.
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
        null_dim = int(np.sum(svals <= 10.0 * tol * scale))
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
    value: float
    direction: np.ndarray
    n_cells: int


def _maximize_circle(widths, mats, n_angles: int = 4096) -> tuple[float, np.ndarray]:
    thetas = np.linspace(0.0, np.pi, n_angles, endpoint=False)
    # kernel directions of the cell matrices are the only kinks of phi
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
    best = float(_phi_batch(widths, mats, v[:, None])[0])
    if phis[j] > best:
        best = float(phis[j])
        v = V[:, j]
    return best, v


def _maximize_sphere(widths, mats, n: int,
                     n_starts: int = 4096, n_steps: int = 200):
    from scipy.stats import qmc

    sob = qmc.Sobol(d=n, scramble=False)
    X = 2.0 * sob.random(n_starts) - 1.0
    norms = np.linalg.norm(X, axis=1)
    X = X[norms > 1e-9] / norms[norms > 1e-9, None]
    # informed starts: leading singular directions of the stacked cells
    stacked = np.concatenate([np.sqrt(w) * M for w, M in zip(widths, mats)])
    _, _, Vt = np.linalg.svd(stacked)
    X = np.vstack([X, Vt, np.eye(n)])
    phis = _phi_batch(widths, mats, X.T)
    order = np.argsort(phis)[::-1][:16]
    # batched projected ascent on the best starts; per-lane step control
    V = X[order].T.copy()                     # (n, b)
    vals = phis[order].copy()
    eta = np.full(vals.shape, 0.5)
    for _ in range(n_steps):
        MV = mats @ V                         # (m, n, b)
        nrm = np.sqrt(np.einsum("mnb,mnb->mb", MV, MV))
        safe = np.maximum(nrm, 1e-300)
        Y = MV * (widths[:, None, None] / safe[:, None, :])
        Y[np.broadcast_to((nrm < 1e-14)[:, None, :], Y.shape)] = 0.0
        G = np.einsum("mnk,mnb->kb", mats, Y)
        G_t = G - V * np.einsum("nb,nb->b", G, V)
        cand = V + eta * G_t
        cand /= np.linalg.norm(cand, axis=0, keepdims=True)
        cvals = _phi_batch(widths, mats, cand)
        improved = cvals > vals
        V = np.where(improved, cand, V)
        vals = np.where(improved, cvals, vals)
        eta = np.where(improved, eta, 0.5 * eta)
        if np.all(eta < 1e-12):
            break
    j = int(np.argmax(vals))
    return float(vals[j]), V[:, j]


def hat_d_lin(A, B) -> HatDLinResult:
    """Distance between the linear systems ``A`` and ``B`` over unit jumps.

    Equals the supremum over single-jump data of the time-one L1 gap per
    unit jump size.  Both matrices must be real-diagonalizable.  The value
    dominates the spectral norm ``|B - A|_2``; for ``diag(0, 1)`` against
    ``diag(0, 2)`` it equals 1.
    """
    decA = decompose(A)
    decB = decompose(B)
    if decA.n != decB.n:
        raise ValueError("matrix dimensions differ")
    n = decA.n
    widths, mats = _difference_cells(decA, decB)
    if widths.size == 0:
        return HatDLinResult(value=0.0,
                             direction=np.eye(n)[:, 0], n_cells=0)
    if n == 1:
        value = float(np.sum(widths * np.abs(mats[:, 0, 0])))
        return HatDLinResult(value=value, direction=np.array([1.0]),
                             n_cells=widths.size)
    if n == 2:
        value, v = _maximize_circle(widths, mats)
    else:
        value, v = _maximize_sphere(widths, mats, n)
    return HatDLinResult(value=float(value), direction=v,
                         n_cells=int(widths.size))


def operator_norm(M) -> float:
    return float(np.linalg.norm(np.asarray(M, dtype=float), 2))
