"""Iterative solvers driven by the AMG hierarchy (SpGEMM's payoff).

The paper's AMG motivation ends where the hierarchy exists; this module
closes the loop by actually *using* it: a V-cycle multigrid
preconditioner (weighted-Jacobi smoothing, exact coarsest solve) wrapped
around conjugate gradients.  The setup cost — the Galerkin SpGEMMs — is
what the paper accelerates; the solve demonstrates the hierarchy built by
:func:`repro.apps.amg.build_hierarchy` is numerically sound.

SpMV here is an honest CSR kernel (vectorised gather/segment-sum), so the
whole solve runs on the repository's own substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..matrices.csr import CSR
from ..matrices.ops import diag_vector
from .amg import AmgHierarchy

__all__ = ["spmv", "SolveResult", "jacobi", "v_cycle", "amg_pcg"]


def spmv(a: CSR, x: np.ndarray) -> np.ndarray:
    """``y = A @ x`` for CSR (vectorised)."""
    if x.shape[0] != a.cols:
        raise ValueError(f"vector length {x.shape[0]} != cols {a.cols}")
    prod = a.data * x[a.indices]
    cs = np.zeros(prod.size + 1)
    np.cumsum(prod, out=cs[1:])
    return cs[a.indptr[1:]] - cs[a.indptr[:-1]]


def jacobi(
    a: CSR,
    b: np.ndarray,
    x: np.ndarray,
    *,
    sweeps: int = 2,
    omega: float = 0.67,
) -> np.ndarray:
    """Weighted-Jacobi smoothing sweeps."""
    d = diag_vector(a)
    inv_d = np.divide(omega, d, out=np.zeros_like(d), where=d != 0)
    for _ in range(sweeps):
        x = x + inv_d * (b - spmv(a, x))
    return x


def v_cycle(
    hierarchy: AmgHierarchy,
    b: np.ndarray,
    *,
    level: int = 0,
    sweeps: int = 2,
) -> np.ndarray:
    """One multigrid V-cycle for ``A_level x = b`` (zero initial guess)."""
    a = hierarchy.levels[level].a
    if level == hierarchy.n_levels - 1:
        # coarsest: dense direct solve (regularised for singular Laplacians)
        dense = a.to_dense() + 1e-12 * np.eye(a.rows)
        return np.linalg.solve(dense, b)
    x = jacobi(a, b, np.zeros_like(b), sweeps=sweeps)
    p = hierarchy.levels[level + 1].p
    residual = b - spmv(a, x)
    coarse_b = spmv(p.transpose(), residual)
    coarse_x = v_cycle(hierarchy, coarse_b, level=level + 1, sweeps=sweeps)
    x = x + spmv(p, coarse_x)
    return jacobi(a, b, x, sweeps=sweeps)


@dataclass
class SolveResult:
    """Outcome of a preconditioned CG solve."""

    x: np.ndarray
    iterations: int
    converged: bool
    residual_history: List[float] = field(default_factory=list)



def amg_pcg(
    hierarchy: AmgHierarchy,
    b: np.ndarray,
    *,
    tol: float = 1e-8,
    max_iterations: int = 200,
    x0: Optional[np.ndarray] = None,
) -> SolveResult:
    """Conjugate gradients preconditioned by one AMG V-cycle per step."""
    a = hierarchy.levels[0].a
    x = np.zeros(a.rows) if x0 is None else x0.copy()
    r = b - spmv(a, x)
    b_norm = float(np.linalg.norm(b)) or 1.0
    history = [float(np.linalg.norm(r)) / b_norm]
    if history[0] < tol:
        return SolveResult(x=x, iterations=0, converged=True, residual_history=history)
    z = v_cycle(hierarchy, r)
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, max_iterations + 1):
        ap = spmv(a, p)
        denom = float(p @ ap)
        if denom <= 0:
            # loss of positive-definiteness (e.g. singular system): stop
            return SolveResult(
                x=x, iterations=it, converged=False, residual_history=history
            )
        alpha = rz / denom
        x = x + alpha * p
        r = r - alpha * ap
        rel = float(np.linalg.norm(r)) / b_norm
        history.append(rel)
        if rel < tol:
            return SolveResult(
                x=x, iterations=it, converged=True, residual_history=history
            )
        z = v_cycle(hierarchy, r)
        rz_new = float(r @ z)
        beta = rz_new / rz
        p = z + beta * p
        rz = rz_new
    return SolveResult(
        x=x, iterations=max_iterations, converged=False, residual_history=history
    )
