"""Block-1 Davidson (J. Comput. Phys. 17, 87 (1975)) for the lowest state of a
projected Hamiltonian: V and HV preallocated as (MAX_SUBSPACE, d) blocks, one
Rayleigh row per expansion, in-place restart from the Ritz pair, diagonal
preconditioner, 50-expansion stagnation window, optional warm start."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConvergenceError
from .hamiltonian import ProjectedHamiltonian

MAX_SUBSPACE = 20
STAGNATION_WINDOW = 50
MAX_EXPANSIONS = 2000


@dataclass
class DavidsonResult:
    energy: float                 # lowest eigenvalue + frozen-core constant
    vector: np.ndarray            # normalized CI coefficients, flat
    converged: bool
    n_expansions: int
    residual_norm: float
    history: list = field(default_factory=list)   # (theta, |r|) per expansion


def _orthonormalize(t: np.ndarray, V: np.ndarray) -> np.ndarray | None:
    """Classical Gram-Schmidt against the orthonormal rows of V, run twice;
    None if t lies in their span."""
    scale = np.linalg.norm(t)
    if scale == 0.0:
        return None
    t = t / scale
    for _ in range(2):
        t -= (V @ t) @ V
    norm = np.linalg.norm(t)
    if norm < 1e-8:
        return None
    t /= norm
    return t


def davidson_ground_state(
    ham: ProjectedHamiltonian,
    guess: np.ndarray | None = None,
    tol: float = 1e-8,
) -> DavidsonResult:
    d = ham.d
    diag = ham.diagonal()
    e0 = ham.e_frozen

    if d == 1:
        return DavidsonResult(
            energy=float(diag[0]) + e0,
            vector=np.ones(1),
            converged=True,
            n_expansions=0,
            residual_norm=0.0,
        )

    if guess is not None and np.linalg.norm(guess) > 1e-8:
        t = np.asarray(guess, float).ravel() / np.linalg.norm(guess)
    else:
        t = np.zeros(d)
        t[int(np.argmin(diag))] = 1.0

    n_max = min(MAX_SUBSPACE, d)
    V = np.empty((n_max, d))
    HV = np.empty((n_max, d))
    A = np.empty((n_max, n_max))   # Rayleigh matrix; A[:m, :m] is current
    m = 0
    history: list[tuple[float, float]] = []
    best_residual = np.inf
    since_improvement = 0
    diag_order = None              # sorted at the first collapse only
    next_seed = 0

    for expansion in range(1, MAX_EXPANSIONS + 1):
        new = _orthonormalize(t, V[:m])
        while new is None:
            # direction collapsed onto the span; seed from the next lowest
            # diagonal basis vector instead
            if next_seed >= d:
                raise ConvergenceError(
                    "Davidson ran out of independent directions "
                    f"(d={d}, residual={best_residual:.3e})"
                )
            if diag_order is None:
                diag_order = np.argsort(diag, kind="stable")
            seed = np.zeros(d)
            seed[diag_order[next_seed]] = 1.0
            next_seed += 1
            new = _orthonormalize(seed, V[:m])
        V[m] = new
        HV[m] = ham.matvec(new)
        A[m, :m + 1] = A[:m + 1, m] = HV[:m + 1] @ new
        m += 1

        theta_all, s_all = np.linalg.eigh(A[:m, :m])
        theta, s = theta_all[0], s_all[:, 0]
        x = s @ V[:m]
        hx = s @ HV[:m]
        residual = hx - theta * x
        rnorm = float(np.linalg.norm(residual))
        history.append((float(theta), rnorm))

        if rnorm <= tol:
            return DavidsonResult(
                energy=float(theta) + e0,
                vector=x / np.linalg.norm(x),
                converged=True,
                n_expansions=expansion,
                residual_norm=rnorm,
                history=history,
            )

        if rnorm < best_residual - 1e-15:
            best_residual = rnorm
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement >= STAGNATION_WINDOW:
                raise ConvergenceError(
                    f"Davidson stagnated: residual {rnorm:.3e} has not "
                    f"decreased for {STAGNATION_WINDOW} expansions "
                    f"(best {best_residual:.3e}, theta {theta:.10f}, "
                    f"subspace {m}, d {d})"
                )

        if m == n_max:
            norm = np.linalg.norm(x)
            np.divide(x, norm, out=V[0])
            np.divide(hx, norm, out=HV[0])
            A[0, 0] = HV[0] @ V[0]
            m = 1

        denom = diag - theta
        denom = np.where(np.abs(denom) < 1e-10, np.copysign(1e-10, denom), denom)
        t = residual / denom

    raise ConvergenceError(
        f"Davidson did not converge in {MAX_EXPANSIONS} expansions "
        f"(residual {best_residual:.3e}, d {d})"
    )
