"""Restricted Hartree-Fock with DIIS, optionally coupled to a polarizable
continuum: the solvent reaction-field operator is rebuilt from the current
density every iteration and the reported total energy carries the half-factor
interaction term G = E_solute + (1/2) sum_i q_i phi_i.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .basis import AOBasis
from .errors import ConfigError, ConvergenceError
from .geometry import Geometry
from .integrals import OneElectronIntegrals, compute_eri, compute_one_electron
from .pcm import SolventOperator

log = logging.getLogger(__name__)

DIIS_HISTORY = 8                   # Fock/error pairs kept for extrapolation
ORTHOGONALIZATION_CUTOFF = 1e-10   # smallest overlap eigenvalue kept


@dataclass
class SCFConfig:
    max_iterations: int = 200
    energy_tol: float = 1e-9
    diis_tol: float = 1e-7

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ConfigError(
                f"SCF max_iterations must be at least 1, got {self.max_iterations}"
            )
        for name in ("energy_tol", "diis_tol"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ConfigError(f"SCF {name} must be finite and positive, got {value}")


@dataclass
class SCFResult:
    energy: float                   # total energy; includes G_pol when solvated
    e_nuc: float
    e_electronic: float             # gas-phase electronic part Tr[D(h+F0)]/2
    g_pol: float                    # (1/2) sum_i q_i phi_i, zero in gas phase
    mo_coeff: np.ndarray
    mo_energy: np.ndarray
    density: np.ndarray             # D = 2 C_occ C_occ^T
    occupations: np.ndarray
    converged: bool
    n_iterations: int
    history: list = field(default_factory=list)   # (E_total, diis_error) pairs
    # reaction field of the last density solved, which is ``density`` when
    # converged; None in the gas phase
    solvent_operator: SolventOperator | None = None


def orthogonalizer(S: np.ndarray) -> np.ndarray:
    """Symmetric orthogonalization X = U s^{-1/2} U^T, dropping eigenvectors
    with overlap eigenvalue below ORTHOGONALIZATION_CUTOFF."""
    s, U = np.linalg.eigh(S)
    keep = s > ORTHOGONALIZATION_CUTOFF
    if not np.all(keep):
        log.warning("dropping %d near-dependent basis vectors", (~keep).sum())
    return U[:, keep] / np.sqrt(s[keep])


def core_guess(hcore: np.ndarray, X: np.ndarray, n_occ: int) -> np.ndarray:
    """Density from the eigenvectors of the bare core Hamiltonian."""
    e, c_o = np.linalg.eigh(X.T @ hcore @ X)
    C = X @ c_o
    return 2.0 * C[:, :n_occ] @ C[:, :n_occ].T


class _DIIS:
    def __init__(self, max_vecs: int):
        self.max_vecs = max_vecs
        self.focks: list[np.ndarray] = []
        self.errors: list[np.ndarray] = []

    def push(self, fock: np.ndarray, error: np.ndarray):
        self.focks.append(fock.copy())
        self.errors.append(error.ravel().copy())
        if len(self.focks) > self.max_vecs:
            self.focks.pop(0)
            self.errors.pop(0)

    def extrapolate(self) -> np.ndarray:
        n = len(self.focks)
        if n == 1:
            return self.focks[0]
        B = np.empty((n + 1, n + 1))
        B[:n, :n] = np.array(
            [[ei @ ej for ej in self.errors] for ei in self.errors]
        )
        B[n, :], B[:, n], B[n, n] = -1.0, -1.0, 0.0
        rhs = np.zeros(n + 1)
        rhs[n] = -1.0
        try:
            coef = np.linalg.solve(B, rhs)[:n]
        except np.linalg.LinAlgError:
            coef = np.linalg.lstsq(B, rhs, rcond=None)[0][:n]
        return np.einsum("k,kij->ij", coef, np.array(self.focks))


def occupied_count(n_electrons: int, n_basis: int) -> int:
    """Doubly occupied orbitals of a closed-shell determinant; ConfigError
    unless 0 <= n_electrons <= 2 * n_basis and n_electrons is even."""
    if n_electrons < 0 or n_electrons % 2:
        raise ConfigError(
            f"RHF needs an even, non-negative electron count, got {n_electrons}"
        )
    if n_electrons > 2 * n_basis:
        raise ConfigError(
            f"{n_electrons} electrons do not fit in {n_basis} basis functions"
        )
    return n_electrons // 2


def run_rhf(
    geometry: Geometry,
    basis: AOBasis,
    config: SCFConfig | None = None,
    integrals: OneElectronIntegrals | None = None,
    eri: np.ndarray | None = None,
    pcm=None,
) -> SCFResult:
    """Solve closed-shell RHF, optionally inside a reaction field.

    ``pcm`` is a PCMContext (see solvaq.pcm); when given, surface charges are
    recomputed from the present density every iteration, the resulting
    interaction operator is added to the Fock matrix, and the converged total
    energy is G = E_solute + G_pol.
    """
    config = config or SCFConfig()
    n_occ = occupied_count(geometry.n_electrons, basis.n_ao)

    if integrals is None:
        integrals = compute_one_electron(geometry, basis)
    if eri is None:
        eri = compute_eri(basis)
    S, hcore, e_nuc = integrals.overlap, integrals.core, integrals.e_nuc
    X = orthogonalizer(S)
    if X.shape[1] < n_occ:
        raise ConfigError("not enough independent basis functions for the electrons")

    D = core_guess(hcore, X, n_occ)
    diis = _DIIS(DIIS_HISTORY)
    e_total = 0.0
    history: list[tuple[float, float]] = []
    converged = False
    mo_energy = np.zeros(X.shape[1])
    C = np.zeros((S.shape[0], X.shape[1]))
    g_pol = 0.0
    solvent_operator = None
    it = 0

    for it in range(1, config.max_iterations + 1):
        J = np.einsum("mnls,ls->mn", eri, D, optimize=True)
        K = np.einsum("mlns,ls->mn", eri, D, optimize=True)
        F0 = hcore + J - 0.5 * K
        e_elec = 0.5 * np.einsum("mn,mn->", D, hcore + F0)

        if pcm is not None:
            solution = pcm.solve(D)
            solvent_operator = solution.operator
            F = F0 + solvent_operator.matrix
            g_pol = solution.g_pol
        else:
            F = F0
            g_pol = 0.0
        e_new = e_elec + e_nuc + g_pol
        if not math.isfinite(e_new):
            raise ConvergenceError(f"SCF energy is not finite at iteration {it}")

        err = X.T @ (F @ D @ S - S @ D @ F) @ X
        diis_error = np.abs(err).max()
        history.append((e_new, diis_error))
        if (
            it > 1
            and abs(e_new - e_total) < config.energy_tol
            and diis_error < config.diis_tol
        ):
            e_total = e_new
            converged = True
            break
        e_total = e_new

        diis.push(F, err)
        F = diis.extrapolate()
        mo_energy, c_o = np.linalg.eigh(X.T @ F @ X)
        C = X @ c_o
        D = 2.0 * C[:, :n_occ] @ C[:, :n_occ].T

    if not converged:
        log.warning(
            "RHF did not converge in %d iterations (dE=%.3e, diis=%.3e)",
            config.max_iterations,
            abs(history[-1][0] - history[-2][0]) if len(history) > 1 else float("nan"),
            history[-1][1],
        )

    occupations = np.zeros(C.shape[1])
    occupations[:n_occ] = 2.0
    return SCFResult(
        energy=e_total,
        e_nuc=e_nuc,
        e_electronic=e_total - e_nuc - g_pol,
        g_pol=g_pol,
        mo_coeff=C,
        mo_energy=mo_energy,
        density=D,
        occupations=occupations,
        converged=converged,
        n_iterations=it,
        history=history,
        solvent_operator=solvent_operator,
    )
