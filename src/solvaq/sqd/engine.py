"""The sampled-subspace diagonalization loop with reaction-field coupling.

Per recovery iteration: repair every shot's particle numbers against the
current occupation estimate (S-CORE), draw K batches, build each batch's
spin-closed subspace, solve each batch (Davidson inside one reaction-field
loop, which converges the continuum-solvent field self-consistently per batch
in the active basis when solvated and stops after the first solve in the gas
phase), then refresh the occupation estimate from the converged batch
wavefunctions. The final answer is the lowest batch energy of the last
iteration.

Batches are independent work units; with ``workers > 1`` they run in one pool
of forked processes per run, and a job carries only active-space arrays. All
randomness flows through per-purpose child generators derived from (master
seed, stream, iteration[, batch]), so results are bit-identical for any
worker count.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from ..active_space import ActiveHamiltonian, MOSpace, transform_integrals
from ..constants import HARTREE_TO_KCAL
from ..errors import ConfigError, ConvergenceError, RecoveryBootstrapError
from ..pcm import PCMContext, SolventOperator
from ..rng import STREAM_BATCH, STREAM_RECOVERY, child_rng
from ..sampling import SampleSet
from .davidson import davidson_ground_state
from .hamiltonian import ProjectedHamiltonian, occupation_numbers
from .strings import SubspaceBasis, build_subspace

log = logging.getLogger(__name__)

SCRF_FORCING = 0.1  # eta of scrf_subspace_solve's inner residual tolerances


# ---------------------------------------------------------------------------
# Config and result containers
# ---------------------------------------------------------------------------

@dataclass
class SQDConfig:
    k_batches: int = 10
    batch_size: int = 100
    recovery_iterations: int = 3
    davidson_tol: float = 1e-8
    scrf_tol: float = 1e-8
    scrf_max_iterations: int = 30
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.k_batches < 1:
            raise ConfigError(f"need at least one batch, got {self.k_batches}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be positive, got {self.batch_size}")
        if self.recovery_iterations < 1:
            raise ConfigError(
                f"need at least one recovery iteration, got {self.recovery_iterations}"
            )
        if self.workers < 1:
            raise ConfigError(f"worker count must be positive, got {self.workers}")
        if self.master_seed < 0:
            raise ConfigError(f"master seed must be >= 0, got {self.master_seed}")
        if self.scrf_max_iterations < 2:
            raise ConfigError(
                f"scrf_max_iterations must be at least 2, got {self.scrf_max_iterations}"
            )
        for name in ("davidson_tol", "scrf_tol"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ConfigError(f"{name} must be finite and positive, got {value}")


@dataclass
class OccupationDistribution:
    """Per-orbital mean occupations, one vector per spin (index = orbital)."""

    n_up: np.ndarray
    n_down: np.ndarray


@dataclass
class BatchResult:
    batch_index: int
    energy: float                  # total energy (free energy G when solvated)
    g_solv_kcal: float             # (1/2) sum q_i phi_i in kcal/mol
    ci: np.ndarray | None
    d: int
    n_strings: int
    scrf_iterations: int
    converged: bool
    occ_up: np.ndarray | None = None
    occ_down: np.ndarray | None = None
    g_history: list = field(default_factory=list)
    davidson_expansions: int = 0   # over every Davidson run of the batch
    error: str | None = None


@dataclass
class SQDResult:
    iterations: list                  # list per recovery iteration of [BatchResult]
    final_energy: float
    final_g_solv_kcal: float
    final_batch_index: int
    final_d: int
    hilbert_dimension: int
    metadata: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------

def hilbert_dimension(n_orb: int, n_alpha: int, n_beta: int) -> int:
    """Exact C(n_orb, N_alpha) * C(n_orb, N_beta)."""
    if not (0 <= n_alpha <= n_orb and 0 <= n_beta <= n_orb):
        raise ConfigError(
            f"cannot place ({n_alpha}, {n_beta}) electrons in {n_orb} orbitals"
        )
    return math.comb(n_orb, n_alpha) * math.comb(n_orb, n_beta)


def _bit_matrix(words: np.ndarray, n_orb: int) -> np.ndarray:
    return (words[:, None] >> np.arange(n_orb)[None, :]) & 1


def init_occupations(
    samples: SampleSet, n_alpha: int, n_beta: int
) -> OccupationDistribution:
    """Count-weighted mean bit occupations over the symmetry-correct shots."""
    n_orb = samples.n_orb
    bits_a = _bit_matrix(samples.alpha, n_orb).astype(float)
    bits_b = _bit_matrix(samples.beta, n_orb).astype(float)
    mask = (bits_a.sum(axis=1) == n_alpha) & (bits_b.sum(axis=1) == n_beta)
    weight = samples.counts * mask
    total = weight.sum()
    if total == 0:
        raise RecoveryBootstrapError(
            "no shot has the target particle numbers "
            f"(N_alpha={n_alpha}, N_beta={n_beta}); increase the shot count "
            "or reduce the noise level"
        )
    n_up = (weight @ bits_a) / total
    n_down = (weight @ bits_b) / total
    return OccupationDistribution(n_up=n_up, n_down=n_down)


# Shots per recovery draw: bounds the (shots x 2 n_orb) work arrays. The
# stream is consumed in the same order whatever the chunking, so the value
# changes memory use, never a result.
RECOVERY_CHUNK_SHOTS = 1 << 14


def _repair_words(words: np.ndarray, u: np.ndarray, target: int, occ: np.ndarray) -> int:
    """Bring every word to Hamming weight ``target``, in place, by flipping
    |weight - target| direction-eligible bits (set bits when too heavy, clear
    bits when too light), drawn by weighted sampling without replacement with
    weights |1 - n_p| (set bits) or |n_p| (clear bits). ``u`` holds one
    uniform per (word, orbital). Bits with positive weight are ranked by the exponential
    key -log(1 - u) / w, whose ascending order is a weighted draw without
    replacement (Efraimidis & Spirakis, IPL 97, 2006); zero-weight bits follow
    in the order of u, a uniform draw. Returns the number of words that
    needed zero-weight bits (the uniform fallback)."""
    n_orb = len(occ)
    bits = _bit_matrix(words, n_orb).astype(bool)
    excess = bits.sum(axis=1) - target
    broken = np.flatnonzero(excess)
    bits, excess, u = bits[broken], excess[broken], u[broken]
    heavy = (excess > 0)[:, None]
    eligible = np.where(heavy, bits, ~bits)
    pull = np.where(heavy, np.abs(1.0 - occ), np.abs(occ))
    positive = eligible & (pull > 0.0)
    keys = np.where(positive, -np.log1p(-u) / np.where(positive, pull, 1.0), u)
    tier = np.where(positive, 0, np.where(eligible, 1, 2))
    order = np.lexsort((keys, tier), axis=1)
    n_flips = np.abs(excess)
    flip = np.zeros_like(bits)
    np.put_along_axis(flip, order, np.arange(n_orb) < n_flips[:, None], axis=1)
    words[broken] ^= flip @ (1 << np.arange(n_orb, dtype=np.int64))
    return int(np.count_nonzero(n_flips > positive.sum(axis=1)))


def recover(
    samples: SampleSet,
    occ: OccupationDistribution,
    n_alpha: int,
    n_beta: int,
    seed: int,
    iteration: int = 0,
) -> SampleSet:
    """S-CORE: every shot leaves with exact (N_alpha, N_beta); shots already
    correct pass through unchanged. Each shot draws 2 n_orb uniforms from the
    (seed, STREAM_RECOVERY, iteration) stream, shots in canonical order,
    alpha orbitals before beta, and its words are repaired by
    ``_repair_words``. Deterministic for a given (seed, iteration)."""
    rng = child_rng(seed, STREAM_RECOVERY, iteration)
    n_orb = samples.n_orb
    alpha, beta = samples.expand()
    fallback_hits = 0
    for lo in range(0, len(alpha), RECOVERY_CHUNK_SHOTS):
        a, b = alpha[lo:lo + RECOVERY_CHUNK_SHOTS], beta[lo:lo + RECOVERY_CHUNK_SHOTS]
        u = rng.random((len(a), 2 * n_orb))
        fallback_hits += _repair_words(a, u[:, :n_orb], n_alpha, occ.n_up)
        fallback_hits += _repair_words(b, u[:, n_orb:], n_beta, occ.n_down)
    if fallback_hits:
        log.warning(
            "recovery fell back to uniform bit selection for %d shots "
            "(degenerate occupation estimate)",
            fallback_hits,
        )
    return SampleSet(n_orb, alpha, beta)


def draw_batches(
    recovered: SampleSet,
    k: int,
    batch_size: int,
    seed: int,
    iteration: int = 0,
) -> list[SampleSet]:
    """K independent uniform draws from the recovered multiset, each without
    replacement (with replacement when batch_size exceeds the multiset)."""
    alpha, beta = recovered.expand()
    total = len(alpha)
    if total == 0:
        raise ConfigError("cannot draw batches from an empty sample set")
    batches = []
    for b in range(k):
        rng = child_rng(seed, STREAM_BATCH, iteration, b)
        replace = batch_size > total
        idx = rng.choice(total, size=batch_size, replace=replace)
        batches.append(SampleSet(recovered.n_orb, alpha[idx], beta[idx]))
    return batches


def update_occupations(results: list[BatchResult]) -> OccupationDistribution:
    """Mean over converged batches of the per-batch <n_p_sigma>."""
    usable = [r for r in results if r.converged and r.occ_up is not None]
    if not usable:
        raise ConvergenceError("no converged batch to update occupations from")
    n_up = np.mean([r.occ_up for r in usable], axis=0)
    n_down = np.mean([r.occ_down for r in usable], axis=0)
    return OccupationDistribution(n_up=n_up, n_down=n_down)


# ---------------------------------------------------------------------------
# Active-space problem context
# ---------------------------------------------------------------------------

class ActiveSpaceProblem:
    """The active-space reduction of the molecular Hamiltonian and, when
    solvated, the reaction field as a kernel over active orbital pairs, with
    ``scf_field``, the SCF's ``solvent_operator`` in the active basis, that
    every batch starts from (None in the gas phase)."""

    def __init__(
        self,
        mo_space: MOSpace,
        hcore: np.ndarray,
        eri_ao: np.ndarray,
        e_nuc: float,
        pcm: PCMContext | None = None,
        scf_operator: SolventOperator | None = None,
    ):
        if pcm is not None and scf_operator is None:
            raise ConfigError(
                "a solvated problem needs the reaction field of the converged "
                "mean-field density"
            )
        self.mo_space = mo_space
        self.base = transform_integrals(mo_space, hcore, eri_ao, e_nuc)
        self.scf_field = self._kernel = None
        if pcm is None:
            return
        # phi(D_f + C gamma C^T) = phi_f - E gamma and q = R phi, so the field
        # (C^T V C, sum D_f V + energy) = (-E^T q, phi_f . q) is affine in gamma
        c, d_f, r = mo_space.c_active, mo_space.frozen_density, pcm.response
        e = (c.T @ pcm.esp @ c).reshape(len(r), -1)
        phi_f = pcm.potential(d_f)
        self._kernel = (e.T @ r @ e, e.T @ r @ phi_f, phi_f @ r @ e, float(phi_f @ r @ phi_f))
        v = scf_operator.matrix
        self.scf_field = (c.T @ v @ c, float(np.sum(d_f * v)) + scf_operator.energy)

    @property
    def n_orbitals(self) -> int:
        return self.base.n_orbitals

    @property
    def n_electrons(self) -> int:
        return self.base.n_electrons

    @property
    def n_alpha(self) -> int:
        if self.base.n_electrons % 2 != 0:
            raise ConfigError(
                f"closed-shell engine needs an even active electron count, "
                f"got {self.base.n_electrons}"
            )
        return self.base.n_electrons // 2

    def reaction_field(self, gamma: np.ndarray) -> tuple[np.ndarray, float]:
        """The reaction field of the active 1-RDM ``gamma`` (with the frozen
        core and the nuclei): its active one-body operator K gamma - a and
        energy shift c - b . gamma."""
        k, a, b, c = self._kernel
        g = gamma.ravel()
        return (k @ g - a).reshape(gamma.shape), c - float(b @ g)

    def with_solvent(self, rf: tuple[np.ndarray, float] | None) -> ActiveHamiltonian:
        """Fold a reaction field (active operator, energy shift) into the
        active Hamiltonian."""
        if rf is None:
            return self.base
        base = self.base
        return replace(base, h_eff=base.h_eff + rf[0], e_frozen=base.e_frozen + rf[1])


# ---------------------------------------------------------------------------
# Per-batch solve
# ---------------------------------------------------------------------------

def scrf_subspace_solve(
    problem: ActiveSpaceProblem,
    basis: SubspaceBasis,
    config: SQDConfig,
    batch_index: int = 0,
) -> BatchResult:
    """Solve one subspace, gas or solvated, in one reaction-field loop.

    A Davidson run on the Hamiltonian in ``problem.scf_field`` (none in the
    gas phase, which ends there) starts the loop. Each macro-iteration then
    relaxes the reaction field (h, shift) against the subspace density in the
    active basis (1-RDM gamma -> ``problem.reaction_field(gamma)`` -> Davidson
    with warm start) until the free energy

        G = E_davidson - (1/2) (<gamma, h> + shift)

    changes by less than ``scrf_tol``; G removes the interaction energy the
    fully-coupled eigenvalue counts twice. G_solv = (1/2) sum_i q_i phi_i is
    the same contraction with the field of the last gamma, so no charges are
    formed. One Hamiltonian serves every macro-iteration: only h_eff and
    e_frozen move. Each Davidson run stops at the residual max(davidson_tol,
    SCRF_FORCING * max|dh_eff|), dh_eff = h_eff minus that of the last run or
    of the gas phase (inexact Newton: Dembo et al., SIAM J. Numer. Anal. 19,
    400 (1982)); a loop that stops after a looser run reports a rerun of it at
    davidson_tol, no macro-iteration. A batch that reaches
    ``scrf_max_iterations`` is returned unconverged, with an error."""
    rf = problem.scf_field
    ham = ProjectedHamiltonian(problem.with_solvent(rf), basis)
    h_last, res, stop, error, expansions = problem.base.h_eff, None, False, None, 0
    g_history: list[float] = []
    while True:
        tol = max(config.davidson_tol, SCRF_FORCING * abs(ham.active.h_eff - h_last).max())
        h_last = ham.active.h_eff
        res = davidson_ground_state(ham, guess=None if res is None else res.vector, tol=tol)
        expansions += res.n_expansions
        energy, g_solv_kcal = res.energy, 0.0
        if rf is None:
            break
        gamma = ham.one_rdm(res.vector)
        energy -= 0.5 * (float(np.vdot(gamma, rf[0])) + rf[1])
        new = problem.reaction_field(gamma)
        g_solv_kcal = 0.5 * (float(np.vdot(gamma, new[0])) + new[1]) * HARTREE_TO_KCAL
        if stop:
            break
        g_history.append(energy)
        stop = len(g_history) > 1 and abs(energy - g_history[-2]) < config.scrf_tol
        if not stop and len(g_history) == config.scrf_max_iterations:
            log.warning(
                "reaction-field macro-iteration did not converge in %d steps "
                "(last |dG| = %.3e)",
                config.scrf_max_iterations, abs(energy - g_history[-2]),
            )
            stop, error = True, "reaction-field macro-iteration limit reached"
        if not stop:
            rf = new
            ham.set_one_body(problem.with_solvent(rf))
        elif tol == config.davidson_tol:
            break

    occ_up, occ_down = occupation_numbers(res.vector, ham)
    return BatchResult(
        batch_index=batch_index,
        energy=energy,
        g_solv_kcal=g_solv_kcal,
        ci=res.vector,
        d=basis.d,
        n_strings=basis.n_strings,
        scrf_iterations=len(g_history),
        converged=res.converged and error is None,
        occ_up=occ_up,
        occ_down=occ_down,
        g_history=g_history,
        davidson_expansions=expansions,
        error=error,
    )


def _solve_batch_job(args) -> BatchResult:
    problem, batch, n_alpha, n_beta, config, batch_index = args
    try:
        basis = build_subspace(batch, n_alpha, n_beta)
        return scrf_subspace_solve(problem, basis, config, batch_index=batch_index)
    except (ConvergenceError, ConfigError) as exc:
        log.warning("batch %d failed: %s", batch_index, exc)
        return BatchResult(
            batch_index=batch_index,
            energy=float("nan"),
            g_solv_kcal=float("nan"),
            ci=None,
            d=0,
            n_strings=0,
            scrf_iterations=0,
            converged=False,
            error=str(exc),
        )


# ---------------------------------------------------------------------------
# Full loop
# ---------------------------------------------------------------------------

def run_sqd(
    problem: ActiveSpaceProblem,
    samples: SampleSet,
    config: SQDConfig,
) -> SQDResult:
    """Recovery iterations of: S-CORE repair, K batch draws, per-batch
    subspace solves, occupation refresh. The result is the lowest-energy
    batch of the last iteration (ties broken by batch index)."""
    if samples.total == 0:
        raise ConfigError("the sample set is empty")
    if samples.n_orb != problem.n_orbitals:
        raise ConfigError(
            f"sample set is over {samples.n_orb} orbitals but the active "
            f"space has {problem.n_orbitals}"
        )
    n_alpha = n_beta = problem.n_alpha
    d_as = hilbert_dimension(problem.n_orbitals, n_alpha, n_beta)

    occ = init_occupations(samples, n_alpha, n_beta)
    iterations: list[list[BatchResult]] = []
    # one pool per run; more processes than CPUs only add start-up cost, and
    # one process is a serial run: batches are bit-identical at any pool size
    n_procs = min(config.workers, config.k_batches, os.cpu_count() or 1)
    pool, pool_map = contextlib.nullcontext(), map
    if n_procs > 1:
        # imported here: a serial run never needs them
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        pool = ProcessPoolExecutor(max_workers=n_procs, mp_context=get_context("fork"))
        pool_map = pool.map
    with pool:
        for it in range(config.recovery_iterations):
            recovered = recover(samples, occ, n_alpha, n_beta, config.master_seed, it)
            batches = draw_batches(
                recovered, config.k_batches, config.batch_size, config.master_seed, it
            )
            jobs = [(problem, batch, n_alpha, n_beta, config, b)
                    for b, batch in enumerate(batches)]
            results = list(pool_map(_solve_batch_job, jobs))
            iterations.append(results)
            if not any(r.converged for r in results):
                raise ConvergenceError(
                    f"every batch failed in recovery iteration {it}: "
                    + "; ".join(str(r.error) for r in results)
                )
            occ = update_occupations(results)

    last = iterations[-1]
    best = min(
        (r for r in last if r.converged),
        key=lambda r: (r.energy, r.batch_index),
    )
    return SQDResult(
        iterations=iterations,
        final_energy=best.energy,
        final_g_solv_kcal=best.g_solv_kcal,
        final_batch_index=best.batch_index,
        final_d=best.d,
        hilbert_dimension=d_as,
        metadata={
            "master_seed": config.master_seed,
            "k_batches": config.k_batches,
            "batch_size": config.batch_size,
            "recovery_iterations": config.recovery_iterations,
            "workers": config.workers,
            "n_orbitals": problem.n_orbitals,
            "n_alpha": n_alpha,
            "n_beta": n_beta,
            "solvated": problem.scf_field is not None,
            "total_shots": samples.total,
        },
    )
