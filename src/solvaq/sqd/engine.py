"""The sampled-subspace diagonalization loop with reaction-field coupling.

Per recovery iteration: repair every shot's particle numbers against the
current occupation estimate (S-CORE), draw K batches, build each batch's
spin-closed subspace, solve each batch (Davidson inside one reaction-field
loop, which converges the continuum-solvent operator self-consistently per
batch when a PCM context is present and stops after the first solve in the
gas phase), then refresh the occupation estimate from the converged batch
wavefunctions. The final answer is the lowest batch energy of the last
iteration.

Batches are independent work units; with ``workers > 1`` they run in forked
processes. All randomness flows through per-purpose child generators derived
from (master seed, stream, iteration[, batch]), so results are bit-identical
for any worker count.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field

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
        if self.scrf_max_iterations < 1:
            raise ConfigError(
                f"scrf_max_iterations must be at least 1, got {self.scrf_max_iterations}"
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
    """Bundles everything a subspace solve needs: the active-space reduction
    of the molecular Hamiltonian and, when solvated, the continuum-solvent
    context with ``scf_operator``, the reaction field of the converged
    mean-field density that every batch starts from (the SCF's
    ``solvent_operator``; None in the gas phase)."""

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
        self.pcm = pcm
        self.scf_operator = scf_operator
        self.base = transform_integrals(mo_space, hcore, eri_ao, e_nuc)
        self._c_act = mo_space.c_active
        self._d_frozen = mo_space.frozen_density

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

    def with_solvent(self, op: SolventOperator | None) -> ActiveHamiltonian:
        """Fold a one-body reaction-field operator into the active
        Hamiltonian (equivalent to re-running the full transformation)."""
        if op is None:
            return self.base
        c = self._c_act
        return ActiveHamiltonian(
            h_eff=self.base.h_eff + c.T @ op.matrix @ c,
            eri=self.base.eri,
            e_frozen=self.base.e_frozen
            + float(np.sum(self._d_frozen * op.matrix))
            + op.energy,
            n_orbitals=self.base.n_orbitals,
            n_electrons=self.base.n_electrons,
        )

    def total_density(self, gamma_active: np.ndarray) -> np.ndarray:
        """AO-basis total density: frozen core + back-transformed active RDM."""
        c = self._c_act
        return self._d_frozen + c @ gamma_active @ c.T


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

    A Davidson run on the Hamiltonian in ``problem.scf_operator`` (none in
    the gas phase, which ends there) starts the loop. Each macro-iteration
    then relaxes the reaction field against the subspace density (surface
    charges -> folded one-body operator -> Davidson with warm start -> new
    density) until the free energy

        G = <psi|H_0|psi> + (1/2) <psi|V_int|psi>
          = E_davidson - (1/2) E_int

    changes by less than ``scrf_tol``; G removes the interaction energy the
    fully-coupled eigenvalue counts twice. G_solv = (1/2) sum_i q_i phi_i at
    the last density. One Hamiltonian serves every macro-iteration: only
    h_eff and e_frozen move. A batch that reaches ``scrf_max_iterations``
    is returned unconverged, with an error text."""
    op = problem.scf_operator
    ham = ProjectedHamiltonian(problem.with_solvent(op), basis)
    res = davidson_ground_state(ham, tol=config.davidson_tol)
    energy, g_solv_kcal, error = res.energy, 0.0, None
    g_history: list[float] = []
    while op is not None:
        d_tot = problem.total_density(ham.one_rdm(res.vector))
        energy = res.energy - 0.5 * (float(np.sum(d_tot * op.matrix)) + op.energy)
        g_history.append(energy)
        solution = problem.pcm.solve(d_tot)
        g_solv_kcal = solution.g_pol * HARTREE_TO_KCAL
        if len(g_history) > 1 and abs(energy - g_history[-2]) < config.scrf_tol:
            break
        if len(g_history) == config.scrf_max_iterations:
            log.warning(
                "reaction-field macro-iteration did not converge in %d steps "
                "(last |dG| = %.3e)",
                config.scrf_max_iterations,
                abs(energy - g_history[-2]) if len(g_history) > 1 else float("nan"),
            )
            error = "reaction-field macro-iteration limit reached"
            break
        op = solution.operator
        ham.set_one_body(problem.with_solvent(op))
        res = davidson_ground_state(ham, guess=res.vector, tol=config.davidson_tol)

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
    n_alpha = problem.n_alpha
    n_beta = n_alpha
    d_as = hilbert_dimension(problem.n_orbitals, n_alpha, n_beta)

    occ = init_occupations(samples, n_alpha, n_beta)
    iterations: list[list[BatchResult]] = []
    for it in range(config.recovery_iterations):
        recovered = recover(samples, occ, n_alpha, n_beta, config.master_seed, it)
        batches = draw_batches(
            recovered, config.k_batches, config.batch_size, config.master_seed, it
        )
        jobs = [
            (problem, batch, n_alpha, n_beta, config, b)
            for b, batch in enumerate(batches)
        ]
        if config.workers > 1 and config.k_batches > 1:
            # imported here: a serial run never needs them
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing import get_context

            # more processes than CPUs only add start-up cost: batches are
            # bit-identical whatever the pool size
            with ProcessPoolExecutor(
                max_workers=min(config.workers, config.k_batches, os.cpu_count() or 1),
                mp_context=get_context("fork"),
            ) as pool:
                results = list(pool.map(_solve_batch_job, jobs))
        else:
            results = [_solve_batch_job(job) for job in jobs]
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
            "solvated": problem.pcm is not None,
            "total_shots": samples.total,
        },
    )
