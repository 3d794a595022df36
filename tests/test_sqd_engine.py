"""Recovery statistics, batching determinism, the SCRF macro-iteration, and
the full sampled-subspace pipeline."""

import numpy as np
import pytest

import oracles
from solvaq.errors import ConfigError, ConvergenceError, RecoveryBootstrapError
from solvaq.constants import HARTREE_TO_KCAL
from solvaq.sampling import Configuration, NoiseModel, SampleSet, apply_noise, sample_exact
from solvaq.sqd import engine
from solvaq.sqd import (
    OccupationDistribution,
    ProjectedHamiltonian,
    SQDConfig,
    davidson_ground_state,
    draw_batches,
    full_space,
    hilbert_dimension,
    init_occupations,
    recover,
    run_sqd,
    scrf_subspace_solve,
    update_occupations,
)


# --- hilbert_dimension -------------------------------------------------------


def test_hilbert_dimension_values():
    assert hilbert_dimension(12, 7, 7) == 627264
    assert hilbert_dimension(13, 7, 7) == 2944656
    assert hilbert_dimension(18, 10, 10) == 1914762564
    assert hilbert_dimension(23, 4, 4) == 78411025


def test_hilbert_dimension_rejects_bad_counts():
    with pytest.raises(ConfigError):
        hilbert_dimension(4, 5, 2)
    with pytest.raises(ConfigError):
        hilbert_dimension(4, -1, 2)


# --- occupation bootstrap ----------------------------------------------------


def test_init_occupations_counts_only_symmetry_correct_shots():
    # (0b0011, 0b0011) x3 is correct (2, 2); (0b0111, 0b0011) x97 has the
    # wrong alpha weight and is ignored
    s = SampleSet(4, [0b0011, 0b0111], [0b0011, 0b0011], [3, 97])
    occ = init_occupations(s, 2, 2)
    assert occ.n_up.tolist() == [1.0, 1.0, 0.0, 0.0]
    assert occ.n_down.tolist() == [1.0, 1.0, 0.0, 0.0]


def test_init_occupations_weighted_mean():
    s = SampleSet(3, [0b011, 0b110], [0b011, 0b101], [1, 3])
    occ = init_occupations(s, 2, 2)
    assert occ.n_up.tolist() == pytest.approx([0.25, 1.0, 0.75])
    assert occ.n_down.tolist() == pytest.approx([1.0, 0.25, 0.75])


def test_init_occupations_bootstrap_error():
    s = SampleSet(4, [0b0111], [0b0011], [5])
    with pytest.raises(RecoveryBootstrapError):
        init_occupations(s, 2, 2)


# --- S-CORE recovery ----------------------------------------------------------


def _random_shots(rng, n_random, n_correct):
    """``n_random`` shots of uniformly random 6-orbital words (alpha drawn
    before beta per shot) plus ``n_correct`` shots of (0b000111, 0b000111)."""
    words = [(int(rng.integers(0, 64)), int(rng.integers(0, 64)))
             for _ in range(n_random)]
    words.append((0b000111, 0b000111))
    return SampleSet(6, [a for a, _ in words], [b for _, b in words],
                     [1] * n_random + [n_correct])


def test_recover_restores_all_weights():
    s = _random_shots(np.random.default_rng(0), 500, 50)
    occ = init_occupations(s, 3, 3)
    out = recover(s, occ, 3, 3, seed=1)
    assert out.total == s.total
    for config in out.entries:
        assert bin(config.alpha).count("1") == 3
        assert bin(config.beta).count("1") == 3


def test_recover_passes_correct_shots_through():
    s = SampleSet(4, [0b0101], [0b1010], [7])
    occ = OccupationDistribution(
        n_up=np.array([0.9, 0.1, 0.9, 0.1]), n_down=np.array([0.1, 0.9, 0.1, 0.9])
    )
    out = recover(s, occ, 2, 2, seed=9)
    assert out.entries == {Configuration(0b0101, 0b1010): 7}


def test_recover_deterministic_in_seed_and_iteration():
    s = _random_shots(np.random.default_rng(2), 200, 10)
    occ = init_occupations(s, 3, 3)
    a = recover(s, occ, 3, 3, seed=5, iteration=1)
    b = recover(s, occ, 3, 3, seed=5, iteration=1)
    c = recover(s, occ, 3, 3, seed=5, iteration=2)
    assert a.entries == b.entries
    assert a.entries != c.entries


def test_recover_flip_law_follows_occupation_distance():
    """A one-bit-excess word must drop bit p with probability proportional
    to |1 - n_p| over the occupied bits."""
    n_trials = 20_000
    n_orb = 4
    word = 0b0111  # weight 3, target 2
    probs = np.array([0.95, 0.6, 0.25, 0.0])
    pulls = np.abs(1.0 - probs[[0, 1, 2]])
    expected = pulls / pulls.sum()

    s = SampleSet(n_orb, [word], [0b0011], [n_trials])
    occ = OccupationDistribution(n_up=probs, n_down=np.array([1.0, 1.0, 0.0, 0.0]))
    out = recover(s, occ, 2, 2, seed=123)

    dropped = np.zeros(3)
    for config, count in out.entries.items():
        removed = word & ~config.alpha
        assert removed.bit_count() == 1
        dropped[removed.bit_length() - 1] += count
    freq = dropped / n_trials
    sigma = np.sqrt(expected * (1 - expected) / n_trials)
    assert np.all(np.abs(freq - expected) < 4.5 * sigma + 1e-12)


def test_recover_uniform_fallback_on_degenerate_distribution(caplog):
    s = SampleSet(4, [0b0111], [0b0011], [30])
    # occupations exactly 1 on every occupied bit: all pull weights zero
    occ = OccupationDistribution(
        n_up=np.array([1.0, 1.0, 1.0, 0.0]), n_down=np.array([1.0, 1.0, 0.0, 0.0])
    )
    with caplog.at_level("WARNING"):
        out = recover(s, occ, 2, 2, seed=3)
    assert out.total == 30
    for config in out.entries:
        assert bin(config.alpha).count("1") == 2
    assert any("fell back" in rec.message for rec in caplog.records)


def test_recover_matches_sequential_oracle():
    """Two-sample chi^2 on final alpha words: the one-draw repair and the
    one-bit-at-a-time oracle follow the same law. Excess 2 over five set
    bits, one of which (bit 3, n_p = 1) has zero weight and is never taken."""
    from scipy.stats import chi2

    n, n_orb, word = 20_000, 6, 0b111110
    probs = np.array([0.3, 0.9, 0.6, 1.0, 0.2, 0.45])
    occ = OccupationDistribution(n_up=probs, n_down=np.array([1, 1, 1, 0, 0, 0.0]))
    out = recover(SampleSet(n_orb, [word], [0b000111], [n]), occ, 3, 3, seed=8)
    one_draw = {c.alpha: k for c, k in out.entries.items()}
    rng = np.random.default_rng(8)
    sequential: dict[int, int] = {}
    for _ in range(n):
        w, fallback = oracles.repair_word_sequential(word, n_orb, 3, probs, rng)
        assert not fallback
        sequential[w] = sequential.get(w, 0) + 1
    words = sorted(set(one_draw) | set(sequential))
    assert len(words) == 6 and all(w & 0b1000 for w in words)
    a = np.array([one_draw.get(w, 0) for w in words], float)
    b = np.array([sequential.get(w, 0) for w in words], float)
    stat = float(np.sum((a - b) ** 2 / (a + b)))
    assert stat < chi2.ppf(0.999, len(words) - 1)


def test_recover_partial_zero_weight_fallback(caplog):
    """Alpha: excess 2 with one positive-weight eligible bit; that bit is
    always flipped, the second flip is uniform over the zero-weight bits, and
    every alpha word counts as a fallback hit. Beta: excess 1 with exactly one
    positive-weight bit, which is flipped without a fallback hit."""
    n = 4000
    s = SampleSet(4, [0b0111], [0b0011], [n])
    occ = OccupationDistribution(
        n_up=np.array([1.0, 1.0, 0.5, 0.0]), n_down=np.array([1.0, 0.0, 0.0, 0.0])
    )
    with caplog.at_level("WARNING"):
        out = recover(s, occ, 1, 1, seed=4)
    assert set(out.alpha.tolist()) == {0b0001, 0b0010}
    assert set(out.beta.tolist()) == {0b0001}
    assert abs(out.counts[0] - n / 2) < 4 * np.sqrt(n / 4)
    assert any(f"for {n} shots" in rec.message for rec in caplog.records)


def test_recover_repairs_spins_independently():
    """Alpha and beta words draw their own uniforms: two equally broken
    words with three equal-weight bits end up equal one time in three."""
    n = 6000
    occ = OccupationDistribution(
        n_up=np.array([0.5, 0.5, 0.5, 0.0]), n_down=np.array([0.5, 0.5, 0.5, 0.0])
    )
    out = recover(SampleSet(4, [0b0111], [0b0111], [n]), occ, 2, 2, seed=2)
    same = sum(k for c, k in out.entries.items() if c.alpha == c.beta) / n
    assert abs(same - 1 / 3) < 4 * np.sqrt(2 / 9 / n)


def test_recover_chunking_changes_nothing(monkeypatch):
    s = _random_shots(np.random.default_rng(3), 300, 20)
    occ = init_occupations(s, 3, 3)
    whole = recover(s, occ, 3, 3, seed=6, iteration=2)
    monkeypatch.setattr(engine, "RECOVERY_CHUNK_SHOTS", 7)
    chunked = recover(s, occ, 3, 3, seed=6, iteration=2)
    for name in ("alpha", "beta", "counts"):
        assert np.array_equal(getattr(whole, name), getattr(chunked, name))


# --- batching ------------------------------------------------------------------


def test_draw_batches_shapes_and_determinism():
    words = [0b0011, 0b0101, 0b1001, 0b0110]
    s = SampleSet(4, words, words, [25] * 4)
    b1 = draw_batches(s, k=3, batch_size=40, seed=4)
    b2 = draw_batches(s, k=3, batch_size=40, seed=4)
    assert len(b1) == 3
    for x, y in zip(b1, b2):
        assert x.entries == y.entries
        assert x.total == 40
    # independent batches differ
    assert not all(b1[0].entries == b.entries for b in b1[1:])


def test_draw_batches_with_replacement_when_oversized():
    s = SampleSet(4, [0b0011], [0b0011], [5])
    (batch,) = draw_batches(s, k=1, batch_size=50, seed=1)
    assert batch.total == 50


def test_draw_batches_empty_rejected():
    with pytest.raises(ConfigError):
        draw_batches(SampleSet(n_orb=4), k=2, batch_size=10, seed=0)


def test_update_occupations_uses_converged_only():
    from solvaq.sqd.engine import BatchResult

    good = BatchResult(
        batch_index=0, energy=-1.0, g_solv_kcal=0.0, ci=None, d=4, n_strings=2,
        scrf_iterations=0, converged=True,
        occ_up=np.array([1.0, 0.0]), occ_down=np.array([0.5, 0.5]),
    )
    bad = BatchResult(
        batch_index=1, energy=0.0, g_solv_kcal=0.0, ci=None, d=4, n_strings=2,
        scrf_iterations=0, converged=False,
        occ_up=np.array([0.0, 1.0]), occ_down=np.array([0.0, 1.0]),
    )
    occ = update_occupations([good, bad])
    assert occ.n_up.tolist() == [1.0, 0.0]
    with pytest.raises(ConvergenceError):
        update_occupations([bad])


# --- subspace solves -------------------------------------------------------------


def _casci(problem, basis, tol=1e-10):
    cfg = SQDConfig(k_batches=1, batch_size=1, davidson_tol=tol, scrf_tol=tol)
    return scrf_subspace_solve(problem, basis, cfg)


def test_gas_phase_full_space_equals_oracle_fci(h2_problem):
    basis = full_space(2, 1, 1)
    result = _casci(h2_problem, basis)
    dets = list(zip(*[w.tolist() for w in oracles.determinant_words(basis)]))
    dense = oracles.dense_ci_matrix(h2_problem.base.h_eff, h2_problem.base.eri, dets)
    exact = np.linalg.eigvalsh(dense)[0] + h2_problem.base.e_frozen
    assert result.energy == pytest.approx(exact, abs=1e-10)
    assert result.energy == pytest.approx(-1.1373, abs=1e-3)


def test_water_casci_correlation_sign(water_problem_gas, water_full_space, water):
    result = _casci(water_problem_gas, water_full_space)
    assert result.energy < water.scf.energy  # correlation lowers the energy
    assert result.g_solv_kcal == 0.0
    assert result.scrf_iterations == 0


def test_scrf_matches_independent_dense_reference(
    water_solvated, water_problem_solvated, water_full_space
):
    """The engine's macro-iteration against a from-scratch dense SCRF loop
    (dense eigensolver, explicit reaction-field rebuild each step)."""
    result = _casci(water_problem_solvated, water_full_space)
    problem = water_problem_solvated
    dets = list(zip(*[w.tolist() for w in oracles.determinant_words(water_full_space)]))
    g_ref, g_pol_ref = oracles.dense_scrf_reference(
        dets,
        water_full_space.n_orb,
        problem.base.h_eff,
        problem.base.eri,
        problem.base.e_frozen,
        problem.mo_space.c_active,
        problem.mo_space.frozen_density,
        problem.pcm,
        water_solvated.scf.density,
        tol=1e-12,
    )
    assert result.energy == pytest.approx(g_ref, abs=1e-8)
    assert result.g_solv_kcal == pytest.approx(g_pol_ref * HARTREE_TO_KCAL, abs=1e-5)
    assert result.converged
    assert result.scrf_iterations > 1


def test_scrf_vacuum_dielectric_equals_gas_phase(
    water, water_problem_gas, water_full_space
):
    from solvaq.pcm import DielectricParams, prepare_pcm
    from solvaq.sqd import ActiveSpaceProblem

    pcm = prepare_pcm(water.geometry, water.basis, DielectricParams(1.0 + 1e-12))
    solvated = ActiveSpaceProblem(
        water_problem_gas.mo_space,
        water.integrals.core,
        water.eri,
        water.integrals.e_nuc,
        pcm=pcm,
        scf_operator=pcm.solve(water.scf.density).operator,
    )
    g_solv = _casci(solvated, water_full_space)
    gas = _casci(water_problem_gas, water_full_space)
    assert g_solv.energy == pytest.approx(gas.energy, abs=1e-9)
    assert abs(g_solv.g_solv_kcal) < 1e-6


def test_scrf_nonconvergence_flagged_not_raised(water_problem_solvated, water_full_space):
    cfg = SQDConfig(k_batches=1, batch_size=1, scrf_tol=1e-15, scrf_max_iterations=2)
    result = scrf_subspace_solve(water_problem_solvated, water_full_space, cfg)
    assert not result.converged
    assert result.scrf_iterations == 2
    assert len(result.g_history) == 2
    assert result.energy is not None


def test_solvated_problem_requires_density(water, water_pcm_context, water_problem_gas):
    from solvaq.sqd import ActiveSpaceProblem

    with pytest.raises(ConfigError):
        ActiveSpaceProblem(
            water_problem_gas.mo_space,
            water.integrals.core,
            water.eri,
            water.integrals.e_nuc,
            pcm=water_pcm_context,
        )


# --- end-to-end pipeline -----------------------------------------------------------


def _full_coverage_samples(basis, n_shots, seed):
    ci = np.full(basis.d, 1.0 / np.sqrt(basis.d))
    return sample_exact(ci, basis, n_shots, seed=seed)


def test_full_coverage_sqd_equals_casci_gas(water_problem_gas, water_full_space):
    samples = _full_coverage_samples(water_full_space, 4000, seed=2)
    cfg = SQDConfig(k_batches=2, batch_size=2000, recovery_iterations=1,
                    master_seed=2)
    result = run_sqd(water_problem_gas, samples, cfg)
    ref = _casci(water_problem_gas, water_full_space, tol=1e-8)
    assert result.final_d == water_full_space.d
    assert result.final_energy == pytest.approx(ref.energy, abs=1e-8)
    assert result.hilbert_dimension == 225


def test_variational_bound_and_monotone_iterations(water_problem_gas, water_full_space):
    """Every batch at every recovery iteration sits above the full-space
    minimum (projection can only raise the ground state)."""
    ci = _casci(water_problem_gas, water_full_space, tol=1e-10)
    samples = sample_exact(_casci(water_problem_gas, water_full_space).ci,
                           water_full_space, 600, seed=5)
    noisy = apply_noise(samples, NoiseModel(p=0.05, seed=6))
    cfg = SQDConfig(k_batches=3, batch_size=200, recovery_iterations=3, master_seed=7)
    result = run_sqd(water_problem_gas, noisy, cfg)
    for iteration in result.iterations:
        for batch in iteration:
            assert batch.energy >= ci.energy - 1e-9
    assert result.final_energy >= ci.energy - 1e-9


def test_metadata_recorded(water_problem_gas, water_full_space):
    samples = _full_coverage_samples(water_full_space, 500, seed=3)
    cfg = SQDConfig(k_batches=2, batch_size=100, recovery_iterations=2, master_seed=11)
    result = run_sqd(water_problem_gas, samples, cfg)
    md = result.metadata
    assert md["master_seed"] == 11
    assert md["k_batches"] == 2
    assert md["recovery_iterations"] == 2
    assert md["n_orbitals"] == 6
    assert md["solvated"] is False
    assert md["total_shots"] == 500
    assert len(result.iterations) == 2
    assert all(len(it) == 2 for it in result.iterations)


def test_workers_bit_identical(water_problem_gas, water_full_space):
    samples = _full_coverage_samples(water_full_space, 900, seed=13)
    base = dict(k_batches=3, batch_size=300, recovery_iterations=2, master_seed=13)
    serial = run_sqd(water_problem_gas, samples, SQDConfig(workers=1, **base))
    parallel = run_sqd(water_problem_gas, samples, SQDConfig(workers=3, **base))
    assert serial.final_energy == parallel.final_energy  # exact equality
    assert serial.final_batch_index == parallel.final_batch_index
    for it_s, it_p in zip(serial.iterations, parallel.iterations):
        for b_s, b_p in zip(it_s, it_p):
            assert b_s.energy == b_p.energy
            assert np.array_equal(b_s.ci, b_p.ci)


def test_final_choice_is_lowest_last_iteration_batch(water_problem_gas, water_full_space):
    samples = _full_coverage_samples(water_full_space, 600, seed=17)
    cfg = SQDConfig(k_batches=3, batch_size=150, recovery_iterations=2, master_seed=17)
    result = run_sqd(water_problem_gas, samples, cfg)
    last = result.iterations[-1]
    best = min((b.energy, b.batch_index) for b in last if b.converged)
    assert result.final_energy == best[0]
    assert result.final_batch_index == best[1]


def test_run_sqd_rejects_mismatched_orbital_count(water_problem_gas):
    wrong = SampleSet(4, [0b0011], [0b0011], [10])
    with pytest.raises(ConfigError):
        run_sqd(water_problem_gas, wrong, SQDConfig())


def test_sqd_config_validation():
    with pytest.raises(ConfigError):
        SQDConfig(k_batches=0)
    with pytest.raises(ConfigError):
        SQDConfig(batch_size=0)
    with pytest.raises(ConfigError):
        SQDConfig(recovery_iterations=0)
    with pytest.raises(ConfigError):
        SQDConfig(workers=0)


def test_master_seed_must_be_non_negative():
    with pytest.raises(ConfigError):
        SQDConfig(master_seed=-1)


def test_worker_pool_is_bounded_by_the_cpu_count(monkeypatch, h2_problem):
    """5000 configured workers over 3 batches on 2 CPUs start a pool of 2;
    the fake pool maps in this process, so the test starts none."""
    import concurrent.futures

    sizes = []

    class SerialPool:
        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 2)
    samples = SampleSet(2, [1, 1, 2, 2], [1, 2, 1, 2], [40, 30, 20, 10])
    base = dict(k_batches=3, batch_size=20, recovery_iterations=1, master_seed=3)
    pooled = run_sqd(h2_problem, samples, SQDConfig(workers=5000, **base))
    serial = run_sqd(h2_problem, samples, SQDConfig(workers=1, **base))
    assert sizes == [2]
    assert pooled.final_energy == serial.final_energy
    assert pooled.metadata["workers"] == 5000
