"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

Each test states its numerical claim and budget in the docstring and asserts
exactly that. Statistical claims run at fixed seeds, so every number here is
reproducible bit for bit.
"""

import statistics
import time

import numpy as np
import pytest

import oracles
from solvaq.active_space import ActiveSpaceSpec, manual_select, select_active_space
from solvaq.basis import build_basis, load_basis_table
from solvaq.constants import HARTREE_TO_KCAL
from solvaq.geometry import parse_geometry
from solvaq.integrals import compute_eri, compute_one_electron
from oracles import solve_surface_charge
from solvaq.pcm import DielectricParams, assemble_operators, build_cavity, prepare_pcm
from solvaq.sampling import NoiseModel, apply_noise, sample_exact
from solvaq.scf import run_rhf
from solvaq.sqd import (
    ActiveSpaceProblem,
    ProjectedHamiltonian,
    SQDConfig,
    SubspaceBasis,
    build_subspace,
    davidson_ground_state,
    full_space,
    hilbert_dimension,
    run_sqd,
    scrf_subspace_solve,
)
from solvaq.sqd.engine import init_occupations, recover

TIGHT = SQDConfig(k_batches=1, batch_size=1, davidson_tol=1e-10, scrf_tol=1e-10)


def _uniform_full_coverage_run(problem, basis, n_shots, seed, k=2):
    """Sample the uniform reference vector (any normalized vector drives the
    identical downstream pipeline) so every determinant appears, then run
    with batch_size = total shots: each batch holds the whole multiset."""
    ci = np.full(basis.d, 1.0 / np.sqrt(basis.d))
    samples = sample_exact(ci, basis, n_shots, seed=seed)
    cfg = SQDConfig(
        k_batches=k,
        batch_size=n_shots,
        recovery_iterations=1,
        davidson_tol=1e-10,
        scrf_tol=1e-10,
        master_seed=seed,
    )
    return run_sqd(problem, samples, cfg)


@pytest.fixture(scope="module")
def h2_solvated_problem(h2):
    pcm = prepare_pcm(h2.geometry, h2.basis, DielectricParams(78.3553))
    scf = run_rhf(h2.geometry, h2.basis, integrals=h2.integrals, eri=h2.eri, pcm=pcm)
    spec = ActiveSpaceSpec(mode="manual", orbitals=[0, 1], n_active_electrons=2)
    space = manual_select(scf.mo_coeff, scf.occupations, spec)
    return ActiveSpaceProblem(
        space, h2.integrals.core, h2.eri, h2.integrals.e_nuc,
        pcm=pcm, scf_density=scf.density,
    )


# -----------------------------------------------------------------------------
# 1. Born ion: discrete polarization energy within 1% of the analytic value,
#    error strictly decreasing under grid refinement; under 5 s.
# -----------------------------------------------------------------------------


def test_criterion_1_born_ion():
    t0 = time.perf_counter()
    exact = -0.5 * (1.0 - 1.0 / 80.0) / 2.0  # -0.246875 hartree
    errors = []
    for n in (110, 194, 302, 590):
        surface = build_cavity(np.zeros((1, 3)), [2.0], points_per_sphere=n)
        ops = assemble_operators(surface)
        phi = 1.0 / np.linalg.norm(surface.points, axis=1)
        sol = solve_surface_charge(ops, DielectricParams(80.0), phi)
        assert abs(sol.g_pol - exact) / abs(exact) < 0.01
        errors.append(abs(sol.g_pol - exact))
    assert errors[0] > errors[1] > errors[2] > errors[3]
    assert time.perf_counter() - t0 < 5.0


# -----------------------------------------------------------------------------
# 2. Gauss's law: total apparent charge -(eps-1)/eps +- 0.01 for a unit
#    enclosed charge; vacuum limit leaves every charge below 1e-6.
# -----------------------------------------------------------------------------


def test_criterion_2_gauss_law():
    surface = build_cavity(np.zeros((1, 3)), [2.0], points_per_sphere=302)
    ops = assemble_operators(surface)
    phi = 1.0 / np.linalg.norm(surface.points, axis=1)

    sol = solve_surface_charge(ops, DielectricParams(80.0), phi)
    assert sol.charges.sum() == pytest.approx(-(80.0 - 1.0) / 80.0, abs=0.01)

    vacuum = solve_surface_charge(ops, DielectricParams(1.0 + 1e-8), phi)
    assert np.max(np.abs(vacuum.charges)) <= 1e-6


# -----------------------------------------------------------------------------
# 3. Mean field: H2/STO-3G at 1.4 bohr -1.11675 +- 1e-4 and He/STO-3G
#    -2.80778 +- 1e-4, each solve under 1 s.
# -----------------------------------------------------------------------------


def test_criterion_3_rhf_references():
    h2 = parse_geometry("2\n\nH 0 0 0\nH 0 0 1.4\n", unit="bohr")
    basis = build_basis(h2, load_basis_table("sto-3g"))
    t0 = time.perf_counter()
    res = run_rhf(h2, basis)
    assert time.perf_counter() - t0 < 1.0
    assert res.energy == pytest.approx(-1.11675, abs=1e-4)

    he = parse_geometry("1\n\nHe 0 0 0\n")
    basis = build_basis(he, load_basis_table("sto-3g"))
    t0 = time.perf_counter()
    res = run_rhf(he, basis)
    assert time.perf_counter() - t0 < 1.0
    assert res.energy == pytest.approx(-2.80778, abs=1e-4)


# -----------------------------------------------------------------------------
# 4. Exactness at full coverage: when the sampled subspace reaches the whole
#    determinant space, the pipeline energy equals the full-space reference
#    to 1e-8 hartree - gas and solvated, H2 and water full valence; < 2 min.
# -----------------------------------------------------------------------------


def test_criterion_4_full_coverage_equals_casci(
    h2_problem, h2_solvated_problem, water_problem_gas, water_problem_solvated,
    water_full_space,
):
    t0 = time.perf_counter()
    cases = [
        (h2_problem, full_space(2, 1, 1), 400),
        (h2_solvated_problem, full_space(2, 1, 1), 400),
        (water_problem_gas, water_full_space, 4000),
        (water_problem_solvated, water_full_space, 4000),
    ]
    for problem, basis, shots in cases:
        reference = scrf_subspace_solve(problem, basis, TIGHT)
        result = _uniform_full_coverage_run(problem, basis, shots, seed=42)
        assert result.final_d == basis.d  # coverage achieved, then exactness:
        assert result.final_energy == pytest.approx(reference.energy, abs=1e-8)
    assert time.perf_counter() - t0 < 120.0


# -----------------------------------------------------------------------------
# 5. Determinant-space bookkeeping: exact binomial dimensions, instant.
# -----------------------------------------------------------------------------


def test_criterion_5_hilbert_dimensions():
    hilbert_dimension(4, 2, 2)  # warm the code path
    t0 = time.perf_counter()
    assert hilbert_dimension(12, 7, 7) == 627264
    assert hilbert_dimension(13, 7, 7) == 2944656
    assert hilbert_dimension(18, 10, 10) == 1914762564
    assert hilbert_dimension(23, 4, 4) == 78411025
    assert time.perf_counter() - t0 < 1e-3


# -----------------------------------------------------------------------------
# 6. Noise + recovery convergence: solvated water full valence, 2% bit-flip
#    noise, K=3 batches, 3 recovery iterations; the median final gap over
#    seeds {101..505} must not increase with the per-batch shot budget
#    {100, 250, 600, 1500} and must fall below 1.6 mEh at 1500; < 10 min.
# -----------------------------------------------------------------------------


def test_criterion_6_recovery_convergence_with_shots(
    water_problem_solvated, water_full_space
):
    t0 = time.perf_counter()
    reference = scrf_subspace_solve(water_problem_solvated, water_full_space, TIGHT)
    ref_ci = reference.ci

    k = 3
    shot_list = [100, 250, 600, 1500]
    seeds = [101, 202, 303, 404, 505]
    medians = []
    for batch_size in shot_list:
        gaps = []
        for seed in seeds:
            samples = sample_exact(
                ref_ci, water_full_space, k * batch_size, seed=seed
            )
            noisy = apply_noise(samples, NoiseModel(p=0.02, seed=seed))
            cfg = SQDConfig(
                k_batches=k, batch_size=batch_size, recovery_iterations=3,
                master_seed=seed,
            )
            result = run_sqd(water_problem_solvated, noisy, cfg)
            gap = result.final_energy - reference.energy
            assert gap >= -1e-9  # variational at every shot budget
            gaps.append(gap)
        medians.append(statistics.median(gaps))
    for lo, hi in zip(medians, medians[1:]):
        assert hi <= lo + 1e-12  # non-increasing with the shot budget
    assert medians[-1] < 1.6e-3
    assert time.perf_counter() - t0 < 600.0


# -----------------------------------------------------------------------------
# 7. Solvation free energy: at full coverage the sampled pipeline reproduces
#    the reference G_solv within 0.05 kcal/mol, and neutral polar molecules
#    come out stabilized (G_solv < 0); < 2 min.
# -----------------------------------------------------------------------------


def test_criterion_7_solvation_energies(water_problem_solvated, water_full_space):
    t0 = time.perf_counter()
    reference = scrf_subspace_solve(water_problem_solvated, water_full_space, TIGHT)
    result = _uniform_full_coverage_run(
        water_problem_solvated, water_full_space, 4000, seed=9
    )
    assert result.final_g_solv_kcal == pytest.approx(
        reference.g_solv_kcal, abs=0.05
    )
    assert reference.g_solv_kcal < 0.0  # water is stabilized

    # second neutral polar molecule: methanol, automatic O-2p active space
    methanol = parse_geometry(
        "6\nmethanol\nC -0.0463 0.6624 0\nO -0.0463 -0.7548 0\n"
        "H -1.0928 0.976 0\nH 0.4375 1.0723 0.8899\n"
        "H 0.4375 1.0723 -0.8899\nH 0.8608 -1.0572 0\n"
    )
    basis = build_basis(methanol, load_basis_table("sto-3g"))
    ints = compute_one_electron(methanol, basis)
    eri = compute_eri(basis)
    pcm = prepare_pcm(methanol, basis, DielectricParams(78.3553))
    scf = run_rhf(methanol, basis, integrals=ints, eri=eri, pcm=pcm)
    spec = ActiveSpaceSpec(mode="avas", targets=["O 2p"], threshold=0.2)
    space = select_active_space(scf, ints.overlap, basis, spec)
    problem = ActiveSpaceProblem(
        space, ints.core, eri, ints.e_nuc, pcm=pcm, scf_density=scf.density
    )
    cas = scrf_subspace_solve(
        problem, full_space(space.n_active, problem.n_alpha, problem.n_alpha), TIGHT
    )
    assert cas.g_solv_kcal < 0.0
    assert time.perf_counter() - t0 < 120.0


# -----------------------------------------------------------------------------
# 8. Recovery restores particle-number symmetry completely: after S-CORE,
#    100% of 1e5 noisy shots carry the target (N_alpha, N_beta); the built
#    subspace is closed under spin inversion with d = |U|^2.
# -----------------------------------------------------------------------------


def test_criterion_8_recovery_restores_symmetry(water_problem_gas, water_full_space):
    reference = scrf_subspace_solve(water_problem_gas, water_full_space, TIGHT)
    samples = sample_exact(reference.ci, water_full_space, 100_000, seed=31)
    noisy = apply_noise(samples, NoiseModel(p=0.05, seed=31))

    # noise breaks most shots; recovery must fix every single one
    occ = init_occupations(noisy, 4, 4)
    recovered = recover(noisy, occ, 4, 4, seed=31)
    assert recovered.total == 100_000
    n_correct = sum(
        count
        for config, count in recovered.entries.items()
        if bin(config.alpha).count("1") == 4 and bin(config.beta).count("1") == 4
    )
    assert n_correct == 100_000  # 100%, not a fraction

    basis = build_subspace(recovered, 4, 4)
    assert basis.d == basis.n_strings ** 2
    strings = set(basis.strings.tolist())
    for config in recovered.entries:
        assert config.alpha in strings and config.beta in strings
        assert {config.beta, config.alpha} <= strings  # spin inversion


# -----------------------------------------------------------------------------
# 9. Eigensolver guarantees: subspace energies are variational (>= full-space
#    ground state - 1e-9), nested subspaces are monotone (U1 in U2 implies
#    E(U2) <= E(U1) + 1e-10), and the iterative solver matches a dense
#    eigensolver to 1e-9 for d <= 2000.
# -----------------------------------------------------------------------------


def test_criterion_9a_variational_bound(
    water_problem_gas, water_problem_solvated, water_full_space
):
    for problem in (water_problem_gas, water_problem_solvated):
        reference = scrf_subspace_solve(problem, water_full_space, TIGHT)
        samples = sample_exact(
            scrf_subspace_solve(problem, water_full_space, TIGHT).ci,
            water_full_space, 900, seed=23,
        )
        noisy = apply_noise(samples, NoiseModel(p=0.05, seed=23))
        cfg = SQDConfig(k_batches=3, batch_size=300, recovery_iterations=3,
                        master_seed=23)
        result = run_sqd(problem, noisy, cfg)
        for iteration in result.iterations:
            for batch in iteration:
                if batch.converged:
                    assert batch.energy >= reference.energy - 1e-9


def test_criterion_9b_nested_subspace_monotonicity(water_problem_gas, water_full_space):
    strings = water_full_space.strings
    energies = []
    for n_keep in (4, 8, 11, 15):
        basis = SubspaceBasis(
            n_orb=6, n_alpha=4, n_beta=4, strings=strings[:n_keep]
        )
        ham = ProjectedHamiltonian(water_problem_gas.base, basis)
        energies.append(davidson_ground_state(ham, tol=1e-11).energy)
    for bigger, smaller in zip(energies[1:], energies):
        assert bigger <= smaller + 1e-10


def test_criterion_9c_davidson_matches_dense_to_d2000():
    rng = np.random.default_rng(41)
    n_orb = 7
    h = rng.normal(size=(n_orb, n_orb))
    h = 0.5 * (h + h.T)
    eri = rng.normal(size=(n_orb,) * 4) * 0.25
    eri = eri + eri.transpose(1, 0, 2, 3)
    eri = eri + eri.transpose(0, 1, 3, 2)
    eri = eri + eri.transpose(2, 3, 0, 1)
    from solvaq.active_space import ActiveHamiltonian

    active = ActiveHamiltonian(h_eff=h, eri=eri, e_frozen=-3.0,
                               n_orbitals=n_orb, n_electrons=6)
    basis = full_space(n_orb, 3, 3)  # 35 strings -> d = 1225
    assert basis.d <= 2000
    ham = ProjectedHamiltonian(active, basis)
    dense_min = np.linalg.eigvalsh(oracles.to_dense(ham))[0] + active.e_frozen
    result = davidson_ground_state(ham, tol=1e-10)
    assert result.converged
    assert result.energy == pytest.approx(dense_min, abs=1e-9)


# -----------------------------------------------------------------------------
# 10. Worker-count invariance: the full result object is bit-identical
#     between serial and parallel batch execution.
# -----------------------------------------------------------------------------


def test_criterion_10_worker_determinism(water_problem_solvated, water_full_space):
    reference = scrf_subspace_solve(water_problem_solvated, water_full_space, TIGHT)
    samples = sample_exact(reference.ci, water_full_space, 600, seed=57)
    noisy = apply_noise(samples, NoiseModel(p=0.02, seed=57))
    base = dict(k_batches=3, batch_size=200, recovery_iterations=2, master_seed=57)
    serial = run_sqd(water_problem_solvated, noisy, SQDConfig(workers=1, **base))
    parallel = run_sqd(water_problem_solvated, noisy, SQDConfig(workers=3, **base))

    assert serial.final_energy == parallel.final_energy
    assert serial.final_g_solv_kcal == parallel.final_g_solv_kcal
    assert serial.final_batch_index == parallel.final_batch_index
    assert serial.final_d == parallel.final_d
    for it_s, it_p in zip(serial.iterations, parallel.iterations):
        for b_s, b_p in zip(it_s, it_p):
            assert b_s.energy == b_p.energy
            assert b_s.g_solv_kcal == b_p.g_solv_kcal
            assert b_s.scrf_iterations == b_p.scrf_iterations
            assert np.array_equal(b_s.ci, b_p.ci)
            assert np.array_equal(b_s.occ_up, b_p.occ_up)
