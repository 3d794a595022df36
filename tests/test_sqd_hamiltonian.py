"""Projected Hamiltonian against an independent dense Slater-Condon oracle.

The oracle (tests/oracles.py) enumerates interleaved spin-orbital
determinants and applies textbook Slater-Condon rules; the engine orders
creation operators alpha-block-first. The two agree elementwise after the
diagonal +-1 phase transform, and exactly for every eigenvalue."""

import tracemalloc

import numpy as np
import pytest

import oracles
import solvaq.sqd.hamiltonian as ham_module
from solvaq.active_space import ActiveHamiltonian
from solvaq.sqd import (
    ExcitationTables,
    ProjectedHamiltonian,
    SubspaceBasis,
    enumerate_strings,
    full_space,
    occupation_numbers,
)


def _random_active(n_orb, seed, e_frozen=0.0):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n_orb, n_orb))
    h = 0.5 * (h + h.T)
    eri = rng.normal(size=(n_orb,) * 4) * 0.3
    eri = eri + eri.transpose(1, 0, 2, 3)
    eri = eri + eri.transpose(0, 1, 3, 2)
    eri = eri + eri.transpose(2, 3, 0, 1)
    return ActiveHamiltonian(
        h_eff=h, eri=eri, e_frozen=e_frozen, n_orbitals=n_orb,
        n_electrons=2 * (n_orb // 2),
    )


def _oracle_matrix(active, basis):
    aw, bw = oracles.determinant_words(basis)
    dets = list(zip(aw.tolist(), bw.tolist()))
    s = oracles.phase_vector(dets)
    dense = oracles.dense_ci_matrix(active.h_eff, active.eri, dets)
    return dense, s, dets


def _random_subspace(n_orb, n_alpha, n_strings, seed):
    rng = np.random.default_rng(seed)
    pool = enumerate_strings(n_orb, n_alpha)
    pick = np.sort(rng.choice(pool, size=n_strings, replace=False))
    return SubspaceBasis(n_orb=n_orb, n_alpha=n_alpha, n_beta=n_alpha, strings=pick)


@pytest.mark.parametrize("n_orb,n_alpha", [(4, 2), (5, 2), (6, 3)])
def test_full_space_matches_oracle(n_orb, n_alpha):
    active = _random_active(n_orb, seed=n_orb)
    basis = full_space(n_orb, n_alpha, n_alpha)
    ham = ProjectedHamiltonian(active, basis)
    dense_oracle, s, _ = _oracle_matrix(active, basis)
    engine = oracles.to_dense(ham)
    aligned = s[:, None] * engine * s[None, :]
    assert np.abs(aligned - dense_oracle).max() < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_subspace_is_exact_projection(seed):
    """H restricted to U x U must equal P H P of the full-space matrix:
    in-space string pairs see the exact Slater-Condon elements."""
    active = _random_active(6, seed=seed + 10)
    basis = _random_subspace(6, 3, n_strings=7, seed=seed)
    ham = ProjectedHamiltonian(active, basis)
    dense_oracle, s, _ = _oracle_matrix(active, basis)
    aligned = s[:, None] * oracles.to_dense(ham) * s[None, :]
    assert np.abs(aligned - dense_oracle).max() < 1e-12


def test_matvec_equals_dense(water_problem_gas, water_full_space):
    ham = ProjectedHamiltonian(water_problem_gas.base, water_full_space)
    dense = oracles.to_dense(ham)
    rng = np.random.default_rng(3)
    for _ in range(3):
        x = rng.normal(size=water_full_space.d)
        assert np.allclose(ham.matvec(x), dense @ x, atol=1e-11)


def test_matvec_linear(water_problem_gas, water_full_space):
    ham = ProjectedHamiltonian(water_problem_gas.base, water_full_space)
    rng = np.random.default_rng(4)
    x, y = rng.normal(size=(2, water_full_space.d))
    lhs = ham.matvec(2.5 * x - 1.5 * y)
    rhs = 2.5 * ham.matvec(x) - 1.5 * ham.matvec(y)
    assert np.allclose(lhs, rhs, atol=1e-11)


def test_dense_is_symmetric(water_problem_gas, water_full_space):
    ham = ProjectedHamiltonian(water_problem_gas.base, water_full_space)
    dense = oracles.to_dense(ham)
    assert np.abs(dense - dense.T).max() < 1e-11


def test_diagonal_matches_dense(water_problem_gas, water_full_space):
    ham = ProjectedHamiltonian(water_problem_gas.base, water_full_space)
    dense = oracles.to_dense(ham)
    assert np.allclose(ham.diagonal(), np.diag(dense), atol=1e-11)


def test_eigenvalues_need_no_phase_transform():
    active = _random_active(5, seed=77, e_frozen=0.5)
    basis = full_space(5, 2, 2)
    ham = ProjectedHamiltonian(active, basis)
    dense_oracle, _, _ = _oracle_matrix(active, basis)
    ev_engine = np.linalg.eigvalsh(oracles.to_dense(ham))
    ev_oracle = np.linalg.eigvalsh(dense_oracle)
    assert np.allclose(ev_engine, ev_oracle, atol=1e-11)


def test_e_frozen_is_a_scalar_shift_outside_the_matrix():
    """The projected matrix holds only the active-space part; the frozen-core
    constant enters the reported eigenvalue as a shift."""
    from solvaq.sqd.davidson import davidson_ground_state

    active0 = _random_active(4, seed=5, e_frozen=0.0)
    active1 = _random_active(4, seed=5, e_frozen=2.25)
    basis = full_space(4, 2, 2)
    ham0 = ProjectedHamiltonian(active0, basis)
    ham1 = ProjectedHamiltonian(active1, basis)
    assert np.allclose(oracles.to_dense(ham0), oracles.to_dense(ham1), atol=1e-14)
    e0 = davidson_ground_state(ham0, tol=1e-10).energy
    e1 = davidson_ground_state(ham1, tol=1e-10).energy
    assert e1 - e0 == pytest.approx(2.25, abs=1e-9)


def test_chunked_matvec_equals_unchunked(monkeypatch, water_problem_gas, water_full_space):
    ham_big = ProjectedHamiltonian(water_problem_gas.base, water_full_space)
    x = np.random.default_rng(8).normal(size=water_full_space.d)
    y_big = ham_big.matvec(x)
    # force the cross-spin contraction through many small blocks of rows
    monkeypatch.setattr(ham_module, "_BLOCK_BYTES", 16_000)
    ham_small = ProjectedHamiltonian(water_problem_gas.base, water_full_space)
    assert len(ham_small._blocks) > len(ham_big._blocks)
    assert max(len(rows) for rows, _, _ in ham_small._blocks) < max(
        len(rows) for rows, _, _ in ham_big._blocks
    )
    assert np.allclose(ham_small.matvec(x), y_big, atol=1e-12)


def test_one_rdm_against_oracle(water_problem_gas, water_full_space):
    from solvaq.sqd.davidson import davidson_ground_state

    ham = ProjectedHamiltonian(water_problem_gas.base, water_full_space)
    res = davidson_ground_state(ham, tol=1e-10)
    aw, bw = oracles.determinant_words(water_full_space)
    dets = list(zip(aw.tolist(), bw.tolist()))
    s = oracles.phase_vector(dets)
    g_a, g_b = ham.one_rdm_spin(res.vector)
    o_a, o_b = oracles.dense_one_rdm(s * res.vector, dets, water_full_space.n_orb)
    assert np.abs(g_a - o_a).max() < 1e-10
    assert np.abs(g_b - o_b).max() < 1e-10
    # spin-summed RDM traces to the electron count
    assert np.trace(g_a + g_b) == pytest.approx(8.0, abs=1e-10)


def test_spin_inversion_symmetry_of_ground_state(water_problem_gas, water_full_space):
    """U x U closure makes psi(a,b) = psi(b,a) for the spin-singlet ground
    state; the spin RD',s must coincide."""
    from solvaq.sqd.davidson import davidson_ground_state

    ham = ProjectedHamiltonian(water_problem_gas.base, water_full_space)
    res = davidson_ground_state(ham, tol=1e-10)
    n = water_full_space.n_strings
    mat = res.vector.reshape(n, n)
    assert np.abs(mat - mat.T).max() < 1e-8
    g_a, g_b = ham.one_rdm_spin(res.vector)
    assert np.abs(g_a - g_b).max() < 1e-8


def test_occupation_numbers(water_problem_gas, water_full_space):
    from solvaq.sqd.davidson import davidson_ground_state

    ham = ProjectedHamiltonian(water_problem_gas.base, water_full_space)
    res = davidson_ground_state(ham, tol=1e-10)
    occ_up, occ_down = occupation_numbers(res.vector, ham)
    assert occ_up.shape == (water_full_space.n_orb,)
    assert (occ_up.sum() + occ_down.sum()) == pytest.approx(8.0, abs=1e-10)
    for occ in (occ_up, occ_down):
        assert np.all(occ > -1e-12) and np.all(occ < 1.0 + 1e-12)


def test_excitation_tables_roundtrip_signs():
    """<u_r|a+_p a_q|u_c> recomputed brute force from the raw table arrays."""
    basis = full_space(5, 3, 3)
    tables = ExcitationTables(basis)
    strings = basis.strings
    n_orb = basis.n_orb
    for row, col, pair, sign in zip(tables.rows, tables.cols, tables.pairs, tables.signs):
        p, q = divmod(int(pair), n_orb)
        w = int(strings[col])
        assert (w >> q) & 1  # q occupied in source string
        w2 = w & ~(1 << q)
        assert not (w2 >> p) & 1  # p empty after removal
        assert int(strings[row]) == w2 | (1 << p)
        # parity: electrons crossed moving q -> p
        lo, hi = (min(p, q), max(p, q))
        between = ((w2 >> (lo + 1)) & ((1 << (hi - lo - 1)) - 1)).bit_count() if hi > lo + 1 else 0
        assert sign == (-1.0) ** between


def _entry_set(rows, cols, pairs, signs):
    return set(zip(rows.tolist(), cols.tolist(), pairs.tolist(), signs.tolist()))


@pytest.mark.parametrize("n_orb,n_alpha,n_strings", [(12, 4, 120), (24, 3, 150)])
def test_excitations_match_the_loop_enumeration(n_orb, n_alpha, n_strings):
    """The XOR-popcount enumeration finds the entries and doubles that
    building every candidate excitation and looking it up finds."""
    basis = _random_subspace(n_orb, n_alpha, n_strings, seed=n_orb)
    assert np.any(basis.strings >> (n_orb - 1))  # the top orbital is occupied
    active = _random_active(n_orb, seed=n_orb + 1)
    tables = ExcitationTables(basis)
    expect = oracles.loop_excitation_entries(basis.strings, n_orb)
    assert _entry_set(tables.rows, tables.cols, tables.pairs, tables.signs) == _entry_set(*expect)
    assert len(tables.rows) == len(expect[0])
    loop = oracles.loop_same_spin_matrix(basis.strings, n_orb, active.eri)
    assert np.abs(tables.same_spin_matrix(active.eri) - loop).max() < 1e-14


def test_blockwise_enumeration_is_independent_of_the_block_size(monkeypatch):
    basis = _random_subspace(12, 4, 120, seed=3)
    eri = _random_active(12, seed=4).eri
    whole = ExcitationTables(basis)
    # 4000 // (8 * 120) = 4 strings per block: 30 blocks
    monkeypatch.setattr(ham_module, "_BLOCK_BYTES", 4000)
    blocks = ExcitationTables(basis)
    for name in ("rows", "cols", "pairs", "signs", "row_lengths"):
        assert np.array_equal(getattr(blocks, name), getattr(whole, name)), name
    assert np.array_equal(blocks.same_spin_matrix(eri), whole.same_spin_matrix(eri))


def _assert_matvec_matches_oracle(ham, active, basis, seed):
    """matvec(x) against the phase-aligned Slater-Condon matrix, which shares
    no code with the excitation tables."""
    dense_oracle, s, _ = _oracle_matrix(active, basis)
    rng = np.random.default_rng(seed)
    for _ in range(2):
        x = rng.normal(size=basis.d)
        assert np.abs(ham.matvec(x) - s * (dense_oracle @ (s * x))).max() < 1e-10


@pytest.mark.parametrize("n_orb,n_alpha,n_strings", [(7, 3, 9), (8, 3, 8), (8, 4, 10)])
def test_matvec_matches_oracle_on_random_subspaces(n_orb, n_alpha, n_strings):
    active = _random_active(n_orb, seed=30 + n_orb)
    basis = _random_subspace(n_orb, n_alpha, n_strings, seed=n_orb + n_alpha)
    ham = ProjectedHamiltonian(active, basis)
    _assert_matvec_matches_oracle(ham, active, basis, seed=n_strings)


def test_matvec_matches_oracle_on_a_near_hf_subspace():
    """The reference plus strings at most two excitations from it, as
    recovered subspaces are: most same-spin elements are nonzero."""
    n_orb, n_alpha = 8, 3
    hf = (1 << n_alpha) - 1
    pool = [
        int(w) for w in enumerate_strings(n_orb, n_alpha) if 0 < (int(w) ^ hf).bit_count() <= 4
    ]
    rng = np.random.default_rng(21)
    strings = np.sort(np.append(rng.choice(pool, size=11, replace=False), hf))
    basis = SubspaceBasis(n_orb=n_orb, n_alpha=n_alpha, n_beta=n_alpha, strings=strings)
    active = _random_active(n_orb, seed=22)
    ham = ProjectedHamiltonian(active, basis)
    assert np.count_nonzero(ham.h_same) > 0.5 * basis.n_strings**2
    _assert_matvec_matches_oracle(ham, active, basis, seed=23)


def test_matvec_with_a_string_without_in_space_singles():
    """A string no single excitation connects to the rest of U: its row
    holds only its n_alpha number-operator entries."""
    n_orb, n_alpha = 8, 3
    lonely = 0b11100000
    pool = [
        int(w) for w in enumerate_strings(n_orb, n_alpha) if (w & lonely).bit_count() <= 1
    ]
    rng = np.random.default_rng(6)
    strings = np.sort(np.append(rng.choice(pool, size=8, replace=False), lonely))
    basis = SubspaceBasis(n_orb=n_orb, n_alpha=n_alpha, n_beta=n_alpha, strings=strings)
    active = _random_active(n_orb, seed=61)
    ham = ProjectedHamiltonian(active, basis)
    row = int(np.searchsorted(strings, lonely))
    t = ham.tables
    assert t.row_lengths[row] == n_alpha < t.row_lengths.max()
    mine = t.rows == row
    assert np.array_equal(t.cols[mine], [row] * n_alpha)
    assert np.array_equal(t.pairs[mine], [p * (n_orb + 1) for p in (5, 6, 7)])
    assert np.array_equal(t.signs[mine], np.ones(n_alpha))
    _assert_matvec_matches_oracle(ham, active, basis, seed=7)


def test_matvec_on_a_one_string_subspace():
    active = _random_active(7, seed=71)
    basis = SubspaceBasis(n_orb=7, n_alpha=3, n_beta=3, strings=[0b0101010])
    ham = ProjectedHamiltonian(active, basis)
    assert ham.tables.row_lengths.tolist() == [3]
    _assert_matvec_matches_oracle(ham, active, basis, seed=8)


def test_matvec_on_a_space_without_electrons():
    """n_alpha = 0: one empty string, no table entries, H = 0."""
    active = _random_active(4, seed=72)
    basis = full_space(4, 0, 0)
    ham = ProjectedHamiltonian(active, basis)
    assert len(ham.tables.rows) == 0
    assert ham.diagonal().tolist() == [0.0]
    _assert_matvec_matches_oracle(ham, active, basis, seed=73)


def test_matvec_with_uneven_chunks_matches_oracle(monkeypatch):
    n_orb, n_strings = 7, 13
    active = _random_active(n_orb, seed=81)
    basis = _random_subspace(n_orb, 3, n_strings, seed=82)
    n_packed = n_orb * (n_orb + 1) // 2
    monkeypatch.setattr(ham_module, "_BLOCK_BYTES", 8 * 5 * n_packed * n_strings)
    ham = ProjectedHamiltonian(active, basis)
    sizes = [len(rows) for rows, _, _ in ham._blocks]
    assert max(sizes) == 5 and min(sizes) < 5
    _assert_matvec_matches_oracle(ham, active, basis, seed=9)


def test_blocks_cut_at_row_lengths_and_at_the_byte_budget(monkeypatch):
    """Each block holds rows of one length, its GEMM output within the
    budget, and every row lies in exactly one block."""
    n_orb, n_strings = 8, 24
    active = _random_active(n_orb, seed=83)
    basis = _random_subspace(n_orb, 3, n_strings, seed=84)
    whole = ProjectedHamiltonian(active, basis)
    lengths = whole.tables.row_lengths
    assert len(np.unique(lengths)) >= 3
    assert np.bincount(lengths).max() > 2  # so a length group is split below
    n_packed = n_orb * (n_orb + 1) // 2
    budget = 8 * 2 * n_packed * n_strings
    monkeypatch.setattr(ham_module, "_BLOCK_BYTES", budget)
    ham = ProjectedHamiltonian(active, basis)
    rows = [block[0] for block in ham._blocks]
    assert len(rows) > len(np.unique(lengths))
    assert np.array_equal(np.sort(np.concatenate(rows)), np.arange(n_strings))
    for r, cols, v3 in ham._blocks:
        assert len(np.unique(lengths[r])) == 1
        assert cols.shape == (len(r), lengths[r[0]])
        assert v3.shape == (len(r), n_packed, lengths[r[0]])
        assert 8 * len(r) * n_packed * n_strings <= budget
    _assert_matvec_matches_oracle(ham, active, basis, seed=85)
    x = np.random.default_rng(86).normal(size=basis.d)
    assert np.abs(ham.matvec(x) - whole.matvec(x)).max() < 1e-12


def test_matvec_memory_stays_within_two_vectors_and_one_block():
    """On the (8e, 10o) full space (d = 44,100) one matvec holds at most two
    d-vectors (sigma and one same-spin GEMM product), one block's gather and
    two L2-sized GEMM blocks of 512 KiB."""
    ham = ProjectedHamiltonian(_random_active(10, seed=87), full_space(10, 4, 4))
    x = np.random.default_rng(88).normal(size=ham.d)
    gather = 8 * len(ham.tables.cols) * max(len(rows) for rows, _, _ in ham._blocks)
    tracemalloc.start()
    try:
        ham.matvec(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * ham.d + gather + 2 * (1 << 19)


@pytest.mark.parametrize("axes", [(1, 0, 2, 3), (0, 1, 3, 2)])
def test_eri_without_pair_symmetry_is_rejected(axes):
    """Packed pairs assume (pq|rs) = (qp|rs) = (pq|sr) to within 1e-10."""
    active = _random_active(5, seed=91)
    skew = np.random.default_rng(92).normal(size=active.eri.shape)
    skew -= skew.transpose(axes)
    basis = full_space(5, 2, 2)

    def build(scale):
        eri = active.eri + scale * skew
        return ProjectedHamiltonian(
            ActiveHamiltonian(h_eff=active.h_eff, eri=eri, e_frozen=0.0,
                              n_orbitals=5, n_electrons=4),
            basis,
        )

    with pytest.raises(ValueError, match="ERIs must satisfy"):
        build(1e-6)
    build(1e-12)


def test_swapped_one_body_is_bit_identical_to_a_fresh_build(
    water_problem_solvated, water_full_space
):
    """The reaction-field loop swaps h_eff and e_frozen into one Hamiltonian;
    that must give exactly what a fresh build from the new operator gives."""
    problem = water_problem_solvated
    ham = ProjectedHamiltonian(problem.with_solvent(problem.scf_field),
                               water_full_space)
    gamma = np.diag([2.0, 1.9, 1.8, 1.7, 0.4, 0.2])
    field = problem.reaction_field(gamma)
    ham.set_one_body(problem.with_solvent(field))
    fresh = ProjectedHamiltonian(problem.with_solvent(field), water_full_space)
    assert ham.e_frozen == fresh.e_frozen
    assert np.array_equal(ham.diagonal(), fresh.diagonal())
    x = np.random.default_rng(12).normal(size=water_full_space.d)
    assert np.array_equal(ham.matvec(x), fresh.matvec(x))


def test_swapping_in_other_eris_is_rejected(water_problem_gas, water_full_space):
    ham = ProjectedHamiltonian(water_problem_gas.base, water_full_space)
    other = _random_active(6, seed=13)
    with pytest.raises(ValueError, match="ERIs"):
        ham.set_one_body(other)
