"""Blocked Davidson eigensolver against dense diagonalization."""

import tracemalloc

import numpy as np
import pytest

import solvaq.sqd.davidson as davidson
from solvaq.errors import ConvergenceError
from solvaq.sqd import ProjectedHamiltonian, davidson_ground_state, full_space
from solvaq.sqd.davidson import MAX_SUBSPACE


class _DenseOperator:
    """Minimal stand-in exposing the operator protocol Davidson needs."""

    def __init__(self, mat, e_frozen=0.0):
        self._mat = np.asarray(mat, float)
        self.d = self._mat.shape[0]
        self.e_frozen = e_frozen

    def diagonal(self):
        return np.diag(self._mat).copy()

    def matvec(self, x):
        return self._mat @ x


class _TridiagonalOperator:
    """Large stand-in with a cheap matvec: diagonal linspace(0, 5, d),
    off-diagonal 0.3; its dense spectrum forces many restarts."""

    def __init__(self, d):
        self.d = d
        self.e_frozen = 0.0
        self._diag = np.linspace(0.0, 5.0, d)

    def diagonal(self):
        return self._diag.copy()

    def matvec(self, x):
        y = self._diag * x
        y[1:] += 0.3 * x[:-1]
        y[:-1] += 0.3 * x[1:]
        return y


def _random_symmetric(d, seed, diag_spread=10.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d))
    mat = 0.5 * (a + a.T)
    # CI-like structure: dominant, spread-out diagonal
    mat[np.diag_indices(d)] = np.sort(rng.normal(size=d)) * diag_spread
    return mat


@pytest.mark.parametrize("d,seed", [(10, 0), (60, 1), (200, 2), (400, 3)])
def test_matches_dense_ground_state(d, seed):
    mat = _random_symmetric(d, seed)
    op = _DenseOperator(mat)
    res = davidson_ground_state(op, tol=1e-10)
    exact = np.linalg.eigvalsh(mat)[0]
    assert res.converged
    assert res.energy == pytest.approx(exact, abs=1e-9)
    # the Ritz vector satisfies the eigenproblem
    r = mat @ res.vector - (res.energy - op.e_frozen) * res.vector
    assert np.linalg.norm(r) < 1e-7


def test_e_frozen_added_to_energy():
    mat = _random_symmetric(40, 7)
    shift = -3.75
    res = davidson_ground_state(_DenseOperator(mat, e_frozen=shift), tol=1e-10)
    assert res.energy == pytest.approx(np.linalg.eigvalsh(mat)[0] + shift, abs=1e-9)


def test_dimension_one_edge_case():
    op = _DenseOperator(np.array([[4.5]]), e_frozen=1.0)
    res = davidson_ground_state(op)
    assert res.converged
    assert res.energy == pytest.approx(5.5, abs=1e-14)
    assert res.vector.tolist() == [1.0]
    assert res.n_expansions == 0


def test_restart_path_taken_and_still_converges():
    # dense spectrum without diagonal dominance forces many expansions,
    # exceeding one subspace block and triggering the restart
    rng = np.random.default_rng(11)
    a = rng.normal(size=(300, 300))
    mat = 0.5 * (a + a.T)
    op = _DenseOperator(mat)
    res = davidson_ground_state(op, tol=1e-9)
    assert res.converged
    assert res.n_expansions > MAX_SUBSPACE  # proof the restart happened
    assert res.energy == pytest.approx(np.linalg.eigvalsh(mat)[0], abs=1e-8)


def test_search_space_is_never_copied():
    # V and HV hold 2 * MAX_SUBSPACE vectors; a stacked copy of either block
    # would add up to MAX_SUBSPACE more to the peak
    d = 50_000
    op = _TridiagonalOperator(d)
    tracemalloc.start()
    try:
        res = davidson_ground_state(op, tol=1e-8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.converged
    assert res.n_expansions > 5 * MAX_SUBSPACE  # many restarts
    assert peak <= (2 * MAX_SUBSPACE + 12) * d * 8
    r = op.matvec(res.vector) - res.energy * res.vector
    assert np.linalg.norm(r) < 1e-7


def test_expansion_cap_raises(monkeypatch):
    monkeypatch.setattr(davidson, "MAX_EXPANSIONS", 5)
    rng = np.random.default_rng(11)
    a = rng.normal(size=(300, 300))
    op = _DenseOperator(0.5 * (a + a.T))
    with pytest.raises(ConvergenceError, match="did not converge in 5 expansions"):
        davidson_ground_state(op, tol=1e-9)


def test_warm_start_reduces_work(water_problem_gas, water_full_space):
    ham = ProjectedHamiltonian(water_problem_gas.base, water_full_space)
    cold = davidson_ground_state(ham, tol=1e-9)
    warm = davidson_ground_state(ham, guess=cold.vector, tol=1e-9)
    assert warm.converged
    assert warm.n_expansions < cold.n_expansions
    assert warm.energy == pytest.approx(cold.energy, abs=1e-9)


def test_degenerate_ground_state_converges_to_the_eigenvalue():
    rng = np.random.default_rng(13)
    q, _ = np.linalg.qr(rng.normal(size=(50, 50)))
    evals = np.concatenate([[-5.0, -5.0], np.sort(rng.uniform(-4, 5, 48))])
    mat = (q * evals) @ q.T
    res = davidson_ground_state(_DenseOperator(mat), tol=1e-9)
    assert res.converged
    assert res.energy == pytest.approx(-5.0, abs=1e-8)


def test_history_and_result_fields():
    mat = _random_symmetric(80, 21)
    res = davidson_ground_state(_DenseOperator(mat), tol=1e-10)
    assert len(res.history) == res.n_expansions
    # history rows are (ritz value, residual norm); ritz values never rise
    thetas = [theta for theta, _ in res.history]
    assert all(b <= a + 1e-12 for a, b in zip(thetas, thetas[1:]))
    assert res.residual_norm < 1e-10 * max(1.0, abs(res.energy))
    assert np.linalg.norm(res.vector) == pytest.approx(1.0, abs=1e-12)


def test_stagnation_raises_convergence_error():
    # demanding far beyond float precision must fail loudly, not spin forever
    mat = _random_symmetric(120, 31, diag_spread=1.0) * 1e6
    with pytest.raises(ConvergenceError):
        davidson_ground_state(_DenseOperator(mat), tol=1e-300)


def test_guess_orthogonal_noise_still_converges(water_problem_gas, water_full_space):
    ham = ProjectedHamiltonian(water_problem_gas.base, water_full_space)
    rng = np.random.default_rng(5)
    res = davidson_ground_state(ham, guess=rng.normal(size=ham.d), tol=1e-9)
    ref = davidson_ground_state(ham, tol=1e-9)
    assert res.energy == pytest.approx(ref.energy, abs=1e-8)


class _DiagonalOperator:
    """Diagonal stand-in: the preconditioned residual of the guess
    (e0 + e1)/sqrt(2) is that guess again, so it collapses at once."""

    def __init__(self, diag):
        self._diag = np.asarray(diag, float)
        self.d = self._diag.size
        self.e_frozen = 0.0

    def diagonal(self):
        return self._diag.copy()

    def matvec(self, x):
        return self._diag * x


def _counting_argsort(monkeypatch):
    calls = []
    argsort = np.argsort

    def counted(*args, **kwargs):
        calls.append(args)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(davidson.np, "argsort", counted)
    return calls


def test_collapsed_direction_reseeds_from_the_lowest_diagonal(monkeypatch):
    calls = _counting_argsort(monkeypatch)
    op = _DiagonalOperator([2.0, 3.0, 0.5, 4.0, 1.0])
    guess = np.zeros(op.d)
    guess[:2] = 1.0 / np.sqrt(2.0)
    res = davidson_ground_state(op, guess=guess, tol=1e-12)
    assert res.converged
    assert res.energy == 0.5
    assert abs(res.vector[2]) == pytest.approx(1.0, abs=1e-12)
    assert len(calls) == 1  # sorted once, at the collapse


def test_a_solve_without_collapse_never_sorts_the_diagonal(monkeypatch):
    calls = _counting_argsort(monkeypatch)
    mat = _random_symmetric(60, 1)
    res = davidson_ground_state(_DenseOperator(mat), tol=1e-10)
    assert res.converged
    assert res.energy == pytest.approx(np.linalg.eigvalsh(mat)[0], abs=1e-9)
    assert calls == []
