"""Restricted Hartree-Fock: textbook energies, frozen references, invariants."""

import numpy as np
import pytest

from oracles import n_occupied
from solvaq.basis import build_basis, load_basis_table
from solvaq.geometry import parse_geometry
from solvaq.integrals import compute_eri, compute_one_electron
from solvaq.errors import ConfigError
from solvaq.scf import SCFConfig, core_guess, orthogonalizer, run_rhf


def _rhf(xyz, basis_name, unit="angstrom", config=None, charge=0):
    geom = parse_geometry(xyz, unit=unit, charge=charge)
    basis = build_basis(geom, load_basis_table(basis_name))
    return run_rhf(geom, basis, config)


def test_h2_sto3g_energy(h2):
    assert h2.scf.energy == pytest.approx(-1.11675, abs=1e-4)
    assert h2.scf.converged


def test_he_sto3g_energy():
    res = _rhf("1\n\nHe 0 0 0\n", "sto-3g")
    assert res.energy == pytest.approx(-2.80778, abs=1e-4)


def test_water_sto3g_energy_frozen_reference(water):
    # value frozen at first implementation; guards against silent regressions
    assert water.scf.energy == pytest.approx(-74.96302313, abs=1e-7)


def test_water_ccpvdz_energy_frozen_reference():
    res = _rhf(
        "3\n\nO 0 0 0.1173\nH 0 0.7572 -0.4692\nH 0 -0.7572 -0.4692\n", "cc-pvdz"
    )
    assert res.energy == pytest.approx(-76.026772, abs=5e-6)


def test_cation_uses_fewer_electrons():
    res = _rhf("1\n\nHe 0 0 0\n", "sto-3g", charge=2)
    # He2+ has no electrons: the energy is pure nuclear (zero for one atom)
    assert res.energy == pytest.approx(0.0, abs=1e-12)


def test_density_idempotent_and_traced(water):
    s = water.integrals.overlap
    d = water.scf.density
    n_elec = water.geometry.n_electrons
    assert np.trace(d @ s) == pytest.approx(n_elec, abs=1e-9)
    # DSDS = 2 DS for an idempotent RHF density (D = 2 C C^T)
    assert np.allclose(d @ s @ d, 2.0 * d, atol=1e-8)


def test_mo_orthonormality(water):
    c = water.scf.mo_coeff
    s = water.integrals.overlap
    assert np.allclose(c.T @ s @ c, np.eye(c.shape[1]), atol=1e-10)


def test_energy_history_monotone_tail(water):
    energies = [e for e, _ in water.scf.history]
    # after DIIS kicks in the sequence settles monotonically to convergence
    tail = energies[-4:]
    assert all(b <= a + 1e-10 for a, b in zip(tail, tail[1:]))


def test_nonconvergence_is_reported_not_raised():
    cfg = SCFConfig(max_iterations=2, energy_tol=1e-14, diis_tol=1e-14)
    res = _rhf(
        "3\n\nO 0 0 0.1173\nH 0 0.7572 -0.4692\nH 0 -0.7572 -0.4692\n",
        "sto-3g",
        config=cfg,
    )
    assert not res.converged
    assert res.n_iterations == 2


def test_orthogonalizer_property(water):
    s = water.integrals.overlap
    x = orthogonalizer(s)
    assert np.allclose(x.T @ s @ x, np.eye(x.shape[1]), atol=1e-10)


def test_core_guess_electron_count(water):
    s = water.integrals.overlap
    x = orthogonalizer(s)
    d = core_guess(water.integrals.core, x, n_occ=5)
    assert np.trace(d @ s) == pytest.approx(10.0, abs=1e-10)


def test_virtual_orbitals_above_occupied(water):
    eps = water.scf.mo_energy
    n_occ = n_occupied(water.scf)
    assert eps[n_occ - 1] < eps[n_occ]


def test_scf_history_records_every_iteration(water):
    assert len(water.scf.history) == water.scf.n_iterations


@pytest.mark.parametrize("charge", [1, 4, -1000])
def test_electron_count_rhf_cannot_hold_is_a_config_error(charge):
    """Odd (1 electron), negative (-2) and too many (1002 in 2 functions)
    are refused before any integral."""
    with pytest.raises(ConfigError):
        _rhf("2\n\nH 0 0 0\nH 0 0 1.4\n", "sto-3g", unit="bohr", charge=charge)
