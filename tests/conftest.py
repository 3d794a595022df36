"""Shared fixtures: small systems computed once per session."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from solvaq.active_space import ActiveSpaceSpec, manual_select
from solvaq.basis import AOBasis, build_basis, load_basis_table
from solvaq.geometry import Geometry, parse_geometry
from solvaq.integrals import OneElectronIntegrals, compute_eri, compute_one_electron
from solvaq.pcm import DielectricParams, PCMContext, prepare_pcm
from solvaq.scf import SCFResult, run_rhf
from solvaq.sqd import ActiveSpaceProblem, full_space

WATER_XYZ = "3\n\nO 0 0 0.1173\nH 0 0.7572 -0.4692\nH 0 -0.7572 -0.4692\n"
H2_XYZ = "2\n\nH 0 0 0\nH 0 0 1.4\n"


@dataclass
class System:
    geometry: Geometry
    basis: AOBasis
    integrals: OneElectronIntegrals
    eri: np.ndarray
    scf: SCFResult


def _build(xyz: str, basis_name: str, unit: str = "angstrom", pcm=None) -> System:
    geom = parse_geometry(xyz, unit=unit)
    basis = build_basis(geom, load_basis_table(basis_name))
    ints = compute_one_electron(geom, basis)
    eri = compute_eri(basis)
    scf = run_rhf(geom, basis, integrals=ints, eri=eri, pcm=pcm)
    return System(geom, basis, ints, eri, scf)


@pytest.fixture(scope="session")
def h2() -> System:
    return _build(H2_XYZ, "sto-3g", unit="bohr")


@pytest.fixture(scope="session")
def water() -> System:
    return _build(WATER_XYZ, "sto-3g")


@pytest.fixture(scope="session")
def water_pcm_context(water) -> PCMContext:
    return prepare_pcm(water.geometry, water.basis, DielectricParams(78.3553))


@pytest.fixture(scope="session")
def water_solvated(water, water_pcm_context) -> System:
    scf = run_rhf(
        water.geometry,
        water.basis,
        integrals=water.integrals,
        eri=water.eri,
        pcm=water_pcm_context,
    )
    return System(water.geometry, water.basis, water.integrals, water.eri, scf)


def _valence_problem(system: System, pcm=None) -> ActiveSpaceProblem:
    """Water full-valence space: 6 orbitals, 8 electrons, O 1s frozen."""
    spec = ActiveSpaceSpec(
        mode="manual", orbitals=list(range(1, 7)), n_active_electrons=8
    )
    space = manual_select(system.scf.mo_coeff, system.scf.occupations, spec)
    return ActiveSpaceProblem(
        space,
        system.integrals.core,
        system.eri,
        system.integrals.e_nuc,
        pcm=pcm,
        scf_operator=system.scf.solvent_operator,
    )


@pytest.fixture(scope="session")
def water_problem_gas(water) -> ActiveSpaceProblem:
    return _valence_problem(water)


@pytest.fixture(scope="session")
def water_problem_solvated(water_solvated, water_pcm_context) -> ActiveSpaceProblem:
    return _valence_problem(water_solvated, pcm=water_pcm_context)


@pytest.fixture(scope="session")
def h2_problem(h2) -> ActiveSpaceProblem:
    spec = ActiveSpaceSpec(mode="manual", orbitals=[0, 1], n_active_electrons=2)
    space = manual_select(h2.scf.mo_coeff, h2.scf.occupations, spec)
    return ActiveSpaceProblem(space, h2.integrals.core, h2.eri, h2.integrals.e_nuc)


@pytest.fixture(scope="session")
def water_full_space():
    return full_space(6, 4, 4)
