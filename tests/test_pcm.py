"""Continuum-solvation layer: Born ion, Gauss's law, cavity construction,
and the solvated mean field."""

import math

import numpy as np
import pytest

from oracles import solve_surface_charge, write_cavity_csv
from solvaq.constants import HARTREE_TO_KCAL
from solvaq.errors import ConfigError
from solvaq.geometry import parse_geometry
from solvaq.pcm import (
    CavityConfig,
    DielectricParams,
    build_cavity,
    cavity_from_geometry,
    nuclear_surface_potential,
    assemble_operators,
    unit_sphere_grid,
)

BORN_RADIUS = 2.0
BORN_EPS = 80.0
BORN_EXACT = -0.5 * (1.0 - 1.0 / BORN_EPS) / BORN_RADIUS  # -0.246875 hartree


def _born_solution(points_per_sphere: int, eps: float = BORN_EPS):
    surface = build_cavity(
        centers=np.zeros((1, 3)), radii=[BORN_RADIUS], points_per_sphere=points_per_sphere
    )
    ops = assemble_operators(surface)
    phi = 1.0 / np.linalg.norm(surface.points, axis=1)  # unit charge at origin
    return solve_surface_charge(ops, DielectricParams(eps), phi)


def test_born_ion_within_one_percent():
    sol = _born_solution(302)
    assert abs(sol.g_pol - BORN_EXACT) / abs(BORN_EXACT) < 0.01


def test_born_ion_error_decreases_with_grid():
    errors = [abs(_born_solution(n).g_pol - BORN_EXACT) for n in (110, 194, 302, 590)]
    assert errors[0] > errors[1] > errors[2] > errors[3]


def test_gauss_law_total_charge():
    sol = _born_solution(302)
    expected = -(BORN_EPS - 1.0) / BORN_EPS
    assert sol.total_charge == pytest.approx(expected, abs=0.01)


def test_vacuum_limit_charges_vanish():
    sol = _born_solution(302, eps=1.0 + 1e-8)
    assert np.max(np.abs(sol.charges)) <= 1e-6


def test_gauss_law_for_off_center_charge():
    surface = build_cavity(np.zeros((1, 3)), [BORN_RADIUS], points_per_sphere=302)
    ops = assemble_operators(surface)
    src = np.array([0.55, -0.2, 0.3])  # still well inside the cavity
    phi = 1.0 / np.linalg.norm(surface.points - src, axis=1)
    sol = solve_surface_charge(ops, DielectricParams(BORN_EPS), phi)
    assert sol.total_charge == pytest.approx(-(BORN_EPS - 1) / BORN_EPS, abs=0.01)


def test_f_eps_scaling():
    d = DielectricParams(BORN_EPS)
    assert d.f_eps == pytest.approx((BORN_EPS - 1) / (BORN_EPS + 1))
    with pytest.raises(Exception):
        DielectricParams(0.5)  # epsilon below vacuum is unphysical


def test_unit_sphere_grid_counts_and_norms():
    for n in (110, 194, 302, 590):
        pts = unit_sphere_grid(n)
        assert pts.shape == (n, 3)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    with pytest.raises(ConfigError):
        build_cavity(np.zeros((1, 3)), [1.0], points_per_sphere=100)


def test_single_sphere_area():
    surface = build_cavity(np.zeros((1, 3)), [BORN_RADIUS], points_per_sphere=302)
    assert surface.areas.sum() == pytest.approx(4 * math.pi * BORN_RADIUS**2, rel=1e-10)
    assert surface.n_points == 302


def test_two_sphere_cavity_removes_buried_points():
    centers = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.5]])
    surface = build_cavity(centers, [2.0, 2.0], points_per_sphere=110)
    assert surface.n_points < 220
    # no surviving point may lie inside the other sphere
    for c, r in zip(centers, (2.0, 2.0)):
        d = np.linalg.norm(surface.points - c, axis=1)
        assert np.all(d >= r - 1e-9)


def test_cavity_from_geometry_scales_bondi_radii(water):
    surface = cavity_from_geometry(water.geometry, CavityConfig(points_per_sphere=110))
    # oxygen Bondi radius 1.52 A * 1.2 -> 1.824 A in bohr
    expected_max = 1.52 * 1.2 * 1.8897259886
    d_o = np.linalg.norm(surface.points - water.geometry.coords[0], axis=1)
    assert d_o.min() <= expected_max + 1e-9
    # every point sits on one of the scaled spheres
    assert surface.n_points > 0


def test_write_cavity_csv(tmp_path):
    surface = build_cavity(np.zeros((1, 3)), [1.0], points_per_sphere=110)
    path = tmp_path / "cavity.csv"
    write_cavity_csv(surface, path)
    rows = path.read_text().strip().splitlines()
    assert len(rows) == 111  # header + one row per point
    assert rows[0].split(",")[:3] == ["x", "y", "z"]


def test_nuclear_surface_potential_positive(water, water_pcm_context):
    phi = nuclear_surface_potential(water_pcm_context.surface, water.geometry)
    assert np.all(phi > 0)


def test_solve_reuses_the_response_built_with_the_context(
    water_solvated, water_pcm_context, monkeypatch
):
    """Once the context is built, a charge solve is one matvec: it calls no
    linear solver."""

    def refuse(*args, **kwargs):
        raise AssertionError("PCMContext.solve solved the master equation again")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    sol = water_pcm_context.solve(water_solvated.scf.density)
    assert np.array_equal(sol.charges, water_pcm_context.response @ sol.potential)


@pytest.mark.parametrize("eps", [78.3553, 2.0, 1.0])
def test_response_charges_equal_a_direct_solve(water_solvated, water_pcm_context, eps):
    """q = R_f phi from the response matrix matches a direct solve of the
    master equation."""
    ops = assemble_operators(water_pcm_context.surface)
    dielectric = DielectricParams(eps)
    f = dielectric.f_eps
    n = ops.S.shape[0]
    da = ops.D * ops.areas[None, :]
    lhs = (2.0 * math.pi * np.eye(n) - f * da) @ ops.S
    for phi in (water_pcm_context.potential(water_solvated.scf.density),
                water_pcm_context.phi_nuc):
        q = solve_surface_charge(ops, dielectric, phi).charges
        direct = np.linalg.solve(lhs, -f * (2.0 * math.pi * phi - da @ phi))
        assert np.abs(q - direct).max() <= 1e-12


def test_solvated_rhf_stabilizes_water(water, water_solvated):
    scf = water_solvated.scf
    assert scf.converged
    assert scf.g_pol < 0
    # polarization of neutral water in epsilon=78.4 sits in single-digit kcal/mol
    assert -15.0 < scf.g_pol * HARTREE_TO_KCAL < -0.5
    assert scf.energy < water.scf.energy


def test_solvated_energy_includes_g_pol(water_solvated):
    scf = water_solvated.scf
    assert scf.energy == pytest.approx(scf.e_nuc + scf.e_electronic + scf.g_pol, abs=1e-10)


def test_pcm_context_solve_consistency(water_solvated, water_pcm_context):
    sol = water_pcm_context.solve(water_solvated.scf.density)
    phi = water_pcm_context.potential(water_solvated.scf.density)
    assert 0.5 * float(sol.charges @ phi) == pytest.approx(
        water_solvated.scf.g_pol, abs=1e-10
    )
    # neutral solute: total apparent charge near zero by Gauss's law
    assert abs(sol.charges.sum()) < 0.05
