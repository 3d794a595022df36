"""Gaussian integral engine against closed forms, textbook values, and
an adaptive-quadrature oracle for the Boys function."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import boys, boys_quadrature, esp_integrals
from solvaq.basis import MAX_L, build_basis, parse_basis_text
from solvaq.geometry import parse_geometry
from solvaq.integrals import compute_eri, compute_one_electron

# --- Boys function ----------------------------------------------------------


def test_boys_pinned_value():
    assert boys(0, 1.0)[0] == pytest.approx(0.7468241328124272, abs=1e-12)


def test_boys_at_zero():
    vals = boys(6, 0.0)
    expect = [1.0 / (2 * m + 1) for m in range(7)]
    assert np.allclose(vals, expect, atol=1e-14)


def test_boys_large_t_closed_form():
    # F_0(t) = (1/2) sqrt(pi/t) erf(sqrt(t))
    for t in (40.0, 80.0, 300.0):
        exact = 0.5 * math.sqrt(math.pi / t) * math.erf(math.sqrt(t))
        assert boys(0, t)[0] == pytest.approx(exact, rel=1e-13)


def test_boys_continuous_across_branch_switch():
    lo = boys(8, 34.999999)
    hi = boys(8, 35.000001)
    assert np.allclose(lo, hi, rtol=1e-8)


@settings(max_examples=25, deadline=None)
@given(
    # an ERI over four shells of angular momentum MAX_L needs F_0..F_{4 MAX_L}
    m=st.integers(min_value=0, max_value=4 * MAX_L),
    t=st.floats(min_value=0.0, max_value=150.0, allow_nan=False),
)
def test_boys_matches_quadrature(m, t):
    vals = boys(m, t)
    assert vals[m] == pytest.approx(boys_quadrature(m, t), rel=1e-10, abs=1e-13)


@pytest.mark.parametrize("t", [35.0, 35.5, 36.0, 41.7, 48.0, 60.0])
def test_boys_closed_form_branch_matches_quadrature(t):
    """From t = 35 on, F_0 = sqrt(pi/(4t)) without the erf factor: within one
    ulp of the erf form, and every order still matches the quadrature."""
    vals = boys(8, t)
    with_erf = 0.5 * math.sqrt(math.pi / t) * math.erf(math.sqrt(t))
    assert abs(vals[0] - with_erf) <= math.ulp(with_erf)
    for m in range(9):
        assert vals[m] == pytest.approx(boys_quadrature(m, t), rel=1e-10, abs=1e-13)


def test_boys_downward_recursion_stability():
    # the hardest regime: high order just below the branch switch
    t = 34.5
    vals = boys(10, t)
    for m in (0, 5, 10):
        assert vals[m] == pytest.approx(boys_quadrature(m, t), rel=1e-11)


# --- textbook H2 / STO-3G values (R = 1.4 bohr) ------------------------------


def test_h2_overlap_textbook(h2):
    s = h2.integrals.overlap
    assert s[0, 1] == pytest.approx(0.6593, abs=2e-4)


def test_h2_kinetic_textbook(h2):
    t = h2.integrals.kinetic
    assert t[0, 0] == pytest.approx(0.7600, abs=2e-4)
    assert t[0, 1] == pytest.approx(0.2365, abs=2e-4)


def test_h2_core_hamiltonian_textbook(h2):
    h = h2.integrals.core
    assert h[0, 0] == pytest.approx(-1.1204, abs=2e-4)
    assert h[0, 1] == pytest.approx(-0.9584, abs=2e-4)


def test_h2_eri_textbook(h2):
    g = h2.eri
    assert g[0, 0, 0, 0] == pytest.approx(0.7746, abs=2e-4)
    assert g[0, 0, 1, 1] == pytest.approx(0.5697, abs=2e-4)
    assert g[1, 0, 0, 0] == pytest.approx(0.4441, abs=2e-4)
    assert g[1, 0, 1, 0] == pytest.approx(0.2970, abs=2e-4)


# --- closed forms and symmetries ---------------------------------------------


def test_single_primitive_self_repulsion_closed_form():
    # one normalized s primitive: (00|00) = 2 sqrt(alpha/pi)
    alpha = 0.8125
    geom = parse_geometry("1\n\nH 0 0 0\n")
    basis = build_basis(geom, parse_basis_text(f"H\nS 1\n {alpha} 1.0\n****\n"))
    g = compute_eri(basis)
    assert g[0, 0, 0, 0] == pytest.approx(2.0 * math.sqrt(alpha / math.pi), rel=1e-12)


def test_one_electron_matrices_symmetric(water):
    for mat in (water.integrals.overlap, water.integrals.kinetic, water.integrals.core):
        assert np.allclose(mat, mat.T, atol=1e-12)


def test_eri_eightfold_symmetry(water):
    g = water.eri
    assert np.allclose(g, g.transpose(1, 0, 2, 3), atol=1e-12)
    assert np.allclose(g, g.transpose(0, 1, 3, 2), atol=1e-12)
    assert np.allclose(g, g.transpose(2, 3, 0, 1), atol=1e-12)


def test_eri_positive_definite_diagonal(water):
    n = water.basis.n_ao
    g = water.eri.reshape(n * n, n * n)
    # (munu|munu) >= 0: diagonal of the Coulomb supermatrix
    assert np.all(np.diag(g) >= 0)


def test_d_shell_integrals_match_quadrature_free_identity():
    # cc-pVDZ oxygen atom: trace of the Coulomb supermatrix must be finite and
    # every shell-pair block symmetric; spot-check (dd|dd) self-repulsion > 0
    geom = parse_geometry("1\n\nO 0 0 0\n")
    basis = build_basis(geom, __import__("solvaq.basis", fromlist=["load_basis_table"]).load_basis_table("cc-pvdz"))
    g = compute_eri(basis)
    assert np.allclose(g, g.transpose(2, 3, 0, 1), atol=1e-11)
    d0 = basis.n_ao - 5  # last 5 AOs are the d shell
    assert g[d0, d0, d0, d0] > 0


# --- electrostatic potential integrals ----------------------------------------


def test_esp_far_field_is_overlap_over_distance(water):
    point = np.array([0.0, 0.0, 60.0])
    v = esp_integrals(water.basis, point)
    r = np.linalg.norm(point)
    # multipole expansion: <mu|1/|r-P||nu> -> S_mu_nu / |P| as |P| -> inf
    assert np.allclose(v, water.integrals.overlap / r, atol=3e-4)


def test_esp_matches_nuclear_attraction_at_nucleus(water):
    # summing Z_A * esp(at nucleus A) reproduces the nuclear-attraction matrix
    v_sum = np.zeros_like(water.integrals.overlap)
    for z, center in zip(water.geometry.numbers, water.geometry.coords):
        v_sum -= z * esp_integrals(water.basis, center)
    assert np.allclose(v_sum, water.integrals.nuclear, atol=1e-10)
