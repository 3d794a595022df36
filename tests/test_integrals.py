"""Gaussian integral engine against closed forms, textbook values, and
an adaptive-quadrature oracle for the Boys function."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import boys, boys_quadrature, esp_integrals, rotated, translated
from solvaq.basis import MAX_L, build_basis, load_basis_table, parse_basis_text
from solvaq.geometry import parse_geometry
import solvaq.integrals as integrals
from solvaq.cli import main
from solvaq.integrals import compute_eri, compute_one_electron, esp_tensor

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


def _spectra(geometry):
    basis = build_basis(geometry, load_basis_table("cc-pvdz"))
    ints = compute_one_electron(geometry, basis)
    n = basis.n_ao
    eri = compute_eri(basis).reshape(n * n, n * n)
    return [np.linalg.eigvalsh(m) for m in (ints.overlap, ints.kinetic, ints.nuclear, eri)]


def test_spectra_invariant_under_rotation_and_translation():
    """O-H at cc-pVDZ (19 AOs, one d shell): a rigid motion only rotates
    each shell's AOs among themselves, so S, T, V and the ERI supermatrix
    keep their spectra. A misnormalized p or d map breaks this."""
    geom = parse_geometry("2\n\nO 0 0 0\nH 0.3 -0.2 0.9\n")
    q, r = np.linalg.qr(np.random.default_rng(11).normal(size=(3, 3)))
    rot = q * np.sign(np.diag(r))
    moved = translated(rotated(geom, rot), [0.7, -1.3, 2.1])
    for before, after in zip(_spectra(geom), _spectra(moved)):
        assert np.abs(before - after).max() < 1e-10


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


# --- water cc-pVDZ: pins, atom order, chunking --------------------------------

WATER_DZ_XYZ = "3\n\nO 0 0 0.1173\nH 0 0.7572 -0.4692\nH 0 -0.7572 -0.4692\n"

# AO pairs, one per angular class; the lower-l AO comes first where the basis
# order puts it first (H shells follow the O shells). AOs: O 1s 2s 3s 2p 3p 3d
# (0-13, p as y z x), then per H 1s 2s 2p (14-18, 19-23).
_CLASS_REPS = {"ss": (14, 1), "ps": (20, 4), "pp": (17, 4),
               "ds": (11, 19), "dp": (21, 10), "dd": (11, 10)}

# one element per class pair, recorded with the shell-quartet engine that
# preceded the class tables
WATER_DZ_ERI_PINS = {
    "ss|ss": 0.1755610344398324, "ps|ss": -0.05225691801966377,
    "ps|ps": 0.05229301473293082, "pp|ss": 0.009991084333048494,
    "pp|ps": 0.0001385759884933306, "pp|pp": 0.015685110227520494,
    "ds|ss": 0.009805987259808486, "ds|ps": -0.014542534844830958,
    "ds|pp": 0.0016499789178207407, "ds|ds": 0.021768655808716446,
    "dp|ss": 0.04966287538410501, "dp|ps": -0.03755316198922247,
    "dp|pp": 0.0028791664382748303, "dp|ds": 0.010702148254454678,
    "dp|dp": 0.06831311589255451, "dd|ss": -0.0027894085310840805,
    "dd|ps": -0.0023030887854184235, "dd|pp": 0.0008881051296416565,
    "dd|ds": 0.002781272443751301, "dd|dp": 0.016295461992410637,
    "dd|dd": 0.03143933912702184,
}

# <mu| 1/|r - C| |nu> at C = (0.3, -0.4, 1.7) bohr, same provenance
WATER_DZ_ESP_PINS = {
    (14, 1): 0.23856029434806414, (20, 4): 0.040035023248629134,
    (11, 19): 0.016883249851900307, (21, 10): 0.0587574692473949,
    (11, 10): -0.058930761370909704, (0, 0): 0.6407786907104723,
}


def _dz(xyz):
    geom = parse_geometry(xyz)
    basis = build_basis(geom, load_basis_table("cc-pvdz"))
    return geom, basis, compute_one_electron(geom, basis), compute_eri(basis)


@pytest.fixture(scope="module")
def water_dz():
    return _dz(WATER_DZ_XYZ)


def test_water_dz_eri_pins_every_class_pair(water_dz):
    eri = water_dz[3]
    assert len(WATER_DZ_ERI_PINS) == 21
    for name, value in WATER_DZ_ERI_PINS.items():
        bra, ket = name.split("|")
        idx = _CLASS_REPS[bra] + _CLASS_REPS[ket]
        assert abs(eri[idx] - value) <= 1e-12, name
        # the same element through the mirrored AO pairs and the bra-ket swap
        a, b, c, d = idx
        for other in ((b, a, c, d), (a, b, d, c), (c, d, a, b), (d, c, b, a)):
            assert abs(eri[other] - value) <= 1e-12, (name, other)


def test_water_dz_esp_pins(water_dz):
    basis = water_dz[1]
    esp = esp_tensor(basis, np.array([[0.3, -0.4, 1.7]]))[0]
    for (mu, nu), value in WATER_DZ_ESP_PINS.items():
        assert abs(esp[mu, nu] - value) <= 1e-12
        assert abs(esp[nu, mu] - value) <= 1e-12


def test_atom_order_only_permutes_the_integrals(water_dz):
    """With the atoms as H, H, O most shell pairs in basis order put the
    lower l first, the other way round from O, H, H; S, T, V and the ERIs
    must be the same matrices with their AOs permuted."""
    _, basis, ints, eri = water_dz
    lines = WATER_DZ_XYZ.strip().splitlines()
    _, basis2, ints2, eri2 = _dz("3\n\n" + "\n".join(lines[3:] + lines[2:3]) + "\n")
    old_atom = {0: 1, 1: 2, 2: 0}
    where = {lab: i for i, lab in enumerate(basis.ao_labels)}
    perm = [where[(old_atom[a], el, sh, m)] for a, el, sh, m in basis2.ao_labels]
    ix = np.ix_(perm, perm)
    for new, old in ((ints2.overlap, ints.overlap), (ints2.kinetic, ints.kinetic),
                     (ints2.nuclear, ints.nuclear)):
        assert np.abs(new - old[ix]).max() <= 1e-12
    assert np.abs(eri2 - eri[np.ix_(perm, perm, perm, perm)]).max() <= 1e-12


def test_chunked_kernel_equals_unchunked_within_its_memory_bound(water_dz, monkeypatch):
    """A chunk constant small enough to split the ss|ss and ps|ps blocks
    gives the same ERIs and ESP, keeps every R array within the constant,
    and keeps the traced peak of compute_eri near the tensor itself."""
    _, basis, _, eri = water_dz
    points = np.random.default_rng(5).normal(scale=3.0, size=(40, 3))
    esp = esp_tensor(basis, points)
    chunk = 20_000
    monkeypatch.setattr(integrals, "_CHUNK_DOUBLES", chunk)
    sizes = []
    real = integrals._hermite_coulomb

    def recording(l_total, rho, pc):
        sizes.append(rho.size * (l_total + 1) ** 4)
        return real(l_total, rho, pc)

    monkeypatch.setattr(integrals, "_hermite_coulomb", recording)
    tables = integrals._pair_tables(basis)
    # shell pairs per class ss, ps, pp, ds, dp, dd, each oriented l_a >= l_b
    assert [tab.C.shape[0] for tab in tables] == [28, 28, 10, 7, 4, 1]
    for tab in tables[:2]:
        before = len(sizes)
        integrals._coulomb(tab, tab)
        assert len(sizes) - before > 1
    tracemalloc.start()
    try:
        chunked = compute_eri(basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.abs(chunked - eri).max() <= 1e-14
    assert np.abs(esp_tensor(basis, points) - esp).max() <= 1e-14
    assert max(sizes) <= chunk
    # every intermediate is within the constant and only a few live at once;
    # the pair tables and the output blocks of water stay under 1 MiB
    assert peak <= eri.nbytes + 16 * 8 * chunk + 2**20


# --- atoms far apart -----------------------------------------------------------


@pytest.mark.parametrize("distance", [10.0, 20.0])
def test_far_apart_atoms(distance, tmp_path):
    """Every primitive product of the two H atoms is screened out: the pair
    contributes zeros, and (00|11) is the Coulomb energy of two unit charges."""
    xyz = f"2\n\nH 0 0 0\nH 0 0 {distance}\n"
    geom = parse_geometry(xyz)
    basis = build_basis(geom, load_basis_table("sto-3g"))
    ints = compute_one_electron(geom, basis)
    eri = compute_eri(basis)
    r = np.linalg.norm(geom.coords[1] - geom.coords[0])
    assert abs(ints.overlap[0, 1]) < 1e-12
    assert abs(eri[0, 0, 1, 1] - 1.0 / r) <= 1e-10
    path = tmp_path / "h2.xyz"
    path.write_text(xyz)
    ini = tmp_path / "far.ini"
    ini.write_text(f"[system]\ngeometry = {path}\n")
    assert main(["scf", "--config", str(ini), "--out", str(tmp_path)]) == 0
