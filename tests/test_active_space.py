"""Active-space selection (AVAS / manual), frozen-core folding, FCIDUMP IO."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fcidump_read_minimal, transform_eri_elementwise
from solvaq.active_space import (
    MAX_ACTIVE_ORBITALS,
    ActiveSpaceSpec,
    avas_select,
    fcidump_read,
    fcidump_write,
    manual_select,
    select_active_space,
    transform_integrals,
)
from solvaq.errors import CapacityError, ConfigError, ParseError


# --- spec validation ----------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ConfigError):
        ActiveSpaceSpec(mode="avas", targets=[])
    for threshold in (float("nan"), -1.0, 0.0, 1.0):
        with pytest.raises(ConfigError):
            ActiveSpaceSpec(mode="avas", targets=["O 2p"], threshold=threshold)
    with pytest.raises(ConfigError):
        ActiveSpaceSpec(mode="manual", orbitals=[])
    with pytest.raises(ConfigError):
        ActiveSpaceSpec(mode="manual", orbitals=[1, 1], n_active_electrons=2)
    with pytest.raises(ConfigError):
        ActiveSpaceSpec(mode="mystery")


def test_bad_avas_target_label(water):
    spec = ActiveSpaceSpec(mode="avas", targets=["O 2q"])
    with pytest.raises(ConfigError):
        select_active_space(water.scf, water.integrals.overlap, water.basis, spec)


# --- manual selection ----------------------------------------------------------


def test_manual_select_partitions(water):
    spec = ActiveSpaceSpec(mode="manual", orbitals=[1, 2, 3, 4, 5, 6],
                           n_active_electrons=8)
    space = manual_select(water.scf.mo_coeff, water.scf.occupations, spec)
    assert space.core.tolist() == [0]
    assert space.active.tolist() == [1, 2, 3, 4, 5, 6]
    assert space.n_active_electrons == 8
    # frozen density holds the two core electrons
    s = water.integrals.overlap
    assert np.trace(space.frozen_density @ s) == pytest.approx(2.0, abs=1e-10)


def test_manual_select_rejects_unoccupied_core(water):
    # freezing all five occupied MOs as active leaves only virtuals for the
    # core slot -> must be rejected
    spec = ActiveSpaceSpec(mode="manual", orbitals=[0, 1, 2, 3, 4],
                           n_active_electrons=8)
    with pytest.raises(ConfigError):
        manual_select(water.scf.mo_coeff, water.scf.occupations, spec)


def test_manual_select_rejects_odd_or_oversized_electron_count(water):
    for bad in (7, -2, 20):
        spec = ActiveSpaceSpec(mode="manual", orbitals=[1, 2, 3, 4, 5, 6],
                               n_active_electrons=bad)
        with pytest.raises(ConfigError):
            manual_select(water.scf.mo_coeff, water.scf.occupations, spec)


def test_manual_select_rejects_out_of_range_index(water):
    spec = ActiveSpaceSpec(mode="manual", orbitals=[5, 99], n_active_electrons=2)
    with pytest.raises(ConfigError):
        manual_select(water.scf.mo_coeff, water.scf.occupations, spec)


def test_manual_select_permits_excluding_an_occupied_orbital(water):
    # expert-mode semantics: occupied MO 4 left out of both sets becomes an
    # excluded (empty) orbital; the model still balances its electron count
    spec = ActiveSpaceSpec(mode="manual", orbitals=[1, 2, 3, 5, 6],
                           n_active_electrons=8)
    space = manual_select(water.scf.mo_coeff, water.scf.occupations, spec)
    assert space.core.tolist() == [0]
    assert 4 not in space.active.tolist()


def test_capacity_gate():
    spec = ActiveSpaceSpec(
        mode="manual",
        orbitals=list(range(MAX_ACTIVE_ORBITALS + 1)),
        n_active_electrons=2,
    )
    occ = np.zeros(MAX_ACTIVE_ORBITALS + 2)
    occ[0] = 2.0
    c = np.eye(MAX_ACTIVE_ORBITALS + 2)
    with pytest.raises(CapacityError):
        manual_select(c, occ, spec)


# --- AVAS ----------------------------------------------------------------------


def test_avas_water_valence(water):
    spec = ActiveSpaceSpec(mode="avas", targets=["O 2p", "H 1s"], threshold=0.2)
    space = select_active_space(water.scf, water.integrals.overlap, water.basis, spec)
    # the O 2p + 2 H 1s targets span five valence-ish AOs
    assert 4 <= space.n_active <= 6
    assert space.n_active_electrons % 2 == 0
    # rotated orbitals stay orthonormal
    s = water.integrals.overlap
    c = space.mo_coeff
    assert np.allclose(c.T @ s @ c, np.eye(c.shape[1]), atol=1e-10)
    assert space.eigenvalues is not None


def test_avas_preserves_scf_density(water):
    spec = ActiveSpaceSpec(mode="avas", targets=["O 2p", "H 1s"], threshold=0.2)
    space = select_active_space(water.scf, water.integrals.overlap, water.basis, spec)
    n_occ = water.scf.n_occupied
    c_occ = space.mo_coeff[:, :n_occ]
    d_rot = 2.0 * c_occ @ c_occ.T
    assert np.allclose(d_rot, water.scf.density, atol=1e-10)


def test_avas_selected_eigenvalues_above_threshold(water):
    spec = ActiveSpaceSpec(mode="avas", targets=["O 2p"], threshold=0.3)
    space = select_active_space(water.scf, water.integrals.overlap, water.basis, spec)
    assert np.all(space.eigenvalues[space.active] > 0.05)
    picked = set(space.active.tolist())
    # of the non-degenerate orbitals, everything above threshold is in,
    # everything well below is out
    for i, ev in enumerate(space.eigenvalues):
        if ev > spec.threshold + 1e-6:
            assert i in picked


# --- integral transformation -----------------------------------------------------


def test_transform_matches_elementwise_oracle(h2):
    spec = ActiveSpaceSpec(mode="manual", orbitals=[0, 1], n_active_electrons=2)
    space = manual_select(h2.scf.mo_coeff, h2.scf.occupations, spec)
    ham = transform_integrals(space, h2.integrals.core, h2.eri, h2.integrals.e_nuc)
    ref = transform_eri_elementwise(space.c_active, h2.eri)
    assert np.allclose(ham.eri, ref, atol=1e-12)
    assert ham.e_frozen == pytest.approx(h2.integrals.e_nuc, abs=1e-14)


def test_transform_frozen_core_energy_consistency(water):
    """Freezing every occupied orbital must reproduce the RHF energy."""
    occupied = [0, 1, 2, 3, 4]
    spec = ActiveSpaceSpec(mode="manual", orbitals=[5, 6], n_active_electrons=0)
    space = manual_select(water.scf.mo_coeff, water.scf.occupations, spec)
    assert space.core.tolist() == occupied
    ham = transform_integrals(space, water.integrals.core, water.eri,
                              water.integrals.e_nuc)
    assert ham.e_frozen == pytest.approx(water.scf.energy, abs=1e-9)


def test_transform_eri_oracle_on_water_active_block(water, water_problem_gas):
    space = water_problem_gas.mo_space
    ref = transform_eri_elementwise(space.c_active, water.eri)
    assert np.allclose(water_problem_gas.base.eri, ref, atol=1e-11)


# --- FCIDUMP -----------------------------------------------------------------


def test_fcidump_roundtrip(tmp_path, water_problem_gas):
    ham = water_problem_gas.base
    path = tmp_path / "water.fcidump"
    fcidump_write(path, ham)
    back = fcidump_read(path)
    assert back.n_orbitals == ham.n_orbitals
    assert back.n_electrons == ham.n_electrons
    assert back.e_frozen == pytest.approx(ham.e_frozen, abs=1e-12)
    assert np.allclose(back.h_eff, ham.h_eff, atol=1e-12)
    assert np.allclose(back.eri, ham.eri, atol=1e-12)


def test_fcidump_against_independent_reader(tmp_path, water_problem_gas):
    """Every stored record must equal the source integral at its own indices
    (no reliance on the engine's mirroring), with the canonical-triangle
    record count and exactly one core-energy line."""
    ham = water_problem_gas.base
    path = tmp_path / "water.fcidump"
    fcidump_write(path, ham)
    norb, nelec, records = fcidump_read_minimal(path)
    assert (norb, nelec) == (ham.n_orbitals, ham.n_electrons)

    n = ham.n_orbitals
    seen_core = 0
    n_two = n_one = 0
    for v, i, j, k, l in records:
        if i == j == k == l == 0:
            seen_core += 1
            assert v == pytest.approx(ham.e_frozen, abs=1e-12)
        elif k == 0 and l == 0:
            n_one += 1
            assert v == pytest.approx(ham.h_eff[i - 1, j - 1], abs=1e-12)
        else:
            n_two += 1
            assert v == pytest.approx(ham.eri[i - 1, j - 1, k - 1, l - 1], abs=1e-12)
    assert seen_core == 1
    assert n_one == n * (n + 1) // 2
    n_pair = n * (n + 1) // 2
    assert n_two == n_pair * (n_pair + 1) // 2


def test_fcidump_header_format(tmp_path, h2_problem):
    path = tmp_path / "h2.fcidump"
    fcidump_write(path, h2_problem.base)
    text = path.read_text()
    assert text.startswith("&FCI NORB=2,NELEC=2,MS2=0,")
    assert "ORBSYM=1,1," in text
    assert "ISYM=1" in text


def test_fcidump_read_errors(tmp_path):
    bad = tmp_path / "bad.fcidump"
    bad.write_text("&FCI NORB=2,NELEC=2,MS2=0,\n ORBSYM=1,1,\n ISYM=1,\n&END\n"
                   " 1.0 1 2 3\n")
    with pytest.raises(ParseError) as err:
        fcidump_read(bad)
    assert err.value.line == 5

    missing_header = tmp_path / "nohdr.fcidump"
    missing_header.write_text("1.0 1 1 0 0\n")
    with pytest.raises(ParseError):
        fcidump_read(missing_header)

    not_utf8 = tmp_path / "latin1.fcidump"
    not_utf8.write_bytes(b"&FCI NORB=1,NELEC=2,\xff\n&END\n 1.0 1 1 0 0\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        fcidump_read(not_utf8)


_HEADER = "&FCI NORB={},NELEC={},MS2=0,\n ORBSYM=1,1,\n ISYM=1,\n&END\n"


@pytest.mark.parametrize("header,record", [
    (_HEADER.format(2, 2), " 0.5 3 1 1 1\n"),     # index above NORB
    (_HEADER.format(2, 2), " 0.5 0 1 1 1\n"),     # 0 in a two-electron record
    (_HEADER.format(2, 2), " 0.5 1 0 0 0\n"),     # 0 in a one-electron record
    (_HEADER.format(2, 2), " 0.5 -1 1 0 0\n"),    # negative index
    (_HEADER.format(2, 5), " 0.5 1 1 0 0\n"),     # NELEC > 2 * NORB
])
def test_fcidump_bad_record_or_count_is_a_parse_error(tmp_path, header, record):
    path = tmp_path / "bad.fcidump"
    path.write_text(header + " 1.0 1 1 1 1\n" + record)
    with pytest.raises(ParseError) as err:
        fcidump_read(path)
    assert err.value.line in (None, 6)


def test_fcidump_norb_over_the_cap_is_refused_before_allocating(tmp_path):
    path = tmp_path / "huge.fcidump"
    path.write_text(_HEADER.format(100_000, 2) + " 1.0 1 1 0 0\n")
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            fcidump_read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


_FCIDUMP_TEXT = st.builds(
    str.__add__,
    st.sampled_from([
        "", "&END\n", _HEADER.format(2, 2), _HEADER.format(0, 0), _HEADER.format(3, 7),
        _HEADER.format(25, 2), "&FCI NORB=2\n&END\n", "&FCI NORB=99999999999,NELEC=2\n&END\n",
    ]),
    st.lists(
        st.one_of(
            st.builds(
                " {} {} {} {} {}".format,
                st.sampled_from(["1.0", "-0.5", "nan", "x", "1e400"]),
                *[st.integers(-2, 4)] * 4,
            ),
            st.text(max_size=16),
        ),
        max_size=6,
    ).map("\n".join),
)


@settings(max_examples=60, deadline=None)
@given(text=_FCIDUMP_TEXT)
def test_fcidump_text_parses_or_raises_parse_or_capacity_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fcidump") / "run.fcidump"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    try:
        ham = fcidump_read(path)
    except (ParseError, CapacityError):
        return
    assert ham.h_eff.shape == (ham.n_orbitals,) * 2
    assert 0 <= ham.n_electrons <= 2 * ham.n_orbitals
