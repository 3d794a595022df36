"""Geometry parsing and nuclear repulsion."""

import numpy as np
import pytest

from oracles import rotated, translated
from solvaq.constants import BOHR_PER_ANGSTROM
from solvaq.errors import ParseError
from solvaq.geometry import Geometry, load_geometry, nuclear_repulsion, parse_geometry


def test_parse_angstrom_converts_to_bohr():
    geom = parse_geometry("1\ncomment\nO 0.0 0.0 1.0\n")
    assert geom.symbols == ["O"]
    assert geom.coords[0, 2] == pytest.approx(BOHR_PER_ANGSTROM)


def test_parse_bohr_keeps_values():
    geom = parse_geometry("2\n\nH 0 0 0\nH 0 0 1.4\n", unit="bohr")
    assert geom.coords[1, 2] == 1.4
    assert geom.n_electrons == 2


def test_charge_reduces_electron_count():
    geom = parse_geometry("1\n\nNa 0 0 0\n", charge=1)
    assert geom.n_electrons == 10


def test_symbol_case_insensitive():
    geom = parse_geometry("2\n\nh 0 0 0\nHE 0 0 1\n")
    assert geom.symbols == ["H", "He"]


def test_comment_line_is_free_form():
    geom = parse_geometry("1\nthis line 7 is ignored entirely!\nC 0 0 0\n")
    assert geom.symbols == ["C"]


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("x\n\nH 0 0 0\n", 1),
        ("2\n\nH 0 0 0\n", 3),  # fewer atoms than the count promises
        ("1\n\nXx 0 0 0\n", 3),
        ("1\n\nH 0 0\n", 3),
        ("1\n\nH 0 0 zero\n", 3),
        ("1\n\nH 0 0 0\nextra atom here\n", 4),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as err:
        parse_geometry(text)
    assert err.value.line == line
    assert f"line {line}:" in str(err.value)


def test_unknown_unit_rejected():
    with pytest.raises(ParseError):
        parse_geometry("1\n\nH 0 0 0\n", unit="furlong")


def test_load_geometry_from_file(tmp_path):
    path = tmp_path / "m.xyz"
    path.write_text("1\n\nHe 0 0 0\n")
    geom = load_geometry(path)
    assert geom.symbols == ["He"]


def test_nuclear_repulsion_h2():
    geom = parse_geometry("2\n\nH 0 0 0\nH 0 0 1.4\n", unit="bohr")
    assert nuclear_repulsion(geom) == pytest.approx(1.0 / 1.4, abs=1e-14)


def test_nuclear_repulsion_translation_rotation_invariant():
    geom = parse_geometry("3\n\nO 0 0 0.1173\nH 0 0.7572 -0.4692\nH 0 -0.7572 -0.4692\n")
    base = nuclear_repulsion(geom)
    shifted = nuclear_repulsion(translated(geom, [1.0, -2.0, 0.5]))
    theta = 0.7
    rot = np.array(
        [
            [np.cos(theta), -np.sin(theta), 0.0],
            [np.sin(theta), np.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    turned = nuclear_repulsion(rotated(geom, rot))
    assert shifted == pytest.approx(base, abs=1e-12)
    assert turned == pytest.approx(base, abs=1e-12)


def test_geometry_validates_shape():
    with pytest.raises(ValueError):
        Geometry(["H", "H"], np.zeros((1, 3)), 0)
