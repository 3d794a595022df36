"""Molecular geometry container and XYZ parsing."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import BOHR_PER_ANGSTROM, ELEMENT_NUMBERS
from .errors import ParseError, read_text


@dataclass
class Geometry:
    """A molecule: element symbols, nuclear coordinates in bohr, net charge."""

    symbols: list[str]
    coords: np.ndarray          # (n_atoms, 3), bohr
    charge: int = 0
    numbers: np.ndarray = field(init=False)  # nuclear charges Z

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=float).reshape(-1, 3)
        if len(self.symbols) != self.coords.shape[0]:
            raise ValueError("symbol/coordinate count mismatch")
        self.numbers = np.array([ELEMENT_NUMBERS[s] for s in self.symbols], dtype=float)

    @property
    def n_atoms(self) -> int:
        return len(self.symbols)

    @property
    def n_electrons(self) -> int:
        return int(round(self.numbers.sum())) - self.charge


def _normalize_symbol(token: str) -> str:
    sym = token.capitalize()
    if sym not in ELEMENT_NUMBERS:
        raise KeyError(token)
    return sym


def parse_geometry(text: str, unit: str = "angstrom", charge: int = 0) -> Geometry:
    """Parse XYZ-format text into a Geometry.

    Standard XYZ layout: first line is the atom count, second line is a free
    comment, then one ``symbol x y z`` line per atom.  ``unit`` is "angstrom"
    (default, converted to bohr) or "bohr".  Raises ParseError with a 1-based
    line number on malformed input.
    """
    unit = unit.strip().lower()
    if unit in ("angstrom", "ang", "a"):
        scale = BOHR_PER_ANGSTROM
    elif unit in ("bohr", "au"):
        scale = 1.0
    else:
        raise ParseError(f"unknown unit {unit!r}")

    lines = text.splitlines()
    if not lines:
        raise ParseError("empty geometry input", line=1)
    try:
        n_atoms = int(lines[0].split()[0])
    except (ValueError, IndexError):
        raise ParseError(f"expected an atom count, got {lines[0]!r}", line=1) from None
    if n_atoms <= 0:
        raise ParseError("atom count must be positive", line=1)
    if len(lines) < n_atoms + 2:
        raise ParseError(
            f"expected {n_atoms} atom lines, file ends early", line=len(lines)
        )

    symbols: list[str] = []
    coords = np.empty((n_atoms, 3))
    for i in range(n_atoms):
        lineno = i + 3
        parts = lines[i + 2].split()
        if len(parts) < 4:
            raise ParseError(
                f"expected 'symbol x y z', got {lines[i + 2]!r}", line=lineno
            )
        try:
            symbols.append(_normalize_symbol(parts[0]))
        except KeyError:
            raise ParseError(f"unknown element {parts[0]!r}", line=lineno) from None
        try:
            coords[i] = [float(p) for p in parts[1:4]]
        except ValueError:
            raise ParseError(
                f"non-numeric coordinate in {lines[i + 2]!r}", line=lineno
            ) from None

    for j in range(n_atoms + 2, len(lines)):
        if lines[j].strip():
            raise ParseError("trailing non-blank content after atom list", line=j + 1)

    return Geometry(symbols, coords * scale, charge=charge)


def load_geometry(path, unit: str = "angstrom", charge: int = 0) -> Geometry:
    return parse_geometry(read_text(path, "geometry file"), unit=unit, charge=charge)


def nuclear_repulsion(geometry: Geometry) -> float:
    """E_nuc = sum_{A<B} Z_A Z_B / |R_A - R_B| in hartree."""
    z, r = geometry.numbers, geometry.coords
    e = 0.0
    for a in range(geometry.n_atoms):
        for b in range(a + 1, geometry.n_atoms):
            e += z[a] * z[b] / np.linalg.norm(r[a] - r[b])
    return e
