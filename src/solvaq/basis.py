"""Gaussian basis sets: file parsing, shell placement, AO bookkeeping.

Shells are contracted solid-harmonic Gaussians with L <= 2 (s, p, and
5-component spherical d).  Contraction coefficients are rescaled at load time
so every AO has unit self-overlap:

    c_k -> c_k * Nprim(a_k),   Nprim(a) = (2a/pi)^(3/4) (4a)^(L/2) / sqrt((2L-1)!!)
    then c -> c / sqrt(S_self),
    S_self = sum_kl c_k c_l (2L-1)!! / (2p)^L * (pi/p)^(3/2),  p = a_k + a_l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .constants import ELEMENT_NUMBERS
from .errors import ParseError, read_text
from .geometry import Geometry

MAX_L = 2
_L_LETTERS = {"S": 0, "P": 1, "D": 2}
_L_NAMES = "spd"

# Number of Cartesian monomials / spherical components per L.
N_CART = {0: 1, 1: 3, 2: 6}
N_SPH = {0: 1, 1: 3, 2: 5}

# Cartesian monomial exponents, fixed ordering.
CART_POWERS = {
    0: [(0, 0, 0)],
    1: [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
    2: [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)],
}

_SQRT3 = math.sqrt(3.0)

# Rows map Cartesian monomial integrals onto real solid harmonics, ordered
# m = -L..+L.  For p: (y, z, x); for d: (xy, yz, 3z^2-r^2, xz, x^2-y^2).
SPH_TRANSFORM = {
    0: np.array([[1.0]]),
    1: np.array([
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0],
    ]),
    2: np.array([
        [0.0, _SQRT3, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, _SQRT3, 0.0],
        [-0.5, 0.0, 0.0, -0.5, 0.0, 1.0],
        [0.0, 0.0, _SQRT3, 0.0, 0.0, 0.0],
        [_SQRT3 / 2.0, 0.0, 0.0, -_SQRT3 / 2.0, 0.0, 0.0],
    ]),
}

_M_LABELS = {
    0: [""],
    1: ["y", "z", "x"],
    2: ["xy", "yz", "z2", "xz", "x2-y2"],
}


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


@dataclass
class Shell:
    """One contracted shell placed on an atom.  Coefficients are normalized."""

    atom: int
    element: str
    L: int
    exponents: np.ndarray
    coefficients: np.ndarray
    center: np.ndarray
    label: str          # e.g. "1s", "2p", "3d" (per-element shell counting)
    ao_offset: int = 0  # first AO index of this shell

    @property
    def n_ao(self) -> int:
        return N_SPH[self.L]


def _normalize_shell(L: int, exps: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    dfact = _double_factorial(2 * L - 1)
    nprim = (2.0 * exps / math.pi) ** 0.75 * (4.0 * exps) ** (L / 2.0) / math.sqrt(dfact)
    c = coefs * nprim
    p = exps[:, None] + exps[None, :]
    self_ovl = (c[:, None] * c[None, :] * dfact / (2.0 * p) ** L * (math.pi / p) ** 1.5).sum()
    if self_ovl <= 0:
        raise ParseError("shell contraction has non-positive norm")
    return c / math.sqrt(self_ovl)


def parse_basis_text(text: str) -> dict[str, list[tuple[int, np.ndarray, np.ndarray]]]:
    """Parse basis text into {element: [(L, exponents, raw coefficients), ...]}.

    Lines starting with '!' or '#' are comments.  Each element block is a bare
    symbol line, shell blocks of the form "L n_prim" (L as letter S/P/D or
    integer 0..2) followed by n_prim "exponent coefficient" rows, and a
    terminating "****" line.
    """
    table: dict[str, list[tuple[int, np.ndarray, np.ndarray]]] = {}
    lines = text.splitlines()
    i = 0
    n = len(lines)

    def skip_blank(i):
        while i < n and (not lines[i].strip() or lines[i].lstrip()[0] in "!#"):
            i += 1
        return i

    while True:
        i = skip_blank(i)
        if i >= n:
            break
        sym = lines[i].strip().capitalize()
        if sym not in ELEMENT_NUMBERS:
            raise ParseError(f"expected an element symbol, got {lines[i].strip()!r}", line=i + 1)
        if sym in table:
            raise ParseError(f"duplicate element block {sym!r}", line=i + 1)
        i += 1
        shells: list[tuple[int, np.ndarray, np.ndarray]] = []
        while True:
            i = skip_blank(i)
            if i >= n:
                raise ParseError(f"element {sym} not terminated by ****", line=n)
            stripped = lines[i].strip()
            if stripped.startswith("****"):
                i += 1
                break
            parts = stripped.split()
            if len(parts) != 2:
                raise ParseError(f"expected 'L n_prim', got {stripped!r}", line=i + 1)
            ltok = parts[0].upper()
            if ltok in _L_LETTERS:
                L = _L_LETTERS[ltok]
            elif ltok.isdigit() and int(ltok) <= MAX_L:
                L = int(ltok)
            else:
                raise ParseError(f"unsupported angular momentum {parts[0]!r}", line=i + 1)
            try:
                n_prim = int(parts[1])
            except ValueError:
                raise ParseError(f"bad primitive count {parts[1]!r}", line=i + 1) from None
            if n_prim <= 0:
                raise ParseError("primitive count must be positive", line=i + 1)
            i += 1
            exps = np.empty(n_prim)
            coefs = np.empty(n_prim)
            for k in range(n_prim):
                i = skip_blank(i)
                if i >= n:
                    raise ParseError("primitive rows end early", line=n)
                row = lines[i].split()
                if len(row) != 2:
                    raise ParseError(
                        f"expected 'exponent coefficient', got {lines[i].strip()!r}",
                        line=i + 1,
                    )
                try:
                    exps[k], coefs[k] = float(row[0]), float(row[1])
                except ValueError:
                    raise ParseError(f"non-numeric primitive row {lines[i].strip()!r}", line=i + 1) from None
                if exps[k] <= 0:
                    raise ParseError("exponents must be positive", line=i + 1)
                i += 1
            shells.append((L, exps, coefs))
        if not shells:
            raise ParseError(f"element {sym} defines no shells")
        table[sym] = shells
    if not table:
        raise ParseError("basis text defines no elements")
    return table


def _builtin_basis_text(name: str) -> str:
    fname = name.lower() + ".bas"
    ref = resources.files("solvaq.data").joinpath("basis").joinpath(fname)
    if not ref.is_file():
        raise ParseError(f"unknown built-in basis {name!r}")
    return ref.read_text(encoding="utf-8")


def load_basis_table(name_or_path: str) -> dict:
    """Load a basis table by built-in name ("sto-3g", "cc-pvdz") or file path."""
    import os

    if os.path.exists(name_or_path):
        return parse_basis_text(read_text(name_or_path, "basis file"))
    return parse_basis_text(_builtin_basis_text(name_or_path))


@dataclass
class AOBasis:
    """All shells of a molecule, in atom order, with AO index bookkeeping."""

    shells: list[Shell]
    n_ao: int = field(init=False)
    ao_labels: list[tuple[int, str, str, str]] = field(init=False)  # (atom, element, shell, m)

    def __post_init__(self):
        off = 0
        labels = []
        for sh in self.shells:
            sh.ao_offset = off
            off += sh.n_ao
            for m in _M_LABELS[sh.L]:
                labels.append((sh.atom, sh.element, sh.label, m))
        self.n_ao = off
        self.ao_labels = labels

    def ao_indices_for(self, element: str, shell_label: str) -> list[int]:
        """AO indices matching an (element, shell-label) target such as O 2p."""
        return [
            i
            for i, (_, el, lab, _) in enumerate(self.ao_labels)
            if el == element and lab == shell_label
        ]


def build_basis(geometry: Geometry, table: dict | str) -> AOBasis:
    """Place basis shells on every atom of ``geometry``.

    ``table`` is a parsed basis table or a built-in name / file path.  Shell
    labels count per element from the chemistry-conventional first shell of
    each angular momentum (s shells: 1s, 2s, ...; p shells: 2p, 3p, ...;
    d shells: 3d, ...), in basis-file order.
    """
    if isinstance(table, str):
        table = load_basis_table(table)
    shells: list[Shell] = []
    for atom, (sym, center) in enumerate(zip(geometry.symbols, geometry.coords)):
        if sym not in table:
            raise ParseError(f"basis table has no entry for element {sym}")
        counters = {0: 0, 1: 0, 2: 0}
        for L, exps, coefs in table[sym]:
            counters[L] += 1
            label = f"{counters[L] + L}{_L_NAMES[L]}"
            shells.append(
                Shell(
                    atom=atom,
                    element=sym,
                    L=L,
                    exponents=np.asarray(exps, float),
                    coefficients=_normalize_shell(L, np.asarray(exps, float), np.asarray(coefs, float)),
                    center=np.asarray(center, float).copy(),
                    label=label,
                )
            )
    return AOBasis(shells)
