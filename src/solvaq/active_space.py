"""Active-space selection and Hamiltonian transformation.

AVAS: occupied and virtual MO blocks are rotated separately by the
eigenvectors of the projector overlap onto a set of target AOs,

    M_block = C_block^T S[:, T] (S[T, T])^{-1} S[T, :] C_block,

and rotated MOs with eigenvalue above the threshold enter the active list
(members of a degenerate pair straddling the threshold are both included).

The frozen-core reduction produces an ActiveHamiltonian with

    h_eff_pq = h_pq + sum_c [2 (pq|cc) - (pc|cq)]
    E_frozen = E_nuc + sum_c [2 h_cc + sum_c' (2 (cc|c'c') - (cc'|c'c))]

in the gas phase; the reaction field is added afterwards as an active-basis
operator (ActiveSpaceProblem.reaction_field in solvaq.sqd.engine).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .basis import AOBasis
from .errors import CapacityError, ConfigError, ParseError, read_text
from .scf import coulomb_exchange

MAX_ACTIVE_ORBITALS = 24


@dataclass
class ActiveSpaceSpec:
    """Every MO ("full"), AVAS targets + threshold, or an explicit MO index
    list. Each field is checked whatever the mode."""

    mode: str = "full"                       # "full" | "avas" | "manual"
    targets: list[str] = field(default_factory=list)  # e.g. ["O 2p", "H 1s"]
    threshold: float = 0.2                             # avas, in (0, 1)
    orbitals: list[int] = field(default_factory=list)  # manual mode, 0-based MO indices
    n_active_electrons: int | None = None              # manual mode

    def __post_init__(self):
        if self.mode not in ("full", "avas", "manual"):
            raise ConfigError(f"unknown active-space mode {self.mode!r}")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"AVAS threshold must lie in (0, 1), got {self.threshold}")
        if len(set(self.orbitals)) != len(self.orbitals):
            raise ConfigError("duplicate orbital indices in active list")
        if self.mode == "avas" and not self.targets:
            raise ConfigError("avas mode needs at least one target AO label")
        if self.mode == "manual":
            if not self.orbitals:
                raise ConfigError("manual mode needs an orbital index list")
            if self.n_active_electrons is None:
                raise ConfigError("manual mode needs the active electron count")


@dataclass
class MOSpace:
    """Partition of (possibly rotated) molecular orbitals."""

    mo_coeff: np.ndarray          # full set, column per MO
    core: np.ndarray              # indices of doubly-occupied frozen orbitals
    active: np.ndarray
    n_active_electrons: int
    eigenvalues: np.ndarray | None = None  # AVAS projector eigenvalues per MO

    @property
    def n_active(self) -> int:
        return len(self.active)

    @property
    def c_core(self) -> np.ndarray:
        return self.mo_coeff[:, self.core]

    @property
    def c_active(self) -> np.ndarray:
        return self.mo_coeff[:, self.active]

    @property
    def frozen_density(self) -> np.ndarray:
        c = self.c_core
        return 2.0 * c @ c.T


def _parse_target(label: str) -> tuple[str, str]:
    m = re.fullmatch(r"\s*([A-Za-z]{1,2})\s+(\d[spd])\s*", label)
    if not m:
        raise ConfigError(
            f"bad AVAS target {label!r}; expected like 'O 2p' or 'H 1s'"
        )
    return m.group(1).capitalize(), m.group(2).lower()


def avas_select(
    mo_coeff: np.ndarray,
    mo_occ: np.ndarray,
    overlap: np.ndarray,
    basis: AOBasis,
    spec: ActiveSpaceSpec,
) -> MOSpace:
    """Pick an active space by projecting MOs onto target AOs.

    Occupied and virtual blocks are rotated separately by the projector
    eigenvectors (deterministic ordering: descending eigenvalue, index
    tie-break), so the SCF determinant and total energy are unchanged.
    """
    targets: list[int] = []
    for label in spec.targets:
        el, shell = _parse_target(label)
        hits = basis.ao_indices_for(el, shell)
        if not hits:
            raise ConfigError(f"AVAS target {label!r} matches no AOs in this basis")
        targets.extend(hits)
    targets = sorted(set(targets))

    s_tt = overlap[np.ix_(targets, targets)]
    s_at = overlap[:, targets]
    projector = s_at @ np.linalg.solve(s_tt, s_at.T)

    occ_idx = np.where(mo_occ > 0)[0]
    vir_idx = np.where(mo_occ == 0)[0]
    new_c = mo_coeff.copy()
    eigvals = np.zeros(mo_coeff.shape[1])
    selected = {"occ": [], "vir": []}

    for name, idx in (("occ", occ_idx), ("vir", vir_idx)):
        if len(idx) == 0:
            continue
        c = mo_coeff[:, idx]
        m = c.T @ projector @ c
        m = 0.5 * (m + m.T)
        w, u = np.linalg.eigh(m)          # ascending
        order = np.argsort(-w, kind="stable")
        w, u = w[order], u[:, order]
        new_c[:, idx] = c @ u
        eigvals[idx] = w
        chosen = int((w > spec.threshold).sum())
        # keep degenerate pairs together across the cut
        while 0 < chosen < len(w) and abs(w[chosen] - w[chosen - 1]) < 1e-6:
            chosen += 1
        selected[name] = list(idx[:chosen])

    active = np.array(selected["occ"] + selected["vir"], dtype=int)
    if active.size == 0:
        raise ConfigError("AVAS selected an empty active space; lower the threshold")
    core = np.array([i for i in occ_idx if i not in set(selected["occ"])], dtype=int)
    n_act_elec = 2 * len(selected["occ"])
    _check_capacity(active.size)
    return MOSpace(
        mo_coeff=new_c,
        core=core,
        active=active,
        n_active_electrons=n_act_elec,
        eigenvalues=eigvals,
    )


def manual_select(mo_coeff: np.ndarray, mo_occ: np.ndarray, spec: ActiveSpaceSpec) -> MOSpace:
    """Active space from an explicit MO index list."""
    n_mo = mo_coeff.shape[1]
    active = np.array(sorted(spec.orbitals), dtype=int)
    if active.min(initial=0) < 0 or active.max(initial=-1) >= n_mo:
        raise ConfigError(f"active orbital indices must lie in [0, {n_mo})")
    _check_capacity(active.size)
    n_elec_total = int(round(mo_occ.sum()))
    n_act = spec.n_active_electrons
    if n_act % 2 != 0 or n_act < 0 or n_act > 2 * active.size:
        raise ConfigError(f"bad active electron count {n_act}")
    n_core = (n_elec_total - n_act) // 2
    if 2 * n_core + n_act != n_elec_total:
        raise ConfigError("active electron count inconsistent with total electrons")
    core = np.array([i for i in range(n_mo) if i not in set(active.tolist())][:n_core], dtype=int)
    if len(core) != n_core:
        raise ConfigError("not enough non-active orbitals to hold the core electrons")
    if np.any(mo_occ[core] == 0):
        raise ConfigError("a frozen core orbital is unoccupied in the reference")
    return MOSpace(
        mo_coeff=mo_coeff.copy(),
        core=core,
        active=active,
        n_active_electrons=n_act,
    )


def select_active_space(scf_result, overlap, basis, spec: ActiveSpaceSpec) -> MOSpace:
    mo_coeff, mo_occ = scf_result.mo_coeff, scf_result.occupations
    if spec.mode == "avas":
        return avas_select(mo_coeff, mo_occ, overlap, basis, spec)
    if spec.mode == "full":
        spec = ActiveSpaceSpec(
            mode="manual",
            orbitals=list(range(mo_coeff.shape[1])),
            n_active_electrons=int(round(mo_occ.sum())),
        )
    return manual_select(mo_coeff, mo_occ, spec)


def _check_capacity(n_active: int):
    if n_active > MAX_ACTIVE_ORBITALS:
        raise CapacityError(
            f"{n_active} active orbitals exceeds the {MAX_ACTIVE_ORBITALS}-orbital cap"
        )


@dataclass
class ActiveHamiltonian:
    """Frozen-core Hamiltonian over the active orbitals (chemist-notation ERIs)."""

    h_eff: np.ndarray        # (n_act, n_act)
    eri: np.ndarray          # (n_act, n_act, n_act, n_act), (pq|rs)
    e_frozen: float
    n_orbitals: int
    n_electrons: int

    def __post_init__(self):
        self.n_orbitals = int(self.n_orbitals)
        self.n_electrons = int(self.n_electrons)


def transform_integrals(
    mo_space: MOSpace,
    hcore: np.ndarray,
    eri_ao: np.ndarray,
    e_nuc: float,
) -> ActiveHamiltonian:
    """Fold the frozen core into an active-space Hamiltonian.

    The AO->MO transformation runs as four O(N^5) quarter transforms.
    """
    _check_capacity(mo_space.n_active)
    c_act = mo_space.c_active
    e_frozen = float(e_nuc)
    d_f = mo_space.frozen_density
    if mo_space.core.size:
        v_frozen = coulomb_exchange(eri_ao, d_f)
        e_frozen += float(np.einsum("mn,mn->", d_f, hcore + 0.5 * v_frozen, optimize=True))
        h_eff_ao = hcore + v_frozen
    else:
        h_eff_ao = hcore

    h_eff = c_act.T @ h_eff_ao @ c_act
    eri = np.einsum("mp,mnls->pnls", c_act, eri_ao, optimize=True)
    eri = np.einsum("nq,pnls->pqls", c_act, eri, optimize=True)
    eri = np.einsum("lr,pqls->pqrs", c_act, eri, optimize=True)
    eri = np.einsum("st,pqrs->pqrt", c_act, eri, optimize=True)
    return ActiveHamiltonian(
        h_eff=h_eff,
        eri=eri,
        e_frozen=e_frozen,
        n_orbitals=mo_space.n_active,
        n_electrons=mo_space.n_active_electrons,
    )


# ----------------------------------------------------------------------------
# FCIDUMP
# ----------------------------------------------------------------------------

def fcidump_write(path, h: ActiveHamiltonian) -> None:
    """Write the active Hamiltonian in FCIDUMP format (chemist notation,
    1-based indices, 17 significant digits; the all-zero index line carries
    E_frozen)."""
    n = h.n_orbitals
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"&FCI NORB={n},NELEC={h.n_electrons},MS2=0,\n")
        fh.write("  ORBSYM=" + ",".join(["1"] * n) + ",\n")
        fh.write("  ISYM=1,\n")
        fh.write("&END\n")

        def line(v, i, j, k, l):
            fh.write(f"{v:.16E} {i:4d} {j:4d} {k:4d} {l:4d}\n")

        for p in range(n):
            for q in range(p + 1):
                for r in range(p + 1):
                    smax = q if r == p else r
                    for s in range(smax + 1):
                        v = h.eri[p, q, r, s]
                        if v != 0.0:
                            line(v, p + 1, q + 1, r + 1, s + 1)
        for p in range(n):
            for q in range(p + 1):
                v = h.h_eff[p, q]
                if v != 0.0:
                    line(v, p + 1, q + 1, 0, 0)
        line(h.e_frozen, 0, 0, 0, 0)


def fcidump_read(path) -> ActiveHamiltonian:
    """Read an FCIDUMP file, mirroring stored values across the 8-fold
    two-electron and 2-fold one-electron symmetries. A record whose orbital
    index lies outside [1, NORB] raises ParseError; NORB above
    MAX_ACTIVE_ORBITALS raises CapacityError before any allocation."""
    text = read_text(path, "FCIDUMP file")
    header_match = re.search(r"&END", text)
    if not header_match:
        raise ParseError("FCIDUMP header not terminated by &END")
    header = text[: header_match.start()]
    body = text[header_match.end():]
    body_first_line = text[: header_match.end()].count("\n") + 1
    if body.startswith("\n"):
        body = body[1:]
        body_first_line += 1

    sizes = []
    for name in ("NORB", "NELEC"):
        m = re.search(rf"{name}\s*=\s*(\d{{1,9}})(?!\d)", header)
        if not m:
            raise ParseError(f"FCIDUMP header lacks {name} (at most 9 digits)")
        sizes.append(int(m.group(1)))
    n, nelec = sizes
    _check_capacity(n)
    if nelec > 2 * n:
        raise ParseError(f"FCIDUMP NELEC={nelec} exceeds 2 * NORB = {2 * n}")

    h_eff = np.zeros((n, n))
    eri = np.zeros((n, n, n, n))
    e_frozen = 0.0
    for lineno, raw in enumerate(body.splitlines(), start=body_first_line):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 5:
            raise ParseError(f"bad FCIDUMP record {raw!r}", line=lineno)
        try:
            v = float(parts[0])
            i, j, k, l = (int(x) for x in parts[1:])
        except ValueError:
            raise ParseError(f"bad FCIDUMP record {raw!r}", line=lineno) from None
        if i == j == k == l == 0:
            e_frozen = v
            continue
        if not all(1 <= x <= n for x in ((i, j) if k == l == 0 else (i, j, k, l))):
            raise ParseError(
                f"FCIDUMP record {raw!r} has an orbital index outside [1, {n}]",
                line=lineno,
            )
        if k == l == 0:
            h_eff[i - 1, j - 1] = v
            h_eff[j - 1, i - 1] = v
        else:
            p, q, r, s = i - 1, j - 1, k - 1, l - 1
            for a, b, c, d in (
                (p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
                (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p),
            ):
                eri[a, b, c, d] = v
    return ActiveHamiltonian(
        h_eff=h_eff, eri=eri, e_frozen=e_frozen, n_orbitals=n, n_electrons=nelec
    )
