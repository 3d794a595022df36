"""Independent reference implementations used only by the test suite.

Everything here is deliberately written against different formalisms than the
package (spin-orbital Slater-Condon algebra with explicit alignment parities,
O(N^8) elementwise integral transforms, quadrature Boys values) so that
agreement is evidence, not tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy import integrate

from solvaq.geometry import Geometry
from solvaq.integrals import _boys_array, esp_tensor


# ---------------------------------------------------------------------------
# Boys function: a scalar wrapper over the engine's array evaluator, and
# adaptive quadrature
# ---------------------------------------------------------------------------

# highest order the scalar wrapper accepts; the engine itself needs at most
# 4 * basis.MAX_L (an ERI over four shells of angular momentum MAX_L)
MAX_BOYS_ORDER = 16


def boys(m_max: int, t: float) -> np.ndarray:
    """Boys functions F_0(t)..F_{m_max}(t) as a length-(m_max+1) array."""
    if not 0 <= m_max <= MAX_BOYS_ORDER:
        raise ValueError(f"boys order must be in [0, {MAX_BOYS_ORDER}], got {m_max}")
    if not t >= 0.0:
        raise ValueError(f"boys argument must be non-negative, got {t}")
    return _boys_array(m_max, np.array([t]))[0]


def boys_quadrature(m: int, t: float) -> float:
    """F_m(t) = integral_0^1 u^{2m} exp(-t u^2) du."""
    val, _ = integrate.quad(
        lambda u: u ** (2 * m) * np.exp(-t * u * u), 0.0, 1.0,
        epsabs=1e-15, epsrel=1e-13, limit=200,
    )
    return val


# ---------------------------------------------------------------------------
# Small views of package objects that only the tests need
# ---------------------------------------------------------------------------

def translated(geometry: Geometry, shift) -> Geometry:
    return Geometry(list(geometry.symbols), geometry.coords + np.asarray(shift, float),
                    geometry.charge)


def rotated(geometry: Geometry, rot) -> Geometry:
    return Geometry(list(geometry.symbols), geometry.coords @ np.asarray(rot, float).T,
                    geometry.charge)


def esp_integrals(basis, point) -> np.ndarray:
    """Electrostatic-potential integrals <mu| 1/|r - point| |nu> (positive kernel)."""
    return esp_tensor(basis, np.asarray(point, float).reshape(1, 3))[0]


def n_occupied(scf) -> int:
    """Doubly occupied orbitals of an SCFResult."""
    return int(round(scf.occupations.sum() / 2))


@dataclass
class SurfaceCharges:
    """Apparent charges answering a potential given on bare surface points."""

    charges: np.ndarray
    potential: np.ndarray

    @property
    def g_pol(self) -> float:
        return 0.5 * float(self.charges @ self.potential)

    @property
    def total_charge(self) -> float:
        return float(self.charges.sum())


def solve_surface_charge(operators, dielectric, potential) -> SurfaceCharges:
    """q = R_f phi through ``PCMOperators.response``."""
    return SurfaceCharges(operators.response(dielectric.f_eps) @ potential, potential)


def write_cavity_csv(surface, path) -> None:
    """Debug dump: one row per surviving surface point."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,z,nx,ny,nz,area,sphere\n")
        for p, n, a, k in zip(
            surface.points, surface.normals, surface.areas, surface.sphere_index
        ):
            fh.write(
                f"{p[0]:.12g},{p[1]:.12g},{p[2]:.12g},"
                f"{n[0]:.12g},{n[1]:.12g},{n[2]:.12g},{a:.12g},{k}\n"
            )


# ---------------------------------------------------------------------------
# Determinant words of a subspace
# ---------------------------------------------------------------------------

def determinant_words(basis) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) words of every determinant of a SubspaceBasis in
    alpha-major flat order: determinant i_a * n + i_b pairs strings i_a and
    i_b."""
    n = basis.n_strings
    return np.repeat(basis.strings, n), np.tile(basis.strings, n)


# ---------------------------------------------------------------------------
# Brute-force AO -> MO transforms
# ---------------------------------------------------------------------------

def transform_eri_elementwise(c: np.ndarray, eri_ao: np.ndarray) -> np.ndarray:
    """(pq|rs) in the MO basis, one einsum per element (O(N^8) overall)."""
    n = c.shape[1]
    out = np.zeros((n, n, n, n))
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    out[p, q, r, s] = np.einsum(
                        "m,n,l,t,mnlt->",
                        c[:, p], c[:, q], c[:, r], c[:, s], eri_ao,
                    )
    return out


# ---------------------------------------------------------------------------
# Spin-orbital Slater-Condon CI over an arbitrary determinant list
# ---------------------------------------------------------------------------
# Spin-orbital indexing: alpha orbital p -> 2p, beta orbital p -> 2p + 1.

def _spin_orbitals(alpha: int, beta: int) -> tuple[int, ...]:
    occ = [2 * p for p in range(64) if (alpha >> p) & 1]
    occ += [2 * p + 1 for p in range(64) if (beta >> p) & 1]
    return tuple(sorted(occ))


def _h_so(h: np.ndarray, i: int, j: int) -> float:
    if (i ^ j) & 1:
        return 0.0
    return h[i >> 1, j >> 1]


def _anti_so(eri: np.ndarray, i: int, j: int, k: int, l: int) -> float:
    """<ij || kl> (physicist) from chemist-notation spatial (pq|rs)."""
    coul = 0.0
    if (i & 1) == (k & 1) and (j & 1) == (l & 1):
        coul = eri[i >> 1, k >> 1, j >> 1, l >> 1]
    exch = 0.0
    if (i & 1) == (l & 1) and (j & 1) == (k & 1):
        exch = eri[i >> 1, l >> 1, j >> 1, k >> 1]
    return coul - exch


def slater_condon(
    h: np.ndarray, eri: np.ndarray, occ_i: tuple[int, ...], occ_j: tuple[int, ...]
) -> float:
    """<D_i| H |D_j> for sorted spin-orbital occupation tuples."""
    set_i, set_j = set(occ_i), set(occ_j)
    diff_i = sorted(set_i - set_j)
    diff_j = sorted(set_j - set_i)
    n_diff = len(diff_i)
    if n_diff > 2:
        return 0.0
    if n_diff == 0:
        val = sum(_h_so(h, k, k) for k in occ_i)
        val += 0.5 * sum(
            _anti_so(eri, k, l, k, l) for k in occ_i for l in occ_i
        )
        return val
    if n_diff == 1:
        m, p = diff_i[0], diff_j[0]
        sign = (-1) ** (occ_i.index(m) + occ_j.index(p))
        val = _h_so(h, m, p)
        val += sum(_anti_so(eri, m, k, p, k) for k in set_i & set_j)
        return sign * val
    m, n = diff_i
    p, q = diff_j
    sign = (-1) ** (
        occ_i.index(m) + occ_i.index(n) + occ_j.index(p) + occ_j.index(q)
    )
    return sign * _anti_so(eri, m, n, p, q)


def dense_ci_matrix(
    h: np.ndarray, eri: np.ndarray, dets: list[tuple[int, int]]
) -> np.ndarray:
    """Explicit CI matrix over a determinant list [(alpha_word, beta_word)]."""
    occs = [_spin_orbitals(a, b) for a, b in dets]
    n = len(dets)
    mat = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            v = slater_condon(h, eri, occs[i], occs[j])
            mat[i, j] = mat[j, i] = v
    return mat


def _apply_annihilate(occ: tuple[int, ...], k: int) -> tuple[tuple[int, ...], int] | None:
    if k not in occ:
        return None
    pos = occ.index(k)
    return tuple(o for o in occ if o != k), (-1) ** pos


def _apply_create(occ: tuple[int, ...], k: int) -> tuple[tuple[int, ...], int] | None:
    if k in occ:
        return None
    pos = sum(1 for o in occ if o < k)
    return tuple(sorted(occ + (k,))), (-1) ** pos


def dense_excitation_operator(
    dets: list[tuple[int, int]], p_so: int, q_so: int
) -> np.ndarray:
    """Matrix of a+_p a_q (spin-orbital indices) over the determinant list."""
    occs = [_spin_orbitals(a, b) for a, b in dets]
    index = {occ: i for i, occ in enumerate(occs)}
    n = len(dets)
    mat = np.zeros((n, n))
    for j, occ in enumerate(occs):
        step1 = _apply_annihilate(occ, q_so)
        if step1 is None:
            continue
        mid, s1 = step1
        step2 = _apply_create(mid, p_so)
        if step2 is None:
            continue
        final, s2 = step2
        i = index.get(final)
        if i is not None:
            mat[i, j] = s1 * s2
    return mat


def dense_one_rdm(
    ci: np.ndarray, dets: list[tuple[int, int]], n_orb: int
) -> tuple[np.ndarray, np.ndarray]:
    """Spin-resolved 1-RDMs via explicit operator matrices."""
    ga = np.zeros((n_orb, n_orb))
    gb = np.zeros((n_orb, n_orb))
    for p in range(n_orb):
        for q in range(n_orb):
            ga[p, q] = ci @ dense_excitation_operator(dets, 2 * p, 2 * q) @ ci
            gb[p, q] = ci @ dense_excitation_operator(dets, 2 * p + 1, 2 * q + 1) @ ci
    return ga, gb


# ---------------------------------------------------------------------------
# Minimal FCIDUMP reader (independent of the package parser)
# ---------------------------------------------------------------------------

def fcidump_read_minimal(path):
    """Returns (norb, nelec, records) where records is the raw list of
    (value, i, j, k, l) lines after the header."""
    norb = nelec = None
    records = []
    in_header = True
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if in_header:
                for token in line.replace(",", " ").split():
                    if token.startswith("NORB="):
                        norb = int(token[5:])
                    elif token.startswith("NELEC="):
                        nelec = int(token[6:])
                if "&END" in line:
                    in_header = False
                continue
            if not line:
                continue
            parts = line.split()
            records.append(
                (float(parts[0]),) + tuple(int(x) for x in parts[1:5])
            )
    return norb, nelec, records


# ---------------------------------------------------------------------------
# Reference SCRF loop over an explicit CI matrix (dense eigensolver, no
# Davidson, no projected-Hamiltonian machinery)
# ---------------------------------------------------------------------------

def dense_scrf_reference(
    dets: list[tuple[int, int]],
    n_orb: int,
    h_gas: np.ndarray,
    eri_act: np.ndarray,
    e_frozen_gas: float,
    c_act: np.ndarray,
    d_frozen: np.ndarray,
    pcm,
    scf_density: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 60,
) -> tuple[float, float]:
    """Independent self-consistent reaction-field CASCI: returns (G, G_pol)."""
    op = pcm.solve(scf_density).operator
    g_prev = None
    for _ in range(max_iter):
        h_eff = h_gas + c_act.T @ op.matrix @ c_act
        e_frozen = (
            e_frozen_gas + float(np.sum(d_frozen * op.matrix)) + op.energy
        )
        mat = dense_ci_matrix(h_eff, eri_act, dets)
        w, v = np.linalg.eigh(mat)
        energy = w[0] + e_frozen
        ci = v[:, 0]
        ga, gb = dense_one_rdm(ci, dets, n_orb)
        d_tot = d_frozen + c_act @ (ga + gb) @ c_act.T
        e_int = float(np.sum(d_tot * op.matrix)) + op.energy
        g_free = energy - 0.5 * e_int
        solution = pcm.solve(d_tot)
        if g_prev is not None and abs(g_free - g_prev) < tol:
            return g_free, solution.g_pol
        g_prev = g_free
        op = solution.operator
    raise RuntimeError("reference SCRF loop did not converge")


def phase_vector(dets):
    """Diagonal +-1 similarity relating the engine's alpha-block-first
    creation ordering to this module's interleaved spin-orbital ordering:
    for each determinant, (-1)^{crossings} with crossings = sum over
    beta-occupied q of the number of alpha-occupied p > q."""
    out = np.empty(len(dets))
    for i, (a, b) in enumerate(dets):
        crossings = 0
        for q in range(64):
            if (b >> q) & 1:
                crossings += (a >> (q + 1)).bit_count()
        out[i] = -1.0 if crossings & 1 else 1.0
    return out


# ---------------------------------------------------------------------------
# In-space excitations one candidate at a time: every single and double of
# every string is built bit by bit, looked up in a {word: index} dict, and
# signed by counting electrons below the hole and the particle
# ---------------------------------------------------------------------------

def single_sign(word: int, hole: int, particle: int) -> int:
    """Fermionic sign of a+_particle a_hole |word> (hole occupied, particle
    empty in word \\ {hole})."""
    below_hole = (word & ((1 << hole) - 1)).bit_count()
    stripped = word & ~(1 << hole)
    below_particle = (stripped & ((1 << particle) - 1)).bit_count()
    return -1 if (below_hole + below_particle) & 1 else 1


def loop_excitation_entries(strings, n_orb: int):
    """(rows, cols, pairs = p * n_orb + q, signs) of every in-space
    <u_i| a+_p a_q |u_j>, number operators included."""
    index = {int(w): i for i, w in enumerate(strings)}
    rows, cols, pairs, signs = [], [], [], []
    for j, w in enumerate(int(w) for w in strings):
        occ = [p for p in range(n_orb) if (w >> p) & 1]
        vir = [p for p in range(n_orb) if not (w >> p) & 1]
        for q in occ:
            rows.append(j)
            cols.append(j)
            pairs.append(q * n_orb + q)
            signs.append(1)
            stripped = w & ~(1 << q)
            for p in vir:
                i = index.get(stripped | (1 << p))
                if i is not None:
                    rows.append(i)
                    cols.append(j)
                    pairs.append(p * n_orb + q)
                    signs.append(single_sign(w, q, p))
    return (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
            np.array(pairs, dtype=np.int64), np.array(signs, dtype=np.float64))


def loop_same_spin_matrix(strings, n_orb: int, eri: np.ndarray) -> np.ndarray:
    """Dense two-electron part of <u_r| H_same |u_c>: doubles, singles and
    the diagonal, with the doubles enumerated candidate by candidate."""
    strings = [int(w) for w in strings]
    index = {w: i for i, w in enumerate(strings)}
    n = len(strings)
    d_flat, d_data = [], []
    for j, w in enumerate(strings):
        occ = [p for p in range(n_orb) if (w >> p) & 1]
        vir = [p for p in range(n_orb) if not (w >> p) & 1]
        for i_h, j_h in combinations(occ, 2):
            stripped = w & ~(1 << i_h) & ~(1 << j_h)
            for a, b in combinations(vir, 2):
                r = index.get(stripped | (1 << a) | (1 << b))
                if r is None:
                    continue
                s1 = single_sign(w, i_h, a)
                mid = (w & ~(1 << i_h)) | (1 << a)
                s2 = single_sign(mid, j_h, b)
                d_flat.append(r * n + j)
                d_data.append(s1 * s2 * (eri[a, i_h, b, j_h] - eri[a, j_h, b, i_h]))

    rows, cols, pairs, signs = loop_excitation_entries(strings, n_orb)
    occ_mat = np.array([[(w >> p) & 1 for p in range(n_orb)] for w in strings], float)
    jk = np.einsum("pqrr->pqr", eri) - np.einsum("prrq->pqr", eri)
    single = rows != cols
    p, q = np.divmod(pairs[single], n_orb)
    s_data = signs[single] * np.einsum("er,er->e", occ_mat[cols[single]], jk[p, q])
    diag = 0.5 * np.einsum("jp,pr,jr->j", occ_mat, np.einsum("ppr->pr", jk), occ_mat)
    flat = np.concatenate([
        rows[single] * n + cols[single],
        np.array(d_flat, dtype=np.int64),
        np.arange(n) * (n + 1),
    ])
    data = np.concatenate([s_data, d_data, diag])
    return np.bincount(flat, weights=data, minlength=n * n).reshape(n, n)


# ---------------------------------------------------------------------------
# Dense assembly of a ProjectedHamiltonian (small subspaces only)
# ---------------------------------------------------------------------------

def dense_pair_tensor(tables) -> np.ndarray:
    """T[k, i, j] = <u_i| E_k |u_j> from the raw table entries, k = p*n_orb+q."""
    n = tables.basis.n_strings
    t = np.zeros((tables.n_pairs, n, n))
    t[tables.pairs, tables.rows, tables.cols] += tables.signs
    return t


def to_dense(ham) -> np.ndarray:
    """Explicit d x d matrix (electronic part) of a ProjectedHamiltonian: its
    dense same-spin operator plus the cross-spin term from the raw table entries and the
    full (n_orb^2 x n_orb^2) ERI matrix."""
    n = ham.n_strings
    n_orb = ham.basis.n_orb
    hs = ham.h_same
    eye = np.eye(n)
    dense = np.kron(hs, eye) + np.kron(eye, hs)
    t = dense_pair_tensor(ham.tables)
    v2 = ham.active.eri.reshape(n_orb**2, n_orb**2)
    cross = np.einsum("kl,kac,lbd->abcd", v2, t, t, optimize=True)
    return dense + cross.reshape(ham.d, ham.d)


# ---------------------------------------------------------------------------
# Sequential S-CORE bit repair
# ---------------------------------------------------------------------------

def repair_word_sequential(
    word: int, n_orb: int, target: int, probs: np.ndarray, rng
) -> tuple[int, bool]:
    """Flip one bit at a time (probability proportional to |x_p - n_p| over
    the direction-eligible bits, uniform when every eligible weight is zero)
    until the Hamming weight equals ``target``. Returns the repaired word and
    whether the zero-weight uniform fallback was used."""
    weight = word.bit_count()
    used_fallback = False
    while weight != target:
        if weight > target:
            eligible = [p for p in range(n_orb) if (word >> p) & 1]
            pulls = np.abs(1.0 - probs[eligible])
        else:
            eligible = [p for p in range(n_orb) if not (word >> p) & 1]
            pulls = np.abs(probs[eligible])
        total = pulls.sum()
        if total <= 0.0:
            pulls = np.ones(len(eligible))
            total = float(len(eligible))
            used_fallback = True
        cdf = np.cumsum(pulls) / total
        pick = eligible[int(np.searchsorted(cdf, rng.random(), side="right"))]
        word ^= 1 << pick
        weight += 1 if weight < target else -1
    return word, used_fallback
