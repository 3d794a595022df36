"""Gaussian integrals over contracted solid-harmonic shells (L <= 2).

McMurchie-Davidson scheme: Cartesian Gaussian products are expanded in
Hermite Gaussians via the E-coefficient recursions; Coulomb-type integrals
contract Hermite expansions against the auxiliary integrals

    R^n_{tuv}(rho, PQ) built from Boys functions F_n(rho |PQ|^2).

Shell pairs are oriented so that l_a >= l_b and grouped into one table per
angular class (l_a, l_b). A table holds each distinct primitive pair
(A, B, alpha, beta) of its class once, with its product centre, exponent
and Hermite expansion already on spherical AOs, and a contraction matrix C
(shell pairs x primitive pairs) of c_a c_b, so generally contracted shells
(the 1s/2s of cc-pVDZ) share their primitives. S and T are C times one
column per primitive pair. ERIs, ESP integrals and (through the ESP at the
nuclei) the nuclear attraction run through one Coulomb kernel per pair of
tables, the ESP points acting as a ket table of l = 0 point charges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import AOBasis, CART_POWERS, N_CART, N_SPH, SPH_TRANSFORM, Shell
from .errors import CapacityError
from .geometry import Geometry, nuclear_repulsion

_PREFACTOR_CUTOFF = 1e-14
_SERIES_THRESHOLD = 35.0
# Doubles allowed in any one intermediate of the Coulomb kernel (2 MiB):
# the bra primitives of a table are taken in chunks that keep within it.
_CHUNK_DOUBLES = 1 << 18


# ----------------------------------------------------------------------------
# Boys function
# ----------------------------------------------------------------------------

def _boys_array(m_max: int, t: np.ndarray) -> np.ndarray:
    """F_m(t) = int_0^1 u^{2m} exp(-t u^2) du for m = 0..m_max, t >= 0.

    For t < 35 the all-positive-term series

        F_m(t) = exp(-t) * sum_k (2t)^k / ((2m+1)(2m+3)...(2m+2k+1))

    seeds the highest order, followed by downward recursion
    F_{m-1} = (2t F_m + exp(-t)) / (2m-1), which preserves relative accuracy.
    For t >= 35, F_0 = sqrt(pi/(4t)) erf(sqrt(t)) equals sqrt(pi/(4t)) to
    within one ulp (erfc(sqrt(35)) = 5.9e-17 is below one ulp of 1), and
    upward recursion F_{m+1} = ((2m+1) F_m - exp(-t)) / (2t) is
    cancellation-safe ((2m+1) F_m >> exp(-t) throughout m <= 16).
    """
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape + (m_max + 1,))
    small = t < _SERIES_THRESHOLD

    if np.any(small):
        ts = t[small]
        et = np.exp(-ts)
        denom = 2 * m_max + 1
        term = np.full_like(ts, 1.0 / denom)
        total = term.copy()
        # terms and partial sums rise with t: extremes sit at the extreme t
        hi, lo = ts.argmax(), ts.argmin()
        while True:
            denom += 2
            term *= (2.0 * ts) / denom
            total += term
            if term[hi] < 1e-17 * min(total[lo], 1.0):
                break
        fm = et * total
        out[small, m_max] = fm
        for m in range(m_max, 0, -1):
            fm = (2.0 * ts * fm + et) / (2 * m - 1)
            out[small, m - 1] = fm

    large = ~small
    if np.any(large):
        tl = t[large]
        et = np.exp(-tl)
        f = 0.5 * np.sqrt(np.pi / tl)
        out[large, 0] = f
        for m in range(m_max):
            f = ((2 * m + 1) * f - et) / (2.0 * tl)
            out[large, m + 1] = f

    return out


# ----------------------------------------------------------------------------
# Hermite expansion machinery
# ----------------------------------------------------------------------------

def _hermite_e(l1: int, l2: int, pa: np.ndarray, pb: np.ndarray, inv2p: np.ndarray) -> np.ndarray:
    """E^{ij}_t coefficients, shape (npair, l1+1, l2+1, l1+l2+1).

    E^{00}_0 = 1 (the Gaussian-product prefactor is carried separately);
    E^{i+1,j}_t = inv2p E^{ij}_{t-1} + PA E^{ij}_t + (t+1) E^{ij}_{t+1},
    and the analogous relation with PB raises j.
    """
    npp = pa.shape[0]
    E = np.zeros((npp, l1 + 1, l2 + 1, l1 + l2 + 1))
    E[:, 0, 0, 0] = 1.0
    for i in range(1, l1 + 1):
        for tt in range(i + 1):
            v = pa * E[:, i - 1, 0, tt]
            if tt > 0:
                v = v + inv2p * E[:, i - 1, 0, tt - 1]
            if tt + 1 <= i - 1:
                v = v + (tt + 1) * E[:, i - 1, 0, tt + 1]
            E[:, i, 0, tt] = v
    for j in range(1, l2 + 1):
        for i in range(l1 + 1):
            for tt in range(i + j + 1):
                v = pb * E[:, i, j - 1, tt]
                if tt > 0:
                    v = v + inv2p * E[:, i, j - 1, tt - 1]
                if tt + 1 <= i + j - 1:
                    v = v + (tt + 1) * E[:, i, j - 1, tt + 1]
                E[:, i, j, tt] = v
    return E


def _hermite_coulomb(l_total: int, rho: np.ndarray, pc: np.ndarray) -> np.ndarray:
    """R^0_{tuv}(rho, PC) for all t+u+v <= l_total, flattened cube.

    Returns shape (n, (l_total+1)^3); entries with t+u+v > l_total are zero.
    """
    n = rho.shape[0]
    side = l_total + 1
    tval = rho * np.einsum("ij,ij->i", pc, pc)
    F = _boys_array(l_total, tval)
    R = np.zeros((n, side, side, side, side))  # [x, order, t, u, v]
    minus2rho = -2.0 * rho
    R[:, :, 0, 0, 0] = F * np.power(minus2rho[:, None], np.arange(side)[None, :])
    x, y, z = pc[:, 0], pc[:, 1], pc[:, 2]
    for s in range(1, side):
        for tt in range(s + 1):
            for u in range(s - tt + 1):
                v = s - tt - u
                for order in range(side - s):
                    if v > 0:
                        acc = z * R[:, order + 1, tt, u, v - 1]
                        if v > 1:
                            acc = acc + (v - 1) * R[:, order + 1, tt, u, v - 2]
                    elif u > 0:
                        acc = y * R[:, order + 1, tt, u - 1, v]
                        if u > 1:
                            acc = acc + (u - 1) * R[:, order + 1, tt, u - 2, v]
                    else:
                        acc = x * R[:, order + 1, tt - 1, u, v]
                        if tt > 1:
                            acc = acc + (tt - 1) * R[:, order + 1, tt - 2, u, v]
                    R[:, order, tt, u, v] = acc
    return R[:, 0].reshape(n, side ** 3)


# ----------------------------------------------------------------------------
# Primitive-pair tables, one per angular class
# ----------------------------------------------------------------------------

@dataclass
class _PairTable:
    """Shell pairs of one class over their distinct primitive pairs. Rows of
    ``C`` are shell pairs (``C is None``: one row per primitive pair, as for
    point charges); ``ij``/``ji`` are the flat AO-pair indices (row * n_ao +
    col) of the AO products, shell pair by shell pair, and of their mirrors."""

    l: int                      # l_a + l_b
    p: np.ndarray               # combined exponents, (npp,); inf for a point charge
    P: np.ndarray               # product centres, (npp, 3)
    e3: np.ndarray              # exp(-mu AB^2) (pi/p)^1.5 E_tuv, (npp, (l+1)^3, n_ab)
    C: np.ndarray | None        # c_a c_b, (n_shell_pairs, npp)
    kin: np.ndarray | None = None   # kinetic energy per primitive pair, (npp, n_ab)
    ij: np.ndarray | None = None
    ji: np.ndarray | None = None


def _kin1d(E: np.ndarray, i: int, j: int, beta: np.ndarray) -> np.ndarray:
    """One Cartesian factor of <a| -1/2 d^2/dx^2 |b> in units of the overlap
    prefactor; needs E extended by 2 in j."""
    term = -2.0 * beta * beta * E[:, i, j + 2, 0] + beta * (2 * j + 1) * E[:, i, j, 0]
    if j >= 2:
        term = term - 0.5 * j * (j - 1) * E[:, i, j - 2, 0]
    return term


def _pair_table(la: int, lb: int, pairs: list[tuple[Shell, Shell]], n_ao: int) -> _PairTable:
    """The table of class (la, lb), built with array operations over all of
    its primitive pairs at once."""
    # one row (shell pair, A, B, alpha, beta, c_a c_b) per primitive product
    prims = np.concatenate([
        np.stack(np.broadcast_arrays(
            m, *a.center, *b.center, a.exponents[:, None], b.exponents,
            np.outer(a.coefficients, b.coefficients)), axis=-1).reshape(-1, 10)
        for m, (a, b) in enumerate(pairs)
    ])
    key, col = np.unique(prims[:, 1:9], axis=0, return_inverse=True)
    C = np.zeros((len(pairs), len(key)))
    np.add.at(C, (prims[:, 0].astype(int), col.ravel()), prims[:, 9])
    A, B, alpha, beta = key[:, 0:3], key[:, 3:6], key[:, 6], key[:, 7]
    p = alpha + beta
    ab = A - B
    pref = np.exp(-alpha * beta / p * np.einsum("ij,ij->i", ab, ab))
    # a shell pair whose primitives are all screened out keeps a zero row
    keep = pref * np.abs(C).max(axis=0) >= _PREFACTOR_CUTOFF
    A, B, alpha, beta, p = A[keep], B[keep], alpha[keep], beta[keep], p[keep]
    pref, C = pref[keep], C[:, keep]
    P = (alpha[:, None] * A + beta[:, None] * B) / p[:, None]
    Ex, Ey, Ez = (
        _hermite_e(la, lb + 2, P[:, k] - A[:, k], P[:, k] - B[:, k], 0.5 / p) for k in range(3)
    )
    npp, side, ncart = p.size, la + lb + 1, N_CART[la] * N_CART[lb]
    e3 = np.zeros((npp, side, side, side, ncart))
    kin = np.empty((npp, ncart))
    for ia, (i1, j1, k1) in enumerate(CART_POWERS[la]):
        for ib, (i2, j2, k2) in enumerate(CART_POWERS[lb]):
            k = ia * N_CART[lb] + ib
            ex = Ex[:, i1, i2, : i1 + i2 + 1]
            ey = Ey[:, j1, j2, : j1 + j2 + 1]
            ez = Ez[:, k1, k2, : k1 + k2 + 1]
            e3[:, : i1 + i2 + 1, : j1 + j2 + 1, : k1 + k2 + 1, k] = (
                ex[:, :, None, None] * ey[:, None, :, None] * ez[:, None, None, :]
            )
            sx, sy, sz = ex[:, 0], ey[:, 0], ez[:, 0]
            kin[:, k] = (_kin1d(Ex, i1, i2, beta) * sy * sz + sx * _kin1d(Ey, j1, j2, beta) * sz
                         + sx * sy * _kin1d(Ez, k1, k2, beta))
    sph = np.kron(SPH_TRANSFORM[la], SPH_TRANSFORM[lb])
    w = (pref * (math.pi / p) ** 1.5)[:, None]
    rows = np.array([a.ao_offset for a, _ in pairs])[:, None, None] + np.arange(N_SPH[la])[:, None]
    cols = np.array([b.ao_offset for _, b in pairs])[:, None, None] + np.arange(N_SPH[lb])
    return _PairTable(
        l=la + lb, p=p, P=P,
        e3=(e3.reshape(npp, side ** 3, ncart) @ sph.T) * w[:, :, None],
        C=C, kin=(kin @ sph.T) * w,
        ij=(rows * n_ao + cols).ravel(), ji=(cols * n_ao + rows).ravel(),
    )


def _pair_tables(basis: AOBasis) -> list[_PairTable]:
    """One table per angular class present, in the order (0,0), (1,0),
    (1,1), (2,0), (2,1), (2,2); each unordered shell pair is in one table,
    oriented so that l_a >= l_b."""
    classes: dict[tuple[int, int], list[tuple[Shell, Shell]]] = {}
    shells = basis.shells
    for i, sha in enumerate(shells):
        for shb in shells[: i + 1]:
            a, b = (sha, shb) if sha.L >= shb.L else (shb, sha)
            classes.setdefault((a.L, b.L), []).append((a, b))
    return [_pair_table(la, lb, classes[la, lb], basis.n_ao) for la, lb in sorted(classes)]


@lru_cache(maxsize=None)
def _eri_gather(l_ab: int, l_cd: int):
    """Flat gather indices into the (l_ab+l_cd+1)^3 cube of R, (bra tuv,
    ket tuv), and the ket parity signs (-1)^(t+u+v)."""
    side = l_ab + l_cd + 1
    ab = np.indices((l_ab + 1,) * 3).reshape(3, -1)
    cd = np.indices((l_cd + 1,) * 3).reshape(3, -1)
    tuv = ab[:, :, None] + cd[:, None, :]
    return (tuv[0] * side + tuv[1]) * side + tuv[2], (-1.0) ** cd.sum(axis=0)


def _coulomb(bra: _PairTable, ket: _PairTable) -> np.ndarray:
    """(bra | ket) over the AO products of two tables, shape
    (m_bra n_ab, m_ket n_cd). Per chunk of bra primitives and of ket
    primitives: one Boys call and one R recursion over all their quartets,
    a batched GEMM with the ket's e3, then C_ket; per chunk of bra
    primitives: the bra's e3, then C_bra. The chunks keep every per-chunk
    intermediate within _CHUNK_DOUBLES.

    With (pi/p)^1.5 inside e3 the prefactor 2 pi^2.5 / (p q sqrt(p+q)) is
    2 sqrt(rho/pi), rho = 1/(1/p + 1/q); a point charge (q = inf) gives
    rho = p, and so the ESP prefactor 2 pi / p.
    """
    gather, signs = _eri_gather(bra.l, ket.l)
    nt, ns = gather.shape
    nq, n_cd = ket.e3.shape[0], ket.e3.shape[2]
    m_ket = nq if ket.C is None else ket.C.shape[0]
    m_bra, n_ab = bra.C.shape[0], bra.e3.shape[2]
    side = bra.l + ket.l + 1
    per_quartet = max(3, side ** 4, nt * max(ns, n_cd))  # PQ, R, the gathered R and r @ e3
    qstep = max(1, min(nq, _CHUNK_DOUBLES // per_quartet))
    bstep = max(1, _CHUNK_DOUBLES // max(qstep * per_quartet, m_ket * n_cd * max(nt, n_ab)))
    e3k = ket.e3 * signs[:, None]
    out = np.zeros((m_bra, n_ab * m_ket * n_cd))
    for s in range(0, bra.p.size, bstep):
        p, P = bra.p[s : s + bstep, None], bra.P[s : s + bstep, None, :]
        nb = p.shape[0]
        half = np.zeros((m_ket, nb * nt * n_cd))
        for u in range(0, nq, qstep):
            q, Q = ket.p[None, u : u + qstep], ket.P[None, u : u + qstep, :]
            nc = q.shape[1]
            rho = (1.0 / (1.0 / p + 1.0 / q)).ravel()
            r = _hermite_coulomb(side - 1, rho, (P - Q).reshape(-1, 3))
            r *= 2.0 * np.sqrt(rho / math.pi)[:, None]
            r = r.reshape(nb, nc, side ** 3).transpose(1, 0, 2)[:, :, gather]
            y = (r.reshape(nc, nb * nt, ns) @ e3k[u : u + qstep]).reshape(nc, nb * nt * n_cd)
            if ket.C is None:
                half[u : u + nc] = y
            else:
                half += ket.C[:, u : u + qstep] @ y
        half = half.reshape(m_ket, nb, nt, n_cd).transpose(1, 2, 0, 3)
        full = bra.e3[s : s + bstep].transpose(0, 2, 1) @ half.reshape(nb, nt, m_ket * n_cd)
        out += bra.C[:, s : s + bstep] @ full.reshape(nb, n_ab * m_ket * n_cd)
    return out.reshape(m_bra * n_ab, m_ket * n_cd)


# ----------------------------------------------------------------------------
# One-electron integrals
# ----------------------------------------------------------------------------

@dataclass
class OneElectronIntegrals:
    overlap: np.ndarray
    kinetic: np.ndarray
    nuclear: np.ndarray
    e_nuc: float

    @property
    def core(self) -> np.ndarray:
        return self.kinetic + self.nuclear


def _potential(tables: list[_PairTable], n_ao: int, points: np.ndarray) -> np.ndarray:
    """<mu| 1/|r - C| |nu> for every point C, shape (n_points, n_ao, n_ao):
    the kernel with the points as a ket table of unit point charges."""
    points = np.asarray(points, float).reshape(-1, 3)
    n = points.shape[0]
    charges = _PairTable(0, np.full(n, np.inf), points, np.ones((n, 1, 1)), None)
    out = np.zeros((n, n_ao * n_ao))
    for tab in tables:
        blk = _coulomb(tab, charges).T
        out[:, tab.ij] = blk
        out[:, tab.ji] = blk
    return out.reshape(n, n_ao, n_ao)


def esp_tensor(basis: AOBasis, points: np.ndarray) -> np.ndarray:
    """Stacked ESP integral matrices, shape (n_points, n_ao, n_ao)."""
    return _potential(_pair_tables(basis), basis.n_ao, points)


def compute_one_electron(geometry: Geometry, basis: AOBasis) -> OneElectronIntegrals:
    """Overlap, kinetic and nuclear-attraction matrices plus E_nuc; the
    nuclear attraction is -sum_A Z_A times the ESP integrals at nucleus A."""
    n = basis.n_ao
    S = np.zeros(n * n)
    T = np.zeros(n * n)
    tables = _pair_tables(basis)
    for tab in tables:
        for out, per_prim in ((S, tab.e3[:, 0, :]), (T, tab.kin)):
            blk = (tab.C @ per_prim).ravel()
            out[tab.ij] = blk
            out[tab.ji] = blk
    V = -np.tensordot(geometry.numbers, _potential(tables, n, geometry.coords), axes=1)
    return OneElectronIntegrals(S.reshape(n, n), T.reshape(n, n), V, nuclear_repulsion(geometry))


# ----------------------------------------------------------------------------
# Electron repulsion integrals
# ----------------------------------------------------------------------------

MAX_ERI_AO = 64


def compute_eri(basis: AOBasis) -> np.ndarray:
    """Full (mu nu | lam sig) tensor in chemist notation: one kernel call per
    pair of tables, each block written to its 8 symmetric positions.

    Guarded to n_ao <= 64: beyond that the dense tensor stops being a
    desk-scale object.
    """
    n = basis.n_ao
    if n > MAX_ERI_AO:
        raise CapacityError(
            f"dense ERI requested for {n} AOs exceeds the {MAX_ERI_AO}-AO cap"
        )
    eri = np.zeros((n * n, n * n))
    tables = _pair_tables(basis)
    for i, bra in enumerate(tables):
        for ket in tables[: i + 1]:
            blk = _coulomb(bra, ket)
            for rows in (bra.ij, bra.ji):
                for cols in (ket.ij, ket.ji):
                    eri[np.ix_(rows, cols)] = blk
                    eri[np.ix_(cols, rows)] = blk.T
    return eri.reshape(n, n, n, n)
