"""Gaussian integrals over contracted solid-harmonic shells (L <= 2).

McMurchie-Davidson scheme: Cartesian Gaussian products are expanded in
Hermite Gaussians via the E-coefficient recursions; Coulomb-type integrals
contract Hermite expansions against the auxiliary integrals

    R^n_{tuv}(p, PC) built from Boys functions F_n(p |PC|^2),

and Cartesian blocks are mapped to spherical AOs at the end.  Everything is
vectorized over primitive pairs (and pair-products for repulsion integrals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import AOBasis, CART_POWERS, N_CART, SPH_TRANSFORM, Shell
from .errors import CapacityError
from .geometry import Geometry, nuclear_repulsion

_PREFACTOR_CUTOFF = 1e-14
_SERIES_THRESHOLD = 35.0
_TWO_PI = 2.0 * math.pi
_PI_1_5 = math.pi ** 1.5


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
        while True:
            denom += 2
            term *= (2.0 * ts) / denom
            total += term
            if term.max(initial=0.0) < 1e-17 * max(total.min(initial=1.0), 1e-300):
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


@dataclass
class _ShellPair:
    la: int
    lb: int
    npp: int
    p: np.ndarray        # combined exponents
    beta: np.ndarray     # exponent of the second shell's primitive
    K: np.ndarray        # contraction-weighted Gaussian product prefactors
    P: np.ndarray        # product centers, (npp, 3)
    Ex: np.ndarray
    Ey: np.ndarray
    Ez: np.ndarray


def _shell_pair(sha: Shell, shb: Shell, extend_b: int = 0) -> _ShellPair:
    a = sha.exponents
    b = shb.exponents
    aa = np.repeat(a, b.size)
    bb = np.tile(b, a.size)
    cc = np.repeat(sha.coefficients, b.size) * np.tile(shb.coefficients, a.size)
    p = aa + bb
    mu = aa * bb / p
    ab = sha.center - shb.center
    K = np.exp(-mu * (ab @ ab)) * cc
    keep = np.abs(K) >= _PREFACTOR_CUTOFF
    aa, bb, p, K = aa[keep], bb[keep], p[keep], K[keep]
    P = (aa[:, None] * sha.center[None, :] + bb[:, None] * shb.center[None, :]) / p[:, None]
    pa = P - sha.center[None, :]
    pb = P - shb.center[None, :]
    inv2p = 0.5 / p
    lb = shb.L + extend_b
    return _ShellPair(
        la=sha.L,
        lb=shb.L,
        npp=p.size,
        p=p,
        beta=bb,
        K=K,
        P=P,
        Ex=_hermite_e(sha.L, lb, pa[:, 0], pb[:, 0], inv2p),
        Ey=_hermite_e(sha.L, lb, pa[:, 1], pb[:, 1], inv2p),
        Ez=_hermite_e(sha.L, lb, pa[:, 2], pb[:, 2], inv2p),
    )


def _e3_tensor(pair: _ShellPair) -> np.ndarray:
    """Combined Hermite expansion E^{ab}_{tuv} per Cartesian component pair.

    Shape (npp, ncartA*ncartB, (la+lb+1)^3), Gaussian prefactor K folded in.
    """
    la, lb = pair.la, pair.lb
    side = la + lb + 1
    na, nb = N_CART[la], N_CART[lb]
    out = np.zeros((pair.npp, na * nb, side, side, side))
    for ia, (i1, j1, k1) in enumerate(CART_POWERS[la]):
        for ib, (i2, j2, k2) in enumerate(CART_POWERS[lb]):
            ex = pair.Ex[:, i1, i2, : i1 + i2 + 1]
            ey = pair.Ey[:, j1, j2, : j1 + j2 + 1]
            ez = pair.Ez[:, k1, k2, : k1 + k2 + 1]
            out[:, ia * nb + ib, : i1 + i2 + 1, : j1 + j2 + 1, : k1 + k2 + 1] = (
                np.einsum("pt,pu,pv->ptuv", ex, ey, ez)
            )
    out *= pair.K[:, None, None, None, None]
    return out.reshape(pair.npp, na * nb, side ** 3)


@lru_cache(maxsize=None)
def _eri_gather(l_ab: int, l_cd: int):
    """Flat gather indices and ket parity signs for the Hermite contraction."""
    side_ab, side_cd = l_ab + 1, l_cd + 1
    side = l_ab + l_cd + 1
    rng_ab = np.arange(side_ab)
    rng_cd = np.arange(side_cd)
    t = rng_ab[:, None, None, None, None, None]
    u = rng_ab[None, :, None, None, None, None]
    v = rng_ab[None, None, :, None, None, None]
    tp = rng_cd[None, None, None, :, None, None]
    up = rng_cd[None, None, None, None, :, None]
    vp = rng_cd[None, None, None, None, None, :]
    flat = ((t + tp) * side + (u + up)) * side + (v + vp)
    gather = flat.reshape(side_ab ** 3, side_cd ** 3)
    signs = ((-1.0) ** (rng_cd[:, None, None] + rng_cd[None, :, None] + rng_cd[None, None, :]))
    return gather, signs.reshape(side_cd ** 3)


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


def _sphericalize_2(block: np.ndarray, la: int, lb: int) -> np.ndarray:
    ta, tb = SPH_TRANSFORM[la], SPH_TRANSFORM[lb]
    return ta @ block @ tb.T


def _pair_overlap_kinetic(pair: _ShellPair):
    la, lb = pair.la, pair.lb
    na, nb = N_CART[la], N_CART[lb]
    pref = pair.K * (math.pi / pair.p) ** 1.5
    beta = pair.beta
    s_blk = np.empty((na, nb))
    t_blk = np.empty((na, nb))

    def e0(E, i, j):
        return E[:, i, j, 0]

    def kin1d(E, i, j):
        term = -2.0 * beta * beta * e0(E, i, j + 2) + beta * (2 * j + 1) * e0(E, i, j)
        if j >= 2:
            term = term - 0.5 * j * (j - 1) * e0(E, i, j - 2)
        return term

    for ia, (i1, j1, k1) in enumerate(CART_POWERS[la]):
        for ib, (i2, j2, k2) in enumerate(CART_POWERS[lb]):
            ex, ey, ez = e0(pair.Ex, i1, i2), e0(pair.Ey, j1, j2), e0(pair.Ez, k1, k2)
            tx, ty, tz = kin1d(pair.Ex, i1, i2), kin1d(pair.Ey, j1, j2), kin1d(pair.Ez, k1, k2)
            s_blk[ia, ib] = np.dot(pref, ex * ey * ez)
            t_blk[ia, ib] = np.dot(pref, tx * ey * ez + ex * ty * ez + ex * ey * tz)
    return _sphericalize_2(s_blk, la, lb), _sphericalize_2(t_blk, la, lb)


def _esp_cart_blocks(pair: _ShellPair, points: np.ndarray, chunk: int = 256):
    """<a| 1/|r - C| |b> over Cartesian component pairs for every point C.

    Returns shape (npts, ncartA*ncartB).
    """
    la, lb = pair.la, pair.lb
    side3 = (la + lb + 1) ** 3
    e3w = _e3_tensor(pair) * (_TWO_PI / pair.p)[:, None, None]
    npts = points.shape[0]
    out = np.empty((npts, e3w.shape[1]))
    for start in range(0, npts, chunk):
        pts = points[start : start + chunk]
        nc = pts.shape[0]
        pc = pair.P[:, None, :] - pts[None, :, :]
        rho = np.repeat(pair.p, nc)
        r = _hermite_coulomb(la + lb, rho, pc.reshape(-1, 3)).reshape(pair.npp, nc, side3)
        out[start : start + nc] = np.einsum("pns,pas->na", r, e3w, optimize=True)
    return out


def compute_one_electron(geometry: Geometry, basis: AOBasis) -> OneElectronIntegrals:
    """Overlap, kinetic and nuclear-attraction matrices plus E_nuc."""
    n = basis.n_ao
    S = np.zeros((n, n))
    T = np.zeros((n, n))
    V = np.zeros((n, n))
    charges = geometry.numbers
    centers = geometry.coords
    for ish, sha in enumerate(basis.shells):
        for shb in basis.shells[: ish + 1]:
            pair = _shell_pair(sha, shb, extend_b=2)
            s_blk, t_blk = _pair_overlap_kinetic(pair)
            cart = _esp_cart_blocks(pair, centers)
            v_cart = -(charges[:, None] * cart).sum(axis=0)
            v_blk = _sphericalize_2(
                v_cart.reshape(N_CART[pair.la], N_CART[pair.lb]), pair.la, pair.lb
            )
            ra = slice(sha.ao_offset, sha.ao_offset + sha.n_ao)
            rb = slice(shb.ao_offset, shb.ao_offset + shb.n_ao)
            S[ra, rb], T[ra, rb], V[ra, rb] = s_blk, t_blk, v_blk
            if sha is not shb:
                S[rb, ra], T[rb, ra], V[rb, ra] = s_blk.T, t_blk.T, v_blk.T
    return OneElectronIntegrals(S, T, V, nuclear_repulsion(geometry))


def esp_tensor(basis: AOBasis, points: np.ndarray) -> np.ndarray:
    """Stacked ESP integral matrices, shape (n_points, n_ao, n_ao)."""
    points = np.asarray(points, float).reshape(-1, 3)
    n = basis.n_ao
    out = np.zeros((points.shape[0], n, n))
    for ish, sha in enumerate(basis.shells):
        for shb in basis.shells[: ish + 1]:
            pair = _shell_pair(sha, shb)
            cart = _esp_cart_blocks(pair, points)
            na, nb = N_CART[pair.la], N_CART[pair.lb]
            ta, tb = SPH_TRANSFORM[pair.la], SPH_TRANSFORM[pair.lb]
            blk = np.einsum("ai,bj,nij->nab", ta, tb, cart.reshape(-1, na, nb), optimize=True)
            ra = slice(sha.ao_offset, sha.ao_offset + sha.n_ao)
            rb = slice(shb.ao_offset, shb.ao_offset + shb.n_ao)
            out[:, ra, rb] = blk
            if sha is not shb:
                out[:, rb, ra] = blk.transpose(0, 2, 1)
    return out


# ----------------------------------------------------------------------------
# Electron repulsion integrals
# ----------------------------------------------------------------------------

MAX_ERI_AO = 64


def _quartet(pa: _ShellPair, e3a: np.ndarray, pc: _ShellPair, e3c: np.ndarray) -> np.ndarray:
    """(ab|cd) over Cartesian components for one shell quartet."""
    l_ab = pa.la + pa.lb
    l_cd = pc.la + pc.lb
    npp, nqq = pa.npp, pc.npp
    p = np.repeat(pa.p, nqq)
    q = np.tile(pc.p, npp)
    rho = p * q / (p + q)
    pq = (pa.P[:, None, :] - pc.P[None, :, :]).reshape(-1, 3)
    r = _hermite_coulomb(l_ab + l_cd, rho, pq)
    r *= (2.0 * math.pi ** 2.5 / (p * q * np.sqrt(p + q)))[:, None]
    gather, signs = _eri_gather(l_ab, l_cd)
    rm = r[:, gather.reshape(-1)].reshape(npp, nqq, gather.shape[0], gather.shape[1])
    half = np.einsum("pqts,qcs->pqtc", rm, e3c * signs[None, None, :], optimize=True)
    return np.einsum("pat,pqtc->ac", e3a, half, optimize=True)


def compute_eri(basis: AOBasis) -> np.ndarray:
    """Full (mu nu | lam sig) tensor in chemist notation with 8-fold symmetry.

    Guarded to n_ao <= 64: beyond that the dense tensor stops being a
    desk-scale object.
    """
    n = basis.n_ao
    if n > MAX_ERI_AO:
        raise CapacityError(
            f"dense ERI requested for {n} AOs exceeds the {MAX_ERI_AO}-AO cap"
        )
    eri = np.zeros((n, n, n, n))
    shells = basis.shells
    nsh = len(shells)
    pair_list = [(i, j) for i in range(nsh) for j in range(i + 1)]
    pair_data = {}
    for (i, j) in pair_list:
        pr = _shell_pair(shells[i], shells[j])
        pair_data[(i, j)] = (pr, _e3_tensor(pr))

    def sph4(block, la, lb, lc, ld):
        t = (SPH_TRANSFORM[la], SPH_TRANSFORM[lb], SPH_TRANSFORM[lc], SPH_TRANSFORM[ld])
        blk = block.reshape(N_CART[la], N_CART[lb], N_CART[lc], N_CART[ld])
        return np.einsum("ai,bj,ck,dl,ijkl->abcd", *t, blk, optimize=True)

    for ipair, (a, b) in enumerate(pair_list):
        pra, e3a = pair_data[(a, b)]
        sa = slice(shells[a].ao_offset, shells[a].ao_offset + shells[a].n_ao)
        sb = slice(shells[b].ao_offset, shells[b].ao_offset + shells[b].n_ao)
        for (c, d) in pair_list[: ipair + 1]:
            prc, e3c = pair_data[(c, d)]
            if pra.npp == 0 or prc.npp == 0:
                continue
            blk = sph4(
                _quartet(pra, e3a, prc, e3c),
                shells[a].L, shells[b].L, shells[c].L, shells[d].L,
            )
            sc = slice(shells[c].ao_offset, shells[c].ao_offset + shells[c].n_ao)
            sd = slice(shells[d].ao_offset, shells[d].ao_offset + shells[d].n_ao)
            eri[sa, sb, sc, sd] = blk
            eri[sb, sa, sc, sd] = blk.transpose(1, 0, 2, 3)
            eri[sa, sb, sd, sc] = blk.transpose(0, 1, 3, 2)
            eri[sb, sa, sd, sc] = blk.transpose(1, 0, 3, 2)
            eri[sc, sd, sa, sb] = blk.transpose(2, 3, 0, 1)
            eri[sd, sc, sa, sb] = blk.transpose(3, 2, 0, 1)
            eri[sc, sd, sb, sa] = blk.transpose(2, 3, 1, 0)
            eri[sd, sc, sb, sa] = blk.transpose(3, 2, 1, 0)
    return eri
