"""Projected many-body Hamiltonian over a sampled determinant subspace.

The Hamiltonian splits by spin:

    H = H_same^alpha + H_same^beta + sum_pqrs (pq|rs) E^alpha_pq E^beta_rs

Same-spin blocks act on one spin-string index of the CI matrix psi[U x U],
and their matrix elements between in-space strings follow the Slater-Condon
rules directly (a matrix element between two members of the space is exact
regardless of where intermediate excitations would land, so no operator
factorization is used for same-spin double excitations). Both spins share
one dense n x n operator h_same, so

    sigma = h_same psi + psi h_same^T + (cross-spin term)

is two GEMMs. The operator is the size of one CI vector, and recovered
subspaces cluster near the reference, where a string connects to a sizeable
fraction of U (about 47% of h_same is nonzero on sampled (8e, 20o)
subspaces), so dense BLAS beats a sparse product. Only on strings spread
uniformly over a large orbital space (under 1% nonzero) is a sparse product
faster.

The opposite-spin channel couples only through single excitations and number
operators, all of which stay inside U x U, so it is evaluated exactly from
the in-space entries of T_pq[i, j] = <u_i| a+_p a_q |u_j>:

    sigma += sum_pq,rs (pq|rs) T_pq psi T_rs^T

Real orbitals give (pq|rs) = (qp|rs) = (pq|sr), so pairs are packed p >= q
into n_pk = n_orb (n_orb + 1) / 2 indices K. For each beta string b, its at
most s_max entries (column c_m, packed pair L_m, sign s_m) give

    c_b[K, a'] = sum_m s_m (K|L_m) psi[a', c_m],

a batch of (n_pk x s_max) GEMMs; the alpha entries then gather c_b at their
(pair, column) and sum into their row. The work is n^2 n_pk s_max, not the
n^2 n_orb^4 of a dense pair-pair ERI product. Beta rows are taken longest
first in chunks, each padded only to its own longest row: in sampled
subspaces the longest row is about three times the mean.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ..active_space import ActiveHamiltonian
from .strings import SubspaceBasis

_CHUNK_BUDGET_DOUBLES = 500_000  # bounds c per chunk; 4 MB stays in cache


def _single_sign(word: int, hole: int, particle: int) -> int:
    """Fermionic sign of a+_particle a_hole |word> (hole occupied, particle
    empty in word \\ {hole})."""
    below_hole = (word & ((1 << hole) - 1)).bit_count()
    stripped = word & ~(1 << hole)
    below_particle = (stripped & ((1 << particle) - 1)).bit_count()
    return -1 if (below_hole + below_particle) & 1 else 1


class ExcitationTables:
    """In-space entries of <u_i| a+_p a_q |u_j> over one string list.

    The raw arrays (rows, cols, pairs = p * n_orb + q, signs) hold one entry
    each, number operators included; `packed` is each entry's pair index
    with p >= q. The row-padded view `slot_cols`, `slot_pairs`, `slot_signs`
    of shape (n_strings, s_max) lists the `row_lengths[i]` entries of each
    row i first, then padding with sign 0.
    """

    def __init__(self, basis: SubspaceBasis):
        self.basis = basis
        n_orb = basis.n_orb
        self.n_pairs = n_orb * n_orb
        strings = [int(w) for w in basis.strings]
        index = basis.index

        rows, cols, pairs, signs = [], [], [], []
        for j, w in enumerate(strings):
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
                        signs.append(_single_sign(w, q, p))
        self.rows = np.array(rows, dtype=np.int64)
        self.cols = np.array(cols, dtype=np.int64)
        self.pairs = np.array(pairs, dtype=np.int64)
        self.signs = np.array(signs, dtype=np.float64)

        p, q = np.tril_indices(n_orb)
        self.n_packed = len(p)
        tri = np.zeros((n_orb, n_orb), dtype=np.int64)
        tri[p, q] = tri[q, p] = np.arange(self.n_packed)
        self.packed = tri.ravel()[self.pairs]

        n = basis.n_strings
        order = np.argsort(self.rows, kind="stable")
        per_row = self.row_lengths = np.bincount(self.rows, minlength=n)
        slot = np.arange(len(order)) - np.repeat(np.cumsum(per_row) - per_row, per_row)
        shape = (n, int(per_row.max()))
        self.slot_cols = np.zeros(shape, dtype=np.int64)
        self.slot_pairs = np.zeros(shape, dtype=np.int64)
        self.slot_signs = np.zeros(shape)
        at = (self.rows[order], slot)
        self.slot_cols[at] = self.cols[order]
        self.slot_pairs[at] = self.packed[order]
        self.slot_signs[at] = self.signs[order]
        self.occ_mat = basis.occupation_matrix()

    def same_spin_matrix(self, eri: np.ndarray) -> np.ndarray:
        """Dense n x n two-electron part of <u_r| H_same |u_c>: doubles,
        singles and the diagonal."""
        basis = self.basis
        n_orb = basis.n_orb
        index = basis.index
        n = basis.n_strings
        d_flat, d_data = [], []
        for j, w in enumerate(int(w) for w in basis.strings):
            occ = [p for p in range(n_orb) if (w >> p) & 1]
            vir = [p for p in range(n_orb) if not (w >> p) & 1]
            for i_h, j_h in combinations(occ, 2):
                stripped = w & ~(1 << i_h) & ~(1 << j_h)
                for a, b in combinations(vir, 2):
                    r = index.get(stripped | (1 << a) | (1 << b))
                    if r is None:
                        continue
                    s1 = _single_sign(w, i_h, a)
                    mid = (w & ~(1 << i_h)) | (1 << a)
                    s2 = _single_sign(mid, j_h, b)
                    d_flat.append(r * n + j)
                    d_data.append(s1 * s2 * (eri[a, i_h, b, j_h] - eri[a, j_h, b, i_h]))

        # jk[p, q, r] = (pq|rr) - (pr|rq); its r = q term vanishes, so a
        # single q -> p from string c has the 2e part sum_r occ[c, r] jk[p, q, r]
        jk = np.einsum("pqrr->pqr", eri) - np.einsum("prrq->pqr", eri)
        single = self.rows != self.cols
        p, q = np.divmod(self.pairs[single], n_orb)
        s_data = self.signs[single] * np.einsum(
            "er,er->e", self.occ_mat[self.cols[single]], jk[p, q]
        )
        occ = self.occ_mat
        diag = 0.5 * np.einsum("jp,pr,jr->j", occ, np.einsum("ppr->pr", jk), occ)
        flat = np.concatenate([
            self.rows[single] * n + self.cols[single],
            np.array(d_flat, dtype=np.int64),
            np.arange(n) * (n + 1),
        ])
        data = np.concatenate([s_data, d_data, diag])
        return np.bincount(flat, weights=data, minlength=n * n).reshape(n, n)

    def one_body_matrix(self, h: np.ndarray) -> np.ndarray:
        """Dense n x n sum_pq h_pq <u_r| a+_p a_q |u_c>."""
        n = self.basis.n_strings
        return np.bincount(
            self.rows * n + self.cols,
            weights=self.signs * h.ravel()[self.pairs],
            minlength=n * n,
        ).reshape(n, n)


class ProjectedHamiltonian:
    """Matrix-free H restricted to a SubspaceBasis, for one ActiveHamiltonian.

    Everything built from the ERIs survives `set_one_body`, which swaps in
    another h_eff and e_frozen over the same ERIs."""

    def __init__(
        self,
        active: ActiveHamiltonian,
        basis: SubspaceBasis,
        tables: ExcitationTables | None = None,
    ):
        if tables is not None and tables.basis is not basis:
            raise ValueError("excitation tables built for a different subspace")
        eri = active.eri
        for swapped in (eri.transpose(1, 0, 2, 3), eri.transpose(0, 1, 3, 2)):
            if np.abs(eri - swapped).max(initial=0.0) > 1e-10:
                raise ValueError(
                    "active-space ERIs must satisfy (pq|rs) = (qp|rs) = (pq|sr)"
                )
        self.active = active
        self.basis = basis
        self.tables = t = tables if tables is not None else ExcitationTables(basis)
        self.n_strings = n = basis.n_strings
        self.d = basis.d
        self._h_two = t.same_spin_matrix(eri)
        p, q = np.tril_indices(basis.n_orb)
        eri_packed = eri[p, q][:, p, q]
        self._chunk = max(1, min(n, _CHUNK_BUDGET_DOUBLES // max(1, t.n_packed * n)))
        # per chunk of beta rows: (rows, slot columns, v3) with
        # v3[b, K, m] = sign_bm (K | L_bm); with n_alpha = 0 no string has
        # an entry, and there is no cross-spin term
        order = np.argsort(-t.row_lengths, kind="stable")
        self._blocks = []
        for j0 in range(0, n if len(t.rows) else 0, self._chunk):
            rows = order[j0 : j0 + self._chunk]
            width = t.row_lengths[rows[0]]
            v3 = eri_packed[:, t.slot_pairs[rows, :width]] * t.slot_signs[rows, :width]
            v3 = np.ascontiguousarray(v3.transpose(1, 0, 2))
            self._blocks.append((rows, t.slot_cols[rows, :width], v3))
        # the entries in row order, read off the padded view: each row is
        # one reduceat segment, never empty because it holds its n_alpha
        # number-operator entries
        entry = t.slot_signs != 0
        self._gather = t.slot_pairs[entry] * n + t.slot_cols[entry]
        self._signs = t.slot_signs[entry]
        self._row_starts = np.cumsum(t.row_lengths) - t.row_lengths
        self._cross_diag = t.occ_mat @ np.einsum("pprr->pr", eri) @ t.occ_mat.T
        self.set_one_body(active)

    def set_one_body(self, active: ActiveHamiltonian) -> None:
        """Take h_eff and e_frozen from `active`, whose ERIs must be the ones
        this Hamiltonian was built from."""
        if active.eri is not self.active.eri and not np.array_equal(
            active.eri, self.active.eri
        ):
            raise ValueError(
                "set_one_body needs the ERIs this Hamiltonian was built from"
            )
        self.active = active
        self.e_frozen = active.e_frozen
        self.h_same = self._h_two + self.tables.one_body_matrix(active.h_eff)
        h_diag = np.diagonal(self.h_same)
        self._diag = (h_diag[:, None] + h_diag[None, :] + self._cross_diag).ravel()

    def diagonal(self) -> np.ndarray:
        """Electronic diagonal (frozen-core constant not included)."""
        return self._diag

    def matvec(self, x: np.ndarray) -> np.ndarray:
        n = self.n_strings
        psi = x.reshape(n, n)
        sigma = self.h_same @ psi
        sigma += psi @ self.h_same.T
        psi_t = np.ascontiguousarray(psi.T)
        for rows, slot_cols, v3 in self._blocks:
            c = np.matmul(v3, psi_t[slot_cols])
            gathered = c.reshape(len(rows), -1)[:, self._gather]
            gathered *= self._signs
            sigma[:, rows] += np.add.reduceat(gathered, self._row_starts, axis=1).T
        return sigma.ravel()

    def one_rdm_spin(self, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Spin-resolved one-particle RDMs (gamma_alpha, gamma_beta)."""
        n = self.n_strings
        n_orb = self.basis.n_orb
        m = psi.reshape(n, n)
        t = self.tables
        pa = m @ m.T
        pb = m.T @ m
        ga = np.bincount(
            t.pairs, weights=t.signs * pa[t.rows, t.cols], minlength=t.n_pairs
        ).reshape(n_orb, n_orb)
        gb = np.bincount(
            t.pairs, weights=t.signs * pb[t.rows, t.cols], minlength=t.n_pairs
        ).reshape(n_orb, n_orb)
        return ga, gb

    def one_rdm(self, psi: np.ndarray) -> np.ndarray:
        """Spin-summed one-particle RDM; trace = N_alpha + N_beta."""
        ga, gb = self.one_rdm_spin(psi)
        return ga + gb


def occupation_numbers(
    psi: np.ndarray, ham: ProjectedHamiltonian
) -> tuple[np.ndarray, np.ndarray]:
    """Per-orbital spin occupations <n_p_sigma> of a subspace CI vector."""
    ga, gb = ham.one_rdm_spin(psi)
    return ga.diagonal().copy(), gb.diagonal().copy()
