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
into n_pk = n_orb (n_orb + 1) / 2 indices K. For each alpha string a, its
w_a entries (column c_m, packed pair L_m, sign s_m) give

    c_a[K, b'] = sum_m s_m (L_m|K) psi[c_m, b'],

an (n_pk x w_a) by (w_a x n) GEMM on rows of psi; the beta entries then
gather c_a at their (pair, column) and sum into row a of sigma. The work is
n^2 n_pk w_a, not the n^2 n_orb^4 of a dense pair-pair ERI product. The GEMM
writes all of c_a, but the gather reads only a fraction of it (under 10% on
sampled (8e, 20o) subspaces), so the cost is the traffic of c, not the
flops: c must stay in a core's L2 (Goto & van de Geijn, ACM TOMS 34, 12
(2008)). Rows are taken longest first, and a block of them is cut wherever
the row length changes and wherever its output rows x n_pk x n would pass
_BLOCK_BYTES. Each block is one batched GEMM over rows of equal length, with
no padding, that reads and writes whole rows of psi and sigma.

In-space excitations are found among the strings, not by building every
candidate excitation of every string (Scemama & Giner, arXiv:1311.6244):
two words differ by a single when their XOR has popcount 2, by a double at
popcount 4, and the XOR is taken one block of rows at a time within
_BLOCK_BYTES. From a column word w_c to a row word w_r, the holes are
w_c & ~w_r and the particles w_r & ~w_c; x & -x isolates the lowest, its
orbital is popcount(x - 1), and signs are parities of masked popcounts.
Entries are kept sorted by row, then column, so a row's entries are one
contiguous run that the blocks and the cross-spin gather read without a sort.
"""

from __future__ import annotations

import numpy as np

from ..active_space import ActiveHamiltonian
from .strings import SubspaceBasis

# bytes of one cross-spin GEMM output (kept in L2) and of one XOR block: on a
# Xeon with 4 MiB of L2 per core, 512 KiB ran the fastest of 256 KiB to 2 MiB
_BLOCK_BYTES = 1 << 19


def _excitation_pairs(strings: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of every ordered pair of strings whose words differ in
    exactly 2 * rank bits, in row-major order, found blockwise over rows."""
    n = len(strings)
    block = max(1, _BLOCK_BYTES // (8 * n))
    flat = [
        np.flatnonzero(np.bitwise_count(strings[i0 : i0 + block, None] ^ strings) == 2 * rank)
        + i0 * n
        for i0 in range(0, n, block)
    ]
    return np.divmod(np.concatenate(flat), n)


def _orbital(bit: np.ndarray) -> np.ndarray:
    """Orbital index of each one-bit word."""
    return np.bitwise_count(bit - 1).astype(np.int64)


def _hop_sign(word: np.ndarray, hole: np.ndarray, particle: np.ndarray) -> np.ndarray:
    """Sign of a+_p a_q |word> for one-bit words hole = 1 << q (occupied) and
    particle = 1 << p (empty once q is): the parity of the electrons below q
    plus those below p after q is emptied."""
    parity = np.bitwise_count(word & (hole - 1)) + np.bitwise_count(
        (word ^ hole) & (particle - 1)
    )
    return 1.0 - 2 * (parity & 1)


class ExcitationTables:
    """In-space entries of <u_i| a+_p a_q |u_j> over one string list.

    The raw arrays (rows, cols, pairs = p * n_orb + q, signs) hold one entry
    each, number operators included, in row order: by row, then column, and
    a row's number operators by q. `packed` is each entry's pair index with
    p >= q, and row i holds `row_lengths[i]` entries.
    """

    def __init__(self, basis: SubspaceBasis):
        self.basis = basis
        n_orb = basis.n_orb
        self.n_pairs = n_orb * n_orb
        self.occ_mat = basis.occupation_matrix()
        diag, occ = np.nonzero(self.occ_mat)
        rows, cols = _excitation_pairs(basis.strings, 1)
        source, target = basis.strings[cols], basis.strings[rows]
        hole, particle = source & ~target, target & ~source
        rows = np.concatenate([diag, rows])
        cols = np.concatenate([diag, cols])
        pairs = np.concatenate([
            occ * (n_orb + 1), _orbital(particle) * n_orb + _orbital(hole)
        ])
        signs = np.concatenate([np.ones(len(occ)), _hop_sign(source, hole, particle)])
        # stable, so a row's number operators keep their q order
        order = np.lexsort((cols, rows))
        self.rows, self.cols = rows[order], cols[order]
        self.pairs, self.signs = pairs[order], signs[order]

        p, q = np.tril_indices(n_orb)
        self.n_packed = len(p)
        tri = np.zeros((n_orb, n_orb), dtype=np.int64)
        tri[p, q] = tri[q, p] = np.arange(self.n_packed)
        self.packed = tri.ravel()[self.pairs]

        self.row_lengths = np.bincount(self.rows, minlength=basis.n_strings)

    def same_spin_matrix(self, eri: np.ndarray) -> np.ndarray:
        """Dense n x n two-electron part of <u_r| H_same |u_c>: doubles,
        singles and the diagonal."""
        n_orb = self.basis.n_orb
        n = self.basis.n_strings
        strings = self.basis.strings
        # a double a+_b a_j a+_a a_i takes holes i < j of the column string
        # to particles a < b of the row string
        d_rows, d_cols = _excitation_pairs(strings, 2)
        source, target = strings[d_cols], strings[d_rows]
        holes, parts = source & ~target, target & ~source
        hole_i, part_a = holes & -holes, parts & -parts
        hole_j, part_b = holes ^ hole_i, parts ^ part_a
        sign = _hop_sign(source, hole_i, part_a) * _hop_sign(
            source ^ hole_i ^ part_a, hole_j, part_b
        )
        i, j, a, b = (_orbital(bit) for bit in (hole_i, hole_j, part_a, part_b))
        d_data = sign * (eri[a, i, b, j] - eri[a, j, b, i])

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
            d_rows * n + d_cols,
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

    def __init__(self, active: ActiveHamiltonian, basis: SubspaceBasis):
        eri = active.eri
        for swapped in (eri.transpose(1, 0, 2, 3), eri.transpose(0, 1, 3, 2)):
            if np.abs(eri - swapped).max(initial=0.0) > 1e-10:
                raise ValueError(
                    "active-space ERIs must satisfy (pq|rs) = (qp|rs) = (pq|sr)"
                )
        self.active = active
        self.basis = basis
        self.tables = t = ExcitationTables(basis)
        self.n_strings = n = basis.n_strings
        self.d = basis.d
        self._h_two = t.same_spin_matrix(eri)
        p, q = np.tril_indices(basis.n_orb)
        eri_packed = eri[p, q][:, p, q]
        # the entries in row order: each row is one reduceat segment, never
        # empty because it holds its n_alpha number-operator entries
        self._gather = t.packed * n + t.cols
        self._row_starts = starts = np.cumsum(t.row_lengths) - t.row_lengths
        # blocks (rows, columns, v3) of alpha rows, longest first and one row
        # length each, with v3[a, K, m] = sign_am (L_am | K); the blocks of one
        # length slice one contiguous array. With n_alpha = 0 no string has an
        # entry, and there is no cross-spin term.
        order = np.argsort(-t.row_lengths, kind="stable")
        per_block = max(1, _BLOCK_BYTES // (8 * t.n_packed * n))
        self._blocks = []
        cuts = np.flatnonzero(np.diff(t.row_lengths[order])) + 1
        for group in np.split(order, cuts) if len(t.rows) else []:
            idx = starts[group, None] + np.arange(t.row_lengths[group[0]])
            v3 = eri_packed[t.packed[idx]] * t.signs[idx, None]
            v3 = v3.transpose(0, 2, 1).copy()
            for j0 in range(0, len(group), per_block):
                at = slice(j0, j0 + per_block)
                self._blocks.append((group[at], t.cols[idx[at]], v3[at]))
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
        for rows, cols, v3 in self._blocks:
            c = np.matmul(v3, psi[cols])
            gathered = np.take(c.reshape(len(rows), -1), self._gather, axis=1)
            gathered *= self.tables.signs
            sigma[rows] += np.add.reduceat(gathered, self._row_starts, axis=1)
            del c, gathered  # before the next block's GEMM
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
