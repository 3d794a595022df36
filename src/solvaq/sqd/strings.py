"""Spin-string bookkeeping for the sampled determinant subspace.

A subspace is the Cartesian product U x U of one sorted, deduplicated list U
of occupation words (alpha and beta share U, which closes the space under
spin inversion). CI vectors over the subspace are stored alpha-major: the
determinant (a_i, b_j) lives at flat index i * |U| + j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..sampling import SampleSet


def enumerate_strings(n_orb: int, n_occ: int) -> np.ndarray:
    """All n_orb-bit words with Hamming weight n_occ, ascending."""
    if not 0 <= n_occ <= n_orb:
        raise ConfigError(f"cannot place {n_occ} electrons in {n_orb} orbitals")
    # words without orbital p, then with it: ascending; prune dead ends
    words = np.zeros(1, dtype=np.int64)
    for p in range(n_orb):
        words = np.concatenate([words, words | (1 << p)])
        weight = np.bitwise_count(words)
        words = words[(weight <= n_occ) & (weight + n_orb - 1 - p >= n_occ)]
    return words


@dataclass
class SubspaceBasis:
    """Determinant space U x U over one sorted spin-string list."""

    n_orb: int
    n_alpha: int
    n_beta: int
    strings: np.ndarray                      # sorted unique int64 words

    def __post_init__(self):
        self.strings = np.asarray(self.strings, dtype=np.int64)
        if np.any(np.diff(self.strings) <= 0):
            raise ValueError("subspace strings must be sorted and unique")
        if np.any(np.bitwise_count(self.strings) != self.n_alpha):
            raise ValueError("subspace string with wrong particle number")

    @property
    def n_strings(self) -> int:
        return len(self.strings)

    @property
    def d(self) -> int:
        return self.n_strings ** 2

    def determinant_words(self) -> tuple[np.ndarray, np.ndarray]:
        """(alpha, beta) words of every determinant, alpha-major flat order."""
        n = self.n_strings
        alpha = np.repeat(self.strings, n)
        beta = np.tile(self.strings, n)
        return alpha, beta

    def occupation_matrix(self) -> np.ndarray:
        """(n_strings, n_orb) 0/1 array; row i = bits of string i."""
        bits = (self.strings[:, None] >> np.arange(self.n_orb)[None, :]) & 1
        return bits.astype(float)


def build_subspace(batch: SampleSet, n_alpha: int, n_beta: int) -> SubspaceBasis:
    """U = sorted dedup of all alpha and beta strings in the batch; the
    determinant space is U x U (spin-inversion closed by construction)."""
    if n_alpha != n_beta:
        raise ConfigError(
            f"only closed-shell targets supported (N_alpha={n_alpha} != N_beta={n_beta})"
        )
    words = np.unique(np.concatenate([batch.alpha, batch.beta]))
    if not len(words):
        raise ConfigError("cannot build a subspace from an empty batch")
    return SubspaceBasis(
        n_orb=batch.n_orb,
        n_alpha=n_alpha,
        n_beta=n_beta,
        strings=words,
    )


def full_space(n_orb: int, n_alpha: int, n_beta: int) -> SubspaceBasis:
    """The complete determinant space (CASCI reference)."""
    if n_alpha != n_beta:
        raise ConfigError(
            f"only closed-shell targets supported (N_alpha={n_alpha} != N_beta={n_beta})"
        )
    return SubspaceBasis(
        n_orb=n_orb,
        n_alpha=n_alpha,
        n_beta=n_beta,
        strings=enumerate_strings(n_orb, n_alpha),
    )
