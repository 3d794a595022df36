"""Measurement-outcome production: exact sampling from a CI vector, an i.i.d.
bit-flip noise channel, and a text-file interface for externally supplied
samples.

A sample set is one representation from the sampler to the subspace build:
arrays of unique (alpha word, beta word) pairs in canonical order (sorted by
alpha word, then beta word) with their shot counts. Bit p of a word set means
orbital p is occupied; words are int64, so at most 63 orbitals.

Bitstring text convention: alpha block then beta block, each written
most-significant-orbital-first (orbital 0 is the rightmost character of its
block), blocks space-separated, then the count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError, ParseError, read_text
from .rng import STREAM_NOISE, STREAM_SAMPLER, child_rng

# Shots a run accepts: sampling, noise and recovery peak at about 450 bytes
# per shot with 24 active orbitals, so a run at the cap stays under 2 GiB.
MAX_SHOTS = 4_000_000

@dataclass(frozen=True)
class Configuration:
    """One electronic configuration: occupation words for each spin sector
    (bit p set = orbital p occupied; bits beyond n_orb are zero)."""

    alpha: int
    beta: int

    def weights(self) -> tuple[int, int]:
        return int(self.alpha).bit_count(), int(self.beta).bit_count()


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Immutable multiset of configurations: read-only int64 arrays of unique
    (alpha, beta) word pairs in canonical order and their shot counts. The
    constructor merges duplicate pairs (``counts`` omitted: one shot each)."""

    n_orb: int
    alpha: np.ndarray = ()
    beta: np.ndarray = ()
    counts: np.ndarray | None = None

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=np.int64).ravel()
        beta = np.asarray(self.beta, dtype=np.int64).ravel()
        counts = np.ones_like(alpha) if self.counts is None else self.counts
        counts = np.asarray(counts, dtype=np.int64).ravel()
        if not len(alpha) == len(beta) == len(counts):
            raise ValueError("alpha, beta and counts must have equal lengths")
        order = np.lexsort((beta, alpha))
        alpha, beta, counts = alpha[order], beta[order], counts[order]
        # words are >= 0, so prepending -1 marks the first pair as new
        new = (np.diff(alpha, prepend=-1) != 0) | (np.diff(beta, prepend=-1) != 0)
        starts = np.flatnonzero(new)
        counts = np.add.reduceat(counts, starts)
        alpha, beta = alpha[starts], beta[starts]
        for name, arr in (("alpha", alpha), ("beta", beta), ("counts", counts)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def n_unique(self) -> int:
        return len(self.counts)

    @property
    def entries(self) -> dict[Configuration, int]:
        """{Configuration: count} view, built on each access."""
        return {
            Configuration(a, b): c
            for a, b, c in zip(
                self.alpha.tolist(), self.beta.tolist(), self.counts.tolist()
            )
        }

    def expand(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-shot (alpha, beta) word arrays in canonical order."""
        return np.repeat(self.alpha, self.counts), np.repeat(self.beta, self.counts)


@dataclass
class NoiseModel:
    """Independent bit-flip channel: every one of the 2*n_orb bits of every
    shot flips with probability p."""

    p: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p < 1.0:
            raise ConfigError(f"bit-flip probability must lie in [0, 1), got {self.p}")


def sample_exact(ci: np.ndarray, basis, n_shots: int, seed: int) -> SampleSet:
    """Draw ``n_shots`` i.i.d. configurations from p(x) = |c_x|^2 by
    inverse-CDF over the determinants of ``basis``.

    ``basis`` must expose ``n_orb`` and ``strings``, the int64 words of its
    spin strings; determinant x of the CI vector is the alpha string
    x // len(strings) with the beta string x % len(strings).
    """
    if n_shots < 1:
        raise ConfigError(f"shot count must be positive, got {n_shots}")
    if n_shots > MAX_SHOTS:
        raise CapacityError(f"{n_shots} shots exceed the {MAX_SHOTS}-shot cap")
    ci = np.asarray(ci, float).ravel()
    norm = float(ci @ ci)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"CI vector not normalized: |c|^2 = {norm!r}")
    n = len(basis.strings)
    if len(ci) != n * n:
        raise ValueError("CI vector length does not match the determinant list")
    rng = child_rng(seed, STREAM_SAMPLER)
    cdf = np.cumsum(ci * ci)
    cdf[-1] = 1.0
    draws = np.searchsorted(cdf, rng.random(n_shots), side="right")
    idx, counts = np.unique(draws, return_counts=True)
    return SampleSet(basis.n_orb, basis.strings[idx // n], basis.strings[idx % n], counts)


def apply_noise(samples: SampleSet, noise: NoiseModel) -> SampleSet:
    """Flip each of the 2*n_orb bits of every shot independently with
    probability ``noise.p``; deterministic given ``noise.seed``."""
    if noise.p == 0.0 or samples.total == 0:
        return samples
    n_orb = samples.n_orb
    alpha, beta = samples.expand()
    rng = child_rng(noise.seed, STREAM_NOISE)
    flips = rng.random((len(alpha), 2 * n_orb)) < noise.p
    powers = 1 << np.arange(n_orb, dtype=np.int64)
    alpha = alpha ^ (flips[:, :n_orb] @ powers)
    beta = beta ^ (flips[:, n_orb:] @ powers)
    return SampleSet(n_orb, alpha, beta)


def write_samples(samples: SampleSet, path) -> None:
    fmt = f"0{samples.n_orb}b"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n_orb={samples.n_orb}\n")
        for a, b, count in zip(
            samples.alpha.tolist(), samples.beta.tolist(), samples.counts.tolist()
        ):
            fh.write(f"{format(a, fmt)} {format(b, fmt)} {count}\n")


def _parse_word(token: str, n_orb: int, lineno: int) -> int:
    if len(token) != n_orb:
        raise ParseError(
            f"bitstring {token!r} has length {len(token)}, expected {n_orb}",
            line=lineno,
        )
    if set(token) - {"0", "1"}:
        raise ParseError(f"bitstring {token!r} has non-binary characters", line=lineno)
    return int(token, 2)


def read_samples(path) -> SampleSet:
    """Read a samples file: header line ``n_orb=N`` (1 <= N <= 63), then one
    ``ALPHA_BITS BETA_BITS COUNT`` record per line. ``#`` starts a comment."""
    n_orb, alpha, beta, counts = None, [], [], []
    total = 0
    text = read_text(path, "sample file")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n_orb is None:
            if not line.startswith("n_orb="):
                raise ParseError(
                    f"expected header 'n_orb=N', got {line!r}", line=lineno
                )
            try:
                n_orb = int(line[len("n_orb="):])
            except ValueError:
                raise ParseError(f"bad header {line!r}", line=lineno) from None
            if not 1 <= n_orb <= 63:
                raise ParseError(
                    f"n_orb must lie in [1, 63] (int64 words), got {n_orb}",
                    line=lineno,
                )
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(
                f"expected 'ALPHA BETA COUNT', got {line!r}", line=lineno
            )
        alpha.append(_parse_word(parts[0], n_orb, lineno))
        beta.append(_parse_word(parts[1], n_orb, lineno))
        try:
            count = int(parts[2])
        except ValueError:
            raise ParseError(f"bad count {parts[2]!r}", line=lineno) from None
        if count < 1:
            raise ParseError(f"count must be >= 1, got {count}", line=lineno)
        total += count
        if total > np.iinfo(np.int64).max:
            raise ParseError("total shot count overflows int64", line=lineno)
        counts.append(count)
    if total > MAX_SHOTS:
        raise CapacityError(f"{path}: {total} shots exceed the {MAX_SHOTS}-shot cap")
    return SampleSet(n_orb or 0, alpha, beta, counts)
