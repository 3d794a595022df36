"""Configuration sampling: exact sampler statistics, the bit-flip noise
channel, and the sample-file format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvaq.errors import ParseError
from solvaq.sampling import (
    Configuration,
    NoiseModel,
    SampleSet,
    apply_noise,
    read_samples,
    sample_exact,
    write_samples,
)
from solvaq.sqd import full_space


def _uniform_basis(n_orb=4, n_alpha=2):
    return full_space(n_orb, n_alpha, n_alpha)


# --- exact sampler -------------------------------------------------------------


def test_delta_distribution_sampled_exactly():
    basis = _uniform_basis()
    ci = np.zeros(basis.d)
    ci[7] = 1.0
    samples = sample_exact(ci, basis, 500, seed=1)
    assert samples.total == 500
    assert samples.n_unique == 1
    words_a, words_b = basis.determinant_words()
    (conf, count), = samples.entries.items()
    assert count == 500
    assert conf == Configuration(int(words_a[7]), int(words_b[7]))


def test_two_state_frequencies_match_born_rule():
    basis = _uniform_basis()
    ci = np.zeros(basis.d)
    ci[0] = np.sqrt(0.25)
    ci[5] = np.sqrt(0.75)
    n = 40_000
    samples = sample_exact(ci, basis, n, seed=3)
    words_a, words_b = basis.determinant_words()
    key0 = Configuration(int(words_a[0]), int(words_b[0]))
    f0 = samples.entries[key0] / n
    # three-sigma binomial window around p = 1/4
    sigma = np.sqrt(0.25 * 0.75 / n)
    assert abs(f0 - 0.25) < 3.5 * sigma


def test_unnormalized_vector_rejected():
    basis = _uniform_basis()
    ci = np.full(basis.d, 0.3)
    with pytest.raises(ValueError):
        sample_exact(ci, basis, 10, seed=0)


def test_sampler_deterministic_per_seed():
    basis = _uniform_basis()
    ci = np.full(basis.d, 1.0 / np.sqrt(basis.d))
    a = sample_exact(ci, basis, 1000, seed=42)
    b = sample_exact(ci, basis, 1000, seed=42)
    c = sample_exact(ci, basis, 1000, seed=43)
    assert a.entries == b.entries
    assert a.entries != c.entries


# --- noise channel ---------------------------------------------------------------


def test_noise_p_zero_is_identity():
    basis = _uniform_basis()
    ci = np.full(basis.d, 1.0 / np.sqrt(basis.d))
    samples = sample_exact(ci, basis, 200, seed=5)
    noisy = apply_noise(samples, NoiseModel(p=0.0, seed=9))
    assert noisy.entries == samples.entries


def test_noise_flip_rate_matches_p():
    n_orb = 8
    n = 30_000
    base = SampleSet(n_orb, [0], [0], [n])
    p = 0.1
    noisy = apply_noise(base, NoiseModel(p=p, seed=2))
    total_bits = 0
    for conf, count in noisy.entries.items():
        total_bits += (bin(conf.alpha).count("1") + bin(conf.beta).count("1")) * count
    rate = total_bits / (n * 2 * n_orb)
    sigma = np.sqrt(p * (1 - p) / (n * 2 * n_orb))
    assert abs(rate - p) < 4 * sigma


def test_noise_half_scrambles_everything():
    base = SampleSet(3, [0b101], [0b010], [20_000])
    noisy = apply_noise(base, NoiseModel(p=0.5, seed=7))
    # each of the 64 configurations equally likely
    counts = np.array(list(noisy.entries.values()), float)
    assert len(noisy.entries) == 64
    assert counts.max() / counts.min() < 1.6


def test_two_noise_channels_compose():
    """p1 then p2 equals a single channel with q = p1 (1-p2) + p2 (1-p1)."""
    p1, p2 = 0.08, 0.15
    q = p1 * (1 - p2) + p2 * (1 - p1)
    n_orb, n = 6, 60_000
    base = SampleSet(n_orb, [0], [0], [n])
    two_step = apply_noise(apply_noise(base, NoiseModel(p=p1, seed=11)),
                           NoiseModel(p=p2, seed=12))
    one_step = apply_noise(base, NoiseModel(p=q, seed=13))

    def flip_rate(samples):
        bits = sum(
            (bin(c.alpha).count("1") + bin(c.beta).count("1")) * k
            for c, k in samples.entries.items()
        )
        return bits / (n * 2 * n_orb)

    sigma = np.sqrt(q * (1 - q) / (n * 2 * n_orb))
    assert abs(flip_rate(two_step) - flip_rate(one_step)) < 5 * sigma


def test_noise_model_validation():
    with pytest.raises(Exception):
        NoiseModel(p=1.0, seed=0)
    with pytest.raises(Exception):
        NoiseModel(p=-0.01, seed=0)


# --- file format ------------------------------------------------------------------


def test_write_read_roundtrip(tmp_path):
    basis = _uniform_basis(5, 2)
    ci = np.full(basis.d, 1.0 / np.sqrt(basis.d))
    samples = sample_exact(ci, basis, 777, seed=21)
    path = tmp_path / "samples.txt"
    write_samples(samples, path)
    back = read_samples(path)
    assert back.n_orb == samples.n_orb
    assert back.total == samples.total
    assert back.entries == samples.entries


def test_sample_file_layout(tmp_path):
    base = SampleSet(3, [0b110], [0b011], [4])
    path = tmp_path / "s.txt"
    write_samples(base, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n_orb=3"
    alpha_bits, beta_bits, count = lines[1].split()
    # most-significant orbital first inside each spin block
    assert alpha_bits == "110"
    assert beta_bits == "011"
    assert count == "4"


def test_read_samples_accepts_comments_and_blanks(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text(
        "# leading comment\nn_orb=2\n\n# interior comment\n"
        "10 01 3   # trailing comment\n01 10 2\n"
    )
    samples = read_samples(path)
    assert samples.total == 5
    assert samples.entries[Configuration(0b10, 0b01)] == 3


@pytest.mark.parametrize(
    "content,line",
    [
        ("n_orb=2\n1 01 1\n", 2),        # wrong alpha width
        ("n_orb=2\n10 0x 1\n", 2),       # non-binary character
        ("n_orb=2\n10 01 zero\n", 2),    # bad count
        ("n_orb=2\n10 01 -3\n", 2),      # negative count
        ("n_orb=2\n1001 3\n", 2),        # blocks not separated
        ("nope\n10 01 1\n", 1),          # bad header
        ("n_orb=64\n", 1),               # words would overflow int64
        ("n_orb=1\n1 1 9223372036854775807\n1 0 1\n", 3),  # total overflows
    ],
)
def test_read_samples_errors_carry_line_numbers(tmp_path, content, line):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(ParseError) as err:
        read_samples(path)
    assert err.value.line == line


def test_read_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    samples = read_samples(path)
    assert samples.total == 0


@settings(max_examples=30, deadline=None)
@given(
    n_orb=st.integers(min_value=1, max_value=12),
    rows=st.lists(
        st.tuples(st.integers(min_value=0), st.integers(min_value=0),
                  st.integers(min_value=1, max_value=50)),
        min_size=1,
        max_size=8,
    ),
)
def test_roundtrip_property(tmp_path_factory, n_orb, rows):
    mask = (1 << n_orb) - 1
    samples = SampleSet(
        n_orb, [a & mask for a, _, _ in rows], [b & mask for _, b, _ in rows],
        [k for _, _, k in rows],
    )
    path = tmp_path_factory.mktemp("rt") / "s.txt"
    write_samples(samples, path)
    back = read_samples(path)
    assert back.entries == samples.entries
    assert back.n_orb == n_orb


def test_merge_sums_duplicates_in_canonical_order():
    s = SampleSet(4, [0b1000, 0b0001, 0b1000, 0b0001],
                  [0b0001, 0b1000, 0b0001, 0b0100], [2, 5, 3, 1])
    order = list(zip(s.alpha.tolist(), s.beta.tolist()))
    assert order == sorted(order)
    assert order == [(0b0001, 0b0100), (0b0001, 0b1000), (0b1000, 0b0001)]
    assert s.counts.tolist() == [1, 5, 5]
    assert s.total == 11 and s.n_unique == 3
    # per-shot arrays (counts omitted) merge the same way
    shots = SampleSet(4, *s.expand())
    assert shots.entries == s.entries
    with pytest.raises(ValueError):
        s.counts[0] = 7
