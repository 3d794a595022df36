"""Spin-string subspace construction and closure properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import determinant_words
from solvaq.errors import ConfigError
from solvaq.sampling import SampleSet
from solvaq.sqd import SubspaceBasis, build_subspace, enumerate_strings, full_space


def test_enumerate_strings_counts():
    for n, k in [(4, 2), (6, 3), (12, 7)]:
        words = enumerate_strings(n, k)
        assert len(words) == math.comb(n, k)
        assert all(int(w).bit_count() == k for w in words)
        assert np.all(np.diff(words) > 0)


def test_enumerate_strings_rejects_bad_counts():
    with pytest.raises(ConfigError):
        enumerate_strings(4, 5)
    with pytest.raises(ConfigError):
        enumerate_strings(4, -1)


def test_full_space_dimensions():
    basis = full_space(6, 4, 4)
    assert basis.n_strings == math.comb(6, 4)
    assert basis.d == math.comb(6, 4) ** 2


def test_union_closure_under_spin_inversion():
    """A shot (a, b) must imply (b, a) lives in the subspace too."""
    samples = SampleSet(6, [0b001011, 0b101010], [0b110100, 0b010101])
    basis = build_subspace(samples, 3, 3)
    strings = set(basis.strings.tolist())
    for config in samples.entries:
        # (alpha, beta) and its spin inverse (beta, alpha) both lie in U x U
        assert {config.alpha, config.beta} <= strings
    # U holds the union of both spin sectors
    assert basis.n_strings == 4
    assert basis.d == 16


def test_duplicate_strings_deduplicated():
    samples = SampleSet(4, [0b0011, 0b0011], [0b0011, 0b1100], [7, 2])
    basis = build_subspace(samples, 2, 2)
    assert basis.n_strings == 2
    assert basis.strings.tolist() == [0b0011, 0b1100]


def test_build_subspace_rejects_empty_batch():
    with pytest.raises(ConfigError):
        build_subspace(SampleSet(n_orb=4), 2, 2)


def test_build_subspace_rejects_open_shell():
    samples = SampleSet(4, [0b0011], [0b0111])
    with pytest.raises(ConfigError):
        build_subspace(samples, 2, 3)


def test_build_subspace_rejects_wrong_weight():
    samples = SampleSet(4, [0b0111], [0b0011])
    with pytest.raises(ValueError):
        build_subspace(samples, 2, 2)


def test_determinant_words_alpha_major():
    basis = SubspaceBasis(n_orb=4, n_alpha=2, n_beta=2,
                          strings=np.array([0b0011, 0b0101, 0b1010]))
    alpha, beta = determinant_words(basis)
    assert alpha.tolist() == [3, 3, 3, 5, 5, 5, 10, 10, 10]
    assert beta.tolist() == [3, 5, 10, 3, 5, 10, 3, 5, 10]
    # flat index of (i_a, i_b) is i_a * n + i_b
    n = basis.n_strings
    assert alpha[1 * n + 2] == basis.strings[1]
    assert beta[1 * n + 2] == basis.strings[2]


def test_occupation_matrix():
    basis = SubspaceBasis(n_orb=4, n_alpha=2, n_beta=2,
                          strings=np.array([0b0011, 0b1010]))
    occ = basis.occupation_matrix()
    assert occ.tolist() == [[1, 1, 0, 0], [0, 1, 0, 1]]


def test_subspace_validates_sorted_unique_weights():
    with pytest.raises(ValueError):
        SubspaceBasis(4, 2, 2, strings=np.array([0b0101, 0b0011]))
    with pytest.raises(ValueError):
        SubspaceBasis(4, 2, 2, strings=np.array([0b0011, 0b0011]))
    with pytest.raises(ValueError):
        SubspaceBasis(4, 2, 2, strings=np.array([0b0011, 0b0111]))


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    n_orb=st.integers(min_value=2, max_value=10),
)
def test_random_batches_always_closed(data, n_orb):
    n_alpha = data.draw(st.integers(min_value=1, max_value=n_orb - 1))
    pool = enumerate_strings(n_orb, n_alpha)
    picks = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(pool) - 1),
                st.integers(min_value=0, max_value=len(pool) - 1),
            ),
            min_size=1,
            max_size=12,
        )
    )
    samples = SampleSet(
        n_orb, [pool[ia] for ia, _ in picks], [pool[ib] for _, ib in picks]
    )
    basis = build_subspace(samples, n_alpha, n_alpha)
    assert basis.d == basis.n_strings ** 2
    strings = set(basis.strings.tolist())
    for config in samples.entries:
        assert config.alpha in strings and config.beta in strings
