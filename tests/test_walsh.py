"""Code-matrix construction against the printed reference values."""

import numpy as np
import pytest

from mibci.walsh import WalshCodebook, build_walsh, hamming

# the eight-dimensional modified matrix, all 64 entries
W8 = np.array(
    [
        [1, 1, 1, 1, 1, 1, 1, 1],
        [1, 0, 1, 0, 1, 0, 1, 0],
        [1, 1, 0, 0, 1, 1, 0, 0],
        [1, 0, 0, 1, 1, 0, 0, 1],
        [1, 1, 1, 1, 0, 0, 0, 0],
        [1, 0, 1, 0, 0, 1, 0, 1],
        [1, 1, 0, 0, 0, 0, 1, 1],
        [1, 0, 0, 1, 0, 1, 1, 0],
    ],
    dtype=np.uint8,
)


def test_w8_matches_reference_entry_for_entry():
    assert np.array_equal(build_walsh(8), W8)


def test_w2_rows():
    assert np.array_equal(build_walsh(2), np.array([[1, 1], [1, 0]], dtype=np.uint8))


def test_w4_second_row_alternates():
    assert np.array_equal(build_walsh(4)[1], np.array([1, 0, 1, 0], dtype=np.uint8))


@pytest.mark.parametrize("size", [2, 4, 8, 16, 32, 64])
def test_pairwise_hamming_is_half_size_rows_and_columns(size):
    m = build_walsh(size)
    for axis_matrix in (m, m.T):
        for i in range(size):
            for j in range(i + 1, size):
                assert hamming(axis_matrix[i], axis_matrix[j]) == size // 2


@pytest.mark.parametrize("bad", [0, 1, 3, 6, 12, 100, 2048])
def test_build_walsh_rejects_non_powers_of_two(bad):
    with pytest.raises(ValueError):
        build_walsh(bad)


def test_class_targets_two_classes_match_caption_vectors():
    targets = WalshCodebook(2, 16).targets
    assert np.array_equal(targets[0], np.array([1, 0] * 8, dtype=float))
    assert np.array_equal(targets[1], np.array([1, 1, 0, 0] * 4, dtype=float))


def test_class_targets_four_classes_distinct_distance_eight():
    targets = WalshCodebook(4, 16).targets
    assert len(targets) == 4
    for i in range(4):
        for j in range(i + 1, 4):
            assert hamming(targets[i], targets[j]) == 8


def test_class_targets_smallest_case():
    (target,) = WalshCodebook(1, 2).targets
    assert np.array_equal(target, np.array([1.0, 0.0]))


def test_class_targets_rejects_too_many_classes():
    with pytest.raises(ValueError):
        WalshCodebook(4, 4)  # constant row is reserved


def test_targets_never_all_ones():
    targets = WalshCodebook(8, 32).targets
    for t in targets:
        assert t.sum() < len(t)


def test_hamming_basics():
    assert hamming([1, 0, 1, 0], [1, 1, 0, 0]) == 2
    assert hamming([1, 0, 1], [1, 0, 1]) == 0
    with pytest.raises(ValueError):
        hamming([1, 0], [1, 0, 1])


def test_codebook_construction_and_targets():
    cb = WalshCodebook(4, 16)
    assert cb.size == 16
    assert cb.num_classes == 4
    assert cb.targets.shape == (4, 16)
    assert cb.targets.dtype == np.float64
    assert np.array_equal(cb.targets[0], np.array([1, 0] * 8, dtype=float))
    assert not cb.targets.flags.writeable
    assert cb == WalshCodebook(4) and cb != WalshCodebook(4, 32)


def test_codebook_rejects_constant_row_assignment():
    # size classes would need size non-constant rows; the all-ones row 0 is never a target
    for size in (2, 8, 64):
        WalshCodebook(size - 1, size)
        with pytest.raises(ValueError, match="constant row is reserved"):
            WalshCodebook(size, size)


def test_codebook_targets_are_walsh_rows_1_to_c():
    for size in (2, 4, 8, 16, 32, 64):
        walsh = build_walsh(size)
        for c in range(1, size):
            targets = WalshCodebook(c, size).targets
            assert np.array_equal(targets, walsh[1 : c + 1])
            assert len(np.unique(targets, axis=0)) == c  # no two classes share a row


def test_codebook_rejects_bad_class_counts_and_sizes():
    with pytest.raises(ValueError, match="num_classes must be >= 1"):
        WalshCodebook(0)
    with pytest.raises(ValueError, match="power of two"):
        WalshCodebook(2, 12)


def test_codebook_too_small_for_the_class_count():
    with pytest.raises(ValueError):
        WalshCodebook(16, 16)
