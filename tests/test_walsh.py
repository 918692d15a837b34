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
    targets = WalshCodebook.for_classes(2, 16).targets
    assert np.array_equal(targets[0], np.array([1, 0] * 8, dtype=float))
    assert np.array_equal(targets[1], np.array([1, 1, 0, 0] * 4, dtype=float))


def test_class_targets_four_classes_distinct_distance_eight():
    targets = WalshCodebook.for_classes(4, 16).targets
    assert len(targets) == 4
    for i in range(4):
        for j in range(i + 1, 4):
            assert hamming(targets[i], targets[j]) == 8


def test_class_targets_smallest_case():
    (target,) = WalshCodebook.for_classes(1, 2).targets
    assert np.array_equal(target, np.array([1.0, 0.0]))


def test_class_targets_rejects_too_many_classes():
    with pytest.raises(ValueError):
        WalshCodebook.for_classes(4, 4)  # constant row is reserved


def test_targets_never_all_ones():
    targets = WalshCodebook.for_classes(8, 32).targets
    for t in targets:
        assert t.sum() < len(t)


def test_hamming_basics():
    assert hamming([1, 0, 1, 0], [1, 1, 0, 0]) == 2
    assert hamming([1, 0, 1], [1, 0, 1]) == 0
    with pytest.raises(ValueError):
        hamming([1, 0], [1, 0, 1])


def test_codebook_construction_and_targets():
    cb = WalshCodebook.for_classes(4, 16)
    assert cb.size == 16
    assert cb.num_classes == 4
    assert cb.targets.shape == (4, 16)
    assert np.array_equal(cb.target(1), np.array([1, 0] * 8, dtype=float))


def test_codebook_rejects_constant_row_assignment():
    with pytest.raises(ValueError):
        WalshCodebook(matrix=build_walsh(8), class_rows={1: 0})


def test_codebook_rejects_duplicate_rows():
    with pytest.raises(ValueError):
        WalshCodebook(matrix=build_walsh(8), class_rows={1: 3, 2: 3})


def test_codebook_too_small_for_classes():
    with pytest.raises(ValueError):
        WalshCodebook.for_classes(16, 16)
