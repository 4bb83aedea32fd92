"""Tests for binary code packing and Hamming arithmetic."""

import numpy as np
import pytest

from repro.index.codes import (
    MAX_CODE_LENGTH,
    hamming_distance,
    hamming_weight,
    pack_bits,
    unpack_bits,
    validate_code_length,
)


class TestValidateCodeLength:
    def test_accepts_valid_lengths(self):
        assert validate_code_length(1) == 1
        assert validate_code_length(MAX_CODE_LENGTH) == MAX_CODE_LENGTH

    def test_accepts_numpy_integers(self):
        assert validate_code_length(np.int64(16)) == 16

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ValueError):
            validate_code_length(0)
        with pytest.raises(ValueError):
            validate_code_length(-3)

    def test_rejects_too_long(self):
        with pytest.raises(ValueError):
            validate_code_length(MAX_CODE_LENGTH + 1)

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            validate_code_length(8.0)


class TestPackBits:
    def test_single_code_little_endian_positions(self):
        assert pack_bits([1, 0, 1]) == 0b101

    def test_all_zeros_and_all_ones(self):
        assert pack_bits([0, 0, 0, 0]) == 0
        assert pack_bits([1, 1, 1, 1]) == 15

    def test_batch_returns_int64_array(self):
        sigs = pack_bits(np.array([[1, 0], [0, 1], [1, 1]]))
        assert sigs.dtype == np.int64
        assert sigs.tolist() == [1, 2, 3]

    def test_single_code_returns_python_int(self):
        result = pack_bits(np.array([0, 1, 0]))
        assert isinstance(result, int)
        assert result == 2

    def test_rejects_non_binary_entries(self):
        with pytest.raises(ValueError):
            pack_bits([0, 2, 1])

    def test_rejects_3d_input(self):
        with pytest.raises(ValueError):
            pack_bits(np.zeros((2, 2, 2), dtype=np.uint8))

    def test_max_length_roundtrip(self):
        bits = np.ones(MAX_CODE_LENGTH, dtype=np.uint8)
        sig = pack_bits(bits)
        assert sig == (1 << MAX_CODE_LENGTH) - 1


class TestUnpackBits:
    def test_inverse_of_pack(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=(50, 17)).astype(np.uint8)
        assert np.array_equal(unpack_bits(pack_bits(bits), 17), bits)

    def test_scalar_input_gives_1d(self):
        assert unpack_bits(5, 4).tolist() == [1, 0, 1, 0]

    def test_rejects_out_of_range_signature(self):
        with pytest.raises(ValueError):
            unpack_bits(16, 4)
        with pytest.raises(ValueError):
            unpack_bits(-1, 4)


class TestHamming:
    def test_weight_scalar(self):
        assert hamming_weight(0b1011) == 3
        assert hamming_weight(0) == 0

    def test_weight_array(self):
        assert hamming_weight(np.array([0, 1, 3, 7])).tolist() == [0, 1, 2, 3]

    def test_distance_scalar(self):
        assert hamming_distance(0b1010, 0b0110) == 2
        assert hamming_distance(5, 5) == 0

    def test_distance_broadcasts(self):
        d = hamming_distance(np.array([0, 1, 2, 3]), 0)
        assert d.tolist() == [0, 1, 1, 2]

    def test_distance_matches_bit_count(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 1 << 20, size=100)
        b = rng.integers(0, 1 << 20, size=100)
        expected = [bin(int(x) ^ int(y)).count("1") for x, y in zip(a, b)]
        assert hamming_distance(a, b).tolist() == expected

    def test_distance_symmetry(self):
        assert hamming_distance(37, 91) == hamming_distance(91, 37)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b, c = rng.integers(0, 1 << 16, size=3)
            assert hamming_distance(int(a), int(c)) <= (
                hamming_distance(int(a), int(b)) + hamming_distance(int(b), int(c))
            )
