"""QR encoder/decoder tests: versions, modes, masks, corruption."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.qr.decoder import QRDecodeError, decode_qr_matrix
from repro.qr.encoder import QRCapacityError, build_codewords, encode_qr, select_mode, select_version
from repro.qr.matrix import (
    apply_mask,
    build_function_patterns,
    data_module_coordinates,
    mask_condition,
    penalty_score,
    place_format_information,
    read_format_information,
)
from repro.qr.tables import (
    BLOCK_TABLE,
    ECLevel,
    bch_format_bits,
    bch_version_bits,
    matrix_size,
    version_for_size,
)


class TestTables:
    def test_matrix_sizes(self):
        assert matrix_size(1) == 21
        assert matrix_size(10) == 57
        assert version_for_size(21) == 1
        assert version_for_size(57) == 10

    def test_version_for_bad_size(self):
        with pytest.raises(ValueError):
            version_for_size(20)

    def test_block_totals_are_consistent(self):
        """data + ec codewords must match the symbol's total capacity."""
        totals = {1: 26, 2: 44, 3: 70, 4: 100, 5: 134, 6: 172, 7: 196, 8: 242, 9: 292, 10: 346}
        for (version, level), structure in BLOCK_TABLE.items():
            n_blocks = len(structure.block_sizes)
            total = structure.total_data_codewords + n_blocks * structure.ec_per_block
            assert total == totals[version], (version, level)

    def test_format_bits_reference_value(self):
        # The worked example from the ISO/IEC 18004 annex: EC level M,
        # mask pattern 101 -> masked format string 100000011001110.
        assert bch_format_bits(ECLevel.M, 5) == 0b100000011001110

    def test_version_info_reference_value(self):
        # Known value from the specification for version 7.
        assert bch_version_bits(7) == 0b000111110010010100


class TestModeAndVersionSelection:
    def test_mode_selection(self):
        assert select_mode("12345") == "numeric"
        assert select_mode("HELLO 123") == "alphanumeric"
        assert select_mode("https://a.example") == "byte"  # lowercase

    def test_version_grows_with_payload(self):
        small = select_version("A", ECLevel.M)
        large = select_version("A" * 150, ECLevel.M)
        assert small == 1
        assert large > small

    def test_capacity_error(self):
        with pytest.raises(QRCapacityError):
            select_version("x" * 2000, ECLevel.H)


class TestMatrixConstruction:
    def test_function_patterns_reserved_counts(self):
        matrix, reserved = build_function_patterns(2)
        assert matrix.shape == (25, 25)
        # Finder cores are dark.
        assert matrix[3, 3] and matrix[3, 21] and matrix[21, 3]
        # Dark module.
        assert matrix[25 - 8, 8]
        assert reserved[6, 10] and reserved[10, 6]  # timing rows reserved

    def test_data_coordinates_cover_all_unreserved(self):
        for version in (1, 3, 7):
            _, reserved = build_function_patterns(version)
            coordinates = data_module_coordinates(version)
            assert len(coordinates) == int((~reserved).sum())
            assert len(set(coordinates)) == len(coordinates)

    def test_mask_is_involutive(self):
        matrix, reserved = build_function_patterns(2)
        rng = np.random.default_rng(3)
        matrix = matrix | (rng.random(matrix.shape) < 0.5) & ~reserved
        for mask_id in range(8):
            twice = apply_mask(apply_mask(matrix, reserved, mask_id), reserved, mask_id)
            assert np.array_equal(twice, matrix), mask_id

    def test_mask_conditions_match_reference(self):
        assert mask_condition(0, 0, 0) is True
        assert mask_condition(0, 0, 1) is False
        assert mask_condition(1, 2, 99) is True
        assert mask_condition(2, 99, 3) is True

    def test_penalty_score_positive(self):
        matrix = encode_qr("PENALTY TEST", ECLevel.M)
        assert penalty_score(matrix) > 0

    def test_format_information_roundtrip(self):
        for level in ECLevel:
            for mask_id in range(8):
                matrix = encode_qr("ROUNDTRIP", level)
                read_level, read_mask = read_format_information(matrix)
                assert read_level == level
                break  # one mask per level is chosen by penalty; just check level


class TestEncodeDecode:
    @pytest.mark.parametrize(
        "payload",
        [
            "1",
            "1234567890",
            "HELLO WORLD",
            "https://evil-site.com/dhfYWfH",
            "xxx https://evil-site.com/token#e=dmljdGltQGNvcnA=",
            "A" * 100,
            "unicode ✓ paylöad",
        ],
    )
    @pytest.mark.parametrize("level", list(ECLevel))
    def test_roundtrip(self, payload, level):
        try:
            matrix = encode_qr(payload, level)
        except QRCapacityError:
            pytest.skip("payload does not fit at this EC level")
        assert decode_qr_matrix(matrix) == payload

    def test_explicit_version(self):
        matrix = encode_qr("HI", ECLevel.L, version=5)
        assert matrix.shape == (37, 37)
        assert decode_qr_matrix(matrix) == "HI"

    def test_version7_has_version_info(self):
        # Lowercase forces byte mode: 110 bytes needs version >= 7 at M.
        payload = "v" * 110
        matrix = encode_qr(payload, ECLevel.M)
        assert matrix.shape[0] >= matrix_size(7)
        assert decode_qr_matrix(matrix) == payload

    def test_module_corruption_within_capacity(self):
        rng = random.Random(9)
        matrix = encode_qr("https://evil.example/x", ECLevel.H)
        corrupted = matrix.copy()
        for _ in range(10):
            row, col = rng.randrange(matrix.shape[0]), rng.randrange(matrix.shape[1])
            corrupted[row, col] ^= True
        assert decode_qr_matrix(corrupted) == "https://evil.example/x"

    def test_heavy_corruption_raises(self):
        rng = np.random.default_rng(4)
        matrix = encode_qr("DOOMED", ECLevel.L)
        corrupted = matrix ^ (rng.random(matrix.shape) < 0.35)
        with pytest.raises(QRDecodeError):
            decode_qr_matrix(corrupted)

    def test_non_square_rejected(self):
        with pytest.raises(QRDecodeError):
            decode_qr_matrix(np.zeros((21, 25), dtype=bool))

    def test_codeword_count_matches_structure(self):
        for level in ECLevel:
            codewords = build_codewords("TEST", 1, level)
            structure = BLOCK_TABLE[(1, level)]
            assert len(codewords) == structure.total_data_codewords + structure.ec_per_block


_QR_TEXT = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), min_size=1, max_size=60
)


@settings(max_examples=30, deadline=None)
@given(payload=_QR_TEXT, level=st.sampled_from(list(ECLevel)))
def test_qr_roundtrip_property(payload, level):
    matrix = encode_qr(payload, level)
    assert decode_qr_matrix(matrix) == payload


# -- penalty-score equivalence ---------------------------------------------
#
# ``penalty_score`` evaluates N1 (runs) and N3 (finder-like windows) over
# the whole matrix with numpy.  The straightforward per-line loops below
# are the reference it must equal exactly: the scores are integers, so
# any difference would change which mask ``encode_qr`` picks.

_FINDER_LIKE = np.array([1, 0, 1, 1, 1, 0, 1, 0, 0, 0, 0], dtype=bool)


def _penalty_runs_reference(line):
    score = 0
    run_value = bool(line[0])
    run_length = 1
    for value in line[1:]:
        if bool(value) == run_value:
            run_length += 1
        else:
            if run_length >= 5:
                score += 3 + (run_length - 5)
            run_value = bool(value)
            run_length = 1
    if run_length >= 5:
        score += 3 + (run_length - 5)
    return score


def _penalty_finder_like_reference(line):
    score = 0
    window = len(_FINDER_LIKE)
    for start in range(len(line) - window + 1):
        chunk = line[start : start + window]
        if np.array_equal(chunk, _FINDER_LIKE) or np.array_equal(chunk, _FINDER_LIKE[::-1]):
            score += 40
    return score


def _penalty_score_reference(matrix):
    lines = list(matrix) + list(matrix.T)
    score = sum(_penalty_runs_reference(line) for line in lines)
    for row in range(matrix.shape[0] - 1):
        for col in range(matrix.shape[1] - 1):
            block = matrix[row : row + 2, col : col + 2]
            if block.all() or not block.any():
                score += 3
    score += sum(_penalty_finder_like_reference(line) for line in lines)
    dark_percent = matrix.mean() * 100.0
    score += 10 * int(abs(dark_percent - 50.0) // 5)
    return score


_QR_SIZES = [matrix_size(version) for version in range(1, 11)]


@st.composite
def _module_matrices(draw):
    size = draw(st.sampled_from(_QR_SIZES))
    matrix = draw(hnp.arrays(bool, (size, size)))
    indices = st.integers(min_value=0, max_value=size - 1)
    for row in draw(st.lists(indices, max_size=4)):
        matrix[row, :] = draw(st.booleans())
    for col in draw(st.lists(indices, max_size=4)):
        matrix[:, col] = draw(st.booleans())
    return matrix


@settings(max_examples=200, deadline=None)
@given(matrix=_module_matrices())
def test_penalty_score_matches_reference_property(matrix):
    assert penalty_score(matrix) == _penalty_score_reference(matrix)


@pytest.mark.parametrize("version", range(1, 11))
def test_penalty_score_matches_reference_on_every_mask(version):
    """Every mask candidate of a real symbol scores as the reference does,
    so ``encode_qr`` picks the same mask it always picked."""
    level = list(ECLevel)[version % len(ECLevel)]
    encoded = encode_qr(f"QR{version}", level, version=version)
    _, chosen = read_format_information(encoded)
    _, reserved = build_function_patterns(version)
    unmasked = apply_mask(encoded, reserved, chosen)
    reference_scores = []
    for mask_id in range(8):
        candidate = apply_mask(unmasked, reserved, mask_id)
        place_format_information(candidate, level, mask_id)
        if mask_id == chosen:
            assert np.array_equal(candidate, encoded)
        reference_scores.append(_penalty_score_reference(candidate))
        assert penalty_score(candidate) == reference_scores[-1], mask_id
    assert chosen == reference_scores.index(min(reference_scores))


def _data_module_coordinates_reference(version):
    """The zigzag placement walk, module by module."""
    from repro.qr.matrix import _place_function_patterns

    size = matrix_size(version)
    _, reserved = _place_function_patterns(version)
    coordinates = []
    col, upward = size - 1, True
    while col > 0:
        if col == 6:
            col -= 1
        for row in (range(size - 1, -1, -1) if upward else range(size)):
            for dc in (0, -1):
                if not reserved[row, col + dc]:
                    coordinates.append((row, col + dc))
        upward = not upward
        col -= 2
    return coordinates


class TestLayoutMemo:
    @pytest.mark.parametrize("version", range(1, 11))
    def test_shared_layout_equals_a_fresh_build(self, version):
        from repro.qr.matrix import _place_function_patterns, function_layout

        layout = function_layout(version)
        fresh_matrix, fresh_reserved = _place_function_patterns(version)
        assert np.array_equal(layout.matrix, fresh_matrix)
        assert np.array_equal(layout.reserved, fresh_reserved)
        assert data_module_coordinates(version) == _data_module_coordinates_reference(version)
        assert function_layout(version) is layout

    def test_mutating_a_returned_layout_leaves_the_next_encode_alone(self):
        from repro.qr.matrix import function_layout

        before = encode_qr("LAYOUT", ECLevel.Q, version=7)
        matrix, reserved = build_function_patterns(7)
        matrix[:] = True
        reserved[:] = False
        coordinates = data_module_coordinates(7)
        coordinates.reverse()
        coordinates.clear()
        for array in function_layout(7):
            with pytest.raises(ValueError):
                array[0] = array[0]
        after = encode_qr("LAYOUT", ECLevel.Q, version=7)
        assert np.array_equal(after, before)
        assert decode_qr_matrix(after) == "LAYOUT"
        assert build_function_patterns(7)[0].flags.writeable
