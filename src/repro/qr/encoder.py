"""QR encoding: payload -> module matrix -> raster image.

Supports numeric, alphanumeric, and byte modes for versions 1-10 at all
four error-correction levels, with automatic version selection and
penalty-based mask choice.
"""

from __future__ import annotations

import numpy as np

from repro.imaging.image import Image
from repro.qr.bits import BitBuffer
from repro.qr.gf256 import rs_encode
from repro.qr.matrix import (
    apply_mask,
    function_layout,
    penalty_score,
    place_format_information,
    place_version_information,
)
from repro.qr.tables import (
    ALPHANUMERIC_CHARSET,
    BLOCK_TABLE,
    ECLevel,
    MAX_VERSION,
)


class QRCapacityError(ValueError):
    """The payload does not fit any supported version at the EC level."""


def select_mode(payload: str) -> str:
    """Pick the densest mode able to represent ``payload``."""
    if payload and all(char.isdigit() for char in payload):
        return "numeric"
    if payload and all(char in ALPHANUMERIC_CHARSET for char in payload):
        return "alphanumeric"
    return "byte"


_MODE_INDICATOR = {"numeric": 0b0001, "alphanumeric": 0b0010, "byte": 0b0100}


def _count_bits(mode: str, version: int) -> int:
    """Character-count field width for a mode and version (versions 1-26)."""
    if version <= 9:
        return {"numeric": 10, "alphanumeric": 9, "byte": 8}[mode]
    return {"numeric": 12, "alphanumeric": 11, "byte": 16}[mode]


def _encode_segment(payload: str, mode: str, version: int) -> BitBuffer:
    buffer = BitBuffer()
    buffer.append_bits(_MODE_INDICATOR[mode], 4)
    if mode == "byte":
        data = payload.encode("utf-8")
        buffer.append_bits(len(data), _count_bits(mode, version))
        for byte in data:
            buffer.append_bits(byte, 8)
    elif mode == "alphanumeric":
        buffer.append_bits(len(payload), _count_bits(mode, version))
        for start in range(0, len(payload) - 1, 2):
            pair = payload[start : start + 2]
            value = ALPHANUMERIC_CHARSET.index(pair[0]) * 45 + ALPHANUMERIC_CHARSET.index(pair[1])
            buffer.append_bits(value, 11)
        if len(payload) % 2:
            buffer.append_bits(ALPHANUMERIC_CHARSET.index(payload[-1]), 6)
    else:  # numeric
        buffer.append_bits(len(payload), _count_bits(mode, version))
        for start in range(0, len(payload), 3):
            group = payload[start : start + 3]
            buffer.append_bits(int(group), {3: 10, 2: 7, 1: 4}[len(group)])
    return buffer


def _segment_bit_length(payload: str, mode: str, version: int) -> int:
    """Exact bit length of the encoded segment without building it."""
    header = 4 + _count_bits(mode, version)
    if mode == "byte":
        return header + 8 * len(payload.encode("utf-8"))
    if mode == "alphanumeric":
        return header + 11 * (len(payload) // 2) + 6 * (len(payload) % 2)
    return header + 10 * (len(payload) // 3) + {0: 0, 1: 4, 2: 7}[len(payload) % 3]


def select_version(payload: str, ec_level: ECLevel) -> int:
    """Smallest supported version whose data capacity fits the payload."""
    mode = select_mode(payload)
    for version in range(1, MAX_VERSION + 1):
        capacity_bits = BLOCK_TABLE[(version, ec_level)].total_data_codewords * 8
        if _segment_bit_length(payload, mode, version) <= capacity_bits:
            return version
    raise QRCapacityError(
        f"payload of {len(payload)} characters does not fit version <= {MAX_VERSION} at EC {ec_level.name}"
    )


def build_codewords(payload: str, version: int, ec_level: ECLevel) -> list[int]:
    """Data + parity codewords, interleaved in transmission order."""
    structure = BLOCK_TABLE[(version, ec_level)]
    capacity_bits = structure.total_data_codewords * 8

    mode = select_mode(payload)
    buffer = _encode_segment(payload, mode, version)
    if len(buffer) > capacity_bits:
        raise QRCapacityError("payload exceeds version capacity")

    # Terminator (up to 4 zero bits), pad to a byte boundary, then the
    # alternating pad codewords 0xEC / 0x11.
    buffer.append_bits(0, min(4, capacity_bits - len(buffer)))
    if len(buffer) % 8:
        buffer.append_bits(0, 8 - len(buffer) % 8)
    data = buffer.to_bytes()
    pad_bytes = (0xEC, 0x11)
    index = 0
    while len(data) < structure.total_data_codewords:
        data.append(pad_bytes[index % 2])
        index += 1

    # Split into blocks and compute parity per block.
    blocks: list[list[int]] = []
    parities: list[list[int]] = []
    offset = 0
    for size in structure.block_sizes:
        block = data[offset : offset + size]
        offset += size
        blocks.append(block)
        parities.append(rs_encode(block, structure.ec_per_block))

    # Interleave data codewords, then parity codewords.
    interleaved: list[int] = []
    for i in range(max(len(block) for block in blocks)):
        for block in blocks:
            if i < len(block):
                interleaved.append(block[i])
    for i in range(structure.ec_per_block):
        for parity in parities:
            interleaved.append(parity[i])
    return interleaved


def encode_qr(payload: str, ec_level: ECLevel = ECLevel.M, version: int | None = None) -> np.ndarray:
    """Encode ``payload`` into a module matrix (True = dark module)."""
    if version is None:
        version = select_version(payload, ec_level)
    codewords = build_codewords(payload, version, ec_level)

    layout = function_layout(version)
    matrix = layout.matrix.copy()
    bits = np.unpackbits(np.array(codewords, dtype=np.uint8)).astype(bool)
    # Remainder bits (if any) stay light.
    matrix[layout.rows[: len(bits)], layout.cols[: len(bits)]] = bits

    best_matrix = None
    best_mask = 0
    best_penalty = None
    for mask_id in range(8):
        candidate = apply_mask(matrix, layout.reserved, mask_id)
        place_format_information(candidate, ec_level, mask_id)
        place_version_information(candidate, version)
        score = penalty_score(candidate)
        if best_penalty is None or score < best_penalty:
            best_matrix, best_mask, best_penalty = candidate, mask_id, score
    assert best_matrix is not None
    return best_matrix


def qr_image(
    payload: str,
    ec_level: ECLevel = ECLevel.M,
    scale: int = 4,
    border: int = 4,
) -> Image:
    """Encode ``payload`` and rasterise it with a quiet zone.

    ``border`` is the quiet-zone width in modules (the spec mandates 4).
    """
    matrix = encode_qr(payload, ec_level)
    return Image.from_bool_matrix(matrix, scale=scale, border=border)
