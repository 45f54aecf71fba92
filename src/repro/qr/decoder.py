"""QR decoding: module matrix -> payload string.

The decoder reads and BCH-corrects the format information, removes the
data mask, walks the zigzag placement, de-interleaves the Reed–Solomon
blocks, corrects byte errors, and parses the segment stream (numeric,
alphanumeric, and byte modes).
"""

from __future__ import annotations

import numpy as np

from repro.qr.bits import BitBuffer
from repro.qr.gf256 import ReedSolomonError, rs_decode
from repro.qr.matrix import (
    apply_mask,
    function_layout,
    read_format_information,
)
from repro.qr.tables import (
    ALPHANUMERIC_CHARSET,
    BLOCK_TABLE,
    version_for_size,
)


class QRDecodeError(ValueError):
    """The matrix does not contain a decodable QR symbol."""


def _deinterleave(codewords: list[int], version: int, ec_level) -> list[int]:
    """Undo codeword interleaving; returns data codewords in logical order."""
    structure = BLOCK_TABLE[(version, ec_level)]
    sizes = structure.block_sizes
    n_blocks = len(sizes)

    data_blocks: list[list[int]] = [[] for _ in range(n_blocks)]
    cursor = 0
    for i in range(max(sizes)):
        for block_index in range(n_blocks):
            if i < sizes[block_index]:
                data_blocks[block_index].append(codewords[cursor])
                cursor += 1
    parity_blocks: list[list[int]] = [[] for _ in range(n_blocks)]
    for _ in range(structure.ec_per_block):
        for block_index in range(n_blocks):
            parity_blocks[block_index].append(codewords[cursor])
            cursor += 1

    data: list[int] = []
    for block, parity in zip(data_blocks, parity_blocks):
        try:
            data.extend(rs_decode(block + parity, structure.ec_per_block))
        except ReedSolomonError as exc:
            raise QRDecodeError(f"uncorrectable block: {exc}") from exc
    return data


def _parse_segments(data: list[int], version: int) -> str:
    """Parse the decoded bit stream into its textual payload."""
    buffer = BitBuffer(np.unpackbits(np.array(data, dtype=np.uint8)).tolist())

    parts: list[str] = []
    while buffer.remaining >= 4:
        mode = buffer.read_bits(4)
        if mode == 0b0000:  # terminator
            break
        if mode == 0b0100:  # byte
            count_bits = 8 if version <= 9 else 16
            count = buffer.read_bits(count_bits)
            raw = bytes(buffer.read_bits(8) for _ in range(count))
            parts.append(raw.decode("utf-8", errors="replace"))
        elif mode == 0b0010:  # alphanumeric
            count_bits = 9 if version <= 9 else 11
            count = buffer.read_bits(count_bits)
            chars: list[str] = []
            for _ in range(count // 2):
                value = buffer.read_bits(11)
                chars.append(ALPHANUMERIC_CHARSET[value // 45])
                chars.append(ALPHANUMERIC_CHARSET[value % 45])
            if count % 2:
                chars.append(ALPHANUMERIC_CHARSET[buffer.read_bits(6)])
            parts.append("".join(chars))
        elif mode == 0b0001:  # numeric
            count_bits = 10 if version <= 9 else 12
            count = buffer.read_bits(count_bits)
            digits: list[str] = []
            remaining = count
            while remaining >= 3:
                digits.append(f"{buffer.read_bits(10):03d}")
                remaining -= 3
            if remaining == 2:
                digits.append(f"{buffer.read_bits(7):02d}")
            elif remaining == 1:
                digits.append(f"{buffer.read_bits(4):d}")
            parts.append("".join(digits))
        else:
            raise QRDecodeError(f"unsupported mode indicator {mode:04b}")
    return "".join(parts)


def decode_qr_matrix(matrix: np.ndarray) -> str:
    """Decode a boolean module matrix back into its payload string."""
    matrix = np.asarray(matrix, dtype=bool)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise QRDecodeError("matrix must be square")
    try:
        version = version_for_size(matrix.shape[0])
    except ValueError as exc:
        raise QRDecodeError(str(exc)) from exc
    if (version, next(iter(BLOCK_TABLE))[1]) not in BLOCK_TABLE and version > 10:
        raise QRDecodeError(f"unsupported version {version}")

    try:
        ec_level, mask_id = read_format_information(matrix)
    except ValueError as exc:
        raise QRDecodeError(str(exc)) from exc

    layout = function_layout(version)
    unmasked = apply_mask(matrix, layout.reserved, mask_id)
    bits = unmasked[layout.rows, layout.cols]
    codewords = np.packbits(bits[: len(bits) // 8 * 8]).tolist()

    data = _deinterleave(codewords, version, ec_level)
    return _parse_segments(data, version)
