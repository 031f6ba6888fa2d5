"""Binary PGM (P5) reading and writing for 8-bit grayscale images."""

from __future__ import annotations

from pathlib import Path

import numpy as np


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    """Write a 2D uint8 array as binary PGM, maxval 255, row-major.

    The pixels are written from the array's own buffer when it is C-ordered,
    so a frame is never copied into one bytes object with the header.
    """
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError(f"expected a 2D grayscale image, got shape {image.shape}")
    if image.dtype != np.uint8:
        raise ValueError(f"expected uint8 pixels, got {image.dtype}")
    height, width = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(image).data)


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary PGM file into a read-only 2D uint8 array (top-left origin).

    The array is a view of the file's bytes; copy it before writing to it.
    """
    data = Path(path).read_bytes()
    # The magic ends at whitespace or a comment: b"P55 4 255" is no P5 header.
    if not data.startswith(b"P5") or data[2:3] not in b" \t\n\v\f\r#":
        raise ValueError(f"{path}: not a binary PGM (P5) file")

    # Header: magic, width, height, maxval as ASCII tokens; '#' starts a
    # comment running to end of line; a single whitespace byte separates the
    # maxval from the pixel payload.
    tokens: list[int] = []
    pos = 2
    while len(tokens) < 3:
        if pos >= len(data):
            raise ValueError(f"{path}: truncated PGM header")
        byte = data[pos : pos + 1]
        if byte == b"#":
            eol = data.find(b"\n", pos)
            pos = len(data) if eol == -1 else eol + 1
        elif byte.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end : end + 1].isspace():
                end += 1
            field = data[pos:end]
            if not field.isdigit():
                raise ValueError(f"{path}: PGM header field {field[:20]!r} is not a number")
            try:
                tokens.append(int(field))
            except ValueError:  # more digits than int() converts
                raise ValueError(f"{path}: PGM header field of {len(field)} digits is too long") from None
            pos = end
    pos += 1  # the single whitespace after maxval

    width, height, maxval = tokens
    if width == 0 or height == 0:
        raise ValueError(f"{path}: empty {width}x{height} PGM image")
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}, expected 255")
    payload = max(len(data) - pos, 0)
    if payload < width * height:
        raise ValueError(f"{path}: expected {width * height} pixels, got {payload}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos)
    return pixels.reshape(height, width)
