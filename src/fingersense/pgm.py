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


def read_pgm(path: str | Path, out: np.ndarray | None = None) -> np.ndarray:
    """Read a binary PGM file into a 2D uint8 array (top-left origin).

    When ``out`` is a writable C-ordered uint8 array of the file's height and
    width, the pixels are read into it and ``out`` is returned, so a caller
    that reads frame after frame into one array allocates no frame for them.
    Otherwise the array is a new read-only view of the bytes after the header.
    A payload shorter than the header's pixel count raises ``ValueError``
    (``out`` may then hold part of it), and bytes after the pixels are
    ignored.
    """
    with open(path, "rb") as fh:
        magic = fh.read(3)
        # The magic ends at whitespace or a comment: b"P55 4 255" is no P5 header.
        if not magic.startswith(b"P5") or magic[2:] not in b" \t\n\v\f\r#":
            raise ValueError(f"{path}: not a binary PGM (P5) file")

        # Header: magic, width, height, maxval as ASCII tokens; '#' starts a
        # comment running to end of line; a single whitespace byte separates
        # the maxval from the pixel payload.  ``byte`` is the next unparsed byte.
        tokens: list[int] = []
        byte = magic[2:]
        while len(tokens) < 3:
            if not byte:
                raise ValueError(f"{path}: truncated PGM header")
            if byte == b"#":
                fh.readline()
                byte = fh.read(1)
            elif byte.isspace():
                byte = fh.read(1)
            else:
                field = bytearray()
                while byte and not byte.isspace():
                    field += byte
                    byte = fh.read(1)
                if not field.isdigit():
                    raise ValueError(f"{path}: PGM header field {bytes(field[:20])!r} is not a number")
                try:
                    tokens.append(int(field))
                except ValueError:  # more digits than int() converts
                    raise ValueError(f"{path}: PGM header field of {len(field)} digits is too long") from None
        # ``byte``, the single whitespace after maxval, has been read.

        width, height, maxval = tokens
        if width == 0 or height == 0:
            raise ValueError(f"{path}: empty {width}x{height} PGM image")
        if maxval != 255:
            raise ValueError(f"{path}: unsupported maxval {maxval}, expected 255")
        count = width * height
        reusable = (
            out is not None
            and out.shape == (height, width)
            and out.dtype == np.uint8
            and out.flags.c_contiguous
            and out.flags.writeable
        )
        if reusable:
            payload = fh.readinto(out.reshape(-1))  # reads until ``out`` is full or the file ends
        else:
            data = fh.read()
            payload = len(data)
    if payload < count:
        try:
            expected = str(count)
        except ValueError:  # a product of more digits than str() converts
            expected = f"{width}x{height}"
        raise ValueError(f"{path}: expected {expected} pixels, got {payload}")
    if reusable:
        return out
    return np.frombuffer(data, dtype=np.uint8, count=count).reshape(height, width)
