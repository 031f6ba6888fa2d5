"""PGM round-trip and format validation."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fingersense.pgm import read_pgm, write_pgm


def test_round_trip_is_byte_exact(tmp_path):
    rng = np.random.default_rng(0)
    image = rng.integers(0, 256, size=(48, 64), dtype=np.uint8)
    path = tmp_path / "img.pgm"
    write_pgm(path, image)
    np.testing.assert_array_equal(read_pgm(path), image)


def test_header_layout(tmp_path):
    image = np.zeros((2, 3), dtype=np.uint8)
    path = tmp_path / "img.pgm"
    write_pgm(path, image)
    assert path.read_bytes() == b"P5\n3 2\n255\n" + b"\x00" * 6


def test_write_non_contiguous_and_fortran_arrays(tmp_path):
    rng = np.random.default_rng(1)
    base = rng.integers(0, 256, size=(7, 10), dtype=np.uint8)
    for image in (base[:, ::2], np.asfortranarray(base), base.T, base[::-1, 1:]):
        path = tmp_path / "img.pgm"
        write_pgm(path, image)
        height, width = image.shape
        assert path.read_bytes() == f"P5\n{width} {height}\n255\n".encode() + image.tobytes()
        np.testing.assert_array_equal(read_pgm(path), image)


def test_read_accepts_header_comments(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + bytes(range(6)))
    image = read_pgm(path)
    assert image.shape == (2, 3)
    assert image[1, 2] == 5


def test_write_rejects_non_uint8(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 2), dtype=np.float64))


def test_read_rejects_wrong_magic(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
    with pytest.raises(ValueError):
        read_pgm(path)


def test_read_rejects_truncated_payload(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 7)
    with pytest.raises(ValueError):
        read_pgm(path)


@pytest.mark.parametrize(
    "content, message",
    [
        (b"P5\n0 0\n255\n", "empty 0x0"),
        (b"P5\n3 0\n255\n", "empty 3x0"),
        (b"P5\n4 4\n255\n" + b"\x00" * 7, "expected 16 pixels, got 7"),
        (b"P5\n2 2\n255", "expected 4 pixels, got 0"),
        (b"P5\nab 2\n255\n" + b"\x00" * 4, "header field b'ab'"),
        (b"P5\n2 2.0\n255\n" + b"\x00" * 4, "header field b'2.0'"),
        (b"P5\n-1 2\n255\n" + b"\x00" * 4, "header field b'-1'"),
        (b"P5\n+2 2\n255\n" + b"\x00" * 4, "header field b'+2'"),
        (b"P5\n2 2\n", "truncated PGM header"),
        (b"P55 4 255\n" + bytes(20), "not a binary PGM (P5) file"),
        # int() refuses more than 4,300 digits with a message of its own.
        pytest.param(
            b"P5\n" + b"1" * 5000 + b" 1\n255\n",
            "PGM header field of 5000 digits is too long",
            id="5000-digit-field",
        ),
        # Each field converts, but their product has more digits than str() converts.
        pytest.param(
            b"P5\n" + b"9" * 4000 + b" " + b"9" * 4000 + b"\n255\n",
            "expected " + "9" * 4000 + "x" + "9" * 4000 + " pixels, got 0",
            id="8000-digit-product",
        ),
    ],
)
def test_read_rejects_bad_header_with_path(tmp_path, content, message):
    path = tmp_path / "x.pgm"
    path.write_bytes(content)
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        read_pgm(path)
    assert str(info.value).startswith(f"{path}: ")
    assert "\n" not in str(info.value)


def test_read_checks_payload_before_allocating(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n4000000000 4000000000\n255\n" + b"\x00" * 16)
    with pytest.raises(ValueError, match="expected 16000000000000000000 pixels, got 16"):
        read_pgm(path)


def test_read_ignores_trailing_bytes(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n2 1\n255\n" + bytes([7, 9, 11]))
    np.testing.assert_array_equal(read_pgm(path), [[7, 9]])


pgm_like = st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=64).map(lambda tail: b"P5" + tail),
    st.tuples(
        st.sampled_from([b"0", b"1", b"3", b"-2", b"x", b"255", b"99999999999"]),
        st.sampled_from([b"0", b"2", b"+2", b"1e1", b""]),
        st.sampled_from([b"255", b"254", b"#c\n255"]),
        st.sampled_from([b" ", b"\n", b"\t", b""]),
        st.binary(max_size=16),
    ).map(lambda p: b"P5\n" + p[0] + b" " + p[1] + b"\n" + p[2] + p[3] + p[4]),
)


@settings(max_examples=300, deadline=None)
@given(pgm_like)
def test_read_fuzzed_bytes_fail_cleanly(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("fuzz") / "x.pgm"
    path.write_bytes(content)
    try:
        image = read_pgm(path)
    except (ValueError, OSError) as exc:
        assert str(exc).startswith(f"{path}: ")
        assert "\n" not in str(exc)
    else:
        assert image.dtype == np.uint8 and image.ndim == 2 and image.size > 0


def test_read_into_a_matching_array_reuses_it(tmp_path):
    # Only a writable C-ordered uint8 array of the file's shape is read into;
    # any other is left as it was, and the pixels come back in a new array.
    rng = np.random.default_rng(2)
    image = rng.integers(0, 256, size=(48, 64), dtype=np.uint8)
    path = tmp_path / "img.pgm"
    write_pgm(path, image)
    out = np.zeros((48, 64), dtype=np.uint8)
    assert read_pgm(path, out) is out
    np.testing.assert_array_equal(out, image)
    read_only = np.zeros((48, 64), dtype=np.uint8)
    read_only.flags.writeable = False
    others = [
        np.zeros((64, 48), dtype=np.uint8),
        np.zeros((48, 64), dtype=np.int16),
        np.zeros((48, 128), dtype=np.uint8)[:, ::2],
        np.zeros((64, 48), dtype=np.uint8).T,
        read_only,
    ]
    for other in others:
        got = read_pgm(path, other)
        assert got is not other and not got.flags.writeable
        np.testing.assert_array_equal(got, image)
        assert not other.any()


@settings(max_examples=300, deadline=None)
@given(pgm_like, st.sampled_from([(1, 1), (2, 1), (2, 2), (2, 3), (2, 255)]))
def test_read_into_an_array_agrees_with_a_fresh_read(tmp_path_factory, content, shape):
    path = tmp_path_factory.mktemp("fuzz") / "x.pgm"
    path.write_bytes(content)
    out = np.full(shape, 7, dtype=np.uint8)
    try:
        want = read_pgm(path)
    except (ValueError, OSError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            read_pgm(path, out)
    else:
        got = read_pgm(path, out)
        np.testing.assert_array_equal(got, want)
        assert (got is out) == (want.shape == shape)
