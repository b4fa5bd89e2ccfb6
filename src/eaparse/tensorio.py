"""On-disk formats and raster/tensor validation.

Three byte-deterministic formats make up the toolkit's wire protocol:

* label maps   -- binary PGM, ``P5\\n{W} {H}\\n255\\n`` + H*W raw bytes
* RGB images   -- binary PPM, ``P6\\n{W} {H}\\n255\\n`` + H*W*3 raw bytes
* logit stacks -- ``FPLT`` container: 4 magic bytes, then version=1, C, H, W
  as little-endian uint32, then C*H*W little-endian float32 values in
  channel-major order

Headers are ASCII, payloads little-endian; ``#`` comments in PGM/PPM headers
are rejected so the grammar stays single-pass. Readers never hand back a
value that violates the target type's invariants.

The JSON and JSONL settings files are read by ``_read_text``: strict UTF-8,
with ``\\r\\n`` and ``\\r`` read as ``\\n`` as in text mode. Every reader
reports a file it cannot open as IoFailure, ``cannot read <path>: ...``.

In memory the domain types are plain numpy arrays:

* LabelMap    -- (H, W) uint8, one class id per pixel, 0 = background
* RgbImage    -- (H, W, 3) uint8 interleaved R,G,B
* BinaryMask  -- (H, W) uint8 with values in {0, 1}
* LogitsTensor - (C, H, W) float32, all finite
"""

from __future__ import annotations

import contextlib
import io
import os
import struct

import numpy as np

from .errors import (
    BadMagic,
    BadVersion,
    InvalidRaster,
    IoFailure,
    MalformedHeader,
    NonFiniteValue,
    ToolkitError,
    TrailingData,
    TruncatedData,
    UnsupportedMaxval,
)

FPLT_MAGIC = b"FPLT"
FPLT_VERSION = 1


# --- in-memory validators ---


def _as_uint8(a: np.ndarray, kind: str, values: str) -> np.ndarray:
    """``a`` as uint8, or InvalidRaster unless it holds integers in 0..255."""
    if a.dtype != np.uint8:
        if not np.issubdtype(a.dtype, np.integer):
            raise InvalidRaster(f"{kind} must hold integers, got dtype {a.dtype}")
        if a.min() < 0 or a.max() > 255:
            raise InvalidRaster(f"{values} must fit in one unsigned byte")
        a = a.astype(np.uint8)
    return a


def ensure_label_map(arr) -> np.ndarray:
    """Return ``arr`` as a valid (H, W) uint8 label map or raise InvalidRaster."""
    a = np.asarray(arr)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidRaster(f"label map must be 2-D with H,W >= 1, got shape {a.shape}")
    return _as_uint8(a, "label map", "label ids")


def ensure_rgb_image(arr) -> np.ndarray:
    """Return ``arr`` as a valid (H, W, 3) uint8 image or raise InvalidRaster."""
    a = np.asarray(arr)
    if a.ndim != 3 or a.shape[2] != 3 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidRaster(f"rgb image must be (H, W, 3) with H,W >= 1, got shape {a.shape}")
    return _as_uint8(a, "rgb image", "channel values")


def ensure_binary_mask(arr) -> np.ndarray:
    """Return ``arr`` as a valid (H, W) uint8 mask over {0, 1} or raise InvalidRaster."""
    a = np.asarray(arr)
    if a.dtype == np.bool_:
        a = a.astype(np.uint8)
    a = ensure_label_map(a)
    if a.max(initial=0) > 1:
        raise InvalidRaster("binary mask may only contain 0 and 1")
    return a


def ensure_logits(arr) -> np.ndarray:
    """Return ``arr`` as a valid (C, H, W) float32 logits tensor or raise InvalidRaster."""
    a = np.asarray(arr)
    if a.ndim != 3 or min(a.shape) < 1:
        raise InvalidRaster(f"logits must be (C, H, W) with all dims >= 1, got shape {a.shape}")
    if not np.issubdtype(a.dtype, np.floating):
        raise InvalidRaster(f"logits must be floating point, got dtype {a.dtype}")
    if not np.all(np.isfinite(a)):
        raise InvalidRaster("logits must be finite (no NaN/Inf)")
    return a.astype(np.float32, copy=False)


# --- netpbm (PGM / PPM) ---


def _parse_pnm_header(data: bytes, magic: bytes, path) -> tuple[int, int, int]:
    """Parse ``magic w h maxval`` and return (width, height, payload offset)."""
    if data[:2] != magic:
        raise MalformedHeader(
            f"{path}: expected magic {magic.decode()}, found {data[:2]!r}"
        )
    pos = 2
    fields = []
    for _ in range(3):
        start = pos
        while pos < len(data) and data[pos : pos + 1] in b" \t\r\n\x0b\x0c":
            pos += 1
        if pos == start:
            raise MalformedHeader(f"{path}: missing whitespace between header fields")
        if data[pos : pos + 1] == b"#":
            raise MalformedHeader(f"{path}: comments are not allowed in headers")
        digits_start = pos
        while pos < len(data) and data[pos : pos + 1].isdigit():
            pos += 1
        if pos == digits_start:
            raise MalformedHeader(f"{path}: expected an unsigned integer in header")
        fields.append(int(data[digits_start:pos]))
    if pos >= len(data) or data[pos : pos + 1] not in b" \t\r\n\x0b\x0c":
        raise MalformedHeader(f"{path}: header must end with a single whitespace byte")
    pos += 1
    width, height, maxval = fields
    if maxval != 255:
        raise UnsupportedMaxval(f"{path}: maxval must be 255, found {maxval}")
    if width < 1 or height < 1:
        raise MalformedHeader(f"{path}: width and height must be >= 1")
    return width, height, pos


def _read_file(path) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def _read_text(path) -> str:
    """A UTF-8 text file as text mode reads it: ``\\r\\n`` and ``\\r`` become ``\\n``."""
    try:
        return io.StringIO(_read_file(path).decode("utf-8"), newline=None).read()
    except UnicodeDecodeError as exc:
        raise ToolkitError(f"{path}: not UTF-8 text: {exc}") from exc


def _write_files(items) -> None:
    """Replace every ``(path, payload)`` of ``items`` whole, or none of them.

    Every payload is written to a new file beside its target before any is
    renamed over its target. A reader sees the old files or the new ones,
    never a partial write, if the process fails or is killed before the
    renames (there is no fsync, so a power loss may still lose either); on
    failure the targets keep their bytes and no temporary file is left. A
    directory target is rejected up front, and so are two items that name
    one target (the same name in the same directory, once symlinks and
    ``..`` in the directory part are resolved); a rename that fails even so
    leaves the earlier targets replaced. A new file gets the mode and owner
    a plain ``open`` gives, so an existing file's mode, owner and hard links
    are not kept, and a symlink or other non-regular target becomes a
    regular file.
    """
    targets = {}
    for path, _ in items:
        if os.path.isdir(path):
            raise IoFailure(f"cannot write {path}: it is a directory")
        head, name = os.path.split(os.fspath(path))
        key = (os.path.realpath(head), name)  # what os.replace acts on
        if key in targets:
            raise IoFailure(f"cannot write {path}: {targets[key]} names the same file")
        targets[key] = path
    tmps: list[str] = []
    try:
        for path, payload in items:
            # a fixed-length name, so a target name near the length limit still works
            tmp = os.path.join(os.path.dirname(os.fspath(path)), f".{os.urandom(8).hex()}.tmp")
            f = open(tmp, "xb")  # "x": never truncate a file this call did not create
            tmps.append(tmp)
            with f:
                f.write(payload)
        for path, _ in items:
            os.replace(tmps[0], path)
            tmps.pop(0)
    except OSError as exc:
        for tmp in tmps:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        # the OS reason without the file name, which may be the random temporary one
        raise IoFailure(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_payload(data: bytes, offset: int, expected: int, path) -> None:
    got = len(data) - offset
    if got < expected:
        raise TruncatedData(f"{path}: expected {expected} payload bytes, found {got}")
    if got > expected:
        raise TrailingData(f"{path}: {got - expected} unexpected bytes after payload")


def _read_pnm(path, magic: bytes, depth: int) -> np.ndarray:
    """Read a binary PGM (``P5``, depth 1) or PPM (``P6``, depth 3) file into uint8 pixels."""
    data = _read_file(path)
    w, h, off = _parse_pnm_header(data, magic, path)
    _check_payload(data, off, h * w * depth, path)
    shape = (h, w) if depth == 1 else (h, w, depth)
    return np.frombuffer(data, np.uint8, h * w * depth, off).reshape(shape).copy()


def _pnm_bytes(magic: bytes, a: np.ndarray) -> bytes:
    """A validated uint8 raster as binary PGM/PPM bytes, byte-deterministically."""
    h, w = a.shape[:2]
    return b"%s\n%d %d\n255\n" % (magic, w, h) + a.tobytes()


def read_label_map(path) -> np.ndarray:
    """Read a binary PGM file into a (H, W) uint8 label map."""
    return _read_pnm(path, b"P5", 1)


def _label_map_bytes(label_map) -> bytes:
    """A label map as binary PGM bytes, byte-deterministically."""
    return _pnm_bytes(b"P5", ensure_label_map(label_map))


def write_label_map(label_map, path) -> None:
    """Write a label map as binary PGM, byte-deterministically."""
    _write_files([(path, _label_map_bytes(label_map))])


def read_rgb_image(path) -> np.ndarray:
    """Read a binary PPM file into a (H, W, 3) uint8 image."""
    return _read_pnm(path, b"P6", 3)


def _rgb_image_bytes(image) -> bytes:
    """An RGB image as binary PPM bytes, byte-deterministically."""
    return _pnm_bytes(b"P6", ensure_rgb_image(image))


def write_rgb_image(image, path) -> None:
    """Write an RGB image as binary PPM, byte-deterministically."""
    _write_files([(path, _rgb_image_bytes(image))])


# --- FPLT logits container ---


def read_logits(path) -> np.ndarray:
    """Read an FPLT file into a (C, H, W) float32 tensor.

    Rejects wrong magic/version, short or long payloads and any NaN/Inf value.
    """
    data = _read_file(path)
    if data[:4] != FPLT_MAGIC:
        raise BadMagic(f"{path}: expected magic {FPLT_MAGIC.decode()}, found {data[:4]!r}")
    if len(data) < 20:
        raise TruncatedData(f"{path}: header needs 20 bytes, file has {len(data)}")
    version, c, h, w = struct.unpack("<IIII", data[4:20])
    if version != FPLT_VERSION:
        raise BadVersion(f"{path}: unsupported version {version}")
    if min(c, h, w) < 1:
        raise MalformedHeader(f"{path}: C, H, W must all be >= 1, found {(c, h, w)}")
    _check_payload(data, 20, 4 * c * h * w, path)
    values = np.frombuffer(data, "<f4", c * h * w, 20).reshape(c, h, w)
    if not np.all(np.isfinite(values)):
        raise NonFiniteValue(f"{path}: payload contains NaN or Inf")
    return values.astype(np.float32)


def write_logits(logits, path) -> None:
    """Write a logits tensor as FPLT (values stored as little-endian float32)."""
    a = ensure_logits(logits)
    c, h, w = a.shape
    header = FPLT_MAGIC + struct.pack("<IIII", FPLT_VERSION, c, h, w)
    _write_files([(path, header + a.astype("<f4", copy=False).tobytes())])
