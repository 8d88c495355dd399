"""Single on-disk container for checkpoints, score files and masks.

Layout: an 8-byte magic, one format-version byte, a little-endian u32 header
length, a UTF-8 text header, then raw payload blocks.  The header carries
`kind`, `meta.*` key=value pairs, and one manifest line per block:

    block=<name>|<codec>|<shape>|<offset>|<nbytes>

The kind, each meta key and each block name appear once; a reader refuses
a header that repeats one, and a writer refuses to repeat a block name.

Codec `f8` is raw little-endian float64, row-major.  Codec `b1` is a binary
mask bit-packed row by row (most significant bit = lowest column index, rows
padded to a whole byte).  Offsets are relative to the payload start.  Writers
emit meta keys sorted, so identical content yields identical bytes.

Stage records (score files and masks) are dataclasses whose first field holds
the blocks; every other field is one meta entry, keyed by the field name or by
`field(metadata={"key": ...})`.  A value is written as `str(value)`, `""` for
None.  A record file's meta holds exactly its record's keys: on reading, a
missing key and a key that names no field are both refused.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .errors import ArtifactError, ValidationError

MAGIC = b"DUALPRNC"
FORMAT_VERSION = 1


@dataclass
class Container:
    kind: str
    meta: dict[str, str]
    blocks: dict[str, np.ndarray]  # insertion order == manifest order


def record_meta(record) -> dict[str, str]:
    """Meta entries of a stage record: one per field after the first."""
    meta = {}
    for f in fields(record)[1:]:
        value = getattr(record, f.name)
        meta[f.metadata.get("key", f.name)] = "" if value is None else str(value)
    return meta


def _parse_meta(hint, text: str):
    args = get_args(hint)
    if type(None) in args:  # X | None
        if text == "":
            return None
        (hint,) = [a for a in args if a is not type(None)]
    return hint(text)


def record_from_container(cls, c: Container, path):
    """Rebuild a stage record of class `cls` from its container `c`, read from `path`."""
    hints = get_type_hints(cls)
    first, *rest = fields(cls)
    keys = {f.name: f.metadata.get("key", f.name) for f in rest}
    values = {first.name: dict(c.blocks)}
    try:
        for name, key in keys.items():
            values[name] = _parse_meta(hints[name], c.meta[key])
    except (KeyError, ValueError) as e:
        raise ArtifactError(f"{c.kind} file {path}: bad metadata ({e})") from None
    unknown = sorted(set(c.meta) - set(keys.values()))
    if unknown:
        raise ArtifactError(f"{c.kind} file {path}: bad metadata (unknown key {unknown[0]!r})")
    return cls(**values)


def _encode_block(arr: np.ndarray, codec: str) -> bytes:
    """Encode `arr` with codec `f8` or `b1`, the two `write_container` picks from."""
    if codec == "f8":
        return np.ascontiguousarray(arr, dtype="<f8").tobytes()
    if arr.ndim != 2:
        raise ValidationError(f"bit-packed blocks must be 2-D, got shape {arr.shape}")
    return np.packbits(arr.astype(np.uint8), axis=1).tobytes()


def _decode_block(raw: bytes, codec: str, shape: tuple[int, ...]) -> np.ndarray:
    """Decode a block whose codec, shape and byte count `read_container` has checked."""
    if codec == "f8":
        return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
    rows, cols = shape
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(rows, -(-cols // 8))
    return np.unpackbits(packed, axis=1)[:, :cols].astype(np.uint8)


def write_container(path, kind: str, meta: dict[str, str],
                    blocks: list[tuple[str, np.ndarray]],
                    bitpack: set[str] | frozenset[str] = frozenset()) -> None:
    """Write `blocks` (name, array) in order; names listed in `bitpack` use codec b1.

    The bytes go to a temporary file beside `path` that then replaces it, so
    an interrupted write leaves any previous file at `path` as it was.
    """
    lines = [f"kind={kind}"]
    for key in sorted(meta):
        value = str(meta[key])
        if "\n" in key or "\n" in value or "=" in key:
            raise ValidationError(f"invalid meta entry {key!r}")
        lines.append(f"meta.{key}={value}")

    payload = bytearray()
    offset = 0
    names = set()
    for name, arr in blocks:
        if "|" in name or "\n" in name:
            raise ValidationError(f"invalid block name {name!r}")
        if name in names:
            raise ValidationError(f"block {name!r} named twice")
        names.add(name)
        codec = "b1" if name in bitpack else "f8"
        raw = _encode_block(arr, codec)
        shape = ",".join(str(n) for n in arr.shape)
        lines.append(f"block={name}|{codec}|{shape}|{offset}|{len(raw)}")
        payload += raw
        offset += len(raw)

    header = ("\n".join(lines) + "\n").encode("utf-8")
    out = bytearray()
    out += MAGIC
    out.append(FORMAT_VERSION)
    out += len(header).to_bytes(4, "little")
    out += header
    out += payload
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(out)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_container(path, expect_kind: str) -> Container:
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}") from None
    if len(raw) < len(MAGIC) + 5 or raw[: len(MAGIC)] != MAGIC:
        raise ArtifactError(f"{path}: bad magic, not a container file")
    version = raw[len(MAGIC)]
    if version != FORMAT_VERSION:
        raise ArtifactError(f"{path}: unsupported format version {version}")
    header_len = int.from_bytes(raw[len(MAGIC) + 1 : len(MAGIC) + 5], "little")
    header_start = len(MAGIC) + 5
    if header_start + header_len > len(raw):
        raise ArtifactError(f"{path}: truncated header")
    try:
        header = raw[header_start : header_start + header_len].decode("utf-8")
    except UnicodeDecodeError:
        raise ArtifactError(f"{path}: header is not valid UTF-8") from None
    payload = raw[header_start + header_len :]

    kind = None
    meta: dict[str, str] = {}
    blocks: dict[str, np.ndarray] = {}
    expected_offset = 0
    for line in header.split("\n"):  # the writer's one separator; splitlines() breaks at "\r" too
        if not line:
            continue
        key, _, value = line.partition("=")
        if key == "kind":
            if kind is not None:
                raise ArtifactError(f"{path}: kind given twice")
            kind = value
        elif key.startswith("meta."):
            if key[5:] in meta:
                raise ArtifactError(f"{path}: meta key {key[5:]!r} given twice")
            meta[key[5:]] = value
        elif key == "block":
            parts = value.split("|")
            if len(parts) != 5:
                raise ArtifactError(f"{path}: malformed manifest line {line!r}")
            name, codec, shape_s, offset_s, nbytes_s = parts
            try:
                shape = tuple(int(n) for n in shape_s.split(",")) if shape_s else ()
                offset, nbytes = int(offset_s), int(nbytes_s)
            except ValueError:
                raise ArtifactError(f"{path}: malformed manifest line {line!r}") from None
            if name in blocks:
                raise ArtifactError(f"{path}: block {name} named twice")
            if codec not in ("f8", "b1"):
                raise ArtifactError(f"{path}: block {name} has unknown codec {codec!r}")
            if any(n < 0 for n in shape) or (codec == "b1" and len(shape) != 2):
                raise ArtifactError(f"{path}: block {name} has invalid {codec} shape {shape}")
            # f8: 8 bytes per entry; b1: each row packed into whole bytes
            expected_nbytes = 8 * math.prod(shape) if codec == "f8" else shape[0] * -(-shape[1] // 8)
            if nbytes != expected_nbytes:
                raise ArtifactError(f"{path}: block {name} has {nbytes} bytes, but {codec} "
                                    f"shape {shape} takes {expected_nbytes}")
            if offset != expected_offset or offset + nbytes > len(payload):
                raise ArtifactError(f"{path}: block {name} offsets inconsistent with payload")
            expected_offset = offset + nbytes
            blocks[name] = _decode_block(payload[offset : offset + nbytes], codec, shape)
        else:
            raise ArtifactError(f"{path}: unknown header line {line!r}")
    if kind is None:
        raise ArtifactError(f"{path}: missing kind")
    if expected_offset != len(payload):
        raise ArtifactError(f"{path}: payload has {len(payload)} bytes, manifest covers {expected_offset}")
    if kind != expect_kind:
        raise ArtifactError(f"{path}: expected kind {expect_kind!r}, found {kind!r}")
    return Container(kind=kind, meta=meta, blocks=blocks)
