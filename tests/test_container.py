"""Binary container: round trips, manifest integrity, corruption handling."""

from pathlib import Path

import numpy as np
import pytest

from dualprune.container import (
    FORMAT_VERSION,
    MAGIC,
    read_container,
    write_container,
)
from dualprune.errors import ArtifactError, ValidationError


@pytest.fixture
def sample_blocks():
    rng = np.random.default_rng(0)
    return [
        ("alpha", rng.normal(size=(4, 6))),
        ("beta", rng.normal(size=(2, 3))),
        ("gamma", np.arange(5.0)),
    ]


def test_float_round_trip(tmp_path, sample_blocks):
    path = tmp_path / "x.bin"
    write_container(path, "checkpoint", {"step": "12"}, sample_blocks)
    c = read_container(path)
    assert c.kind == "checkpoint"
    assert c.meta["step"] == "12"
    assert list(c.blocks) == ["alpha", "beta", "gamma"]
    for name, arr in sample_blocks:
        assert np.array_equal(c.blocks[name], arr)
        assert c.blocks[name].dtype == np.float64


def test_bitpacked_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    mask = (rng.random((5, 13)) < 0.5).astype(np.uint8)  # odd width exercises padding
    path = tmp_path / "m.bin"
    write_container(path, "mask", {}, [("m", mask)], bitpack={"m"})
    c = read_container(path, expect_kind="mask")
    assert np.array_equal(c.blocks["m"], mask)
    assert c.blocks["m"].dtype == np.uint8


def test_deterministic_bytes(tmp_path, sample_blocks):
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    meta = {"zeta": "1", "alpha": "2"}
    write_container(a, "scores.general", meta, sample_blocks)
    write_container(b, "scores.general", dict(reversed(meta.items())), sample_blocks)
    assert a.read_bytes() == b.read_bytes()


def test_interrupted_write_keeps_previous_file(tmp_path, sample_blocks, monkeypatch):
    path = tmp_path / "x.bin"
    write_container(path, "checkpoint", {"step": "1"}, sample_blocks)
    before = path.read_bytes()

    def fail_halfway(self, data):  # e.g. the disk fills up mid-write
        with open(self, "wb") as fh:
            fh.write(bytes(data)[: len(data) // 2])
        raise OSError("No space left on device")

    monkeypatch.setattr(Path, "write_bytes", fail_halfway)
    with pytest.raises(OSError, match="No space"):
        write_container(path, "checkpoint", {"step": "2"}, sample_blocks)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_bad_magic_rejected(tmp_path, sample_blocks):
    path = tmp_path / "x.bin"
    write_container(path, "checkpoint", {}, sample_blocks)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"JUNK"
    path.write_bytes(bytes(raw))
    with pytest.raises(ArtifactError, match="magic"):
        read_container(path)


def test_unknown_version_rejected(tmp_path, sample_blocks):
    path = tmp_path / "x.bin"
    write_container(path, "checkpoint", {}, sample_blocks)
    raw = bytearray(path.read_bytes())
    raw[len(MAGIC)] = FORMAT_VERSION + 1
    path.write_bytes(bytes(raw))
    with pytest.raises(ArtifactError, match="version"):
        read_container(path)


def test_truncated_payload_rejected(tmp_path, sample_blocks):
    path = tmp_path / "x.bin"
    write_container(path, "checkpoint", {}, sample_blocks)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(ArtifactError):
        read_container(path)


def test_wrong_kind_rejected(tmp_path, sample_blocks):
    path = tmp_path / "x.bin"
    write_container(path, "mask", {}, sample_blocks)
    with pytest.raises(ArtifactError, match="expected kind"):
        read_container(path, expect_kind="checkpoint")


def test_missing_file():
    with pytest.raises(ValidationError, match="cannot read"):
        read_container("/nonexistent/file.bin")


def test_meta_newline_rejected(tmp_path):
    with pytest.raises(ValidationError):
        write_container(tmp_path / "x.bin", "checkpoint", {"k": "a\nb"}, [])


def test_empty_payload_ok(tmp_path):
    path = tmp_path / "empty.bin"
    write_container(path, "mask", {"note": "none"}, [])
    c = read_container(path)
    assert c.blocks == {}
