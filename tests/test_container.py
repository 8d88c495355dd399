"""Binary container: round trips, manifest integrity, corruption handling, stage-record meta."""

from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from dualprune.container import (
    FORMAT_VERSION,
    MAGIC,
    read_container,
    record_meta,
    write_container,
)
from dualprune.errors import ArtifactError, ValidationError
from dualprune.importance import (
    DualScoreS,
    ImportanceMatrixG,
    load_dual_scores,
    load_general_scores,
    save_dual_scores,
    save_general_scores,
)
from dualprune.pruning import Mask, load_mask, save_mask


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
    c = read_container(path, expect_kind="checkpoint")
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
        read_container(path, expect_kind="checkpoint")


def test_unknown_version_rejected(tmp_path, sample_blocks):
    path = tmp_path / "x.bin"
    write_container(path, "checkpoint", {}, sample_blocks)
    raw = bytearray(path.read_bytes())
    raw[len(MAGIC)] = FORMAT_VERSION + 1
    path.write_bytes(bytes(raw))
    with pytest.raises(ArtifactError, match="version"):
        read_container(path, expect_kind="checkpoint")


def test_truncated_payload_rejected(tmp_path, sample_blocks):
    path = tmp_path / "x.bin"
    write_container(path, "checkpoint", {}, sample_blocks)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(ArtifactError):
        read_container(path, expect_kind="checkpoint")


def test_wrong_kind_rejected(tmp_path, sample_blocks):
    path = tmp_path / "x.bin"
    write_container(path, "mask", {}, sample_blocks)
    with pytest.raises(ArtifactError, match="expected kind"):
        read_container(path, expect_kind="checkpoint")


def test_missing_file():
    with pytest.raises(ValidationError, match="cannot read"):
        read_container("/nonexistent/file.bin", expect_kind="checkpoint")


def test_meta_newline_rejected(tmp_path):
    with pytest.raises(ValidationError):
        write_container(tmp_path / "x.bin", "checkpoint", {"k": "a\nb"}, [])


@pytest.mark.parametrize("breaker", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                     "\u2028", "\u2029"])
def test_meta_and_names_with_other_line_breaks_round_trip(tmp_path, breaker):
    # str.splitlines() breaks at each of these; the header separator is "\n" alone
    path = tmp_path / "x.bin"
    name, value = f"m{breaker}n", f"a{breaker}b"
    write_container(path, "mask", {"x": value}, [(name, np.zeros((2, 2)))])
    c = read_container(path, expect_kind="mask")
    assert c.meta == {"x": value}
    assert list(c.blocks) == [name] and np.array_equal(c.blocks[name], np.zeros((2, 2)))


def raw_container(header: str, payload: bytes) -> bytes:
    """The bytes of a container with this header text and payload, as written by hand."""
    head = header.encode("utf-8")
    return MAGIC + bytes([FORMAT_VERSION]) + len(head).to_bytes(4, "little") + head + payload


@pytest.mark.parametrize("manifest, payload, message", [
    ("a|f8|4,4|0|8", bytes(8), r"block a has 8 bytes, but f8 shape \(4, 4\) takes 128"),
    ("a|f8|1|0|5", bytes(5), r"block a has 5 bytes, but f8 shape \(1,\) takes 8"),
    ("a|b1|3,9|0|3", bytes(3), r"block a has 3 bytes, but b1 shape \(3, 9\) takes 6"),
    ("a|b1|9|0|2", bytes(2), r"block a has invalid b1 shape \(9,\)"),
    ("a|f8|-1,2|0|16", bytes(16), r"block a has invalid f8 shape \(-1, 2\)"),
    ("a|i4|2|0|8", bytes(8), "block a has unknown codec 'i4'"),
], ids=["f8-short", "f8-partial-entry", "b1-short-rows", "b1-one-axis", "negative-axis", "codec"])
def test_block_byte_count_checked_against_codec_and_shape(tmp_path, manifest, payload, message):
    path = tmp_path / "x.bin"
    path.write_bytes(raw_container(f"kind=mask\nblock={manifest}\n", payload))
    with pytest.raises(ArtifactError, match=message):
        read_container(path, expect_kind="mask")


@pytest.mark.parametrize("header, payload, message", [
    ("kind=mask\nblock=a|f8|1|0|8\nblock=a|f8|1|8|8\n", bytes(16), "block a named twice"),
    ("kind=mask\nmeta.k=1\nmeta.k=2\n", b"", "meta key 'k' given twice"),
    ("kind=mask\nkind=checkpoint\n", b"", "kind given twice"),
], ids=["block", "meta", "kind"])
def test_repeated_header_entry_rejected(tmp_path, header, payload, message):
    path = tmp_path / "x.bin"
    path.write_bytes(raw_container(header, payload))
    with pytest.raises(ArtifactError, match=message):
        read_container(path, expect_kind="mask")


def test_repeated_block_name_not_written(tmp_path):
    path = tmp_path / "x.bin"
    with pytest.raises(ValidationError, match="block 'a' named twice"):
        write_container(path, "mask", {}, [("a", np.ones(2)), ("a", np.zeros(2))])
    assert not path.exists()


def test_empty_payload_ok(tmp_path):
    path = tmp_path / "empty.bin"
    write_container(path, "mask", {"note": "none"}, [])
    c = read_container(path, expect_kind="mask")
    assert c.blocks == {}


# -- stage records: meta entries derived from the dataclass fields ------------

def _records():
    scores = {"layers.0.q": np.arange(6.0).reshape(2, 3)}
    keep = {"layers.0.q": np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)}
    return {
        "general": (ImportanceMatrixG(scores, 1e-4, 2, "c" * 64, "m" * 64),
                    save_general_scores, load_general_scores),
        "dual": (DualScoreS(scores, 0.1, 0.03, 2, "d" * 64, "g" * 64, "m" * 64),
                 save_dual_scores, load_dual_scores),
        "mask": (Mask(keep, 0.5, "blocked", block_size=2, score_fingerprint="s" * 64,
                      model_fingerprint="m" * 64), save_mask, load_mask),
        "bare_mask": (Mask(keep, 0.25, "per-matrix"), save_mask, load_mask),  # None fields
    }


# container kind of each record's file
_FILE_KINDS = {"general": "scores.general", "dual": "scores.dual", "mask": "mask"}


def _rewrite_meta(path, kind, key, value=None):
    """Rewrite the `kind` record file at `path` with meta `key` set to `value`, or removed if None."""
    c = read_container(path, expect_kind=_FILE_KINDS[kind])
    meta = dict(c.meta)
    if value is None:
        del meta[key]
    else:
        meta[key] = value
    bitpack = set(c.blocks) if kind == "mask" else frozenset()
    write_container(path, c.kind, meta, list(c.blocks.items()), bitpack=bitpack)


@pytest.mark.parametrize("kind", ["general", "dual", "mask", "bare_mask"])
def test_record_round_trip(tmp_path, kind):
    record, save, load = _records()[kind]
    path = tmp_path / f"{kind}.bin"
    save(record, path)
    loaded = load(path)
    assert record_meta(loaded) == record_meta(record)
    first = fields(record)[0].name
    for name, arr in getattr(record, first).items():
        assert np.array_equal(getattr(loaded, first)[name], arr)


def test_record_meta_values(tmp_path):
    records = {kind: record for kind, (record, _, _) in _records().items()}
    assert record_meta(records["general"])["damping"] == "0.0001"
    assert record_meta(records["dual"])["lambda"] == "0.1" and "lam" not in record_meta(records["dual"])
    bare = record_meta(records["bare_mask"])
    assert bare["block_size"] == bare["score_fingerprint"] == bare["model_fingerprint"] == ""
    save_mask(records["bare_mask"], tmp_path / "m.bin")
    loaded = load_mask(tmp_path / "m.bin")
    assert loaded.block_size is None and loaded.score_fingerprint is None
    assert loaded.model_fingerprint is None


@pytest.mark.parametrize("kind,key", [
    ("general", "damping"), ("general", "sample_count"), ("general", "corpus_fingerprint"),
    ("general", "model_fingerprint"),
    ("dual", "lambda"), ("dual", "alpha"), ("dual", "sample_count"),
    ("dual", "domain_corpus_fingerprint"), ("dual", "general_corpus_fingerprint"),
    ("dual", "model_fingerprint"),
    ("mask", "sparsity"), ("mask", "mode"), ("mask", "block_size"), ("mask", "method"),
    ("mask", "score_fingerprint"), ("mask", "model_fingerprint"),
])
def test_record_missing_meta_key_rejected(tmp_path, kind, key):
    record, save, load = _records()[kind]
    path = tmp_path / f"{kind}.bin"
    save(record, path)
    _rewrite_meta(path, kind, key)
    with pytest.raises(ArtifactError, match=f"bad metadata.*{key}"):
        load(path)


@pytest.mark.parametrize("kind,key,value", [
    ("general", "sample_count", "abc"),
    ("dual", "sample_count", "abc"), ("dual", "lambda", "0.1x"),
    ("mask", "sparsity", "x"), ("mask", "block_size", "1.5"),
])
def test_record_unparsable_meta_rejected(tmp_path, kind, key, value):
    record, save, load = _records()[kind]
    path = tmp_path / f"{kind}.bin"
    save(record, path)
    _rewrite_meta(path, kind, key, value)
    with pytest.raises(ArtifactError, match="bad metadata"):
        load(path)


@pytest.mark.parametrize("kind", ["general", "dual", "mask"])
def test_record_unknown_meta_key_rejected(tmp_path, kind):
    # older general score files carry normalized=0 or 1; loading one that says 1
    # as unscaled scores would drop the only record of the rescaling
    record, save, load = _records()[kind]
    path = tmp_path / f"{kind}.bin"
    save(record, path)
    _rewrite_meta(path, kind, "normalized", "1")
    with pytest.raises(ArtifactError, match="bad metadata \\(unknown key 'normalized'\\)"):
        load(path)
