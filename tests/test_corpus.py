"""Tokenization and calibration-corpus construction."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualprune.corpus import (
    CalibrationSpec,
    Corpus,
    build_calibration,
    load_corpus_cache,
    save_corpus_cache,
    tokenize,
)
from dualprune.errors import ArtifactError, ValidationError


class TestTokenize:
    def test_ascii(self):
        assert tokenize(b"AB").tolist() == [65, 66]

    def test_empty(self):
        assert tokenize(b"").tolist() == []

    def test_bytes_input(self):
        assert tokenize(b"\x00\xff").tolist() == [0, 255]

    @given(st.binary(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, raw):
        assert tokenize(raw).astype(np.uint8).tobytes() == raw


@pytest.fixture
def text_file(tmp_path):
    path = tmp_path / "input.txt"
    rng = np.random.default_rng(5)
    path.write_bytes(rng.integers(32, 127, size=4096).astype(np.uint8).tobytes())
    return path


class TestBuildCalibration:
    def test_counts_and_lengths(self, text_file):
        spec = CalibrationSpec([str(text_file)], sample_count=8, sequence_length=64, seed=1)
        corpus = build_calibration(spec)
        assert corpus.sequences.shape == (8, 64)
        offsets = corpus.provenance["offsets"]
        tokens = np.frombuffer(text_file.read_bytes(), dtype=np.uint8)
        for o, seq in zip(offsets, corpus.sequences):
            assert np.array_equal(seq, tokens[o : o + 64])

    def test_deterministic(self, text_file):
        spec = CalibrationSpec([str(text_file)], 8, 64, seed=1)
        a = build_calibration(spec)
        b = build_calibration(spec)
        assert np.array_equal(a.sequences, b.sequences)
        assert a.fingerprint() == b.fingerprint()

    def test_different_seeds_differ(self, text_file):
        a = build_calibration(CalibrationSpec([str(text_file)], 8, 64, seed=1))
        b = build_calibration(CalibrationSpec([str(text_file)], 8, 64, seed=2))
        assert a.fingerprint() != b.fingerprint()

    def test_insufficient_text_names_counts(self, tmp_path):
        small = tmp_path / "small.txt"
        small.write_text("0123456789")
        spec = CalibrationSpec([str(small)], sample_count=1000, sequence_length=64, seed=0)
        with pytest.raises(ValidationError) as err:
            build_calibration(spec)
        assert "1000" in str(err.value)
        assert "10" in str(err.value)

    def test_missing_file(self):
        spec = CalibrationSpec(["/nonexistent/corpus.txt"], 1, 8, seed=0)
        with pytest.raises(ValidationError, match="not found"):
            build_calibration(spec)

    def test_window_disjointness(self, text_file):
        spec = CalibrationSpec([str(text_file)], sample_count=32, sequence_length=64, seed=3)
        corpus = build_calibration(spec)
        offsets = corpus.provenance["offsets"]
        spans = sorted((o, o + 64) for o in offsets)
        for (a0, a1), (b0, _) in zip(spans, spans[1:]):
            assert a1 <= b0

    def test_region_isolation(self, text_file):
        lo = build_calibration(CalibrationSpec([str(text_file)], 8, 64, seed=1, region=(0.0, 0.5)))
        hi = build_calibration(CalibrationSpec([str(text_file)], 8, 64, seed=1, region=(0.5, 1.0)))
        lo_spans = {(o, o + 64) for o in lo.provenance["offsets"]}
        hi_spans = {(o, o + 64) for o in hi.provenance["offsets"]}
        assert not lo_spans & hi_spans
        assert max(o for o, _ in lo_spans) + 64 <= 2048 + 64  # stays in its half
        assert min(o for o, _ in hi_spans) >= 2048

    def test_invalid_region(self, text_file):
        with pytest.raises(ValidationError, match="region"):
            build_calibration(CalibrationSpec([str(text_file)], 2, 64, seed=0, region=(0.7, 0.2)))

    def test_sample_count_validation(self, text_file):
        with pytest.raises(ValidationError, match="sample_count"):
            build_calibration(CalibrationSpec([str(text_file)], 0, 64, seed=0))

    def test_negative_seed_rejected(self, text_file):
        with pytest.raises(ValidationError, match="seed must be an int >= 0, got -1"):
            build_calibration(CalibrationSpec([str(text_file)], 2, 64, seed=-1))

    @pytest.mark.parametrize("field,value,least", [
        ("sample_count", True, 1), ("sample_count", 2.5, 1), ("seed", 1.5, 0),
        ("seed", True, 0), ("sequence_length", 16.0, 2)])
    def test_bools_and_floats_rejected(self, text_file, field, value, least):
        spec = {"sample_count": 2, "sequence_length": 16, "seed": 0, field: value}
        with pytest.raises(ValidationError, match=f"{field} must be an int >= {least}, got {value!r}$"):
            build_calibration(CalibrationSpec([str(text_file)], **spec))

    def test_multiple_sources_concatenate(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("A" * 100)
        b.write_text("B" * 100)
        corpus = build_calibration(CalibrationSpec([str(a), str(b)], 3, 64, seed=0))
        assert len(corpus) == 3


class TestCorpusType:
    def test_is_one_int64_array(self):
        corpus = Corpus("c", [np.arange(4, dtype=np.int32), np.arange(4, 8, dtype=np.int32)])
        assert corpus.sequences.dtype == np.int64
        assert corpus.sequences.flags.c_contiguous
        assert corpus.sequences.tolist() == [[0, 1, 2, 3], [4, 5, 6, 7]]
        assert len(corpus) == 2

    def test_batches_are_consecutive_row_blocks(self):
        rows = np.arange(13 * 3).reshape(13, 3)
        batches = list(Corpus("c", rows).batches(8))
        assert [b.shape for b in batches] == [(8, 3), (5, 3)]
        assert all(b.dtype == np.int64 and b.flags.c_contiguous for b in batches)
        assert np.array_equal(np.concatenate(batches), rows)

    def test_fingerprint_hashes_each_sequence_with_its_length(self):
        rows = np.arange(12).reshape(3, 4)
        h = hashlib.sha256()
        for row in rows:
            h.update(b"4" + row.astype("<i8").tobytes())
        assert Corpus("c", rows).fingerprint() == h.hexdigest()

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValidationError, match="has sequence length 0, below 2"):
            Corpus("bad", [np.array([], dtype=np.int64)])

    @pytest.mark.parametrize("sequences, message", [
        ([], "is empty"),
        (np.zeros((0, 8), dtype=np.int64), "is empty"),
        ([np.arange(16), np.arange(1)], "has sequences of different lengths"),
        ([np.arange(8), np.arange(12)], "has sequences of different lengths"),
        ([np.array([5]), np.array([6])], "has sequence length 1, below 2"),
        (np.arange(8), r"is not an \(n, length\) array: shape \(8,\)"),
        (np.zeros((2, 3, 4), dtype=np.int64), r"is not an \(n, length\) array"),
        ([[0.5, 1.0]], "has non-integer token ids"),
    ], ids=["empty", "empty-array", "one-token", "mixed-length", "all-one-token", "1-D", "3-D",
            "float"])
    def test_bad_sequences_rejected(self, sequences, message):
        with pytest.raises(ValidationError, match=f"corpus 'bad' {message}"):
            Corpus("bad", sequences)


class TestCache:
    def test_round_trip(self, text_file, tmp_path):
        corpus = build_calibration(CalibrationSpec([str(text_file)], 8, 64, seed=9, name="cal"))
        cache = tmp_path / "cal.corpus.json"
        save_corpus_cache(corpus, cache)
        loaded = load_corpus_cache(cache)
        assert loaded.name == "cal"
        assert np.array_equal(loaded.sequences, corpus.sequences)
        assert loaded.fingerprint() == corpus.fingerprint()

    def test_tampered_source_rejected(self, text_file, tmp_path):
        corpus = build_calibration(CalibrationSpec([str(text_file)], 4, 64, seed=9))
        cache = tmp_path / "c.json"
        save_corpus_cache(corpus, cache)
        text_file.write_bytes(b"Z" * 4096)
        with pytest.raises(ArtifactError, match="changed"):
            load_corpus_cache(cache)

    def test_unbuilt_corpus_not_cacheable(self, tmp_path):
        corpus = Corpus("adhoc", [np.array([1, 2, 3])])
        with pytest.raises(ValidationError, match="provenance"):
            save_corpus_cache(corpus, tmp_path / "x.json")

    def test_corrupt_cache(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ArtifactError):
            load_corpus_cache(bad)

    @pytest.mark.parametrize("edit, message", [
        (lambda info: info["offsets"].__setitem__(0, -100), "offset -100"),
        (lambda info: info["offsets"].__setitem__(0, "abc"), "offset 'abc'"),
        (lambda info: info["sources"][0].pop("sha256"), "'sha256'"),
        (lambda info: info.__setitem__("sequence_length", "x"), "sequence_length"),
        (lambda info: info.__setitem__("offsets", []), "offsets must be a non-empty list"),
        (lambda info: info.__setitem__("name", "a/b"), "name must be .* got 'a/b'"),
        (lambda info: info.__setitem__("name", ""), "name must be .* got ''"),
        (lambda info: info.__setitem__("name", 7), "name must be .* got 7"),
        (lambda info: info["sources"][0].__setitem__("path", 5), "'path' and a 'sha256', both strings"),
        (lambda info: info["sources"][0].__setitem__("path", None), "'path' and a 'sha256', both strings"),
        (lambda info: info["sources"][0].__setitem__("sha256", 7), "'path' and a 'sha256', both strings"),
        (lambda info: info["sources"][0].__setitem__("path", info["sources"][0]["path"] + ".gone"),
         r"c\.json: corpus source not found: .*input\.txt\.gone$"),
    ], ids=["negative-offset", "string-offset", "source-without-sha256", "string-length",
            "no-offsets", "name-with-separator", "empty-name", "int-name", "int-path", "null-path",
            "int-sha256", "source-gone"])
    def test_bad_field_is_an_artifact_error(self, text_file, tmp_path, edit, message):
        corpus = build_calibration(CalibrationSpec([str(text_file)], 4, 64, seed=9))
        cache = tmp_path / "c.json"
        save_corpus_cache(corpus, cache)
        info = json.loads(cache.read_text())
        edit(info)
        cache.write_text(json.dumps(info))
        with pytest.raises(ArtifactError, match=message):
            load_corpus_cache(cache)
