"""Byte-level tokenization and calibration-corpus construction.

A corpus is one (n, length) array of token ids: n sequences of one length,
one per row.  Calibration corpora are sampled as non-overlapping,
grid-aligned windows of that length, shuffled with a seed.  A `region`
restricts sampling to a fraction of the token stream, which is how
calibration and held-out test corpora built from the same file are kept
disjoint.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ArtifactError, ValidationError, check_int

def tokenize(raw: bytes) -> np.ndarray:
    """Byte-level tokenization: each byte is its own id (vocab 256)."""
    return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)


@dataclass
class Corpus:
    """`sequences` is an (n, length) int64 array, one sequence per row.

    This is the one place a corpus is checked: it must hold at least one
    sequence, every sequence the same length of at least 2 tokens, and
    integer ids.  Whether the ids and the length fit a model is checked by
    the model's forward pass.
    """
    name: str
    sequences: np.ndarray
    provenance: dict | None = field(default=None, repr=False)

    def __post_init__(self):
        def bad(what: str) -> ValidationError:
            return ValidationError(f"corpus {self.name!r} {what}")

        try:
            seqs = np.asarray(self.sequences)
        except ValueError:
            raise bad("has sequences of different lengths") from None
        if seqs.shape[:1] == (0,):
            raise bad("is empty")
        if seqs.ndim != 2:
            raise bad(f"is not an (n, length) array: shape {seqs.shape}")
        if not np.issubdtype(seqs.dtype, np.integer):
            raise bad(f"has non-integer token ids ({seqs.dtype})")
        if seqs.shape[1] < 2:
            raise bad(f"has sequence length {seqs.shape[1]}, below 2")
        self.sequences = np.ascontiguousarray(seqs, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.sequences)

    def batches(self, size: int) -> Iterator[np.ndarray]:
        """Consecutive blocks of at most `size` sequences, in corpus order."""
        for start in range(0, len(self.sequences), size):
            yield self.sequences[start : start + size]

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        length = str(self.sequences.shape[1]).encode()
        for seq in self.sequences.astype("<i8", copy=False):
            h.update(length)
            h.update(seq.tobytes())
        return h.hexdigest()


@dataclass
class CalibrationSpec:
    sources: list[str]
    sample_count: int
    sequence_length: int
    seed: int
    name: str = "calibration"
    region: tuple[float, float] = (0.0, 1.0)

    def validate(self) -> None:
        check_int("sample_count", self.sample_count, 1)
        check_int("sequence_length", self.sequence_length, 2)
        check_int("seed", self.seed, 0)
        lo, hi = self.region
        if not (0.0 <= lo < hi <= 1.0):
            raise ValidationError(f"region must satisfy 0 <= lo < hi <= 1, got {self.region}")
        if not self.sources:
            raise ValidationError("at least one source file is required")


def _read_tokens(paths: list[str]) -> tuple[np.ndarray, list[dict]]:
    chunks = []
    sources = []
    for p in paths:
        path = Path(p)
        if not path.is_file():
            raise ValidationError(f"corpus source not found: {path}")
        raw = path.read_bytes()
        sources.append({"path": str(path), "sha256": hashlib.sha256(raw).hexdigest()})
        chunks.append(tokenize(raw))
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64), sources


def _windows(tokens: np.ndarray, offsets: list[int], length: int) -> np.ndarray:
    """The (len(offsets), length) array of the windows starting at `offsets`."""
    return tokens[np.asarray(offsets, dtype=np.int64)[:, None] + np.arange(length)]


def build_calibration(spec: CalibrationSpec) -> Corpus:
    """Sample `sample_count` disjoint windows of `sequence_length` tokens.

    Windows are aligned to a fixed grid inside the spec's region and picked by
    a seeded shuffle, so two corpora with non-overlapping regions never share
    a window, and the same spec always rebuilds the same corpus.
    """
    spec.validate()
    tokens, sources = _read_tokens([str(p) for p in spec.sources])

    lo = int(len(tokens) * spec.region[0])
    hi = int(len(tokens) * spec.region[1])
    usable = hi - lo
    n_windows = usable // spec.sequence_length
    if n_windows < spec.sample_count:
        raise ValidationError(
            f"insufficient text for corpus {spec.name!r}: need {spec.sample_count} windows of "
            f"{spec.sequence_length} tokens ({spec.sample_count * spec.sequence_length} total), "
            f"region holds {usable} tokens ({n_windows} windows)"
        )
    rng = np.random.default_rng(spec.seed)
    picks = rng.permutation(n_windows)[: spec.sample_count]
    offsets = [lo + int(i) * spec.sequence_length for i in picks]
    sequences = _windows(tokens, offsets, spec.sequence_length)
    provenance = {
        "name": spec.name,
        "sources": sources,
        "seed": spec.seed,
        "sequence_length": spec.sequence_length,
        "region": list(spec.region),
        "offsets": offsets,
    }
    return Corpus(name=spec.name, sequences=sequences, provenance=provenance)


def save_corpus_cache(corpus: Corpus, path) -> None:
    """Persist (source, seed, window offsets) so a run can be replayed exactly."""
    if corpus.provenance is None:
        raise ValidationError("corpus has no provenance; only built corpora can be cached")
    Path(path).write_text(json.dumps(corpus.provenance, indent=2, sort_keys=True) + "\n")


def load_corpus_cache(path) -> Corpus:
    """Rebuild a cached corpus; any field that does not describe windows of
    the unchanged source files raises `ArtifactError`."""
    try:
        info = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ArtifactError(f"cannot read corpus cache {path}: {e}") from None

    def bad(what: str) -> ArtifactError:
        return ArtifactError(f"corpus cache {path}: {what}")

    if not isinstance(info, dict):
        raise bad("not a JSON object")
    for key in ("name", "sources", "seed", "sequence_length", "offsets"):
        if key not in info:
            raise bad(f"missing key {key!r}")
    name = info["name"]
    if not isinstance(name, str) or not name or any(sep in name for sep in "/\\\0"):
        raise bad(f"name must be a non-empty string free of path separators, got {name!r}")
    if not isinstance(info["sources"], list) or not all(
            isinstance(s, dict) and {"path", "sha256"} <= s.keys()
            and isinstance(s["path"], str) and isinstance(s["sha256"], str) for s in info["sources"]):
        raise bad("every source needs a 'path' and a 'sha256', both strings")
    length = info["sequence_length"]
    if type(length) is not int or length < 2:
        raise bad(f"sequence_length must be an int >= 2, got {length!r}")
    offsets = info["offsets"]
    if not isinstance(offsets, list) or not offsets:
        raise bad("offsets must be a non-empty list")
    try:
        tokens, sources = _read_tokens([s["path"] for s in info["sources"]])
    except ValidationError as e:  # a source file gone since the cache was written
        raise bad(str(e)) from None
    for want, have in zip(info["sources"], sources):
        if want["sha256"] != have["sha256"]:
            raise bad(f"source {have['path']} changed since the cache was written")
    for o in offsets:
        if type(o) is not int or not 0 <= o <= len(tokens) - length:
            raise bad(f"window offset {o!r} outside [0, {len(tokens) - length}]")
    return Corpus(name=name, sequences=_windows(tokens, offsets, length), provenance=info)
