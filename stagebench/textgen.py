"""Seeded synthetic text for the benchmark corpora.

Two sources, both plain ASCII so that one byte is one token:

* mixed: machine telemetry lines, rows of integers and a minority of
  word-like prose (``prose_share`` of the blocks, 0.15 by default), in
  blocks of 100-300 bytes;
* domain: prose only, drawn from the same fixed 200-word vocabulary.

The vocabulary is fixed (its own seed); the text drawn from it depends only
on the generator passed in, so one run seed gives one text.
"""

from __future__ import annotations

import numpy as np

DEVICES = ("valve", "pump", "rotor", "sensor", "relay", "heater", "gauge", "filter")
STATES = ("OK", "WARN", "FAIL", "IDLE")
VOCABULARY_SEED = 12345
LETTERS = "abcdefghijklmnopqrstuvwxyz"
GOLDEN = (5 ** 0.5 - 1) / 2


def _vocabulary(count: int = 200) -> tuple[str, ...]:
    rng = np.random.default_rng(VOCABULARY_SEED)
    return tuple(
        "".join(LETTERS[i] for i in rng.integers(0, len(LETTERS), size=int(rng.integers(3, 9))))
        for _ in range(count)
    )


PROSE_WORDS = _vocabulary()


def prose_text(rng: np.random.Generator, n_bytes: int) -> str:
    """Sentences of 5-13 vocabulary words, cut to exactly `n_bytes`."""
    parts, size = [], 0
    while size < n_bytes:
        words = rng.integers(0, len(PROSE_WORDS), size=int(rng.integers(5, 14)))
        s = " ".join(PROSE_WORDS[i] for i in words) + ". "
        parts.append(s)
        size += len(s)
    return "".join(parts)[:n_bytes]


def telemetry_text(rng: np.random.Generator, n_bytes: int) -> str:
    parts, size = [], 0
    while size < n_bytes:
        device, unit, value, state = rng.integers(0, (len(DEVICES), 100, 1000, len(STATES)))
        s = f"{DEVICES[device]}[{unit:02d}] p={value / 10:.1f} {STATES[state]};\n"
        parts.append(s)
        size += len(s)
    return "".join(parts)[:n_bytes]


def numeric_text(rng: np.random.Generator, n_bytes: int) -> str:
    parts, size = [], 0
    while size < n_bytes:
        s = " ".join(str(int(x)) for x in rng.integers(0, 10000, size=8)) + "\n"
        parts.append(s)
        size += len(s)
    return "".join(parts)[:n_bytes]


def mixed_text(rng: np.random.Generator, n_bytes: int, prose_share: float = 0.15) -> str:
    """Blocks of prose (share `prose_share` of the blocks), telemetry and numbers (55:45).

    Block kinds follow a golden-ratio sequence from a seeded phase rather
    than independent draws, so every stretch of a few dozen blocks holds
    nearly the same share of each kind.  With independent draws the share
    of prose (far harder to predict than telemetry) in a 45 KB held-out
    region varied by about a fifth between seeds, and the perplexity on it
    with it.  Short blocks make the share of a short held-out stretch steady
    too.
    """
    telemetry_cut = prose_share + (1.0 - prose_share) * 0.55
    phase = rng.random()
    parts, size = [], 0
    while size < n_bytes:
        u = (phase + len(parts) * GOLDEN) % 1.0
        gen = prose_text if u < prose_share else telemetry_text if u < telemetry_cut else numeric_text
        s = gen(rng, int(rng.integers(100, 300)))
        parts.append(s)
        size += len(s)
    return "".join(parts)[:n_bytes]
