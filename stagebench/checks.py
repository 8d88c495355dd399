"""Correctness checks on the outputs of a benchmark run.

Each check recomputes a result apart from the function under test, or
tests a property the method must have, and raises `CheckError` with the
first discrepancy.  None compares against a stored copy of earlier output.
The per-sample gradients the checks use come from single-sequence tape
passes summed plainly by numpy; the tape itself is checked against central
finite differences of the forward loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dualprune import tensor as T
from dualprune.model import (
    PROJECTIONS,
    batch_next_token_loss,
    mean_corpus_loss,
    next_token_loss,
    prunable_names,
)
from dualprune.pruning import Mask, apply_mask

FD_STEP = 1e-5
FD_RTOL, FD_ATOL = 1e-4, 1e-8
# Sums of a few hundred float64 terms taken in different orders agree to
# about 1e-14 of the sum of magnitudes; 1e-9 leaves room and still catches
# any real change.
SUM_RTOL = 1e-9


class CheckError(Exception):
    """An output of the program failed a correctness check."""


@dataclass
class SampleGradients:
    """Per-sample next-token gradients reduced by plain numpy sums."""
    mean: dict[str, np.ndarray]
    mean_square: dict[str, np.ndarray]
    mean_abs: dict[str, np.ndarray]
    count: int


def sample_gradients(model, corpus) -> SampleGradients:
    names = prunable_names(model.config)
    total = {k: np.zeros_like(model.params[k].data) for k in names}
    total_sq = {k: np.zeros_like(v) for k, v in total.items()}
    total_abs = {k: np.zeros_like(v) for k, v in total.items()}
    for seq in corpus.sequences:
        loss, tape = next_token_loss(model, seq)
        grads = model.grads_by_name(T.backward(tape, loss))
        for k in names:
            g = grads[k]
            total[k] += g
            total_sq[k] += g * g
            total_abs[k] += np.abs(g)
    n = len(corpus.sequences)
    return SampleGradients(
        mean={k: v / n for k, v in total.items()},
        mean_square={k: v / n for k, v in total_sq.items()},
        mean_abs={k: v / n for k, v in total_abs.items()},
        count=n,
    )


def _fail(message: str) -> None:
    raise CheckError(message)


def check_finite_differences(model, sequence) -> None:
    """Tape gradient vs central difference, one weight of every prunable matrix."""
    loss, tape = next_token_loss(model, sequence)
    grads = model.grads_by_name(T.backward(tape, loss))
    kinds = set()
    for name in prunable_names(model.config):
        g = grads[name]
        flat_index = int(np.argmax(np.abs(g)))
        w = model.params[name].data.reshape(-1)
        original = w[flat_index]
        try:
            w[flat_index] = original + FD_STEP
            plus = float(next_token_loss(model, sequence)[0].data)
            w[flat_index] = original - FD_STEP
            minus = float(next_token_loss(model, sequence)[0].data)
        finally:
            w[flat_index] = original
        fd = (plus - minus) / (2 * FD_STEP)
        tape_g = float(g.reshape(-1)[flat_index])
        if not abs(fd - tape_g) <= FD_ATOL + FD_RTOL * abs(fd):
            _fail(f"{name}[{flat_index}]: tape gradient {tape_g!r}, finite difference {fd!r}")
        kinds.add(name.rsplit(".", 1)[1])
    if kinds != set(PROJECTIONS):
        _fail(f"finite differences covered {sorted(kinds)}, not every projection kind")


def check_final_loss(loss: float, limit: float) -> None:
    if not loss < limit:
        _fail(f"final training loss {loss!r} is not below {limit!r} (ln 256 = {math.log(256):.4f})")


def check_batched_mean_gradient(stats, model, corpus) -> None:
    """next_token_gradients' mean == gradient of the mean loss from one batched pass."""
    batch = np.stack([np.asarray(s) for s in corpus.sequences])
    tape = T.GradientTape()
    with tape:
        loss = batch_next_token_loss(model, batch)
    batched = model.grads_by_name(T.backward(tape, loss))
    for name, mean in stats.mean.items():
        ref = batched[name]
        tol = SUM_RTOL * np.abs(ref).max()
        worst = float(np.abs(mean - ref).max())
        if not worst <= tol:
            _fail(f"{name}: mean per-sample gradient differs from the batched gradient by {worst!r}")


def check_fisher_inequality(stats) -> None:
    """E[g^2] >= E[g]^2 elementwise (up to rounding of the two means)."""
    for name, mean in stats.mean.items():
        gap = stats.mean_square[name] - mean * mean
        worst = float(gap.min())
        if worst < -SUM_RTOL * float(stats.mean_square[name].max()):
            _fail(f"{name}: E[g^2] < E[g]^2 by {-worst!r}")


def check_general_scores(G, model, grads: SampleGradients) -> None:
    """G == 0.5 * W^2 * (F + damping) with F the mean squared per-sample gradient."""
    for name in prunable_names(model.config):
        w = model.params[name].data
        expect = 0.5 * w * w * (grads.mean_square[name] + G.damping)
        got = G.scores[name]
        if got.shape != expect.shape or not np.allclose(got, expect, rtol=SUM_RTOL, atol=0.0):
            _fail(f"{name}: general scores differ from 0.5*W^2*(F+damping)")


def expected_dual_scores(model, G, grads: SampleGradients, lam: float, alpha: float):
    """|u + u^2/2|, u = W * (g + 2*lam*alpha^2 * G * g * F), F from the same domain pass."""
    out = {}
    for name in prunable_names(model.config):
        g = grads.mean[name]
        if lam:
            g = g + 2.0 * lam * alpha * alpha * G.scores[name] * g * grads.mean_square[name]
        u = g * model.params[name].data
        out[name] = (np.abs(u + 0.5 * u * u), u)
    return out


def check_dual_scores(S, model, G, grads: SampleGradients) -> None:
    for name, (expect, u) in expected_dual_scores(model, G, grads, S.lam, S.alpha).items():
        w = np.abs(model.params[name].data)
        tol = SUM_RTOL * w * grads.mean_abs[name] * (1.0 + np.abs(u))
        got = S.scores[name]
        if got.shape != expect.shape or not np.all(np.abs(got - expect) <= tol):
            _fail(f"{name}: dual scores (lambda={S.lam!r}) differ from |u+u^2/2|")


def mask_pools(mask: Mask):
    """(matrix name, column slice) for every pool the mask was selected over."""
    for name, m in mask.masks.items():
        if mask.mode == "blocked":
            for j0 in range(0, m.shape[1], mask.block_size):
                yield name, slice(j0, j0 + mask.block_size)
        else:
            yield name, slice(None)


def check_mask(mask: Mask, scores: dict[str, np.ndarray], names) -> None:
    """floor(s * pool) zeros per pool, and no pruned weight outscores a kept one."""
    if sorted(mask.masks) != sorted(names):
        _fail("mask does not cover exactly the prunable matrices")
    for name, cols in mask_pools(mask):
        m = mask.masks[name][:, cols]
        s = scores[name][:, cols]
        if not np.isin(m, (0, 1)).all():
            _fail(f"{name}: mask holds values other than 0 and 1")
        want = math.floor(mask.sparsity * m.size)
        zeros = int(m.size - m.sum())
        if zeros != want:
            _fail(f"{name}[:, {cols}]: {zeros} zeros, expected floor({mask.sparsity!r} * {m.size}) = {want}")
        if 0 < zeros < m.size and s[m == 0].max() > s[m == 1].min():
            _fail(f"{name}[:, {cols}]: a pruned weight outscores a kept weight")


def check_sparsity_zero(sweep, dense_ppl: float) -> None:
    for sparsity, ppl in sweep.rows:
        if sparsity == 0.0 and ppl != dense_ppl:
            _fail(f"sparsity 0 gives perplexity {ppl!r}, dense model gives {dense_ppl!r}")


def arrays_equal(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> bool:
    return list(a) == list(b) and all(
        a[k].shape == b[k].shape and np.array_equal(a[k], b[k]) for k in a)


def check_round_trip(name: str, original: dict[str, np.ndarray], loaded: dict[str, np.ndarray],
                     written: Path, rewritten: Path) -> None:
    """Loaded arrays equal the saved ones, and saving them again gives the same bytes."""
    if not arrays_equal(original, loaded):
        _fail(f"{name}: arrays read back differ from those written")
    if written.read_bytes() != rewritten.read_bytes():
        _fail(f"{name}: writing the loaded copy gives different bytes")


def check_oracle(model, corpus, name: str, indices, deltas) -> None:
    """Each oracle delta == |loss with one weight masked - dense loss|."""
    base = mean_corpus_loss(model, corpus)
    for i, delta in zip(indices, deltas):
        keep = {k: np.ones(model.params[k].data.shape, dtype=np.uint8)
                for k in prunable_names(model.config)}
        keep[name].reshape(-1)[i] = 0
        masked = apply_mask(model, Mask(masks=keep, sparsity=0.0, mode="per-matrix"))
        expect = abs(mean_corpus_loss(masked, corpus) - base)
        if not abs(delta - expect) <= 1e-12 + SUM_RTOL * expect:
            _fail(f"{name}[{i}]: oracle delta {delta!r}, one-weight mask gives {expect!r}")


def spearman(a, b) -> float:
    """Rank correlation; ties get their mean rank."""
    def ranks(x):
        x = np.asarray(x, dtype=np.float64)
        order = np.argsort(x, kind="stable")
        r = np.empty(len(x))
        r[order] = np.arange(len(x), dtype=np.float64)
        for v in np.unique(x):
            tied = x == v
            r[tied] = r[tied].mean()
        return r
    ra, rb = ranks(a), ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = math.sqrt(float((ra * ra).sum() * (rb * rb).sum()))
    return float((ra * rb).sum() / denom) if denom else 0.0
