"""Dense float64 tensors with tape-based reverse-mode differentiation.

The engine covers what a small decoder-only transformer needs: matmul,
add, elementwise multiply, SiLU, RMS normalization, embedding lookup,
fused causal softmax attention and cross-entropy, plus the transpose the
tied output head requires.  Attention works on the causal triangle only:
scores above the diagonal are never exponentiated, and their
probabilities are written as exact zeros.  Softmax over the last axis,
causal mask add and reshape stay primitives of their own although the
model no longer records them: the stage benchmark's span wrappers
(`stagebench/spans.py`) look them up by name.  Cross-entropy is the only
scalar loss.  Everything is float64 and leading batch dimensions are handled
through numpy broadcasting.  Every pass, and every GEMM in it, runs on one
BLAS thread; independent passes may run in concurrent threads, each
recording onto its own thread's active tape.

The reverse pass computes only the gradients that lead to the requested
weights, can return one gradient per sample of a batch, and drops each tape
record once it has replayed it (see `backward`).

`row_block_cross_entropy` runs one batch as row blocks, possibly in
concurrent threads, one call per block, under one record for the whole
batch.  Each block's call records its pass and replays it at once to full
gradients; the record's reverse pass adds the blocks' gradients in batch
order, so the result depends on the cuts and not on the threads.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import threading
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ShapeError, ValidationError

_ids = itertools.count(1)


class Tensor:
    """A C-contiguous float64 array plus an identity for gradient bookkeeping."""

    __slots__ = ("data", "tid", "is_param", "name")

    def __init__(self, data, *, is_param: bool = False, name: str | None = None):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)  # keep 0-d scalars 0-d
        self.data = arr
        self.tid = next(_ids)
        self.is_param = is_param
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), is_param=self.is_param, name=self.name)

    def __repr__(self) -> str:
        tag = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"


def param(data, name: str) -> Tensor:
    return Tensor(data, is_param=True, name=name)


class _ActiveTape(threading.local):
    tape: "GradientTape | None" = None


_active = _ActiveTape()


class GradientTape:
    """Ordered record of the primitives applied during one forward pass.

    Ops record themselves on the active tape (entered via ``with``); replay
    happens in exact reverse order of recording.  Ops record only onto their
    own thread's active tape.  A thread enters at most one tape with
    ``with``; a row block of `row_block_cross_entropy` that runs on it makes
    a tape of its own the active one for the block's ops (`active_tape`),
    gives the caller's back afterwards, and replays its own tape to full
    gradients before its call returns.  A tape is single-use:
    make a fresh one per forward pass so gradients from distinct samples
    never mix unless explicitly accumulated through the graph itself.
    `backward` spends it, dropping each record as it replays it.
    """

    def __init__(self):
        self.records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def __enter__(self) -> "GradientTape":
        if _active.tape is not None:
            raise ValidationError("a gradient tape is already active")
        _active.tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _active.tape = None
        return False

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], backward_fn: Callable) -> None:
        self.records.append((out, inputs, backward_fn))


def recording() -> bool:
    """Whether this thread has an active tape."""
    return _active.tape is not None


@contextlib.contextmanager
def active_tape(tape: GradientTape | None) -> Iterator[None]:
    """Make `tape` (None: no tape) this thread's active tape inside the
    block, and give the one it replaces back on exit."""
    outer = _active.tape
    _active.tape = tape
    try:
        yield
    finally:
        _active.tape = outer


# What the reverse pass asks of a backward function for each input: no
# gradient, the gradient, or one gradient per sample along a leading axis.
# A backward function may return None for a SKIP input, or compute it anyway
# (the pass drops it); one-input primitives never see SKIP, since their
# output leads to a requested weight exactly when their input does.
SKIP, SUMMED, PER_SAMPLE = 0, 1, 2


def _record(out: Tensor, inputs: tuple[Tensor, ...], backward_fn: Callable) -> Tensor:
    tape = _active.tape
    if tape is not None:
        tape.record(out, inputs, backward_fn)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # sigmoid(x) = (1 + tanh(x/2)) / 2: overflow-free for any finite x
    return 0.5 * np.tanh(0.5 * x) + 0.5


# ---------------------------------------------------------------------------
# primitives

def _binary(op: str, fn: Callable, a: Tensor, b: Tensor) -> Tensor:
    """`fn(a.data, b.data)` as a Tensor; shapes numpy refuses raise `ShapeError` naming `op`."""
    try:
        return Tensor(fn(a.data, b.data))
    except ValueError:
        raise ShapeError(f"{op}: incompatible shapes {a.data.shape} and {b.data.shape}") from None


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:  # numpy would take a 1-D operand as a vector
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}")
    out = _binary("matmul", np.matmul, a, b)

    def backward_fn(g, need):
        ga = gb = None
        if b.data.ndim == 2 and PER_SAMPLE not in need:
            # weight matmul: fold batch dims into one big GEMM
            g2 = g.reshape(-1, g.shape[-1])
            if need[0]:
                ga = (g2 @ b.data.T).reshape(a.data.shape)
            if need[1]:
                gb = a.data.reshape(-1, a.data.shape[-1]).T @ g2
        else:
            # one GEMM per leading index, each at the shape of a single
            # sample, so a per-sample pass repeats the batch-1 arithmetic
            if need[0]:
                ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
            if need[1]:
                gb = np.swapaxes(a.data, -1, -2) @ g
                if need[1] != PER_SAMPLE:
                    gb = _unbroadcast(gb, b.data.shape)
        return ga, gb

    return _record(out, (a, b), backward_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    out = _binary("add", np.add, a, b)

    def backward_fn(g, need):
        return (_unbroadcast(g, a.data.shape) if need[0] else None,
                _unbroadcast(g, b.data.shape) if need[1] else None)

    return _record(out, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = _binary("elementwise-multiply", np.multiply, a, b)

    def backward_fn(g, need):
        return (_unbroadcast(g * b.data, a.data.shape) if need[0] else None,
                _unbroadcast(g * a.data, b.data.shape) if need[1] else None)

    return _record(out, (a, b), backward_fn)


def silu(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)
    out = Tensor(x.data * s)

    def backward_fn(g, need):
        return (g * (s + x.data * s * (1.0 - s)),)

    return _record(out, (x,), backward_fn)


def softmax_last(x: Tensor) -> Tensor:
    if x.data.ndim < 1:
        raise ShapeError(f"softmax-over-last-axis: need at least 1 axis, got shape {x.data.shape}")
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(p)

    def backward_fn(g, need):
        dot = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - dot),)

    return _record(out, (x,), backward_fn)


RMS_EPS = 1e-6


def rms_norm(x: Tensor) -> Tensor:
    """Scale each last-axis vector to unit root-mean-square (no mean centering)."""
    if x.data.ndim < 1:
        raise ShapeError(f"RMS-normalize: need at least 1 axis, got shape {x.data.shape}")
    ms = np.mean(x.data * x.data, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(ms + RMS_EPS)
    out = Tensor(x.data * inv)

    def backward_fn(g, need):
        d = x.data.shape[-1]
        gx = inv * g - (inv * inv * inv / d) * x.data * (g * x.data).sum(axis=-1, keepdims=True)
        return (gx,)

    return _record(out, (x,), backward_fn)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    ids = np.asarray(ids)
    if table.data.ndim != 2:
        raise ShapeError(f"embedding-lookup: table must be 2-D, got shape {table.data.shape}")
    if not np.issubdtype(ids.dtype, np.integer):
        raise ValidationError("embedding-lookup: ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ValidationError(
            f"embedding-lookup: id out of range for table with {table.data.shape[0]} rows"
        )
    out = Tensor(table.data[ids])
    rows, width = table.data.shape

    def backward_fn(g, need):
        # np.add.at(zeros, ids, g) as one bincount over the (id, column) slots: each
        # slot sums its rows' entries from 0.0 in the same order, so bit-identically
        slots = (ids.astype(np.intp, copy=False).reshape(-1, 1) * width + np.arange(width)).reshape(-1)
        return (np.bincount(slots, weights=g.reshape(-1), minlength=rows * width).reshape(rows, width),)

    return _record(out, (table,), backward_fn)


# Additive mask of `causal_mask_add` only: large negative instead of -inf keeps
# its output finite while a softmax after it still flushes masked weights to
# exactly 0.  `causal_attention` adds no mask; it never exponentiates the
# entries above the diagonal.
CAUSAL_NEG = -1e30


@functools.cache
def _causal_mask(t: int) -> np.ndarray:
    """Read-only (t, t) additive mask: CAUSAL_NEG above the diagonal, 0 elsewhere."""
    mask = np.triu(np.full((t, t), CAUSAL_NEG), k=1)
    mask.flags.writeable = False
    return mask


@functools.cache
def _causal_keep(t: int) -> np.ndarray:
    """Read-only (t, t) bool: True on and below the diagonal."""
    keep = np.tri(t, dtype=bool)
    keep.flags.writeable = False
    return keep


def causal_mask_add(scores: Tensor) -> Tensor:
    if scores.data.ndim < 2 or scores.data.shape[-1] != scores.data.shape[-2]:
        raise ShapeError(
            f"causal-mask-add: last two axes must be square, got shape {scores.data.shape}"
        )
    out = Tensor(scores.data + _causal_mask(scores.data.shape[-1]))

    def backward_fn(g, need):
        return (g,)

    return _record(out, (scores,), backward_fn)


def causal_attention(q: Tensor, k: Tensor, v: Tensor, num_heads: int) -> Tensor:
    """Causal softmax attention over (batch, length, num_heads * head_dim) q, k, v.

    One tape record for what would otherwise be a chain of split heads,
    q @ k^T, scale by 1/sqrt(head_dim), causal mask add, softmax, @ v and
    merge heads.  The softmax runs in place on the causal triangle only: the
    row max and the exponential read only scores on or below the diagonal,
    and the probabilities above it are written as +0.0, the value the
    chain's exp(CAUSAL_NEG - max) underflows to.  Every other step is the
    chain's arithmetic, in the same order and on operands of the same memory
    layout, so for scores far smaller than |CAUSAL_NEG| the output and all
    three input gradients are bit-identical to it.  Unlike the chain, a
    key's scores, however large, never reach the rows before its position.
    """
    shape = q.data.shape
    if len(shape) != 3 or k.data.shape != shape or v.data.shape != shape:
        raise ShapeError(f"causal-attention: q, k, v must share one (batch, length, width) shape, "
                         f"got {q.data.shape}, {k.data.shape}, {v.data.shape}")
    if num_heads < 1 or shape[2] % num_heads:
        raise ShapeError(f"causal-attention: width {shape[2]} does not split into {num_heads} heads")
    n_batch, n_tok, width = shape
    head_dim = width // num_heads
    scale = 1.0 / math.sqrt(head_dim)

    def split(x):  # (batch, length, width) -> contiguous (batch, heads, length, head_dim)
        return np.ascontiguousarray(x.reshape(n_batch, n_tok, num_heads, head_dim).transpose(0, 2, 1, 3))

    def merge(x):  # the inverse of split
        return x.transpose(0, 2, 1, 3).reshape(shape)

    qh, vh = split(q.data), split(v.data)
    kt = np.ascontiguousarray(np.swapaxes(split(k.data), -1, -2))
    keep = _causal_keep(n_tok)
    p = qh @ kt
    p *= scale
    p -= np.max(p, axis=-1, keepdims=True, where=keep, initial=-np.inf)
    np.exp(p, out=p, where=keep)
    np.copyto(p, 0.0, where=~keep)
    p /= p.sum(axis=-1, keepdims=True)
    ctx = np.empty((n_batch, n_tok, num_heads, head_dim))
    np.matmul(p, vh, out=ctx.transpose(0, 2, 1, 3))  # p @ vh, written merged
    out = Tensor(ctx.reshape(shape))

    def backward_fn(g, need):
        g_ctx = split(g)
        g_v = np.swapaxes(p, -1, -2) @ g_ctx
        g_s = g_ctx @ np.swapaxes(vh, -1, -2)
        dot = (g_s * p).sum(axis=-1, keepdims=True)
        g_s -= dot
        g_s *= p
        g_s *= scale
        g_q = g_s @ np.swapaxes(kt, -1, -2)
        g_k = np.swapaxes(np.swapaxes(qh, -1, -2) @ g_s, -1, -2)
        return merge(g_q), merge(g_k), merge(g_v)

    return _record(out, (q, k, v), backward_fn)


def _softmax_nll(logits: np.ndarray, targets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(per-token NLL, exp of the max-shifted logits, their row sums)."""
    targets = np.asarray(targets)
    if not np.issubdtype(targets.dtype, np.integer):
        raise ValidationError("cross-entropy: targets must be integers")
    if targets.shape != logits.shape[:-1]:
        raise ShapeError(
            f"cross-entropy: targets shape {targets.shape} does not match logits {logits.shape}"
        )
    n_classes = logits.shape[-1]
    if targets.size and (targets.min() < 0 or targets.max() >= n_classes):
        raise ValidationError(f"cross-entropy: target id out of range for {n_classes} classes")

    z = logits - logits.max(axis=-1, keepdims=True)
    picked = np.take_along_axis(z, targets[..., None], axis=-1)[..., 0]
    e = np.exp(z, out=z)
    denom = e.sum(axis=-1, keepdims=True)
    return np.log(denom[..., 0]) - picked, e, denom


def _nll_gradient(e: np.ndarray, denom: np.ndarray, targets: np.ndarray, scale: float) -> np.ndarray:
    """The logits' gradient of `scale` times the summed NLL, from `_softmax_nll`'s exponentials."""
    gl = e / denom  # the probabilities, formed only when a gradient is asked for
    np.put_along_axis(
        gl, targets[..., None],
        np.take_along_axis(gl, targets[..., None], axis=-1) - 1.0, axis=-1,
    )
    return gl * scale


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log-likelihood of `targets` under `logits` rows."""
    targets = np.asarray(targets)
    nll, e, denom = _softmax_nll(logits.data, targets)
    out = Tensor(nll.mean())
    count = max(targets.size, 1)

    def backward_fn(g, need):
        return (_nll_gradient(e, denom, targets, float(g) / count),)

    return _record(out, (logits,), backward_fn)


def row_block_cross_entropy(logits_of: Callable[[slice], Tensor], targets, cuts: list[slice],
                            run: Callable[[list[tuple]], list]) -> Tensor:
    """`cross_entropy` of `targets` under a batch's logits, computed in the
    row blocks `cuts`, which cover the batch's rows in order; `logits_of(r)`
    gives the logits of rows `r`.  `run(calls)` runs each `(fn, *args)` of a
    list, possibly concurrently, and returns the results in order; it is
    called once.

    The loss is the mean of the blocks' per-token NLLs joined in batch order.
    With no active tape nothing is recorded.  Under one, each block's call
    records the block's pass onto a tape of its own (`active_tape`) and at
    once replays it, from the NLL gradient scaled by the whole batch's token
    count, to the summed gradients of every parameter it touched, as a pass
    on that block alone would; so its activations go when the call returns.
    The call then records one record whose inputs are those parameters and
    whose reverse pass hands back the blocks' gradients, added in batch
    order, times the loss's gradient.  So every result depends on `cuts` and
    not on how `run` schedules the blocks.  The record has no per-sample
    gradients: `backward(..., samples=n)` through it raises `ShapeError`.

    The loss is bit-identical to that of `cross_entropy` on the whole batch
    where each forward GEMM gives a row the bits it gives in the whole
    batch.  A summed gradient is a sum of per-block GEMMs, so its last bits
    may differ from the whole batch's.
    """
    targets = np.asarray(targets)
    taped = recording()
    count = max(targets.size, 1)

    def block(r):
        if not taped:
            return _softmax_nll(logits_of(r).data, targets[r])[0]
        tape = GradientTape()
        with active_tape(tape):
            logits = logits_of(r)
        nll, e, denom = _softmax_nll(logits.data, targets[r])
        params = {inp.tid: inp for _, inputs, _ in tape.records for inp in inputs if inp.is_param}
        grads = {logits.tid: _nll_gradient(e, denom, targets[r], 1.0 / count)}
        _replay(tape.records, grads, _live(tape.records, params), SUMMED)
        return nll, {p: grads[tid] for tid, p in params.items() if tid in grads}

    blocks = run([(block, r) for r in cuts])
    if not taped:
        return Tensor(np.concatenate(blocks).mean())
    out = Tensor(np.concatenate([nll for nll, _ in blocks]).mean())
    params = tuple(blocks[0][1])
    summed = [functools.reduce(np.add, [grads[p] for _, grads in blocks]) for p in params]

    def backward_fn(g, need):
        return tuple(g * s for s in summed)

    return _record(out, params, backward_fn)


# ---------------------------------------------------------------------------
# structural ops

def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape)) != x.data.size:
        raise ShapeError(f"reshape: cannot reshape {x.data.shape} to {shape}")
    out = Tensor(x.data.reshape(shape).copy())

    def backward_fn(g, need):
        return (g.reshape(x.data.shape),)

    return _record(out, (x,), backward_fn)


def transpose(x: Tensor, axis1: int, axis2: int) -> Tensor:
    if max(axis1, axis2) >= x.data.ndim:
        raise ShapeError(f"transpose: axes ({axis1}, {axis2}) out of range for shape {x.data.shape}")
    out = Tensor(np.swapaxes(x.data, axis1, axis2))

    def backward_fn(g, need):
        return (np.ascontiguousarray(np.swapaxes(g, axis1, axis2)),)

    return _record(out, (x,), backward_fn)


# ---------------------------------------------------------------------------
# reverse pass

def backward(tape: GradientTape, loss: Tensor, wrt: Iterable[Tensor] | None = None, *,
             samples: int | None = None) -> dict[int, Tensor]:
    """Replay `tape` in reverse from scalar `loss`.

    Returns the gradients of the parameters in `wrt` (default: every
    parameter the pass touched), keyed by tensor id; each has the shape of
    its parameter.  Only gradients on a path to one of them are computed.
    The replay spends the tape: it drops each record once replayed, so the
    activations go as the pass moves back, and a second `backward` on the
    tape raises `ValidationError`.

    With `samples=n`, `loss` must be the mean of n per-sample losses whose
    samples lie along the leading axis of every activation, and each
    parameter in `wrt` must be the weight of a 2-D matmul outside any
    `row_block_cross_entropy` record.  Each returned gradient then has
    shape (n, *weight shape) and holds every sample's gradient of its own
    loss, computed as swapaxes(x) @ g per sample.  Every GEMM of such a
    pass runs once per sample at the batch-1 shape, so the result is
    bit-identical to n batch-1 passes.
    """
    if not tape.records:
        raise ValidationError("backward on an empty tape (a replayed tape is spent)")
    if loss.data.shape != ():
        raise ShapeError(f"backward: loss must be a scalar, got shape {loss.data.shape}")
    if not any(out is loss for out, _, _ in reversed(tape.records)):
        raise ValidationError("backward: loss was not produced by this tape")

    if wrt is None:
        wrt = [inp for _, inputs, _ in tape.records for inp in inputs if inp.is_param]
    targets = {t.tid: t for t in wrt}
    ask = SUMMED if samples is None else PER_SAMPLE
    # d(sum of the n per-sample losses) = n * d(mean); cross-entropy's n / (n * tokens)
    # rounds to the same float as a single sample's 1 / tokens
    grads: dict[int, np.ndarray] = {loss.tid: np.full((), 1.0 if samples is None else float(samples))}
    _replay(tape.records, grads, _live(tape.records, targets), ask)
    result = {tid: Tensor(grads[tid]) for tid in targets if tid in grads}
    if samples is not None:
        for tid, g in result.items():
            if g.shape != (samples, *targets[tid].shape):
                raise ShapeError(f"backward: no per-sample gradient for {targets[tid].name or 'a parameter'}"
                                 f" of shape {targets[tid].shape}")
    return result


def _live(records: list, targets: Iterable[int]) -> set[int]:
    """The ids of `targets` and of every recorded tensor on a path to one."""
    live = set(targets)
    for out, inputs, _ in records:
        if any(inp.tid in live for inp in inputs):
            live.add(out.tid)
    return live


def _replay(records: list, grads: dict, live: set[int], ask: int) -> None:
    """Replay `records` in reverse from the output gradients in `grads`,
    accumulating into `grads` the gradients of the tensors in `live`, each
    asked for as `ask` (SUMMED or PER_SAMPLE).

    Popping each record as it is replayed frees the activations that only it
    holds, so they do not pile up under the gradients; the records are spent.
    """
    while records:
        out, inputs, backward_fn = records.pop()
        g_out = grads.pop(out.tid, None)
        if g_out is None:
            continue
        need = tuple(ask if inp.tid in live else SKIP for inp in inputs)
        for inp, g in zip(inputs, backward_fn(g_out, need)):
            if g is not None and inp.tid in live:
                acc = grads.get(inp.tid)
                grads[inp.tid] = g if acc is None else acc + g
