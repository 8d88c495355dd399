"""Dense float64 tensors with tape-based reverse-mode differentiation.

The engine covers exactly what a small decoder-only transformer needs:
matmul, add, elementwise multiply, SiLU, softmax over the last axis, RMS
normalization, embedding lookup, causal mask add and cross-entropy, plus
the structural reshape/transpose/sum ops the model wiring requires.
Everything is float64 and single-threaded; leading batch dimensions are
handled through numpy broadcasting.
"""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

from .errors import NumericError, ShapeError, ValidationError

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

    def item(self) -> float:
        return float(self.data)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), is_param=self.is_param, name=self.name)

    def __repr__(self) -> str:
        tag = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"


def param(data, name: str) -> Tensor:
    return Tensor(data, is_param=True, name=name)


class GradientTape:
    """Ordered record of the primitives applied during one forward pass.

    Ops record themselves on the active tape (entered via ``with``); replay
    happens in exact reverse order of recording.  A tape is single-use: make
    a fresh one per forward pass so gradients from distinct samples never
    mix unless explicitly accumulated through the graph itself.
    """

    _active: "GradientTape | None" = None

    def __init__(self):
        self.records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._output_ids: set[int] = set()

    def __enter__(self) -> "GradientTape":
        if GradientTape._active is not None:
            raise ValidationError("a gradient tape is already active")
        GradientTape._active = self
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        GradientTape._active = None
        return False

    def record(self, out: Tensor, inputs: tuple[Tensor, ...], backward_fn: Callable) -> None:
        self.records.append((out, inputs, backward_fn))
        self._output_ids.add(out.tid)

    def __len__(self) -> int:
        return len(self.records)


def _record(out: Tensor, inputs: tuple[Tensor, ...], backward_fn: Callable) -> Tensor:
    tape = GradientTape._active
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


def _check_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(f"{op}: incompatible shapes {a.data.shape} and {b.data.shape}") from None


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # sigmoid(x) = (1 + tanh(x/2)) / 2: overflow-free for any finite x
    return 0.5 * np.tanh(0.5 * x) + 0.5


# ---------------------------------------------------------------------------
# primitives

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}")
    try:
        out = Tensor(a.data @ b.data)
    except ValueError:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}") from None

    def backward_fn(g):
        if b.data.ndim == 2:
            # weight matmul: fold batch dims into one big GEMM
            g2 = g.reshape(-1, g.shape[-1])
            ga = (g2 @ b.data.T).reshape(a.data.shape)
            gb = a.data.reshape(-1, a.data.shape[-1]).T @ g2
        else:
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
        return ga, gb

    return _record(out, (a, b), backward_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)
    out = Tensor(a.data + b.data)

    def backward_fn(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _record(out, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("elementwise-multiply", a, b)
    out = Tensor(a.data * b.data)

    def backward_fn(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _record(out, (a, b), backward_fn)


def silu(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)
    out = Tensor(x.data * s)

    def backward_fn(g):
        return (g * (s + x.data * s * (1.0 - s)),)

    return _record(out, (x,), backward_fn)


def softmax_last(x: Tensor) -> Tensor:
    if x.data.ndim < 1:
        raise ShapeError(f"softmax-over-last-axis: need at least 1 axis, got shape {x.data.shape}")
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(p)

    def backward_fn(g):
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

    def backward_fn(g):
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

    def backward_fn(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return _record(out, (table,), backward_fn)


# Large negative instead of -inf keeps every engine output finite while still
# flushing masked attention weights to exactly 0 after softmax.
CAUSAL_NEG = -1e30


def causal_mask_add(scores: Tensor) -> Tensor:
    if scores.data.ndim < 2 or scores.data.shape[-1] != scores.data.shape[-2]:
        raise ShapeError(
            f"causal-mask-add: last two axes must be square, got shape {scores.data.shape}"
        )
    t = scores.data.shape[-1]
    mask = np.triu(np.full((t, t), CAUSAL_NEG), k=1)
    out = Tensor(scores.data + mask)

    def backward_fn(g):
        return (g,)

    return _record(out, (scores,), backward_fn)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean negative log-likelihood of `targets` under `logits` rows."""
    targets = np.asarray(targets)
    if not np.issubdtype(targets.dtype, np.integer):
        raise ValidationError("cross-entropy: targets must be integers")
    if targets.shape != logits.data.shape[:-1]:
        raise ShapeError(
            f"cross-entropy: targets shape {targets.shape} does not match logits {logits.data.shape}"
        )
    n_classes = logits.data.shape[-1]
    if targets.size and (targets.min() < 0 or targets.max() >= n_classes):
        raise ValidationError(f"cross-entropy: target id out of range for {n_classes} classes")

    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    denom = e.sum(axis=-1, keepdims=True)
    p = e / denom
    picked = np.take_along_axis(z, targets[..., None], axis=-1)[..., 0]
    nll = np.log(denom[..., 0]) - picked
    out = Tensor(nll.mean())
    count = max(targets.size, 1)

    def backward_fn(g):
        gl = p.copy()
        np.put_along_axis(
            gl, targets[..., None],
            np.take_along_axis(gl, targets[..., None], axis=-1) - 1.0, axis=-1,
        )
        return (gl * (float(g) / count),)

    return _record(out, (logits,), backward_fn)


# ---------------------------------------------------------------------------
# structural ops

def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape)) != x.data.size:
        raise ShapeError(f"reshape: cannot reshape {x.data.shape} to {shape}")
    out = Tensor(x.data.reshape(shape).copy())

    def backward_fn(g):
        return (g.reshape(x.data.shape),)

    return _record(out, (x,), backward_fn)


def transpose(x: Tensor, axis1: int, axis2: int) -> Tensor:
    if max(axis1, axis2) >= x.data.ndim:
        raise ShapeError(f"transpose: axes ({axis1}, {axis2}) out of range for shape {x.data.shape}")
    out = Tensor(np.swapaxes(x.data, axis1, axis2))

    def backward_fn(g):
        return (np.ascontiguousarray(np.swapaxes(g, axis1, axis2)),)

    return _record(out, (x,), backward_fn)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum())

    def backward_fn(g):
        return (np.full_like(x.data, float(g)),)

    return _record(out, (x,), backward_fn)


# ---------------------------------------------------------------------------
# reverse pass

def backward(tape: GradientTape, loss: Tensor) -> dict[int, Tensor]:
    """Replay `tape` in reverse from scalar `loss`.

    Returns gradients for every parameter tensor touched by the pass, keyed
    by tensor id; each gradient has the same shape as its parameter.
    """
    if not tape.records:
        raise ValidationError("backward on an empty tape")
    if loss.data.shape != ():
        raise ShapeError(f"backward: loss must be a scalar, got shape {loss.data.shape}")
    if loss.tid not in tape._output_ids:
        raise ValidationError("backward: loss was not produced by this tape")

    grads: dict[int, np.ndarray] = {loss.tid: np.ones((), dtype=np.float64)}
    params: dict[int, Tensor] = {}
    for out, inputs, backward_fn in reversed(tape.records):
        g_out = grads.get(out.tid)
        if g_out is None:
            continue
        for inp, g in zip(inputs, backward_fn(g_out)):
            if g is None:
                continue
            acc = grads.get(inp.tid)
            grads[inp.tid] = g if acc is None else acc + g
            if inp.is_param:
                params[inp.tid] = inp
    return {tid: Tensor(grads[tid]) for tid in params}


def finite_difference_gradient(model_loss_fn: Callable[[], float], weight: Tensor,
                               index, step: float) -> float:
    """Central-difference d(loss)/d(weight[index]); the loss fn must be deterministic."""
    if step <= 0:
        raise ValidationError("finite_difference_gradient: step must be > 0")
    if isinstance(index, (int, np.integer)):
        view = weight.data.reshape(-1)
        if not 0 <= index < view.size:
            raise ValidationError(f"finite_difference_gradient: flat index {index} out of range")
        ix: tuple | int = int(index)
    else:
        view = weight.data
        ix = tuple(int(i) for i in index)
        if len(ix) != view.ndim or any(not 0 <= i < n for i, n in zip(ix, view.shape)):
            raise ValidationError(f"finite_difference_gradient: index {index} out of range for shape {view.shape}")
    original = view[ix]
    try:
        view[ix] = original + step
        loss_plus = float(model_loss_fn())
        view[ix] = original - step
        loss_minus = float(model_loss_fn())
    finally:
        view[ix] = original
    result = (loss_plus - loss_minus) / (2.0 * step)
    if not np.isfinite(result):
        raise NumericError("finite_difference_gradient: non-finite loss difference")
    return result
