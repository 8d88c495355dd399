"""Small decoder-only transformer with a fixed prunable-projection layout.

Each layer exposes exactly seven prunable matrices in the canonical order
q, k, v, o, gate, up, down.  Embeddings, norm scales and the (tied) output
head are never part of the prunable set.
"""

from __future__ import annotations

import contextvars
import hashlib
import math
import os
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import closing
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensor as T
from .container import read_container, write_container
from .errors import ArtifactError, NumericError, ShapeError, ValidationError, check_int
from .tensor import GradientTape, Tensor

# The prunable projections of each block, attention then MLP: the branches
# applied to the block's normed input, then the output projection applied to
# their mix (causal attention of q, k, v; the gated product of gate and up).
BLOCK_PROJECTIONS = (("q", "k", "v", "o"), ("gate", "up", "down"))
PROJECTIONS = BLOCK_PROJECTIONS[0] + BLOCK_PROJECTIONS[1]


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int = 256
    context_length: int = 64
    num_layers: int = 2
    d_model: int = 64
    num_heads: int = 4
    d_ff: int = 128
    seed: int = 0

    def validate(self) -> None:
        for field in fields(self):
            least = {"context_length": 2, "seed": 0}.get(field.name, 1)
            check_int(f"ModelConfig.{field.name}", getattr(self, field.name), least)
        if self.d_model % self.num_heads != 0:
            raise ValidationError(
                f"d_model ({self.d_model}) must be divisible by num_heads ({self.num_heads})"
            )

    @property
    def head_dim(self) -> int:
        return self.d_model // self.num_heads


class TransformerModel:
    """Weights plus forward pass; mutated only by `pretrain` and mask application.

    The forward pass is `embed`, then the residual sublayers 0 .. 2*num_layers-1,
    then `head`.  Sublayer 2i is the attention of layer i and sublayer 2i+1
    its MLP; each adds its block's output to the residual stream.  `forward`
    can resume at any sublayer s in [0, 2*num_layers] (s = 2*num_layers leaves
    only the head) from the stream entering it.
    """

    def __init__(self, config: ModelConfig, params: dict[str, Tensor], step: int = 0,
                 meta: dict[str, str] | None = None):
        self.config = config
        self.params = params
        self.step = step
        self.meta = dict(meta or {})

    # -- parameter access ---------------------------------------------------

    def grads_by_name(self, grads_by_tid: dict[int, Tensor]) -> dict[str, np.ndarray]:
        """Re-key a backward() result by parameter name."""
        return {
            name: grads_by_tid[t.tid].data
            for name, t in self.params.items()
            if t.tid in grads_by_tid
        }

    def copy(self) -> "TransformerModel":
        return TransformerModel(
            self.config,
            {name: t.copy() for name, t in self.params.items()},
            step=self.step,
            meta=dict(self.meta),
        )

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(repr(sorted(asdict(self.config).items())).encode())
        h.update(str(self.step).encode())
        for name, t in self.params.items():
            h.update(name.encode())
            h.update(repr(t.data.shape).encode())
            h.update(t.data.tobytes())
        return h.hexdigest()

    # -- forward ------------------------------------------------------------

    def forward(self, ids: np.ndarray, resume: tuple[int, Tensor] | None = None) -> Tensor:
        """Logits for a (batch, length) int array of token ids.

        With `resume=(s, h)` the pass skips the embedding and sublayers
        0 .. s-1 and starts at sublayer `s` from `h`, the (batch, length,
        d_model) residual stream entering it.  When `h` is what the skipped
        part computes for the same ids and weights, the logits are
        bit-identical to the full pass's.
        """
        n_sublayers = 2 * self.config.num_layers
        if resume is None:
            start, h = 0, self.embed(ids)
        else:
            start, h = resume
            if not 0 <= start <= n_sublayers:
                raise ValidationError(f"forward: resume sublayer {start} outside [0, {n_sublayers}]")
            expected = (*np.shape(ids), self.config.d_model)
            if h.shape != expected:
                raise ShapeError(f"forward: resume stream has shape {h.shape}, expected {expected}")
        for s in range(start, n_sublayers):
            h = self.sublayer(s, h)
        return self.head(h)

    def embed(self, ids: np.ndarray) -> Tensor:
        """The residual stream entering sublayer 0: token plus position embeddings."""
        ids = np.asarray(ids)
        if ids.ndim != 2:
            raise ValidationError(f"forward: ids must be 2-D (batch, length), got shape {ids.shape}")
        n_tok = ids.shape[1]
        if not 1 <= n_tok <= self.config.context_length:
            raise ValidationError(
                f"forward: length {n_tok} outside [1, {self.config.context_length}]"
            )
        return T.add(
            T.embedding_lookup(self.params["embed"], ids),
            T.embedding_lookup(self.params["pos"], np.arange(n_tok)),
        )

    def sublayer(self, s: int, h: Tensor) -> Tensor:
        """The residual stream after sublayer `s`: `h` plus the attention (even
        `s`) or the MLP (odd `s`) of layer s // 2, each on its RMS-normed input.

        The block runs as the steps below, which the exact removal oracle
        (`importance.brute_force_importance`) also calls one by one.
        """
        x = self.block_input(s, h)
        *branches, _ = BLOCK_PROJECTIONS[s % 2]
        return self.block_output(s, h, self.mix(s, [self.branch(s, name, x) for name in branches]))

    def head(self, h: Tensor) -> Tensor:
        """Logits from the final residual stream through the tied output head."""
        h = T.mul(T.rms_norm(h), self.params["final_norm"])
        return T.matmul(h, T.transpose(self.params["embed"], 0, 1))

    # -- the steps of sublayer s --------------------------------------------

    def block_input(self, s: int, h: Tensor) -> Tensor:
        """The block's input: `h` RMS-normed and scaled by the block's norm weights."""
        i, is_mlp = divmod(s, 2)
        return T.mul(T.rms_norm(h), self.params[f"layers.{i}.{'mlp_norm' if is_mlp else 'attn_norm'}"])

    def branch(self, s: int, name: str, x: Tensor) -> Tensor:
        """Branch `name` of the block on its input `x`: x @ W, through SiLU for the gate."""
        y = T.matmul(x, self.params[f"layers.{s // 2}.{name}"])
        return T.silu(y) if name == "gate" else y

    def mix(self, s: int, branches: list[Tensor]) -> Tensor:
        """The block's mix of its branch outputs: causal attention of (q, k, v)
        with one head per `head_dim` columns, or the product of (gate, up).

        Each column group of `mixed_columns` depends only on the same columns
        of the branches, so the mix of those columns alone gives those columns
        of the whole mix, bit for bit.
        """
        if s % 2:
            return T.mul(*branches)
        return T.causal_attention(*branches, branches[0].shape[-1] // self.config.head_dim)

    def mixed_columns(self, s: int, column: int) -> slice:
        """The columns of the block's mix that column `column` of a branch
        reaches: those of the attention head that owns it, or that column of
        the gated product."""
        if s % 2:
            return slice(column, column + 1)
        first = column // self.config.head_dim * self.config.head_dim
        return slice(first, first + self.config.head_dim)

    def block_output(self, s: int, h: Tensor, mixed: Tensor) -> Tensor:
        """The residual stream after sublayer `s`: `h` plus the block's output
        projection of its mix."""
        output = BLOCK_PROJECTIONS[s % 2][-1]
        return T.add(h, T.matmul(mixed, self.params[f"layers.{s // 2}.{output}"]))


def expected_param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The parameter layout: every weight's name and shape, in manifest order."""
    d, f = config.d_model, config.d_ff
    projections = dict(zip(PROJECTIONS, [(d, d)] * 4 + [(d, f), (d, f), (f, d)]))
    shapes: dict[str, tuple[int, ...]] = {
        "embed": (config.vocab_size, d),
        "pos": (config.context_length, d),
    }
    for i in range(config.num_layers):
        shapes[f"layers.{i}.attn_norm"] = (d,)
        for name in PROJECTIONS:
            shapes[f"layers.{i}.{name}"] = projections[name]
        shapes[f"layers.{i}.mlp_norm"] = (d,)
    shapes["final_norm"] = (d,)
    return shapes


def init_model(config: ModelConfig) -> TransformerModel:
    """Seeded init in manifest order: norm scales are ones, matrices are drawn
    from a normal with std 1/sqrt(fan_in); bit-reproducible from the seed."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    params: dict[str, Tensor] = {}
    for name, shape in expected_param_shapes(config).items():
        if len(shape) == 1:
            data = np.ones(shape)
        else:
            data = rng.normal(0.0, 1.0 / math.sqrt(shape[0]), size=shape)
        params[name] = T.param(data, name)
    return TransformerModel(config, params)


def prunable_matrices(model: TransformerModel) -> list[tuple[int, str, Tensor]]:
    """All prunable projections, ordered by layer then (q, k, v, o, gate, up, down)."""
    return [
        (i, name, model.params[f"layers.{i}.{name}"])
        for i in range(model.config.num_layers)
        for name in PROJECTIONS
    ]


def prunable_names(config: ModelConfig) -> list[str]:
    return [f"layers.{i}.{name}" for i in range(config.num_layers) for name in PROJECTIONS]


def check_scored_model(model: TransformerModel, fingerprint: str, what: str) -> str:
    """Raise unless `what` was scored on `model`; returns the model's fingerprint."""
    actual = model.fingerprint()
    if fingerprint != actual:
        raise ValidationError(
            f"{what}: computed for a different model "
            f"(recorded: {fingerprint[:12]}..., model: {actual[:12]}...)"
        )
    return actual


def next_token_loss(model: TransformerModel, token_sequence) -> tuple[Tensor, GradientTape]:
    """Mean cross-entropy of predicting token t+1 from the prefix up to t."""
    ids = np.asarray(token_sequence)
    if ids.ndim != 1:
        raise ValidationError(f"token sequence must be 1-D, got shape {ids.shape}")
    tape = GradientTape()
    with tape:
        loss = batch_next_token_loss(model, ids[None])
    return loss, tape


def next_token_split(batch) -> tuple[np.ndarray, np.ndarray]:
    """(inputs, targets) of a (batch, length) array: tokens [:-1] predict tokens [1:]."""
    batch = np.asarray(batch)
    if batch.ndim != 2 or batch.shape[0] < 1 or batch.shape[1] < 2:
        raise ValidationError(f"batch must be 2-D with rows of length >= 2, got shape {batch.shape}")
    return batch[:, :-1], batch[:, 1:]


def batch_next_token_loss(model: TransformerModel, batch: np.ndarray) -> Tensor:
    """Mean cross-entropy over a (batch, length) array of same-length sequences (`row_block_loss`)."""
    inputs, targets = next_token_split(batch)
    return row_block_loss(lambda r: model.forward(inputs[r]), targets)


def row_block_loss(logits_of: Callable[[slice], Tensor], targets: np.ndarray) -> Tensor:
    """Mean cross-entropy of the (batch, length) `targets` under the logits
    `logits_of(r)` gives for rows `r`, run in the blocks `row_blocks` cuts.

    A batch of one block runs as one pass (`tensor.cross_entropy`); more
    run as the blocks (`_in_blocks`): inside a pool task one after another,
    elsewhere the first on the caller and the others on `EVAL_POOL`.  Under
    an active tape each block's call runs its pass and its reverse pass to
    its own gradients, and the call records one record for the whole batch
    (`tensor.row_block_cross_entropy`), whose reverse pass adds the blocks'
    gradients in batch order.  No block outlives the call, and the reverse
    pass schedules no work.
    """
    cuts = row_blocks(len(targets))
    if len(cuts) == 1:
        return T.cross_entropy(logits_of(slice(None)), targets)
    return T.row_block_cross_entropy(logits_of, targets, cuts, _in_blocks)


# Sequences per forward pass of `mean_corpus_loss`.
EVAL_BATCH = 32
# The rows of every block of a pass under a tape, so the most rows a pass
# with per-sample gradients has, and the fewest a forward-only pass is cut
# to (`row_blocks`): a 2-row block costs 4.5% more per sequence than a
# 4-row one.
MIN_BLOCK_ROWS = 4

# The process-wide pool that runs the batches of `mean_corpus_loss`, the
# chunks of `importance.next_token_gradients` (`in_corpus_order`) and the row
# blocks of `row_block_loss` (`_in_blocks`), with one worker per CPU this
# process may run on.  Its threads start on its first task.  This module
# alone sizes the work offered to it.
try:
    EVAL_WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity call on this platform
    EVAL_WORKERS = os.cpu_count() or 1
EVAL_POOL = ThreadPoolExecutor(EVAL_WORKERS, thread_name_prefix="dualprune-eval")
# True in the context of a call offered to the pool (`_submit`), which
# therefore offers it nothing: it cannot wait on a task queued behind it
_in_pool_task = contextvars.ContextVar("in_pool_task", default=False)


def row_blocks(rows: int) -> list[slice]:
    """`rows` rows cut in order into blocks, the last possibly shorter: the
    one rule for the size of a pass.

    Under an active tape the blocks have `MIN_BLOCK_ROWS` rows, whatever
    the worker count, so a training step, and every checkpoint, is
    bit-identical for any worker count.  Otherwise they have
    max(`MIN_BLOCK_ROWS`, ceil(rows / `EVAL_WORKERS`)) rows: every op of a
    forward pass works on each row alone and a forward GEMM gives each row
    the bits of the whole batch's, so the loss is that of one pass on the
    whole batch.
    """
    size = MIN_BLOCK_ROWS if T.recording() else max(MIN_BLOCK_ROWS, -(-rows // EVAL_WORKERS))
    return [slice(a, a + size) for a in range(0, rows, size)]


def _submit(fn: Callable, *args) -> Future:
    """`fn(*args)` offered to `EVAL_POOL`, the only place that offers work to it.

    The call runs under a copy of the caller's context, so under its
    `np.errstate`, marked as a pool task (`_in_pool_task`).  It never
    records onto the caller's tape: a tape is active on one thread only.
    """
    # a context per call: one context cannot be entered by two threads at once
    context = contextvars.copy_context()
    context.run(_in_pool_task.set, True)
    return EVAL_POOL.submit(context.run, fn, *args)


def _wait_for_running(futures: Iterable[Future]) -> None:
    """Withdraw the `futures` no worker has started and wait for the others."""
    # a withdrawn call never starts; wait() would block until a worker dequeued it
    wait([future for future in futures if not future.cancel()])


def in_corpus_order(calls: Iterable[tuple]) -> Iterator:
    """Run each `(fn, *args)` of `calls` on `EVAL_POOL` and yield the
    results in the order of `calls`: the batches of `mean_corpus_loss` and
    the chunks of `importance.next_token_gradients`.

    At most `EVAL_WORKERS + 1` calls are submitted and not yet yielded: a
    worker finds the next call queued while the caller takes the last
    result, and results that hold large buffers never pile up.  A call's
    exception is raised where its result would be yielded.  On exit,
    including `close()` after a raise in the caller, calls not yet started
    are withdrawn and running ones waited for; use it under
    `contextlib.closing`, so that no call outlives the caller's loop.
    """
    pending: deque[Future] = deque()
    try:
        for call in calls:
            if len(pending) > EVAL_WORKERS:
                yield pending.popleft().result()
            pending.append(_submit(*call))
        while pending:
            yield pending.popleft().result()
    finally:
        _wait_for_running(pending)


def _in_blocks(calls: list[tuple]) -> list:
    """The results of `calls`, in order.  A pool task never offers work to
    the pool, so inside one the calls run here one after another; elsewhere
    the first runs here and the others are offered to `EVAL_POOL`.  So no
    task waits on one queued behind it, and no more passes run at once than
    the pool has workers, plus the caller's.  No offered call outlives this
    one, also when a call raises."""
    if _in_pool_task.get():
        return [fn(*args) for fn, *args in calls]
    (fn, *args), *rest = calls
    offered = [_submit(*call) for call in rest]
    try:
        return [fn(*args), *(future.result() for future in offered)]
    finally:
        _wait_for_running(offered)


def token_weighted_mean(what: str, batches: list[np.ndarray], losses: Iterable) -> float:
    """The mean of the batches' next-token losses `losses` (one float per
    batch, in order), each weighted by its batch's count of predicted tokens
    and summed in batch order.  A non-finite loss raises `NumericError`
    naming `what` and the rows of the first such batch.  Takes one loss per
    batch from `losses` and no more.
    """
    nll_total = 0.0
    token_total = 0
    first = 0
    for batch, loss in zip(batches, losses):
        loss = float(loss)
        if not math.isfinite(loss):
            raise NumericError(f"{what}: non-finite loss {loss} on sequences "
                               f"{first}..{first + len(batch) - 1}")
        n_predicted = batch.shape[0] * (batch.shape[1] - 1)
        nll_total += loss * n_predicted
        token_total += n_predicted
        first += len(batch)
    return nll_total / token_total


def mean_corpus_loss(model: TransformerModel, corpus) -> float:
    """Token-count-weighted mean next-token loss over the corpus's (n, length) array.

    The rows are batched in corpus order, `EVAL_BATCH` at a time (the last
    batch may be smaller).  The batches' forward passes run concurrently on
    `EVAL_POOL` (`in_corpus_order`), and their losses are summed in corpus
    order (`token_weighted_mean`), so the result is bit-for-bit that of
    passing them one by one.  A non-finite batch loss raises `NumericError`
    naming the rows of the first such batch; no pass of the call is left
    running when it returns or raises.
    """
    batches = list(corpus.batches(EVAL_BATCH))
    calls = ((batch_next_token_loss, model, batch) for batch in batches)
    with closing(in_corpus_order(calls)) as losses:
        return token_weighted_mean("mean_corpus_loss", batches, (loss.data for loss in losses))


def pretrain(model: TransformerModel, corpus, steps: int, learning_rate: float, *,
             batch_size: int = 8, log_every: int = 50,
             verbose: bool = False) -> tuple[TransformerModel, list[tuple[int, float]]]:
    """Plain SGD on next-token loss; mutates `model` in place.

    Returns the model and a per-step loss history.  Batches are drawn with an
    rng seeded from the model config, and each step's batch is cut into the
    same row blocks at any worker count (`row_block_loss`), so identical
    (seed, corpus, steps) runs produce bit-identical checkpoints for any
    `EVAL_WORKERS`.
    """
    for what, count in (("steps", steps), ("batch_size", batch_size), ("log_every", log_every)):
        check_int(f"pretrain: {what}", count, 1)
    if isinstance(learning_rate, bool) or not 0 < learning_rate < math.inf:
        raise ValidationError(f"pretrain: learning_rate must be finite and > 0, got {learning_rate}")

    rng = np.random.default_rng([model.config.seed, 0x7261696E])
    history: list[tuple[int, float]] = []
    for step in range(1, steps + 1):
        batch = corpus.sequences[rng.integers(0, len(corpus), size=batch_size)]
        tape = GradientTape()
        with tape:
            loss = batch_next_token_loss(model, batch)
        loss_val = float(loss.data)
        if not np.isfinite(loss_val):
            raise NumericError(f"pretrain: non-finite loss at step {step}")
        grads = model.grads_by_name(T.backward(tape, loss))
        for name, g in grads.items():
            model.params[name].data -= learning_rate * g
        history.append((step, loss_val))
        if verbose and (step % log_every == 0 or step == steps):
            print(f"step {step:>6d}  loss {loss_val:.4f}")

    model.step += steps
    model.meta["pretrained"] = "1"
    model.meta["converged"] = "0" if still_improving(history) else "1"
    return model, history


def still_improving(history: list[tuple[int, float]]) -> bool:
    """True when smoothed loss fell by more than 1% over the last 10% of steps."""
    if len(history) < 20:
        return False
    losses = np.array([loss for _, loss in history])
    window = max(1, len(losses) // 20)
    tail = max(2 * window, len(losses) // 10)
    smooth = np.convolve(losses, np.ones(window) / window, mode="valid")
    head_val = smooth[-tail] if tail < len(smooth) else smooth[0]
    tail_val = smooth[-1]
    return head_val > 0 and (head_val - tail_val) / head_val > 0.01


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(model: TransformerModel, path) -> None:
    meta = {f"config.{f.name}": str(getattr(model.config, f.name)) for f in fields(ModelConfig)}
    meta["step"] = str(model.step)
    for k, v in model.meta.items():
        meta[f"x.{k}"] = v
    blocks = [(name, t.data) for name, t in model.params.items()]
    write_container(path, "checkpoint", meta, blocks)


def load_checkpoint(path) -> TransformerModel:
    c = read_container(path, expect_kind="checkpoint")
    try:
        config = ModelConfig(**{f.name: int(c.meta[f"config.{f.name}"]) for f in fields(ModelConfig)})
        config.validate()
        step = int(c.meta["step"])
        if step < 0:
            raise ValueError(f"step must be >= 0, got {step}")
    except (KeyError, ValueError, ValidationError) as e:
        raise ArtifactError(f"checkpoint {path}: bad or missing config metadata ({e})") from None

    expected = expected_param_shapes(config)
    if list(c.blocks) != list(expected):
        raise ArtifactError(f"checkpoint {path}: unexpected weight manifest")
    params: dict[str, Tensor] = {}
    for name, arr in c.blocks.items():
        if arr.shape != expected[name]:
            raise ArtifactError(
                f"checkpoint {path}: block {name} has shape {arr.shape}, expected {expected[name]}"
            )
        params[name] = T.param(arr, name)
    meta = {k[2:]: v for k, v in c.meta.items() if k.startswith("x.")}
    return TransformerModel(config, params, step=step, meta=meta)
