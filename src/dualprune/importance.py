"""Weight-importance scoring for the prunable projections.

Three score families:

* general importance: per-weight removal error 0.5 * W^2 / [H^-1]_mm, with the
  inverse Hessian diagonal approximated as 1 / (H_mm + damping) and H_mm from
  the empirical Fisher (mean squared per-sample gradient, `next_token_gradients`)
  on open-domain data;
* dual importance: |u + u^2/2| with u = g * W, where g is the next-token
  gradient on domain data plus a closed-form regularizer gradient
  2*lambda*alpha^2 * G * g_next * H_mm that penalizes moving weights the
  general scores marked important.  g_next and H_mm both come from the one
  gradient pass over the domain data: its mean and its empirical Fisher
  diagonal;
* brute force: the exact loss change from zeroing one weight at a time, used
  as the ranking oracle for the approximations above; it reruns only what
  a weight's removal can change, bit-identical to a full rerun
  (`brute_force_importance`).

Model weights are never updated here; only gradients are read.
"""

from __future__ import annotations

import warnings
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from . import model as model_lib
from . import tensor as T
from .container import read_container, record_from_container, record_meta, write_container
from .errors import NumericError, ShapeError, ValidationError
from .model import (
    BLOCK_PROJECTIONS,
    EVAL_BATCH,
    TransformerModel,
    check_scored_model,
    in_corpus_order,
    next_token_split,
    prunable_names,
    row_block_loss,
    token_weighted_mean,
)
# unused here; kept because the stage benchmark patches importance.next_token_loss
# and its tests read importance.mean_corpus_loss
from .model import mean_corpus_loss, next_token_loss  # noqa: F401

DEFAULT_DAMPING = 1e-4
DEFAULT_LAMBDA = 0.1
DEFAULT_ALPHA = 0.03


@dataclass
class ImportanceMatrixG:
    """General (open-domain) importance scores, one matrix per prunable weight."""
    scores: dict[str, np.ndarray]
    damping: float
    sample_count: int
    corpus_fingerprint: str
    model_fingerprint: str


@dataclass
class DualScoreS:
    """Final dual importance scores combining generality and specificity."""
    scores: dict[str, np.ndarray]
    lam: float = field(metadata={"key": "lambda"})
    alpha: float
    sample_count: int
    domain_corpus_fingerprint: str
    general_corpus_fingerprint: str
    model_fingerprint: str


@dataclass
class GradientStats:
    """Mean gradient and mean squared gradient over a corpus, per prunable matrix."""
    mean: dict[str, np.ndarray]
    mean_square: dict[str, np.ndarray]


class _PairwiseSum:
    """Streaming pairwise (binary-counter) summation over dict-of-array samples.

    The summation tree depends only on the sample count, so duplicating every
    sample doubles each partial sum exactly and the mean stays bit-identical
    under corpus duplication.

    `add(sample, level)` takes `sample` as the pairwise sum of the next
    2**level samples, and needs a count that 2**level divides.  Such a
    block's sum, taken as left half + right half down to single samples
    (`_dyadic_sums`), is the carry that adding its samples one at a time
    would push to `level`, and the levels below it are empty; so the result
    is bit-identical.
    """

    def __init__(self):
        self._levels: list[dict[str, np.ndarray] | None] = []
        self.count = 0

    def add(self, sample: dict[str, np.ndarray], level: int = 0) -> None:
        if self.count % (1 << level):
            raise ValueError(f"a level-{level} sum cannot follow {self.count} samples")
        self._levels += [None] * (level - len(self._levels))
        carry = dict(sample)
        for i in range(level, len(self._levels)):
            slot = self._levels[i]
            if slot is None:
                self._levels[i] = carry
                break
            carry = {k: slot[k] + carry[k] for k in carry}
            self._levels[i] = None
        else:
            self._levels.append(carry)
        self.count += 1 << level

    def mean(self) -> dict[str, np.ndarray]:
        total: dict[str, np.ndarray] | None = None
        for slot in self._levels:
            if slot is None:
                continue
            total = slot if total is None else {k: total[k] + slot[k] for k in slot}
        assert total is not None
        return {k: v / self.count for k, v in total.items()}


def _dyadic_sums(per_sample: list[np.ndarray], start: int) -> list[tuple[int, list[np.ndarray]]]:
    """`(level, sums)` for the samples `start, start + 1, ...` of a corpus,
    given as (n, *shape) arrays: the samples cut in order into maximal
    aligned blocks `[a, a + 2**level)` with `a % 2**level == 0`, each summed
    as `_PairwiseSum.add` would, left half + right half.  Each sum is a new
    array of one sample's shape."""
    end = start + len(per_sample[0])
    out = []
    a = start
    while a < end:
        size = a & -a or 1 << (end - a).bit_length()
        while a + size > end:
            size >>= 1
        sums = []
        for g in per_sample:
            x = g[a - start : a - start + size]
            # pairs of neighbours, elementwise: the same additions as the tree's
            while len(x) > 2:
                x = x[0::2] + x[1::2]
            sums.append(x[0] + x[1] if len(x) == 2 else x[0].copy())
        out.append((size.bit_length() - 1, sums))
        a += size
    return out


def _chunk_sums(model: TransformerModel, weights: list[T.Tensor], batch: np.ndarray, start: int):
    """The tape pass of the chunk `batch` of samples `start, start + 1, ...`,
    reduced in the worker that runs it: finite[b, m], whether sample b's
    gradient of weight m is finite, and, when every gradient is finite,
    `(level, sums, square_sums)` per block of `_dyadic_sums`, in order;
    otherwise no blocks.  Only these sums, with no per-sample axis, cross
    to the caller."""
    tape = T.GradientTape()
    with tape:
        # looked up at call time, so that a hook installed on
        # model.batch_next_token_loss sees every chunk
        loss = model_lib.batch_next_token_loss(model, batch)
    grads = T.backward(tape, loss, weights, samples=len(batch))
    per_sample = [grads[w.tid].data for w in weights]
    finite = np.stack([np.isfinite(g).reshape(len(batch), -1).all(axis=1) for g in per_sample],
                      axis=1)
    if not finite.all():
        return finite, []
    n = len(weights)
    squares = [g * g for g in per_sample]
    return finite, [(level, sums[:n], sums[n:])
                    for level, sums in _dyadic_sums(per_sample + squares, start)]


def next_token_gradients(model: TransformerModel, corpus) -> GradientStats:
    """Per-sample next-token gradients over the corpus's (n, length) array,
    reduced to mean and mean-of-squares.

    The rows are cut in corpus order into chunks of `model.MIN_BLOCK_ROWS`:
    a chunk is one taped row block, the most rows a pass with per-sample
    gradients can have.  Each chunk goes through one batched tape pass,
    whose reverse pass returns every sequence's gradient of its own loss
    for the prunable matrices only.  The chunks' passes run on the eval pool
    (`model.in_corpus_order`), which sizes that work; each worker sums its
    chunk's samples in the pairwise tree of `_PairwiseSum` (`_chunk_sums`),
    and the caller adds those sums in corpus order.  A pass repeats the
    arithmetic of a batch-1 pass per sequence, so the squared-gradient
    accumulator is the empirical Fisher diagonal and the results are
    bit-identical to one pass per sequence, reduced one sample at a time,
    whatever the chunk size and the number of workers.  A non-finite
    gradient raises `NumericError` naming the first such sample in corpus
    order; no pass of the call is left running when it returns or raises.
    """
    names = prunable_names(model.config)
    weights = [model.params[k] for k in names]
    acc_g = _PairwiseSum()
    acc_g2 = _PairwiseSum()
    size = model_lib.MIN_BLOCK_ROWS
    calls = ((_chunk_sums, model, weights, batch, i * size)
             for i, batch in enumerate(corpus.batches(size)))
    with closing(in_corpus_order(calls)) as chunks:
        for finite, blocks in chunks:
            if not finite.all():
                b, m = np.argwhere(~finite)[0]
                # every earlier chunk was finite and is added
                raise NumericError(f"non-finite gradient for {names[m]} on sample {acc_g.count + b}")
            for level, sums, square_sums in blocks:
                acc_g.add(dict(zip(names, sums)), level)
                acc_g2.add(dict(zip(names, square_sums)), level)
    return GradientStats(mean=acc_g.mean(), mean_square=acc_g2.mean())


def estimate_fisher_diagonal(model: TransformerModel, corpus) -> dict[str, np.ndarray]:
    """Empirical Fisher diagonal: per prunable matrix, the mean squared per-sample gradient."""
    return next_token_gradients(model, corpus).mean_square


def validate_damping(damping: float) -> None:
    """The inverse-Hessian approximation 1 / (H_mm + damping) needs a finite damping > 0."""
    if not 0 < damping < np.inf:
        raise ValidationError(f"damping must be finite and > 0, got {damping}")


def general_importance(model: TransformerModel, open_corpus,
                       damping: float = DEFAULT_DAMPING) -> ImportanceMatrixG:
    """Removal-error scores 0.5 * W^2 * (H_mm + damping) on open-domain data.

    H_mm is the empirical Fisher diagonal estimated from `open_corpus`.
    Assumes a model trained to a loss minimum; an untrained model only
    triggers a warning since the scores stay defined.
    """
    validate_damping(damping)
    if model.step == 0 or model.meta.get("pretrained") != "1":
        warnings.warn("general_importance: model does not look pretrained; "
                      "removal-error scores assume a loss minimum", stacklevel=2)
    elif model.meta.get("converged") == "0":
        warnings.warn("general_importance: training loss was still falling; "
                      "removal-error scores assume a loss minimum", stacklevel=2)
    fisher = estimate_fisher_diagonal(model, open_corpus)
    scores: dict[str, np.ndarray] = {}
    for name in prunable_names(model.config):
        w = model.params[name].data
        # [H^-1]_mm ~ 1/(H_mm + damping), so the OBS ratio W^2 / [H^-1]_mm
        # becomes a multiplication and stays defined where H_mm == 0.
        scores[name] = 0.5 * w * w * (fisher[name] + damping)
    return ImportanceMatrixG(
        scores=scores,
        damping=damping,
        sample_count=len(open_corpus),
        corpus_fingerprint=open_corpus.fingerprint(),
        model_fingerprint=model.fingerprint(),
    )


def _check_same_shapes(op: str, *dicts: dict[str, np.ndarray]) -> None:
    first = dicts[0]
    for other in dicts[1:]:
        if set(other) != set(first):
            raise ShapeError(f"{op}: matrix sets differ")
        for k in first:
            if other[k].shape != first[k].shape:
                raise ShapeError(
                    f"{op}: shape mismatch for {k}: {first[k].shape} vs {other[k].shape}"
                )


def validate_lambda_alpha(lam: float, alpha: float) -> None:
    """The regularizer's contract: a finite lambda >= 0 weighs the penalty, a
    finite alpha > 0 scales it."""
    if not 0 <= lam < np.inf:
        raise ValidationError(f"lambda must be finite and >= 0, got {lam}")
    if not 0 < alpha < np.inf:
        raise ValidationError(f"alpha must be finite and > 0, got {alpha}")


def regularizer_gradient(G: ImportanceMatrixG, g_next: dict[str, np.ndarray],
                         H: dict[str, np.ndarray], lam: float, alpha: float) -> dict[str, np.ndarray]:
    """Closed-form gradient of the importance-weighted penalty term.

    Elementwise 2*lam*alpha^2 * G * g_next * H_mm (H: a Fisher diagonal), computed
    directly rather than through a second differentiation pass.
    """
    validate_lambda_alpha(lam, alpha)
    _check_same_shapes("regularizer_gradient", G.scores, g_next, H)
    factor = 2.0 * lam * alpha * alpha
    return {k: factor * G.scores[k] * g_next[k] * H[k] for k in G.scores}


def score_from_first_order(u: np.ndarray) -> np.ndarray:
    """|u + u^2/2| with u = gradient * weight; the cubic remainder is dropped."""
    return np.abs(u + 0.5 * u * u)


def dual_importance_scores(model: TransformerModel, domain_corpus, G: ImportanceMatrixG,
                           lam: float = DEFAULT_LAMBDA,
                           alpha: float = DEFAULT_ALPHA) -> DualScoreS:
    """Final per-weight pruning scores from the regularized-loss gradient.

    The gradient is the next-token gradient over the domain corpus plus the
    closed-form regularizer gradient; weights are not updated.  The Fisher
    diagonal H inside the regularizer is the mean squared gradient of the
    same domain pass.  `G` must have been scored on this model.

    At lambda = 0 the +-0 regularizer term can flip only the sign of a zero
    gradient, and |u + u^2/2| maps both signs to +0: the plain gradient's scores.
    """
    validate_lambda_alpha(lam, alpha)
    model_fingerprint = check_scored_model(model, G.model_fingerprint, "general scores")
    stats = next_token_gradients(model, domain_corpus)
    reg = regularizer_gradient(G, stats.mean, stats.mean_square, lam, alpha)
    total = {k: stats.mean[k] + reg[k] for k in stats.mean}
    scores = {
        name: score_from_first_order(total[name] * model.params[name].data)
        for name in prunable_names(model.config)
    }
    return DualScoreS(
        scores=scores,
        lam=lam,
        alpha=alpha,
        sample_count=len(domain_corpus),
        domain_corpus_fingerprint=domain_corpus.fingerprint(),
        general_corpus_fingerprint=G.corpus_fingerprint,
        model_fingerprint=model_fingerprint,
    )


# ((model fingerprint, corpus fingerprint), streams) of the oracle's last
# (model, corpus); replaced when the key changes, never grown.
_dense_streams: tuple[tuple[str, str], list[list[T.Tensor]]] | None = None


def _residual_streams(model: TransformerModel, corpus) -> list[list[T.Tensor]]:
    """Per `mean_corpus_loss` batch, the streams entering sublayers 0 .. 2L of
    `model` on `corpus` (the embedding first, the head's input last): one
    dense pass per (model, corpus), keyed on both fingerprints so that an
    in-place edit of either is a miss."""
    global _dense_streams
    key = (model.fingerprint(), corpus.fingerprint())
    memo = _dense_streams
    if memo is None or memo[0] != key:
        memo = _dense_streams = None  # free the old streams before building the new
        streams = []
        for batch in corpus.batches(EVAL_BATCH):
            states = [model.embed(next_token_split(batch)[0])]
            for s in range(2 * model.config.num_layers):
                states.append(model.sublayer(s, states[-1]))
            streams.append(states)
        memo = _dense_streams = (key, streams)
    return memo[1]


def brute_force_importance(model: TransformerModel, corpus, matrix_id: tuple[int, str],
                           weight_indices) -> np.ndarray:
    """Exact |loss(zeroed) - loss(base)| for single-weight removals.

    `matrix_id` is (layer_index, projection_name); `weight_indices` is a list
    of integer flat indices into that matrix.  The input model is never
    edited: each weight's pass runs on a model that shares every tensor but
    one, a copy of the matrix with that weight zeroed.

    The matrix sits in sublayer s = 2*layer (q, k, v, o) or 2*layer + 1
    (gate, up, down).  Zeroing one of its weights cannot change anything
    computed before its projection, nor the other branches of its block,
    nor the attention heads that do not own its column, so the work splits
    three ways:

    * once per (model, corpus): one dense pass that keeps, per eval batch,
      the residual streams entering sublayers 0 .. 2L, 2L + 1 streams of
      (batch, length - 1, d_model) float64 per batch (5.2 MB for the
      default `ModelConfig` on 32 sequences of 64 tokens).  Only the last
      pair's streams are kept, keyed on the model's and the corpus's
      fingerprints, which every call computes.
    * once per call: the base loss, which runs only the head on the final
      streams; and per eval batch and row block, the stream h entering s
      (its rows of the kept stream), the block's normed input, its branch
      outputs and their mix, built by the first weight's pass in that block,
      on the thread that runs it, and reused by every later weight.
    * once per weight and eval batch: one pass on the caller, the passes
      one after another, whose loss comes from `model.row_block_loss`, so
      its row blocks run beside it on `model.EVAL_POOL`.  Zeroing a weight
      in column c of a branch (q, k, v, gate, up) changes only that branch
      and the columns `mixed_columns(s, c)` of the mix, so the pass reruns
      that branch, remixes those columns (one attention head, or one
      column of the gated product) into a copy of the cached mix and
      applies the output projection; for `o` or `down` it reruns only the
      output projection.  It resumes at sublayer s + 1 from h plus that
      output.  The batch losses are reduced as in `mean_corpus_loss`.

    Every step runs the same primitives on operands of the same values and
    layout as a full pass, so every delta is bit-identical to a full rerun
    for any worker count.
    """
    layer, proj = matrix_id
    key = f"layers.{layer}.{proj}"
    if key not in prunable_names(model.config):
        raise ValidationError(f"{matrix_id!r} is not a prunable matrix")
    matrix = model.params[key].data
    indices = list(weight_indices)
    for i in indices:
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
            raise ValidationError(f"weight index {i!r} for {key} is not an integer")
        if not 0 <= i < matrix.size:
            raise ValidationError(f"weight index {i} out of range for {key} with {matrix.size} entries")

    s = 2 * layer + (proj in BLOCK_PROJECTIONS[1])
    branch_names = BLOCK_PROJECTIONS[s % 2][:-1]
    n_sublayers = 2 * model.config.num_layers
    streams = _residual_streams(model, corpus)
    batches = list(corpus.batches(EVAL_BATCH))
    splits = [next_token_split(batch) for batch in batches]
    # per (eval batch, row block start, stop): h entering s, the block's
    # input, its branch outputs and their mix, built by the block's first
    # pass; a block's passes run one after another, so no key is built twice
    blocks = {}

    def sublayer_steps(b, r):
        key = (b, r.start, r.stop)
        if key not in blocks:
            h = T.Tensor(streams[b][s].data[r])
            x = model.block_input(s, h)
            branches = [model.branch(s, name, x) for name in branch_names]
            blocks[key] = (h, x, branches, model.mix(s, branches))
        return blocks[key]

    def base_loss(b):
        inputs, targets = splits[b]
        final = streams[b][-1].data
        return row_block_loss(lambda r: model.forward(inputs[r], (n_sublayers, T.Tensor(final[r]))), targets)

    def removal_loss(removed, cols, b):
        inputs, targets = splits[b]

        def logits_of(r):
            h, x, branches, mixed = sublayer_steps(b, r)
            if cols is not None:
                changed = [removed.branch(s, name, x) if name == proj else y
                           for name, y in zip(branch_names, branches)]
                remixed = mixed.data.copy()
                remixed[..., cols] = removed.mix(s, [T.Tensor(y.data[..., cols]) for y in changed]).data
                mixed = T.Tensor(remixed)
            return removed.forward(inputs[r], (s + 1, removed.block_output(s, h, mixed)))

        return row_block_loss(logits_of, targets)

    def mean_loss(loss, *args):
        return token_weighted_mean("brute_force_importance", batches,
                                   (loss(*args, b).data for b in range(len(batches))))

    base = mean_loss(base_loss)
    deltas = []
    for i in indices:
        zeroed = matrix.copy()
        zeroed.reshape(-1)[i] = 0.0
        removed = TransformerModel(model.config, {**model.params, key: T.param(zeroed, key)})
        cols = model.mixed_columns(s, i % matrix.shape[1]) if proj in branch_names else None
        deltas.append(abs(mean_loss(removal_loss, removed, cols) - base))
    return np.array(deltas, dtype=np.float64)


# ---------------------------------------------------------------------------
# score persistence (same container format as checkpoints)

def save_general_scores(G: ImportanceMatrixG, path) -> None:
    write_container(path, "scores.general", record_meta(G), list(G.scores.items()))


def load_general_scores(path) -> ImportanceMatrixG:
    c = read_container(path, expect_kind="scores.general")
    return record_from_container(ImportanceMatrixG, c, path)


def save_dual_scores(S: DualScoreS, path) -> None:
    write_container(path, "scores.dual", record_meta(S), list(S.scores.items()))


def load_dual_scores(path) -> DualScoreS:
    c = read_container(path, expect_kind="scores.dual")
    return record_from_container(DualScoreS, c, path)
