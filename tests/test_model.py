"""Toy transformer: layout, loss, causality, pretraining, checkpoints."""

import contextlib
import ctypes
import math
import os
import re
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import dualprune
from dualprune.corpus import Corpus
from dualprune.errors import ArtifactError, NumericError, ShapeError, ValidationError
from dualprune.evaluation import sparsity_sweep
from dualprune.model import (
    EVAL_BATCH,
    ModelConfig,
    TransformerModel,
    batch_next_token_loss,
    init_model,
    load_checkpoint,
    mean_corpus_loss,
    next_token_loss,
    pretrain,
    prunable_matrices,
    save_checkpoint,
)
from dualprune.tensor import GradientTape, Tensor

TINY = ModelConfig(vocab_size=32, context_length=16, num_layers=1, d_model=16,
                   num_heads=2, d_ff=24, seed=3)


def random_corpus(config, n, rng):
    return Corpus("rand", [rng.integers(0, config.vocab_size, size=config.context_length)
                           for _ in range(n)])


class TestConfig:
    def test_divisibility_rejected(self):
        with pytest.raises(ValidationError, match="divisible"):
            ModelConfig(d_model=64, num_heads=3).validate()

    def test_context_minimum(self):
        with pytest.raises(ValidationError, match="context_length"):
            ModelConfig(context_length=1).validate()

    def test_counts_minimum(self):
        with pytest.raises(ValidationError, match="num_layers"):
            ModelConfig(num_layers=0).validate()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match=r"ModelConfig\.seed must be an int >= 0, got -1"):
            init_model(ModelConfig(seed=-1))

    @pytest.mark.parametrize("field,value", [("num_layers", True), ("d_model", 16.0),
                                             ("context_length", 16.0), ("seed", False),
                                             ("vocab_size", np.float64(32))])
    def test_bools_and_floats_rejected(self, field, value):
        # True would build a model whose checkpoint records "True" and does not load
        with pytest.raises(ValidationError, match=rf"ModelConfig\.{field} must be an int >= \d, "
                                                  rf"got {re.escape(repr(value))}$"):
            init_model(ModelConfig(**{field: value}))

    def test_numpy_ints_accepted(self):
        model = init_model(ModelConfig(d_model=np.int64(16), num_heads=np.int32(2), seed=np.uint8(3)))
        expected = init_model(ModelConfig(d_model=16, num_heads=2, seed=3))
        for name, t in expected.params.items():
            assert np.array_equal(model.params[name].data, t.data), name


class TestInit:
    def test_deterministic(self):
        a = init_model(ModelConfig(seed=11))
        b = init_model(ModelConfig(seed=11))
        for name, t in a.params.items():
            assert np.array_equal(t.data, b.params[name].data), name

    def test_seed_changes_weights(self):
        a = init_model(ModelConfig(seed=0))
        b = init_model(ModelConfig(seed=1))
        assert not np.array_equal(a.params["embed"].data, b.params["embed"].data)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            init_model(ModelConfig(d_model=10, num_heads=4))

    def test_fingerprint_tracks_weights(self):
        a = init_model(TINY)
        fp = a.fingerprint()
        assert fp == a.fingerprint()
        a.params["embed"].data[0, 0] += 1.0
        assert a.fingerprint() != fp

    @pytest.mark.parametrize("config,expected", [
        (ModelConfig(), "3b7ceef311b1d414f233e8b8b277d6e092f308793b9a5fc78741b38e7bbbd585"),
        (ModelConfig(vocab_size=256, context_length=32, num_layers=1, d_model=32,
                     num_heads=2, d_ff=48, seed=5),
         "2dc056fbe8137939b382b833792fe8f92590d05a10ed8cfbb99f5176d5e7fd08"),
    ])
    def test_fingerprint_pinned(self, config, expected):
        # a change of draw order or layout changes every downstream artifact
        assert init_model(config).fingerprint() == expected


class TestPrunableSet:
    def test_entry_count(self):
        model = init_model(ModelConfig())
        assert len(prunable_matrices(model)) == 2 * 7

    def test_fixed_order(self):
        model = init_model(ModelConfig())
        entries = prunable_matrices(model)
        assert (entries[0][0], entries[0][1]) == (0, "q")
        assert [name for _, name, _ in entries[:7]] == ["q", "k", "v", "o", "gate", "up", "down"]
        assert entries[7][0] == 1

    def test_shapes_match_config(self):
        config = ModelConfig()
        model = init_model(config)
        by_name = {(i, n): t for i, n, t in prunable_matrices(model)}
        assert by_name[(0, "q")].shape == (64, 64)
        assert by_name[(0, "up")].shape == (64, 128)
        assert by_name[(1, "down")].shape == (128, 64)

    def test_parameter_census(self):
        config = ModelConfig()
        model = init_model(config)
        total = sum(t.size for _, _, t in prunable_matrices(model))
        assert total == 81_920 == config.num_layers * (4 * 64 * 64 + 3 * 64 * 128)

    def test_excluded_tensors(self):
        model = init_model(ModelConfig())
        prunable = {f"layers.{i}.{n}" for i, n, _ in prunable_matrices(model)}
        excluded = set(model.params) - prunable
        assert "embed" in excluded and "pos" in excluded and "final_norm" in excluded
        assert all("norm" in name or name in ("embed", "pos") for name in excluded)


class TestLoss:
    def test_untrained_loss_near_uniform(self):
        model = init_model(ModelConfig())
        rng = np.random.default_rng(0)
        losses = [float(next_token_loss(model, rng.integers(0, 256, size=64))[0].data)
                  for _ in range(8)]
        assert abs(np.mean(losses) - math.log(256)) < 0.5

    def test_short_sequence_rejected(self):
        model = init_model(TINY)
        with pytest.raises(ValidationError, match="length"):
            next_token_loss(model, np.array([1]))

    def test_long_sequence_rejected(self):
        # context_length + 1 tokens give context_length inputs, the longest that fits
        model = init_model(TINY)
        next_token_loss(model, np.zeros(TINY.context_length + 1, dtype=np.int64))
        with pytest.raises(ValidationError, match=r"forward: length 17 outside \[1, 16\]"):
            next_token_loss(model, np.zeros(TINY.context_length + 2, dtype=np.int64))

    def test_out_of_vocab_rejected(self):
        model = init_model(TINY)
        with pytest.raises(ValidationError, match="embedding-lookup: id out of range"):
            next_token_loss(model, np.array([TINY.vocab_size, 0]))
        with pytest.raises(ValidationError, match="cross-entropy: target id out of range"):
            next_token_loss(model, np.array([0, TINY.vocab_size]))

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValidationError, match=r"must be 1-D, got shape \(1, 4\)"):
            next_token_loss(init_model(TINY), np.zeros((1, 4), dtype=np.int64))

    @pytest.mark.parametrize("taped", [False, True])
    def test_empty_batch_rejected(self, taped):
        with GradientTape() if taped else contextlib.nullcontext():
            with pytest.raises(ValidationError, match=r"batch must be 2-D .* got shape \(0, 9\)"):
                batch_next_token_loss(init_model(TINY), np.zeros((0, 9), dtype=np.int64))

    def test_loss_matches_batch_path(self):
        model = init_model(TINY)
        rng = np.random.default_rng(1)
        seqs = rng.integers(0, TINY.vocab_size, size=(3, TINY.context_length))
        batched = float(batch_next_token_loss(model, seqs).data)
        singles = [float(next_token_loss(model, s)[0].data) for s in seqs]
        assert batched == pytest.approx(np.mean(singles), rel=1e-12)

    def test_causality(self):
        # editing token t leaves the loss contributions of positions < t unchanged
        model = init_model(TINY)
        rng = np.random.default_rng(2)
        seq = rng.integers(0, TINY.vocab_size, size=12)
        changed = seq.copy()
        t = 7
        changed[t] = (changed[t] + 1) % TINY.vocab_size

        def per_position_nll(ids):
            logits = model.forward(ids[None, :-1]).data[0]
            z = logits - logits.max(axis=-1, keepdims=True)
            lse = np.log(np.exp(z).sum(axis=-1))
            picked = z[np.arange(len(ids) - 1), ids[1:]]
            return lse - picked

        base = per_position_nll(seq)
        edited = per_position_nll(changed)
        assert np.array_equal(base[: t - 1], edited[: t - 1])
        assert not np.array_equal(base[t - 1 :], edited[t - 1 :])

    def test_mean_corpus_loss_weighted(self):
        # a full batch of EVAL_BATCH and a partial one of 3, weighted by their token counts
        model = init_model(TINY)
        rng = np.random.default_rng(3)
        seqs = rng.integers(0, TINY.vocab_size, size=(EVAL_BATCH + 3, 9))
        whole = mean_corpus_loss(model, Corpus("m", seqs))
        full = float(batch_next_token_loss(model, seqs[:EVAL_BATCH]).data)
        partial = float(batch_next_token_loss(model, seqs[EVAL_BATCH:]).data)
        assert whole == (full * (EVAL_BATCH * 8) + partial * (3 * 8)) / ((EVAL_BATCH + 3) * 8)
        singles = [float(next_token_loss(model, s)[0].data) for s in seqs]
        assert whole == pytest.approx(np.mean(singles), rel=1e-12)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_weight_raises(self, value):
        model = init_model(TWO_LAYER)
        model.params["layers.1.up"].data[3, 5] = value
        corpus = Corpus("m", np.random.default_rng(3).integers(0, 32, size=(EVAL_BATCH + 3, 9)))
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(NumericError, match=r"^mean_corpus_loss: non-finite loss nan on "
                                                   r"sequences 0\.\.31$"):
                mean_corpus_loss(model, corpus)

    def test_non_finite_loss_names_its_batch(self):
        # the residual stream turns infinite only in rows that hold the last token id: rows 33, 34
        model = init_model(TINY)
        rare = TINY.vocab_size - 1
        seqs = np.random.default_rng(3).integers(0, rare, size=(EVAL_BATCH + 3, 9))
        seqs[EVAL_BATCH + 1:, 4] = rare
        embed = model.embed

        def embed_breaking_rare(ids):
            h = embed(ids)
            h.data[(ids == rare).any(axis=1)] = np.inf
            return h

        model.embed = embed_breaking_rare
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(NumericError, match=r"non-finite loss nan on sequences 32\.\.34$"):
                mean_corpus_loss(model, Corpus("m", seqs))


# Two layers, so that a pass can resume past a whole layer.
TWO_LAYER = ModelConfig(vocab_size=32, context_length=16, num_layers=2, d_model=16,
                        num_heads=2, d_ff=24, seed=4)


def stream_entering(model, ids, stop):
    """The residual stream entering sublayer `stop`, computed sublayer by sublayer."""
    h = model.embed(ids)
    for s in range(stop):
        h = model.sublayer(s, h)
    return h


class TestResume:
    def test_every_resume_point_is_bit_identical(self):
        model = init_model(TWO_LAYER)
        ids = np.random.default_rng(5).integers(0, TWO_LAYER.vocab_size, size=(3, 11))
        full = model.forward(ids).data
        for s in range(2 * TWO_LAYER.num_layers + 1):
            resumed = model.forward(ids, (s, stream_entering(model, ids, s))).data
            assert np.array_equal(resumed, full), s

    @pytest.mark.parametrize("s", [-1, 2 * TWO_LAYER.num_layers + 1])
    def test_sublayer_out_of_range_rejected(self, s):
        model = init_model(TWO_LAYER)
        ids = np.zeros((2, 5), dtype=np.int64)
        with pytest.raises(ValidationError, match=r"resume sublayer .* outside \[0, 4\]"):
            model.forward(ids, (s, model.embed(ids)))

    @pytest.mark.parametrize("shape", [(2, 4, 16), (3, 5, 16), (2, 5, 8), (10, 16)])
    def test_stream_of_wrong_shape_rejected(self, shape):
        model = init_model(TWO_LAYER)
        with pytest.raises(ShapeError, match=r"resume stream has shape .*, expected \(2, 5, 16\)"):
            model.forward(np.zeros((2, 5), dtype=np.int64), (1, Tensor(np.zeros(shape))))


def serial_corpus_loss(model, corpus, reverse=False):
    """`mean_corpus_loss` as a plain loop: one batch after another in this
    thread, in corpus order or, with `reverse`, in the opposite order."""
    nll_total, token_total = 0.0, 0
    batches = list(corpus.batches(EVAL_BATCH))
    for batch in reversed(batches) if reverse else batches:
        n_predicted = batch.shape[0] * (batch.shape[1] - 1)
        nll_total += float(batch_next_token_loss(model, batch).data) * n_predicted
        token_total += n_predicted
    return nll_total / token_total


class TestEvalPool:
    # 6 full batches and a partial one of 5, seeded so that summing the batch
    # losses in another order changes the result's last bits
    SEQS = np.random.default_rng(30).integers(0, TWO_LAYER.vocab_size, size=(6 * EVAL_BATCH + 5, 12))

    @pytest.mark.parametrize("resume_at", [None, 2], ids=["full", "resumed"])
    def test_pool_size_changes_no_bit(self, eval_pool, resume_at):
        model = init_model(TWO_LAYER)
        if resume_at is not None:
            # every pass resumes at sublayer 2 from a stream computed sublayer by sublayer
            model.forward = lambda ids: TransformerModel.forward(
                model, ids, (resume_at, stream_entering(model, ids, resume_at)))
        corpus = Corpus("m", self.SEQS)
        eval_pool(1)  # one worker: every batch is one block
        expected = serial_corpus_loss(model, corpus).hex()
        assert serial_corpus_loss(model, corpus, reverse=True).hex() != expected
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the workers' Python code finely
        try:
            for workers in (1, 2, 8):  # 8: more workers than batches and than cores
                eval_pool(workers)
                assert mean_corpus_loss(model, corpus).hex() == expected, workers
        finally:
            sys.setswitchinterval(interval)

    def test_sweep_rows_do_not_depend_on_pool_size(self, eval_pool):
        model = init_model(TWO_LAYER)
        rng = np.random.default_rng(9)
        scores = {f"layers.{i}.{name}": rng.random(t.shape) for i, name, t in prunable_matrices(model)}
        rows = []
        for workers in (1, 2):
            eval_pool(workers)
            rows.append(sparsity_sweep(model, scores, Corpus("m", self.SEQS), [0.0, 0.3, 0.6]).rows)
        assert rows[0] == rows[1]

    def test_first_non_finite_batch_in_corpus_order_raises(self, eval_pool, monkeypatch):
        # batches 1 and 6 turn infinite; batch 1 is held back so that batch 6
        # fails first, which needs all seven batches in flight at once
        model = init_model(TWO_LAYER)
        rare = TWO_LAYER.vocab_size - 1
        seqs = self.SEQS.copy()
        seqs[seqs == rare] = 0
        seqs[EVAL_BATCH + 3, 4] = seqs[6 * EVAL_BATCH + 1, 4] = rare
        batch_six_done = threading.Event()
        embed = model.embed

        def embed_breaking_rare(ids):
            h = embed(ids)
            if (ids[:, 4] == rare).any():
                if (ids == seqs[EVAL_BATCH + 3, :-1]).all(axis=1).any():  # the rows of batch 1
                    batch_six_done.wait(timeout=10)
                h.data[(ids == rare).any(axis=1)] = np.inf
            return h

        def loss_marking_batch_six(model, batch):
            loss = batch_next_token_loss(model, batch)
            if len(batch) == 5:
                batch_six_done.set()
            return loss

        model.embed = embed_breaking_rare
        monkeypatch.setattr(dualprune.model, "batch_next_token_loss", loss_marking_batch_six)
        eval_pool(7)
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("error")  # a worker outside the caller's errstate would warn
            with pytest.raises(NumericError, match=r"non-finite loss nan on sequences 32\.\.63$"):
                mean_corpus_loss(model, Corpus("m", seqs))
        assert batch_six_done.is_set()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_at_most_one_call_more_than_the_workers_is_pending(self, eval_pool, monkeypatch,
                                                               workers):
        eval_pool(workers)
        submit = dualprune.model._submit
        submitted = []

        def counting_submit(*call):
            submitted.append(call)
            return submit(*call)

        monkeypatch.setattr(dualprune.model, "_submit", counting_submit)
        pending = []
        calls = ((lambda i: i, i) for i in range(10))
        with contextlib.closing(dualprune.model.in_corpus_order(calls)) as results:
            for i, result in enumerate(results):
                assert result == i
                pending.append(len(submitted) - i)
        # full until the calls run out, then draining
        assert pending == [min(workers + 1, 10 - i) for i in range(10)]

    def test_tape_active_in_the_caller_records_nothing(self):
        model = init_model(TWO_LAYER)
        tape = GradientTape()
        with tape:
            loss = mean_corpus_loss(model, Corpus("m", self.SEQS))
        assert tape.records == []
        assert loss == serial_corpus_loss(model, Corpus("m", self.SEQS))

    def test_a_caller_outside_the_pool_waits_for_the_workers(self, eval_pool, monkeypatch):
        # both workers are busy when the batches are offered: a caller that
        # took back the batches no worker had started would run them itself
        model = init_model(TWO_LAYER)
        corpus = Corpus("m", self.SEQS)
        expected = serial_corpus_loss(model, corpus)
        threads = []
        batch_loss = dualprune.model.batch_next_token_loss

        def recording_thread(model, batch):
            threads.append(threading.current_thread())
            return batch_loss(model, batch)

        monkeypatch.setattr(dualprune.model, "batch_next_token_loss", recording_thread)
        pool = eval_pool(2)
        release = threading.Event()
        try:
            for _ in range(2):
                pool.submit(release.wait, 10)
            threading.Timer(0.3, release.set).start()
            assert mean_corpus_loss(model, corpus) == expected
        finally:
            release.set()
        assert len(threads) == len(list(corpus.batches(EVAL_BATCH)))
        assert threading.current_thread() not in threads


# Wider than TWO_LAYER, so that OpenBLAS runs other GEMM kernels on it.
WIDE = ModelConfig(vocab_size=32, context_length=16, num_layers=2, d_model=32, num_heads=2,
                   d_ff=48, seed=4)
# The shapes of the command-line tests' model (`tests/test_cli.py`).
CLI_SHAPE = ModelConfig(vocab_size=256, context_length=32, num_layers=1, d_model=32, num_heads=2,
                        d_ff=48, seed=5)


class TestRowBlocks:
    CORPUS = Corpus("rows", np.random.default_rng(40).integers(0, WIDE.vocab_size, size=(64, 16)))

    @pytest.mark.parametrize("workers,rows,sizes", [
        (1, 32, [32]), (2, 4, [4]), (2, 8, [4, 4]), (2, 7, [4, 3]), (3, 32, [11, 11, 10]),
        (8, 9, [4, 4, 1]), (8, 32, [4] * 8)])
    def test_blocks_of_the_pool_size_and_at_least_four_rows(self, eval_pool, workers, rows, sizes):
        eval_pool(workers)
        cuts = dualprune.model.row_blocks(rows)
        assert [len(range(rows)[r]) for r in cuts] == sizes
        assert np.array_equal(np.concatenate([np.arange(rows)[r] for r in cuts]), np.arange(rows))

    @pytest.mark.parametrize("workers", [1, 3, 8])
    @pytest.mark.parametrize("rows,sizes", [(4, [4]), (8, [4, 4]), (7, [4, 3]), (33, [4] * 8 + [1])])
    def test_blocks_under_a_tape_have_four_rows_at_any_pool_size(self, eval_pool, workers, rows,
                                                                 sizes):
        eval_pool(workers)
        with GradientTape():
            cuts = dualprune.model.row_blocks(rows)
        assert [len(range(rows)[r]) for r in cuts] == sizes
        assert np.array_equal(np.concatenate([np.arange(rows)[r] for r in cuts]), np.arange(rows))

    @pytest.mark.parametrize("config", [ModelConfig(), WIDE, TWO_LAYER, CLI_SHAPE],
                             ids=["default", "wide", "two_layer", "cli"])
    def test_forward_gemms_give_each_row_the_whole_batch_bits(self, monkeypatch, config):
        """What lets forward-only passes take `row_blocks`' worker-dependent
        cuts: each block's x @ W gives its rows the bits of the whole batch's
        GEMM, for every weight shape of the pass and every cut."""
        rng = np.random.default_rng(config.d_model)
        d, f, n_tok = config.d_model, config.d_ff, config.context_length - 1
        for rows in range(1, 34):
            blocks = set()
            for workers in range(1, 9):
                monkeypatch.setattr(dualprune.model, "EVAL_WORKERS", workers)
                blocks.update((r.start, r.stop) for r in dualprune.model.row_blocks(rows))
            for k, n in [(d, d), (d, f), (f, d), (d, config.vocab_size)]:
                x, w = rng.standard_normal((rows, n_tok, k)), rng.standard_normal((k, n))
                whole = x @ w
                for a, b in blocks:
                    assert np.array_equal(x[a:b] @ w, whole[a:b]), (rows, a, b, (k, n))

    def test_forward_passes_do_not_depend_on_the_pool_size(self, eval_pool):
        model = init_model(TWO_LAYER)
        corpus = Corpus("m", TestEvalPool.SEQS[:37])  # an eval batch of 32 and one of 5

        def passes():
            deltas = [dualprune.importance.brute_force_importance(model, corpus, (layer, name), [0, 9, 100])
                      for layer, name in [(0, "q"), (0, "down"), (1, "gate"), (1, "o")]]
            return mean_corpus_loss(model, corpus).hex(), [d.tobytes() for d in deltas]

        eval_pool(1)
        expected = passes()
        for workers in (2, 3, 8):
            eval_pool(workers)
            assert passes() == expected, workers

    @pytest.mark.parametrize("batch_size,config", [(7, WIDE), (8, WIDE), (13, WIDE), (7, TWO_LAYER),
                                                   (8, TWO_LAYER), (13, TWO_LAYER)],
                             ids=["7", "8", "13", "two_layer-7", "two_layer-8", "two_layer-13"])
    def test_pretraining_does_not_depend_on_the_pool_size(self, eval_pool, tmp_path, config, batch_size):
        corpus = Corpus("rows", self.CORPUS.sequences % config.vocab_size)

        def train(name):
            model, history = pretrain(init_model(config), corpus, steps=24, learning_rate=0.3,
                                      batch_size=batch_size)
            save_checkpoint(model, tmp_path / name)
            return (tmp_path / name).read_bytes(), [loss.hex() for _, loss in history], model.meta["converged"]

        eval_pool(1)
        expected = train("one")
        for workers in (2, 3, 8):
            eval_pool(workers)
            assert train(str(workers)) == expected, workers

    @pytest.mark.parametrize("config", [WIDE, TWO_LAYER], ids=["wide", "two_layer"])
    def test_summed_gradients_do_not_depend_on_the_pool_size(self, eval_pool, monkeypatch, config):
        model = init_model(config)
        batch = self.CORPUS.sequences[:13] % config.vocab_size  # blocks of 4, 4, 4 and 1 rows

        def gradients():
            tape = GradientTape()
            with tape:
                loss = batch_next_token_loss(model, batch)
            grads = model.grads_by_name(dualprune.tensor.backward(tape, loss))
            return loss.data.tobytes(), {name: g.tobytes() for name, g in grads.items()}

        eval_pool(1)
        expected = gradients()
        assert list(expected[1]) == list(model.params)  # the tied embedding and positions too
        in_blocks = dualprune.model._in_blocks

        def gradients_in_reverse(calls):
            results = in_blocks(calls)
            # each block's loss where it was, the blocks' gradients added last block first
            return [(nll, grads) for (nll, _), (_, grads) in zip(results, results[::-1])]

        with monkeypatch.context() as patch:
            patch.setattr(dualprune.model, "_in_blocks", gradients_in_reverse)
            reversed_sum = gradients()
        assert reversed_sum[0] == expected[0] and reversed_sum[1] != expected[1]
        for workers in (2, 3, 8):
            eval_pool(workers)
            assert gradients() == expected, workers

    def test_no_per_sample_gradients_of_a_split_pass(self):
        model = init_model(WIDE)
        weights = [t for _, _, t in prunable_matrices(model)]
        tape = GradientTape()
        with tape:
            loss = batch_next_token_loss(model, self.CORPUS.sequences[:13])  # four blocks
        with pytest.raises(ShapeError, match=r"backward: no per-sample gradient for layers\.0\.q "):
            dualprune.tensor.backward(tape, loss, weights, samples=13)

    def test_loss_is_the_mean_of_the_joined_token_losses(self, eval_pool):
        model = init_model(WIDE)
        batch = TestEvalPool.SEQS[:EVAL_BATCH]
        eval_pool(1)
        whole = float(batch_next_token_loss(model, batch).data)
        halves = [float(batch_next_token_loss(model, batch[r]).data) for r in (slice(0, 16), slice(16, 32))]
        assert ((halves[0] + halves[1]) / 2).hex() != whole.hex()  # the blocks' means averaged
        for workers in (2, 3, 8):
            eval_pool(workers)
            assert float(batch_next_token_loss(model, batch).data).hex() == whole.hex(), workers

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pretrain_calls_the_batch_loss_once_per_step_with_the_pool_idle(self, eval_pool, monkeypatch,
                                                                            workers):
        # the benchmark cuts steps and samples its reference kernel at these calls
        lock = threading.Lock()
        running, submitted = [0], [0]

        class TrackedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args):
                def tracked():
                    with lock:
                        running[0] += 1
                    try:
                        return fn(*args)
                    finally:
                        with lock:
                            running[0] -= 1

                submitted[0] += 1
                return super().submit(tracked)

        calls = []
        batch_loss = dualprune.model.batch_next_token_loss

        def watched(model, batch):
            with lock:
                calls.append((threading.current_thread(), running[0]))
            return batch_loss(model, batch)

        pool = TrackedPool(workers)
        eval_pool(workers, pool)
        monkeypatch.setattr(dualprune.model, "batch_next_token_loss", watched)
        try:
            pretrain(init_model(WIDE), self.CORPUS, steps=12, learning_rate=0.3, batch_size=8)
        finally:
            pool.shutdown()
        assert calls == [(threading.current_thread(), 0)] * 12
        assert submitted[0] > 0  # at any worker count the steps ran as blocks

    @pytest.mark.parametrize("threads", [1, 2])
    def test_no_pool_task_offers_work_to_the_pool(self, eval_pool, threads):
        # the pool claims four workers, so every eval batch and oracle pass
        # is cut into blocks, which a pool task that offered them could wait
        # on behind its own queue
        model = init_model(WIDE)
        corpus = Corpus("m", TestEvalPool.SEQS)
        submits = {"pool": 0, "caller": 0}

        class TrackedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args):
                from_pool = threading.current_thread().name.startswith("tracked")
                submits["pool" if from_pool else "caller"] += 1
                return super().submit(fn, *args)

        def passes():
            stats = dualprune.importance.next_token_gradients(model, Corpus("g", corpus.sequences[:24]))
            deltas = dualprune.importance.brute_force_importance(
                model, Corpus("o", corpus.sequences[:EVAL_BATCH + 8]), (1, "up"), [0, 7])
            return (mean_corpus_loss(model, corpus).hex(), deltas.tobytes(),
                    [g.tobytes() for g in (*stats.mean.values(), *stats.mean_square.values())])

        pool = TrackedPool(threads, thread_name_prefix="tracked")
        results = []
        try:
            eval_pool(1, pool)  # no forward-only pass is cut
            expected = passes()
            eval_pool(4, pool)
            submits.update(pool=0, caller=0)
            caller = threading.Thread(target=lambda: results.append(passes()), daemon=True)
            caller.start()
            caller.join(timeout=120)
            assert not caller.is_alive()
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        assert results == [expected]
        assert submits["pool"] == 0
        # 7 eval batches and 6 gradient chunks; each of the oracle's three
        # passes (base and two weights) offers blocks 2..4 of its 32-row
        # batch and block 2 of its 8-row one
        assert submits["caller"] == 7 + 6 + 3 * (3 + 1)

    @pytest.mark.parametrize("taped", [False, True])
    def test_a_raise_in_one_block_waits_for_the_others(self, eval_pool, taped):
        eval_pool(2)
        model = init_model(WIDE)
        batch = TestEvalPool.SEQS[:8]  # blocks of 4: the caller's and one on the pool
        other_started, other_finished = threading.Event(), threading.Event()
        forward = model.forward

        def forward_failing_in_the_first_block(ids):
            if np.array_equal(ids[0], batch[0, :-1]):
                assert other_started.wait(timeout=10)
                raise NumericError("first block")
            other_started.set()
            time.sleep(0.2)
            logits = forward(ids)
            other_finished.set()
            return logits

        model.forward = forward_failing_in_the_first_block
        with GradientTape() if taped else contextlib.nullcontext():
            with pytest.raises(NumericError, match="first block"):
                batch_next_token_loss(model, batch)
        assert other_finished.is_set()


class TestPretrain:
    def test_zero_steps_rejected(self):
        model = init_model(TINY)
        corpus = random_corpus(TINY, 4, np.random.default_rng(0))
        with pytest.raises(ValidationError, match="steps"):
            pretrain(model, corpus, steps=0, learning_rate=0.1)

    @pytest.mark.parametrize("field,value", [("batch_size", 0), ("batch_size", -1), ("log_every", 0)])
    def test_batch_size_and_log_every_minimum(self, field, value):
        model = init_model(TINY)
        corpus = random_corpus(TINY, 4, np.random.default_rng(0))
        with pytest.raises(ValidationError, match=f"{field} must be an int >= 1, got {value}"):
            pretrain(model, corpus, steps=2, learning_rate=0.1, **{field: value})

    @pytest.mark.parametrize("field,value", [("steps", True), ("steps", 2.0), ("batch_size", True),
                                             ("batch_size", 2.5), ("log_every", 1.0)])
    def test_bools_and_floats_rejected(self, field, value):
        model = init_model(TINY)
        corpus = random_corpus(TINY, 4, np.random.default_rng(0))
        counts = {"steps": 2, **{field: value}}
        with pytest.raises(ValidationError, match=f"{field} must be an int >= 1, got {value!r}$"):
            pretrain(model, corpus, learning_rate=0.1, **counts)
        assert model.step == 0

    def test_bool_learning_rate_rejected(self):
        model = init_model(TINY)
        corpus = random_corpus(TINY, 4, np.random.default_rng(0))
        with pytest.raises(ValidationError, match="learning_rate must be finite and > 0, got True$"):
            pretrain(model, corpus, steps=2, learning_rate=True)

    def test_loss_decreases_on_repetitive_corpus(self):
        config = ModelConfig(vocab_size=32, context_length=16, num_layers=1,
                             d_model=16, num_heads=2, d_ff=24, seed=5)
        model = init_model(config)
        pattern = np.tile(np.array([3, 1, 4, 1, 5, 9, 2, 6], dtype=np.int64), 2)
        corpus = Corpus("rep", [pattern] * 8)
        model, history = pretrain(model, corpus, steps=120, learning_rate=0.5, batch_size=4)
        assert history[-1][1] < 0.8 * history[0][1]
        assert len(history) == 120
        assert model.step == 120
        assert model.meta["pretrained"] == "1"
        final_loss = float(next_token_loss(model, pattern)[0].data)
        assert final_loss < math.log(config.vocab_size)

    def test_reproducible(self):
        corpus = random_corpus(TINY, 8, np.random.default_rng(1))

        def train():
            model, _ = pretrain(init_model(TINY), corpus, steps=25, learning_rate=0.2)
            return model

        a, b = train(), train()
        assert a.fingerprint() == b.fingerprint()

    def test_nan_aborts_with_step(self):
        model = init_model(TINY)
        model.params["embed"].data[0, 0] = np.nan
        corpus = random_corpus(TINY, 4, np.random.default_rng(2))
        with pytest.raises(NumericError, match="step 1"):
            pretrain(model, corpus, steps=5, learning_rate=0.1)

    @pytest.mark.parametrize("rate", [0.0, -0.1, float("nan"), float("inf")])
    def test_learning_rate_must_be_finite_and_positive(self, rate):
        model = init_model(TINY)
        corpus = random_corpus(TINY, 4, np.random.default_rng(0))
        with pytest.raises(ValidationError, match=f"learning_rate must be finite and > 0, got {rate}"):
            pretrain(model, corpus, steps=2, learning_rate=rate)


# Pretrains, then scores general importance on 15 sequences (batched
# per-sample gradient passes of 4, 4, 4 and 3); prints the checkpoint's and
# the scores' fingerprints.
PRETRAIN_SCRIPT = """
import warnings
import numpy as np
from dualprune.corpus import Corpus
from dualprune.importance import general_importance
from dualprune.model import ModelConfig, init_model, pretrain
from dualprune.pruning import score_content_fingerprint
rng = np.random.default_rng(0)
corpus = Corpus("rand", [rng.integers(0, 256, size=64) for _ in range(32)])
model, _ = pretrain(init_model(ModelConfig()), corpus, steps=20, learning_rate=0.3)
print(model.fingerprint())
calibration = Corpus("cal", rng.integers(0, 256, size=(15, 64)))
with warnings.catch_warnings():
    warnings.simplefilter("ignore", UserWarning)  # not converged after 20 steps
    G = general_importance(model, calibration)
print(score_content_fingerprint(G.scores))
"""


class TestBlasPin:
    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores to run BLAS on two threads")
    def test_checkpoint_independent_of_blas_threads(self, package_env):
        fingerprints = []
        for threads in ("1", "2"):
            env = dict(package_env, OPENBLAS_NUM_THREADS=threads)
            done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c",
                                   PRETRAIN_SCRIPT], env=env, capture_output=True, text=True,
                                  timeout=300)
            assert done.returncode == 0, done.stderr
            fingerprints.append(done.stdout.split())
        assert len(fingerprints[0]) == 2
        assert fingerprints[0] == fingerprints[1]

    def test_missing_setter_warns(self, monkeypatch):
        monkeypatch.setattr(dualprune, "_loaded_openblas", lambda: [])
        with pytest.warns(RuntimeWarning, match="not pinned"):
            dualprune._pin_blas_threads()


# Minor page faults of 20 default-config steps, after one step has grown the heap.
FAULT_SCRIPT = """
import resource
import numpy as np
import dualprune
from dualprune.corpus import Corpus
from dualprune.model import ModelConfig, init_model, pretrain
corpus = Corpus("rand", np.random.default_rng(0).integers(0, 256, size=(32, 64)))
pretrain(init_model(ModelConfig()), corpus, steps=1, learning_rate=0.3)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
pretrain(init_model(ModelConfig()), corpus, steps=20, learning_rate=0.3)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestMallocPin:
    @pytest.mark.skipif(getattr(ctypes.CDLL(None), "mallopt", None) is None,
                        reason="the C library has no mallopt")
    def test_steps_reuse_the_heap_after_import(self, package_env):
        # unpinned, the step's megabyte temporaries are mapped afresh: about
        # 9,000 faults against a few hundred pinned
        done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", FAULT_SCRIPT],
                              env=package_env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 2000

    @pytest.mark.parametrize("refuses,unset", [
        (None, "M_ARENA_MAX, M_MMAP_THRESHOLD, M_TRIM_THRESHOLD"),  # no mallopt
        ({-3}, "M_MMAP_THRESHOLD"),
        ({-8, -1}, "M_ARENA_MAX, M_TRIM_THRESHOLD"),
        (set(), None)], ids=["missing", "refuses-mmap", "refuses-arena-and-trim", "accepts"])
    def test_one_warning_names_each_setting_not_applied(self, refuses, unset):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return int(param not in refuses)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            dualprune._pin_malloc(None if refuses is None else mallopt)
        assert calls == ([] if refuses is None else [(-8, 1), (-3, 1 << 30), (-1, 1 << 30)])
        assert [(w.category, str(w.message)) for w in caught] == ([] if unset is None else [
            (RuntimeWarning, f"dualprune: could not set malloc's {unset}, so passes may run "
                             "slower or hold more memory, with the same results")])


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = init_model(TINY)
        model.step = 42
        model.meta["converged"] = "1"
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == TINY
        assert loaded.step == 42
        assert loaded.meta["converged"] == "1"
        for name, t in model.params.items():
            assert np.array_equal(t.data, loaded.params[name].data), name
        assert loaded.fingerprint() == model.fingerprint()

    def test_save_deterministic(self, tmp_path):
        model = init_model(TINY)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, a)
        save_checkpoint(model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_corrupted_magic_rejected(self, tmp_path):
        model = init_model(TINY)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ArtifactError, match="magic"):
            load_checkpoint(path)

    def test_wrong_kind_rejected(self, tmp_path):
        from dualprune.container import write_container

        path = tmp_path / "other.bin"
        write_container(path, "mask", {}, [])
        with pytest.raises(ArtifactError):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value, message", [
        ("config.num_heads", "3", r"d_model \(16\) must be divisible by num_heads \(3\)"),
        ("config.num_layers", "0", r"ModelConfig\.num_layers must be an int >= 1, got 0"),
        ("step", "-5", "step must be >= 0, got -5"),
    ], ids=["num-heads-3", "num-layers-0", "negative-step"])
    def test_bad_metadata_is_an_artifact_error(self, tmp_path, key, value, message):
        from dualprune.container import read_container, write_container

        path = tmp_path / "m.ckpt"
        save_checkpoint(init_model(TINY), path)
        c = read_container(path, expect_kind="checkpoint")
        write_container(path, c.kind, {**c.meta, key: value}, list(c.blocks.items()))
        with pytest.raises(ArtifactError, match=rf"^checkpoint {re.escape(str(path))}: .*{message}"):
            load_checkpoint(path)

    def test_copy_is_independent(self):
        model = init_model(TINY)
        clone = model.copy()
        clone.params["embed"].data[0, 0] += 5.0
        assert model.params["embed"].data[0, 0] != clone.params["embed"].data[0, 0]
