"""Fisher estimates, general importance, regularized gradients, dual scores, oracle."""

import re
import sys
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from dualprune import importance
from dualprune import model as model_lib
from dualprune import tensor as T
from dualprune.corpus import Corpus
from dualprune.errors import NumericError, ShapeError, ValidationError
from dualprune.importance import (
    ImportanceMatrixG,
    _PairwiseSum,
    brute_force_importance,
    dual_importance_scores,
    estimate_fisher_diagonal,
    general_importance,
    load_dual_scores,
    load_general_scores,
    next_token_gradients,
    regularizer_gradient,
    save_dual_scores,
    save_general_scores,
    score_from_first_order,
)
from dualprune.model import (
    EVAL_BATCH,
    ModelConfig,
    batch_next_token_loss,
    init_model,
    mean_corpus_loss,
    next_token_loss,
    pretrain,
    prunable_names,
)
from dualprune.pruning import select_mask_per_matrix

TINY = ModelConfig(vocab_size=32, context_length=16, num_layers=1, d_model=16,
                   num_heads=2, d_ff=24, seed=3)


@pytest.fixture(scope="module")
def tiny_model():
    model = init_model(TINY)
    rng = np.random.default_rng(0)
    corpus = Corpus("warm", [rng.integers(0, TINY.vocab_size, size=16) for _ in range(16)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model, _ = pretrain(model, corpus, steps=60, learning_rate=0.3, batch_size=4)
    return model


@pytest.fixture
def two_sample_corpus():
    rng = np.random.default_rng(1)
    return Corpus("two", [rng.integers(0, TINY.vocab_size, size=16) for _ in range(2)])


def sample_gradient(model, seq):
    loss, tape = next_token_loss(model, seq)
    return model.grads_by_name(T.backward(tape, loss))


class TestGradientStats:
    def test_single_sample_mean_is_that_gradient(self, tiny_model, two_sample_corpus):
        seq = two_sample_corpus.sequences[0]
        stats = next_token_gradients(tiny_model, Corpus("one", [seq]))
        direct = sample_gradient(tiny_model, seq)
        for name in prunable_names(TINY):
            assert np.array_equal(stats.mean[name], direct[name])
            assert np.array_equal(stats.mean_square[name], direct[name] ** 2)

    def test_repeated_sample_identical_mean(self, tiny_model, two_sample_corpus):
        seq = two_sample_corpus.sequences[0]
        once = next_token_gradients(tiny_model, Corpus("x1", [seq]))
        twice = next_token_gradients(tiny_model, Corpus("x2", [seq, seq]))
        for name in prunable_names(TINY):
            assert np.array_equal(once.mean[name], twice.mean[name])

    def test_finite_difference_agreement(self, tiny_model, two_sample_corpus):
        # the mean gradient over a corpus matches central differences on the mean loss
        stats = next_token_gradients(tiny_model, two_sample_corpus)
        rng = np.random.default_rng(2)
        from dualprune.model import mean_corpus_loss

        step = 1e-5
        worst = 0.0
        for name in ("layers.0.q", "layers.0.down", "layers.0.up"):
            flat = tiny_model.params[name].data.reshape(-1)
            for _ in range(2):
                idx = int(rng.integers(0, flat.size))
                original = flat[idx]
                flat[idx] = original + step
                plus = mean_corpus_loss(tiny_model, two_sample_corpus)
                flat[idx] = original - step
                minus = mean_corpus_loss(tiny_model, two_sample_corpus)
                flat[idx] = original
                fd = (plus - minus) / (2 * step)
                an = stats.mean[name].reshape(-1)[idx]
                worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), 1e-6))
        assert worst < 1e-4


# The last token id; of the sequences of `chunked_corpus`, only sample 9 holds it.
RARE_ID = TINY.vocab_size - 1


@pytest.fixture
def chunked_corpus():
    """13 sequences of 16 tokens: three full gradient chunks of 4 and a partial one of 1.

    `RARE_ID` occurs only in sample 9, the second of the third chunk.
    """
    rng = np.random.default_rng(7)
    seqs = rng.integers(0, RARE_ID, size=(13, 16))
    seqs[9, 5] = RARE_ID
    return Corpus("chunked", seqs)


def per_sequence_stats(model, corpus, reverse=False):
    """`next_token_gradients` as a plain loop: one batch-1 pass per sequence
    in this thread, reduced in corpus order or, with `reverse`, in the
    opposite order."""
    acc_g, acc_g2 = _PairwiseSum(), _PairwiseSum()
    names = prunable_names(model.config)
    seqs = corpus.sequences[::-1] if reverse else corpus.sequences
    for seq in seqs:
        g = sample_gradient(model, seq)
        acc_g.add({k: g[k] for k in names})
        acc_g2.add({k: g[k] * g[k] for k in names})
    return acc_g.mean(), acc_g2.mean()


def stats_bytes(mean, mean_square):
    return [(k, mean[k].tobytes(), mean_square[k].tobytes()) for k in mean]


class TestBatchedGradients:
    def test_per_sample_backward_matches_batch_one(self, tiny_model, chunked_corpus):
        names = prunable_names(TINY)
        weights = [tiny_model.params[k] for k in names]
        # batches of 4, 3, 2 and 1 rows: one row block each, as every gradient chunk
        for batch in np.split(chunked_corpus.sequences[:10], [4, 7, 9]):
            tape = T.GradientTape()
            with tape:
                loss = batch_next_token_loss(tiny_model, batch)
            grads = T.backward(tape, loss, weights, samples=len(batch))
            assert set(grads) == {w.tid for w in weights}
            for b, seq in enumerate(batch):
                direct = sample_gradient(tiny_model, seq)
                for name, w in zip(names, weights):
                    assert np.array_equal(grads[w.tid].data[b], direct[name]), (len(batch), b, name)

    def test_matches_per_sequence_passes(self, tiny_model, chunked_corpus):
        stats = next_token_gradients(tiny_model, chunked_corpus)
        mean, mean_square = per_sequence_stats(tiny_model, chunked_corpus)
        assert list(stats.mean) == prunable_names(TINY)
        for name in prunable_names(TINY):
            assert np.array_equal(stats.mean[name], mean[name]), name
            assert np.array_equal(stats.mean_square[name], mean_square[name]), name

    def test_non_finite_gradient_names_sample(self, tiny_model, chunked_corpus):
        # the residual stream turns infinite in the sequences that hold RARE_ID: sample 9 alone
        broken = tiny_model.copy()
        embed = broken.embed

        def embed_breaking_rare(ids):
            h = embed(ids)
            h.data[(ids == RARE_ID).any(axis=1)] = np.inf
            return h

        broken.embed = embed_breaking_rare
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(NumericError, match=r"non-finite gradient for layers\.0\.q on sample 9$"):
                next_token_gradients(broken, chunked_corpus)


class TestGradientPool:
    # 4k + 3 sequences, so that the last chunk of 4 is short; seeded so that
    # reducing the samples in another order changes the results' last bits
    SEQS = np.random.default_rng(11).integers(0, RARE_ID, size=(4 * 5 + 3, 16))

    def test_pool_size_and_chunk_size_change_no_bit(self, tiny_model, eval_pool, monkeypatch):
        corpus = Corpus("pool", self.SEQS)
        expected = stats_bytes(*per_sequence_stats(tiny_model, corpus))
        assert stats_bytes(*per_sequence_stats(tiny_model, corpus, reverse=True)) != expected
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the workers' Python code finely
        try:
            for workers in (1, 2, 8):  # 8: more workers than cores
                eval_pool(workers)
                for chunk in range(1, model_lib.MIN_BLOCK_ROWS + 1):
                    monkeypatch.setattr(model_lib, "MIN_BLOCK_ROWS", chunk)
                    stats = next_token_gradients(tiny_model, corpus)
                    assert stats_bytes(stats.mean, stats.mean_square) == expected, (workers, chunk)
        finally:
            sys.setswitchinterval(interval)

    def test_first_non_finite_chunk_in_corpus_order_raises(self, tiny_model, eval_pool,
                                                           monkeypatch):
        # chunks 1 (samples 4..7) and 5 (20..22) turn infinite; chunk 1 is held
        # back until chunk 5 is done, and chunk 2 is still running at the raise
        seqs = self.SEQS.copy()
        seqs[[5, 7, 21], 3] = RARE_ID
        broken = tiny_model.copy()
        embed = broken.embed
        chunk_five_done = threading.Event()
        lock = threading.Lock()
        running = [0]

        def embed_breaking_rare(ids):
            h = embed(ids)
            if (ids == RARE_ID).any() and len(ids) == 4:  # chunk 1
                chunk_five_done.wait(timeout=10)
            h.data[(ids == RARE_ID).any(axis=1)] = np.inf
            return h

        chunk_sums = importance._chunk_sums

        def chunk_sums_observed(model, weights, batch, start):
            with lock:
                running[0] += 1
            try:
                if np.array_equal(batch, seqs[8:12]):  # chunk 2
                    time.sleep(0.3)
                return chunk_sums(model, weights, batch, start)
            finally:
                if len(batch) == 3:  # chunk 5
                    chunk_five_done.set()
                with lock:
                    running[0] -= 1

        broken.embed = embed_breaking_rare
        monkeypatch.setattr(importance, "_chunk_sums", chunk_sums_observed)
        eval_pool(6)  # all six chunks in flight at once
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("error")  # a worker outside the caller's errstate would warn
            with pytest.raises(NumericError, match=r"non-finite gradient for layers\.0\.q on sample 5$"):
                next_token_gradients(broken, Corpus("broken", seqs))
        assert chunk_five_done.is_set()
        assert running[0] == 0

    def test_tape_active_in_the_caller_records_nothing(self, tiny_model):
        corpus = Corpus("pool", self.SEQS)
        tape = T.GradientTape()
        with tape:
            stats = next_token_gradients(tiny_model, corpus)
        assert tape.records == []
        assert stats_bytes(stats.mean, stats.mean_square) == stats_bytes(
            *per_sequence_stats(tiny_model, corpus))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_chunks_in_flight_never_exceed_the_workers(self, tiny_model, eval_pool, monkeypatch,
                                                       workers):
        # a chunk is in flight from the start of its forward pass until the
        # caller has added its last sum to the accumulators; one chunk more
        # than the workers waits queued while the caller adds, and what a
        # chunk hands back holds no per-sample array
        sums = []

        class CountingSum(_PairwiseSum):
            def __init__(self):
                super().__init__()
                sums.append(self)

        started = []
        lock = threading.Lock()
        batch_loss = model_lib.batch_next_token_loss
        chunk_sums = importance._chunk_sums
        shapes = [tiny_model.params[k].data.shape for k in prunable_names(TINY)]
        handed_back = []

        def counting_batch_loss(model, batch):
            with lock:
                reduced = min(s.count for s in sums) // model_lib.MIN_BLOCK_ROWS
                started.append(len(started) + 1 - reduced)
            return batch_loss(model, batch)

        def observed_chunk_sums(*args):
            finite, blocks = chunk_sums(*args)
            handed_back.extend(pair for _, g, g2 in blocks for pair in zip(g + g2, shapes * 2))
            return finite, blocks

        monkeypatch.setattr(importance, "_PairwiseSum", CountingSum)
        monkeypatch.setattr(importance, "_chunk_sums", observed_chunk_sums)
        monkeypatch.setattr(model_lib, "batch_next_token_loss", counting_batch_loss)
        eval_pool(workers)
        next_token_gradients(tiny_model, Corpus("pool", self.SEQS))
        assert len(started) == 6
        assert max(started) <= workers + 1
        # 4 + 4 + 4 + 4 + 4 + (2 + 1) samples: one block a chunk, two for the last
        assert len(handed_back) == 7 * 2 * len(shapes)
        # each sum has its weight's shape and owns its memory: none is a view
        # that keeps a chunk's (n, *shape) per-sample array alive
        assert all(a.shape == shape and a.base is None for a, shape in handed_back)


class TestLevelAdd:
    # random samples of two matrices, so that adding them in another order
    # changes the sums' last bits
    SAMPLES = [np.random.default_rng(5).standard_normal((40, 3, 5)),
               np.random.default_rng(6).standard_normal((40, 4))]

    @staticmethod
    def one_by_one(samples, n, reverse=False):
        acc = _PairwiseSum()
        for b in (range(n)[::-1] if reverse else range(n)):
            acc.add({"a": samples[0][b], "b": samples[1][b]})
        return [v.tobytes() for v in acc.mean().values()]

    def test_order_changes_the_bytes(self):
        assert self.one_by_one(self.SAMPLES, 40, reverse=True) != self.one_by_one(self.SAMPLES, 40)

    @pytest.mark.parametrize("chunk", range(1, 10))
    def test_dyadic_blocks_of_each_chunk_add_bit_identically(self, chunk):
        for n in range(1, 41):
            acc = _PairwiseSum()
            for start in range(0, n, chunk):
                rows = slice(start, min(start + chunk, n))
                for level, (a, b) in importance._dyadic_sums([g[rows] for g in self.SAMPLES],
                                                             start):
                    assert a.shape == (3, 5) and b.shape == (4,)
                    acc.add({"a": a, "b": b}, level)
            assert acc.count == n, (n, chunk)
            assert [v.tobytes() for v in acc.mean().values()] == self.one_by_one(
                self.SAMPLES, n), (n, chunk)

    def test_misaligned_level_add_raises(self):
        for n in range(1, 41):
            acc = _PairwiseSum()
            for b in range(n):
                acc.add({"a": self.SAMPLES[0][b]})
            # 2**level does not divide n
            level = (n & -n).bit_length()
            with pytest.raises(ValueError, match=f"level-{level} sum cannot follow {n} samples"):
                acc.add({"a": self.SAMPLES[0][0]}, level)
            assert acc.count == n


class TestFisher:
    def test_single_sample_exact_square(self, tiny_model, two_sample_corpus):
        seq = two_sample_corpus.sequences[0]
        fisher = estimate_fisher_diagonal(tiny_model, Corpus("one", [seq]))
        direct = sample_gradient(tiny_model, seq)
        for name in prunable_names(TINY):
            assert np.array_equal(fisher[name], direct[name] ** 2)

    def test_duplicated_corpus_identical(self, tiny_model, two_sample_corpus):
        s1, s2 = two_sample_corpus.sequences
        base = estimate_fisher_diagonal(tiny_model, two_sample_corpus)
        dup = estimate_fisher_diagonal(tiny_model, Corpus("dup", [s1, s1, s2, s2]))
        for name in prunable_names(TINY):
            assert np.array_equal(base[name], dup[name]), name

    def test_two_sample_hand_accumulation(self, tiny_model, two_sample_corpus):
        s1, s2 = two_sample_corpus.sequences
        fisher = estimate_fisher_diagonal(tiny_model, two_sample_corpus)
        g1 = sample_gradient(tiny_model, s1)
        g2 = sample_gradient(tiny_model, s2)
        for name in prunable_names(TINY):
            hand = (g1[name] ** 2 + g2[name] ** 2) / 2.0
            assert np.array_equal(fisher[name], hand), name

    def test_nonnegative(self, tiny_model, two_sample_corpus):
        fisher = estimate_fisher_diagonal(tiny_model, two_sample_corpus)
        assert all((v >= 0).all() for v in fisher.values())

    def test_nan_gradient_aborts_with_sample(self, tiny_model, two_sample_corpus):
        broken = tiny_model.copy()
        broken.params["layers.0.q"].data[0, 0] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match="sample 0"):
                estimate_fisher_diagonal(broken, two_sample_corpus)


class TestGeneralImportance:
    def test_zero_weight_zero_score(self, tiny_model, two_sample_corpus):
        model = tiny_model.copy()
        model.params["layers.0.q"].data[2, 3] = 0.0
        G = general_importance(model, two_sample_corpus)
        assert G.scores["layers.0.q"][2, 3] == 0.0

    def test_formula(self, tiny_model, two_sample_corpus):
        damping = 1e-3
        fisher = estimate_fisher_diagonal(tiny_model, two_sample_corpus)
        G = general_importance(tiny_model, two_sample_corpus, damping)
        for name in prunable_names(TINY):
            w = tiny_model.params[name].data
            expected = 0.5 * w * w * (fisher[name] + damping)
            assert np.array_equal(G.scores[name], expected), name

    def test_metadata(self, tiny_model, two_sample_corpus):
        G = general_importance(tiny_model, two_sample_corpus, 1e-3)
        assert G.damping == 1e-3
        assert G.sample_count == 2
        assert G.corpus_fingerprint == two_sample_corpus.fingerprint()
        assert G.model_fingerprint == tiny_model.fingerprint()

    def test_damping_validation(self, tiny_model, two_sample_corpus):
        with pytest.raises(ValidationError, match="damping"):
            general_importance(tiny_model, two_sample_corpus, 0.0)

    @pytest.mark.parametrize("damping", [float("nan"), float("inf")])
    def test_non_finite_damping_rejected(self, tiny_model, two_sample_corpus, damping):
        with pytest.raises(ValidationError, match=f"damping must be finite and > 0, got {damping}"):
            general_importance(tiny_model, two_sample_corpus, damping)

    def test_untrained_model_warns(self, two_sample_corpus):
        fresh = init_model(TINY)
        with pytest.warns(UserWarning, match="pretrained"):
            general_importance(fresh, two_sample_corpus)

    def test_nonnegative(self, tiny_model, two_sample_corpus):
        G = general_importance(tiny_model, two_sample_corpus)
        assert all((s >= 0).all() for s in G.scores.values())


class TestRegularizerGradient:
    def _parts(self, tiny_model, corpus):
        G = general_importance(tiny_model, corpus)
        stats = next_token_gradients(tiny_model, corpus)
        return G, stats.mean, stats.mean_square

    def test_lambda_zero_gives_zeros(self, tiny_model, two_sample_corpus):
        G, g, H = self._parts(tiny_model, two_sample_corpus)
        out = regularizer_gradient(G, g, H, 0.0, 0.03)
        assert all(np.all(v == 0) for v in out.values())

    def test_arithmetic_example(self):
        G = ImportanceMatrixG({"m": np.array([[1.0]])}, 1e-4, 1, "c", "m")
        H = {"m": np.array([[2.0]])}
        out = regularizer_gradient(G, {"m": np.array([[0.5]])}, H, 0.1, 0.03)
        assert out["m"][0, 0] == pytest.approx(1.8e-4, rel=1e-12)

    def test_sign_matches_gradient(self, tiny_model, two_sample_corpus):
        G, g, H = self._parts(tiny_model, two_sample_corpus)
        out = regularizer_gradient(G, g, H, 0.5, 0.03)
        for name in out:
            nonzero = out[name] != 0
            assert np.all(np.sign(out[name][nonzero]) == np.sign(g[name][nonzero])), name

    def test_lambda_alpha_factorization(self, tiny_model, two_sample_corpus):
        G, g, H = self._parts(tiny_model, two_sample_corpus)
        a = regularizer_gradient(G, g, H, 0.2, 0.05)
        b = regularizer_gradient(G, g, H, 0.7, 0.01)
        for name in G.scores:
            assert np.allclose(a[name] / (0.2 * 0.05**2), b[name] / (0.7 * 0.01**2),
                               rtol=1e-12, atol=0), name

    def test_shape_mismatch_rejected(self, tiny_model, two_sample_corpus):
        G, g, H = self._parts(tiny_model, two_sample_corpus)
        bad = {k: (v[:, :-1] if k == "layers.0.q" else v) for k, v in g.items()}
        with pytest.raises(ShapeError):
            regularizer_gradient(G, bad, H, 0.1, 0.03)

    def test_negative_lambda_rejected(self, tiny_model, two_sample_corpus):
        G, g, H = self._parts(tiny_model, two_sample_corpus)
        with pytest.raises(ValidationError, match="lambda"):
            regularizer_gradient(G, g, H, -0.1, 0.03)


class TestDualLossGradient:
    """The regularized-loss gradient, observed through the scores it yields."""

    @staticmethod
    def scores_of(model, total):
        return {k: score_from_first_order(total[k] * model.params[k].data) for k in total}

    def test_lambda_zero_bit_identical(self, tiny_model, two_sample_corpus):
        # the +-0 regularizer term can flip only the sign of a zero gradient,
        # and |u + u^2/2| maps both signs to +0
        G = general_importance(tiny_model, two_sample_corpus)
        plain = self.scores_of(tiny_model, next_token_gradients(tiny_model, two_sample_corpus).mean)
        S = dual_importance_scores(tiny_model, two_sample_corpus, G, lam=0.0)
        for name in prunable_names(TINY):
            assert S.scores[name].tobytes() == plain[name].tobytes(), name

    def test_default_regularizer_keeps_the_lambda_zero_mask(self, tiny_model, two_sample_corpus):
        # The pull toward general importance does not change which weights
        # the 50% mask keeps at the default lambda and alpha: the mask equals
        # the lambda = 0 mask.  A regularizer that does change the mask fails
        # here, and this test should then assert the mask delta instead.
        G = general_importance(tiny_model, two_sample_corpus)
        dual = select_mask_per_matrix(dual_importance_scores(tiny_model, two_sample_corpus, G), 0.5)
        plain = select_mask_per_matrix(
            dual_importance_scores(tiny_model, two_sample_corpus, G, lam=0.0), 0.5)
        for name in prunable_names(TINY):
            assert np.array_equal(dual.masks[name], plain.masks[name]), name

    def test_lambda_positive_differs(self, tiny_model, two_sample_corpus):
        G = general_importance(tiny_model, two_sample_corpus)
        with_reg = dual_importance_scores(tiny_model, two_sample_corpus, G, lam=10.0).scores
        without = dual_importance_scores(tiny_model, two_sample_corpus, G, lam=0.0).scores
        assert any(not np.array_equal(with_reg[n], without[n]) for n in with_reg)

    def test_equals_sum_of_parts(self, tiny_model, two_sample_corpus):
        G = general_importance(tiny_model, two_sample_corpus)
        lam, alpha = 0.1, 0.03
        S = dual_importance_scores(tiny_model, two_sample_corpus, G, lam, alpha)
        stats = next_token_gradients(tiny_model, two_sample_corpus)
        reg = regularizer_gradient(G, stats.mean, stats.mean_square, lam, alpha)
        parts = self.scores_of(tiny_model, {k: stats.mean[k] + reg[k] for k in stats.mean})
        for name in S.scores:
            assert np.array_equal(S.scores[name], parts[name]), name


class TestDualScores:
    def test_score_formula_examples(self):
        assert score_from_first_order(np.array([0.0]))[0] == 0.0
        assert score_from_first_order(np.array([-1.0]))[0] == pytest.approx(0.5)

    def test_zero_weight_zero_score(self, tiny_model, two_sample_corpus):
        model = tiny_model.copy()
        model.params["layers.0.v"].data[1, 1] = 0.0
        G = general_importance(model, two_sample_corpus)
        S = dual_importance_scores(model, two_sample_corpus, G)
        assert S.scores["layers.0.v"][1, 1] == 0.0

    def test_nonnegative_and_shapes(self, tiny_model, two_sample_corpus):
        G = general_importance(tiny_model, two_sample_corpus)
        S = dual_importance_scores(tiny_model, two_sample_corpus, G)
        for name in prunable_names(TINY):
            assert S.scores[name].shape == tiny_model.params[name].data.shape
            assert (S.scores[name] >= 0).all()

    def test_metadata(self, tiny_model, two_sample_corpus):
        G = general_importance(tiny_model, two_sample_corpus)
        S = dual_importance_scores(tiny_model, two_sample_corpus, G, lam=0.2, alpha=0.05)
        assert S.lam == 0.2 and S.alpha == 0.05
        assert S.sample_count == 2
        assert S.domain_corpus_fingerprint == two_sample_corpus.fingerprint()
        assert S.general_corpus_fingerprint == G.corpus_fingerprint
        assert S.model_fingerprint == G.model_fingerprint == tiny_model.fingerprint()

    def test_general_scores_of_another_model_rejected(self, tiny_model, two_sample_corpus):
        G = general_importance(tiny_model, two_sample_corpus)
        other = tiny_model.copy()
        other.params["layers.0.q"].data[0, 0] += 1.0
        with pytest.raises(ValidationError, match="different model"):
            dual_importance_scores(other, two_sample_corpus, G)

    @pytest.mark.parametrize("lam,alpha,field", [
        (-0.1, 0.03, "lambda"), (0.1, 0.0, "alpha"),
        (float("nan"), 0.03, "lambda must be finite"), (float("inf"), 0.03, "lambda must be finite"),
        (0.1, float("nan"), "alpha must be finite"), (0.1, float("inf"), "alpha must be finite"),
    ])
    def test_lambda_alpha_contract(self, tiny_model, two_sample_corpus, lam, alpha, field):
        G = general_importance(tiny_model, two_sample_corpus)
        with pytest.raises(ValidationError, match=field):
            dual_importance_scores(tiny_model, two_sample_corpus, G, lam, alpha)

    def test_deterministic(self, tiny_model, two_sample_corpus):
        G = general_importance(tiny_model, two_sample_corpus)
        a = dual_importance_scores(tiny_model, two_sample_corpus, G)
        b = dual_importance_scores(tiny_model, two_sample_corpus, G)
        for name in a.scores:
            assert np.array_equal(a.scores[name], b.scores[name])


class TestBruteForce:
    def test_zeroing_a_zero_weight(self, tiny_model, two_sample_corpus):
        model = tiny_model.copy()
        model.params["layers.0.q"].data[0, 0] = 0.0
        deltas = brute_force_importance(model, two_sample_corpus, (0, "q"), [0])
        assert deltas[0] == 0.0

    def test_nonnegative(self, tiny_model, two_sample_corpus):
        deltas = brute_force_importance(tiny_model, two_sample_corpus, (0, "q"), range(12))
        assert (deltas >= 0).all()

    def test_model_untouched(self, tiny_model, two_sample_corpus):
        fp = tiny_model.fingerprint()
        brute_force_importance(tiny_model, two_sample_corpus, (0, "up"), [0, 5])
        assert tiny_model.fingerprint() == fp

    def test_unknown_matrix_rejected(self, tiny_model, two_sample_corpus):
        with pytest.raises(ValidationError, match="prunable"):
            brute_force_importance(tiny_model, two_sample_corpus, (3, "q"), [0])

    def test_bad_index_rejected(self, tiny_model, two_sample_corpus):
        with pytest.raises(ValidationError, match="out of range"):
            brute_force_importance(tiny_model, two_sample_corpus, (0, "q"), [10**6])

    @pytest.mark.parametrize("index", [1.7, 2.0, True, np.float64(3.0), "4"])
    def test_non_integer_index_rejected(self, tiny_model, two_sample_corpus, index):
        with pytest.raises(ValidationError, match="not an integer"):
            brute_force_importance(tiny_model, two_sample_corpus, (0, "q"), [0, index])

    def test_matches_direct_evaluation(self, tiny_model, two_sample_corpus):
        idx = 7
        base = mean_corpus_loss(tiny_model, two_sample_corpus)
        clone = tiny_model.copy()
        clone.params["layers.0.k"].data.reshape(-1)[idx] = 0.0
        expected = abs(mean_corpus_loss(clone, two_sample_corpus) - base)
        got = brute_force_importance(tiny_model, two_sample_corpus, (0, "k"), [idx])[0]
        assert got == pytest.approx(expected, rel=1e-12)


# Two layers, so that the oracle resumes past a whole layer.
TWO_LAYER = ModelConfig(vocab_size=32, context_length=16, num_layers=2, d_model=16,
                        num_heads=2, d_ff=24, seed=4)


@pytest.fixture(scope="module")
def three_batch_corpus():
    """EVAL_BATCH + 3 sequences: a full eval batch of 32 and a partial one of 3."""
    rng = np.random.default_rng(8)
    return Corpus("three", rng.integers(0, TWO_LAYER.vocab_size,
                                        size=(EVAL_BATCH + 3, TWO_LAYER.context_length)))


class TestOracleIsExact:
    def test_every_matrix_matches_full_reruns(self, three_batch_corpus):
        model = init_model(TWO_LAYER)
        base = mean_corpus_loss(model, three_batch_corpus)
        rng = np.random.default_rng(9)
        for name in prunable_names(TWO_LAYER):
            _, layer, proj = name.split(".")
            size = model.params[name].size
            indices = [0, size - 1, *rng.choice(size, 2, replace=False)]
            expected = []
            for i in indices:
                zeroed = model.copy()
                zeroed.params[name].data.reshape(-1)[i] = 0.0
                expected.append(abs(mean_corpus_loss(zeroed, three_batch_corpus) - base))
            got = brute_force_importance(model, three_batch_corpus, (int(layer), proj), indices)
            assert np.array_equal(got, expected), name
            assert (got > 0).all(), name

    @pytest.mark.parametrize("name", ["layers.0.k", "layers.1.gate"])
    def test_whole_matrix_matches_full_reruns(self, three_batch_corpus, name):
        """Every weight: for layers.0.k every column of both heads, with layer 1 downstream."""
        model = init_model(TWO_LAYER)
        base = mean_corpus_loss(model, three_batch_corpus)
        _, layer, proj = name.split(".")
        got = brute_force_importance(model, three_batch_corpus, (int(layer), proj),
                                     range(model.params[name].size))
        zeroed = model.copy()
        weights = zeroed.params[name].data.reshape(-1)
        expected = []
        for i in range(weights.size):
            original = weights[i]
            weights[i] = 0.0
            expected.append(abs(mean_corpus_loss(zeroed, three_batch_corpus) - base))
            weights[i] = original
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_pool_size_changes_no_bit(self, three_batch_corpus, eval_pool, monkeypatch, workers):
        """Row blocks of 32, 16 + 16 or 11 + 11 + 10 rows, then 3 for the partial batch."""
        model = init_model(TWO_LAYER)
        block_rows = []
        row_block_loss = importance.row_block_loss

        def recording_row_block_loss(logits_of, targets):
            def recorded(r):
                block_rows.append(len(targets[r]))
                return logits_of(r)

            return row_block_loss(recorded, targets)

        monkeypatch.setattr(importance, "row_block_loss", recording_row_block_loss)
        eval_pool(workers)
        base = mean_corpus_loss(model, three_batch_corpus)
        rng = np.random.default_rng(11)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the workers' Python code finely
        try:
            for name in ["layers.0.q", "layers.0.o", "layers.1.up", "layers.1.down"]:
                indices = sorted(int(i) for i in rng.choice(model.params[name].size, 3, replace=False))
                expected = []
                for i in indices:
                    zeroed = model.copy()
                    zeroed.params[name].data.reshape(-1)[i] = 0.0
                    expected.append(abs(mean_corpus_loss(zeroed, three_batch_corpus) - base))
                _, layer, proj = name.split(".")
                block_rows.clear()
                got = brute_force_importance(model, three_batch_corpus, (int(layer), proj), indices)
                assert np.array_equal(got, expected), (workers, name)
                split = {1: [32, 3], 2: [16, 16, 3], 3: [11, 11, 10, 3]}[workers]
                # the base pass and each weight's; workers append in any order
                assert sorted(block_rows) == sorted(split * (1 + len(indices)))
        finally:
            sys.setswitchinterval(interval)

    def test_the_block_cache_is_built_inside_the_row_blocks(self, three_batch_corpus, eval_pool,
                                                            monkeypatch):
        """At 2 workers the batches run as blocks of 16 + 16 and 3 rows.  The
        input and the q, k and v branches of layers.0.k's block are built by
        the first weight's pass in each block, partly on a pool thread, and
        reused by the later weights."""
        model = init_model(TWO_LAYER)
        eval_pool(2)
        brute_force_importance(model, three_batch_corpus, (0, "k"), [0])  # the dense pass, once
        caller = threading.current_thread()
        calls = []  # (on the input model, sublayer, step, rows, thread)
        block_input = model_lib.TransformerModel.block_input
        branch = model_lib.TransformerModel.branch

        def recorded_block_input(self, s, h):
            calls.append((self is model, s, "input", h.shape[0], threading.current_thread()))
            return block_input(self, s, h)

        def recorded_branch(self, s, name, x):
            calls.append((self is model, s, name, x.shape[0], threading.current_thread()))
            return branch(self, s, name, x)

        monkeypatch.setattr(model_lib.TransformerModel, "block_input", recorded_block_input)
        monkeypatch.setattr(model_lib.TransformerModel, "branch", recorded_branch)
        brute_force_importance(model, three_batch_corpus, (0, "k"), [1, 2, 3])
        assert calls and all(rows < EVAL_BATCH for *_, rows, _ in calls)
        cached = [call for call in calls if call[:2] == (True, 0)]
        assert sorted(step for _, _, step, _, _ in cached) == sorted(["input", "q", "k", "v"] * 3)
        assert sorted(rows for _, _, _, rows, _ in cached) == [3] * 4 + [16] * 8
        assert any(thread is not caller for *_, thread in cached)
        # the zeroed branch, once per weight and block
        assert sorted(rows for own, s, step, rows, _ in calls if (own, s, step) == (False, 0, "k")) \
            == [3] * 3 + [16] * 6

    def test_unsplit_batches_match_full_reruns(self, three_batch_corpus, eval_pool, monkeypatch):
        """At one worker each batch runs as one block (`slice(None)`)."""
        model = init_model(TWO_LAYER)
        eval_pool(1)
        block_rows = []
        row_block_loss = importance.row_block_loss

        def recording_row_block_loss(logits_of, targets):
            def recorded(r):
                block_rows.append(len(targets[r]))
                return logits_of(r)

            return row_block_loss(recorded, targets)

        monkeypatch.setattr(importance, "row_block_loss", recording_row_block_loss)
        base = mean_corpus_loss(model, three_batch_corpus)
        for name in ["layers.0.q", "layers.1.gate"]:
            indices = [0, 5, model.params[name].size - 1]
            expected = []
            for i in indices:
                zeroed = model.copy()
                zeroed.params[name].data.reshape(-1)[i] = 0.0
                expected.append(abs(mean_corpus_loss(zeroed, three_batch_corpus) - base))
            _, layer, proj = name.split(".")
            block_rows.clear()
            got = brute_force_importance(model, three_batch_corpus, (int(layer), proj), indices)
            assert np.array_equal(got, expected), name
            assert sorted(block_rows) == [3] * 4 + [EVAL_BATCH] * 4  # the base pass and each weight's

    def test_memo_follows_in_place_edits(self, three_batch_corpus):
        """Interleaved calls over every matrix, two models and two corpora.  Within each
        run of three calls on one (model, corpus) pair, a weight of that model object
        is edited in place before the second call, as `pretrain` does, and a row of
        that corpus before the third: the dense streams the oracle keeps must follow."""
        rng = np.random.default_rng(10)
        models = [init_model(TWO_LAYER), init_model(replace(TWO_LAYER, seed=5))]
        corpora = [Corpus("three", three_batch_corpus.sequences.copy()),  # partial eval batch
                   Corpus("full", rng.integers(0, TWO_LAYER.vocab_size,
                                                size=(EVAL_BATCH, TWO_LAYER.context_length)))]
        names = prunable_names(TWO_LAYER)
        order = [names[(5 * k) % len(names)] for k in range(2 * len(names))]
        for k, name in enumerate(order):
            model, corpus = models[k // 3 % 2], corpora[k // 6 % 2]
            if k % 3 == 1:
                edited = names[int(rng.integers(len(names)))]
                model.params[edited].data -= 0.1 * rng.normal(size=model.params[edited].shape)
            elif k % 3 == 2:
                corpus.sequences[int(rng.integers(len(corpus)))] = rng.integers(
                    0, TWO_LAYER.vocab_size, size=TWO_LAYER.context_length)
            size = model.params[name].size
            indices = sorted(int(i) for i in rng.choice(size, 2, replace=False))
            base = mean_corpus_loss(model, corpus)
            expected = []
            for i in indices:
                zeroed = model.copy()
                zeroed.params[name].data.reshape(-1)[i] = 0.0
                expected.append(abs(mean_corpus_loss(zeroed, corpus) - base))
            _, layer, proj = name.split(".")
            got = brute_force_importance(model, corpus, (int(layer), proj), indices)
            assert np.array_equal(got, expected), (k, name)
        # one entry, for the last call: 2L + 1 streams per eval batch, the
        # embedding's first
        key, streams = importance._dense_streams
        assert key == (model.fingerprint(), corpus.fingerprint())
        assert [len(states) for states in streams] == [2 * TWO_LAYER.num_layers + 1] * 2
        embedded = model.embed(corpus.sequences[:EVAL_BATCH, :-1])
        assert np.array_equal(streams[0][0].data, embedded.data)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_weight_raises(self, three_batch_corpus, value):
        model = init_model(TWO_LAYER)
        model.params["layers.0.gate"].data[1, 2] = value
        with np.errstate(invalid="ignore", over="ignore"):
            for matrix_id in [(0, "q"), (1, "down")]:
                with pytest.raises(NumericError, match=r"non-finite loss nan on sequences 0\.\.31$"):
                    brute_force_importance(model, three_batch_corpus, matrix_id, [0])

    def test_a_raise_leaves_no_pass_running(self, three_batch_corpus, eval_pool, monkeypatch):
        """The passes run on the caller and offer their row blocks to the pool;
        when a batch's loss raises, the call returns only after every block
        has ended, and starts none after."""
        lock = threading.Lock()
        running, started, offered = [0], [0], [0]
        forward = model_lib.TransformerModel.forward
        caller = threading.current_thread()

        def counted_forward(self, ids, resume=None):
            with lock:
                running[0] += 1
                started[0] += 1
            try:
                if threading.current_thread() is not caller:  # a block the caller must wait for
                    offered[0] += 1
                    time.sleep(0.3)
                return forward(self, ids, resume)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(model_lib.TransformerModel, "forward", counted_forward)
        model = init_model(TWO_LAYER)
        model.params["layers.0.gate"].data[1, 2] = np.nan
        eval_pool(2)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match=r"non-finite loss nan on sequences 0\.\.31$"):
                brute_force_importance(model, three_batch_corpus, (0, "q"), [0, 1, 2])
        with lock:
            assert running[0] == 0
            at_raise = started[0]
        time.sleep(0.5)
        assert started[0] == at_raise
        assert offered[0] == 1  # the second half of the base pass's first batch

    @pytest.mark.parametrize("lengths", [[TWO_LAYER.context_length + 2]], ids=["over-long"])
    def test_bad_corpus_raises_what_mean_corpus_loss_raises(self, lengths):
        model = init_model(TWO_LAYER)
        corpus = Corpus("bad", [np.arange(n) % TWO_LAYER.vocab_size for n in lengths])
        with pytest.raises(ValidationError) as expected:
            mean_corpus_loss(model, corpus)
        for matrix_id in [(0, "q"), (1, "down")]:
            with pytest.raises(ValidationError, match=re.escape(str(expected.value))):
                brute_force_importance(model, corpus, matrix_id, [0])


# Every stage that runs the model on a corpus, as a call on (model, corpus).
CORPUS_STAGES = {
    "pretrain": lambda m, c: pretrain(m.copy(), c, steps=1, learning_rate=0.1),
    "mean_corpus_loss": mean_corpus_loss,
    "next_token_gradients": next_token_gradients,
    "brute_force_importance": lambda m, c: brute_force_importance(m, c, (0, "down"), [0]),
}


class TestLengthRule:
    """One rule at every stage: a sequence of length L feeds L - 1 inputs, so
    L - 1 <= context_length."""

    @pytest.mark.parametrize("stage", CORPUS_STAGES)
    def test_context_length_plus_one_accepted(self, tiny_model, stage):
        rows = np.arange(2 * (TINY.context_length + 1)).reshape(2, -1) % TINY.vocab_size
        CORPUS_STAGES[stage](tiny_model, Corpus("fits", rows))

    @pytest.mark.parametrize("stage", CORPUS_STAGES)
    def test_context_length_plus_two_rejected(self, tiny_model, stage):
        corpus = Corpus("long", np.zeros((2, TINY.context_length + 2), dtype=np.int64))
        with pytest.raises(ValidationError, match=r"^forward: length 17 outside \[1, 16\]$"):
            CORPUS_STAGES[stage](tiny_model, corpus)


class TestScorePersistence:
    def test_general_round_trip(self, tiny_model, two_sample_corpus, tmp_path):
        G = general_importance(tiny_model, two_sample_corpus)
        path = tmp_path / "g.bin"
        save_general_scores(G, path)
        loaded = load_general_scores(path)
        assert loaded.damping == G.damping
        assert loaded.sample_count == G.sample_count
        assert loaded.model_fingerprint == G.model_fingerprint
        for name in G.scores:
            assert np.array_equal(loaded.scores[name], G.scores[name])

    def test_dual_round_trip(self, tiny_model, two_sample_corpus, tmp_path):
        G = general_importance(tiny_model, two_sample_corpus)
        S = dual_importance_scores(tiny_model, two_sample_corpus, G)
        path = tmp_path / "s.bin"
        save_dual_scores(S, path)
        loaded = load_dual_scores(path)
        assert loaded.lam == S.lam and loaded.alpha == S.alpha
        for name in S.scores:
            assert np.array_equal(loaded.scores[name], S.scores[name])

    def test_write_deterministic(self, tiny_model, two_sample_corpus, tmp_path):
        G = general_importance(tiny_model, two_sample_corpus)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_general_scores(G, a)
        save_general_scores(G, b)
        assert a.read_bytes() == b.read_bytes()
