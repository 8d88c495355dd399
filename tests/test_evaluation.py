"""Perplexity reports, mask similarity, sparsity sweeps, CSV writers."""

import csv
import warnings

import numpy as np
import pytest

from dualprune.corpus import Corpus
from dualprune.errors import ValidationError
from dualprune.evaluation import (
    mask_similarity,
    perplexity,
    sparsity_sweep,
    write_eval_report,
    write_similarity_grid,
    write_sweep_csv,
    zero_fractions,
)
from dualprune.importance import dual_importance_scores, general_importance
from dualprune.model import ModelConfig, init_model, pretrain, prunable_names
from dualprune.pruning import Mask, magnitude_mask, select_mask_per_matrix

TINY = ModelConfig(vocab_size=32, context_length=16, num_layers=1, d_model=16,
                   num_heads=2, d_ff=24, seed=3)
FULL = ModelConfig()


def random_corpus(config, n, seed, length=None):
    rng = np.random.default_rng(seed)
    length = length or config.context_length
    return Corpus("rand", [rng.integers(0, config.vocab_size, size=length) for _ in range(n)])


def make_mask(config, sparsity, seed):
    rng = np.random.default_rng(seed)
    model = init_model(config)
    scores = {name: rng.random(model.params[name].data.shape) for name in prunable_names(config)}
    return select_mask_per_matrix(scores, sparsity)


class TestPerplexity:
    def test_untrained_near_vocab_size(self):
        model = init_model(FULL)
        report = perplexity(model, random_corpus(FULL, 16, 0))
        assert abs(report.perplexity - 256) / 256 < 0.25

    def test_equals_exp_mean_loss(self):
        model = init_model(TINY)
        report = perplexity(model, random_corpus(TINY, 4, 1))
        assert report.perplexity == float(np.exp(report.mean_loss))
        assert report.perplexity >= 1.0

    def test_memorized_sequence(self):
        config = ModelConfig(vocab_size=32, context_length=16, num_layers=1,
                             d_model=32, num_heads=2, d_ff=48, seed=9)
        model = init_model(config)
        pattern = np.tile(np.array([7, 3, 11, 3, 19, 2, 5, 13], dtype=np.int64), 2)
        corpus = Corpus("rep", [pattern] * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model, _ = pretrain(model, corpus, steps=300, learning_rate=0.5, batch_size=4)
        report = perplexity(model, Corpus("rep1", [pattern]))
        assert report.perplexity <= 2.0

    def test_deterministic(self):
        model = init_model(TINY)
        corpus = random_corpus(TINY, 4, 2)
        a = perplexity(model, corpus)
        b = perplexity(model, corpus)
        assert a.perplexity == b.perplexity and a.mean_loss == b.mean_loss

    def test_token_count(self):
        model = init_model(TINY)
        report = perplexity(model, random_corpus(TINY, 3, 4, length=10))
        assert report.token_count == 3 * 9


class TestMaskSimilarity:
    def test_identical_masks_at_half_sparsity(self):
        mask = make_mask(TINY, 0.5, 0)
        report = mask_similarity(mask, mask)
        for name, value in report.per_matrix.items():
            assert value == 0.5, name

    def test_complementary_masks(self):
        mask = make_mask(TINY, 0.5, 1)
        flipped = Mask(masks={k: (1 - v).astype(np.uint8) for k, v in mask.masks.items()},
                       sparsity=0.5, mode=mask.mode)
        report = mask_similarity(mask, flipped)
        assert all(v == 0.0 for v in report.per_matrix.values())

    def test_independent_random_masks_expectation(self):
        rng = np.random.default_rng(7)
        a, b = (select_mask_per_matrix({name: rng.random((128, 128)) for name in prunable_names(TINY)}, 0.5)
                for _ in range(2))
        for name, sim in mask_similarity(a, b).per_matrix.items():
            assert abs(sim - 0.25) < 0.05, name  # expectation (1 - s)^2

    def test_similarity_bounds(self):
        for seed in range(5):
            a = make_mask(TINY, 0.5, seed)
            b = make_mask(TINY, 0.5, seed + 100)
            report = mask_similarity(a, b)
            for name, value in report.per_matrix.items():
                assert 0.0 <= value <= 0.5 + 1e-12, name

    def test_symmetry(self):
        a = make_mask(TINY, 0.3, 11)
        b = make_mask(TINY, 0.3, 12)
        assert mask_similarity(a, b).per_matrix == mask_similarity(b, a).per_matrix

    def test_self_similarity_equals_kept_fraction(self):
        for sparsity in (0.0, 0.3, 0.7):
            mask = make_mask(TINY, sparsity, 13)
            report = mask_similarity(mask, mask)
            for name, m in mask.masks.items():
                assert report.per_matrix[name] == m.sum() / m.size

    def test_aggregates(self):
        a = make_mask(FULL, 0.5, 14)
        b = make_mask(FULL, 0.5, 15)
        report = mask_similarity(a, b)
        assert set(report.by_kind) == {"q", "k", "v", "o", "gate", "up", "down"}
        assert set(report.by_layer) == {0, 1}
        q_values = [report.per_matrix[f"layers.{i}.q"] for i in range(2)]
        assert report.by_kind["q"] == pytest.approx(np.mean(q_values))

    def test_mismatched_masks_rejected(self):
        a = make_mask(TINY, 0.5, 16)
        b = make_mask(TINY, 0.5, 17)
        del b.masks["layers.0.q"]
        with pytest.raises(ValidationError, match="different matrices"):
            mask_similarity(a, b)
        c = make_mask(TINY, 0.5, 18)
        c.masks["layers.0.q"] = c.masks["layers.0.q"][:, :-1]
        with pytest.raises(ValidationError, match="shape"):
            mask_similarity(a, c)

    @pytest.mark.parametrize("edit,message", [
        (lambda masks: masks.pop("layers.0.k"), "masks lack layers.0.k"),
        (lambda masks: masks.update(embed=masks.pop("layers.0.q")),
         "embed is not a projection of layers 0..0"),
        (lambda masks: masks.update({k.replace(".0.", ".2."): v for k, v in list(masks.items())}),
         "layers.2.q is not a projection of layers 0..1"),
    ], ids=["missing", "foreign", "layer-gap"])
    def test_masks_without_every_projection_of_layers_0_to_l_rejected(self, edit, message):
        mask = make_mask(TINY, 0.5, 19)
        edit(mask.masks)
        with pytest.raises(ValidationError, match=f"^mask_similarity: {message}$"):
            mask_similarity(mask, mask)


class TestSweep:
    @pytest.fixture(scope="class")
    def trained(self):
        config = ModelConfig(vocab_size=32, context_length=16, num_layers=1,
                             d_model=16, num_heads=2, d_ff=24, seed=21)
        model = init_model(config)
        rng = np.random.default_rng(0)
        seqs = [np.concatenate([rng.integers(0, 8, size=8), np.arange(8)]) for _ in range(32)]
        corpus = Corpus("train", seqs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model, _ = pretrain(model, corpus, steps=150, learning_rate=0.4, batch_size=4)
            G = general_importance(model, corpus)
            scores = dual_importance_scores(model, corpus, G)
        return model, scores, corpus

    def test_zero_sparsity_equals_dense(self, trained):
        model, scores, corpus = trained
        result = sparsity_sweep(model, scores, corpus, [0.0])
        dense = perplexity(model, corpus)
        assert result.rows[0][1] == dense.perplexity

    def test_deterministic(self, trained):
        model, scores, corpus = trained
        a = sparsity_sweep(model, scores, corpus, [0.1, 0.5])
        b = sparsity_sweep(model, scores, corpus, [0.1, 0.5])
        assert a.rows == b.rows

    def test_scores_of_another_model_rejected(self, trained):
        model, scores, corpus = trained
        other = model.copy()
        other.params["layers.0.q"].data[0, 0] += 1.0
        with pytest.raises(ValidationError, match="different model"):
            sparsity_sweep(other, scores, corpus, [0.5])
        plain = sparsity_sweep(other, dict(scores.scores), corpus, [0.5])  # no provenance to check
        assert len(plain.rows) == 1

    def test_empty_sparsity_list_rejected(self, trained):
        model, scores, corpus = trained
        with pytest.raises(ValidationError, match="no sparsities"):
            sparsity_sweep(model, scores, corpus, [])

    def test_invalid_sparsity_rejected(self, trained):
        model, scores, corpus = trained
        with pytest.raises(ValidationError, match="sparsity"):
            sparsity_sweep(model, scores, corpus, [0.5, 1.0])

    @pytest.mark.parametrize("sparsities", [[0.5, 0.5], [0.3, 0.0, -0.0]])
    def test_repeated_sparsity_rejected(self, trained, sparsities):
        model, scores, corpus = trained
        with pytest.raises(ValidationError, match=r"sparsity \d\.\d given more than once"):
            sparsity_sweep(model, scores, corpus, sparsities)

    def test_negative_zero_is_zero(self, trained):
        model, scores, corpus = trained
        [(sparsity, _)] = sparsity_sweep(model, scores, corpus, [-0.0]).rows
        assert sparsity == 0.0 and not np.signbit(sparsity)

    def test_rows_and_verdict_follow_sparsity_not_argument_order(self, trained):
        model, scores, corpus = trained
        ascending = sparsity_sweep(model, scores, corpus, [0.1, 0.3, 0.5, 0.7])
        reversed_ = sparsity_sweep(model, scores, corpus, [0.7, 0.5, 0.3, 0.1])
        assert [s for s, _ in ascending.rows] == [0.1, 0.3, 0.5, 0.7]
        assert reversed_ == ascending

    def test_monotone_flag_consistent(self, trained):
        model, scores, corpus = trained
        result = sparsity_sweep(model, scores, corpus, [0.0, 0.3, 0.6])
        expected = all(b >= a for (_, a), (_, b) in zip(result.rows, result.rows[1:]))
        assert result.monotone == expected

    def test_unknown_mode_rejected(self, trained):
        model, scores, corpus = trained
        with pytest.raises(ValidationError, match="unknown mask mode 'blockd'"):
            sparsity_sweep(model, scores, corpus, [0.5], mode="blockd")

    def test_blocked_mode_without_block_size_rejected(self, trained):
        model, scores, corpus = trained
        with pytest.raises(ValidationError, match="block size"):
            sparsity_sweep(model, scores, corpus, [0.5], mode="blocked")

    def test_blocked_mode(self, trained):
        model, scores, corpus = trained
        result = sparsity_sweep(model, scores, corpus, [0.4], mode="blocked", block_size=8)
        assert len(result.rows) == 1 and result.rows[0][1] >= 1.0


class TestWriters:
    def test_eval_report_csv(self, tmp_path):
        model = init_model(TINY)
        report = perplexity(model, random_corpus(TINY, 2, 3))
        csv_path = tmp_path / "r.csv"
        write_eval_report(report, csv_path, tmp_path / "r.txt", ["extra: 1"])
        rows = list(csv.reader(csv_path.read_text().splitlines()))
        assert rows[0] == ["model_fingerprint", "corpus", "mean_loss", "perplexity", "token_count"]
        assert float(rows[1][3]) == report.perplexity
        assert "extra: 1" in (tmp_path / "r.txt").read_text()

    def test_similarity_grid_csv(self, tmp_path):
        a = make_mask(FULL, 0.5, 31)
        report = mask_similarity(a, a)
        csv_path = tmp_path / "g.csv"
        write_similarity_grid(report, csv_path, tmp_path / "g.txt")
        rows = list(csv.reader(csv_path.read_text().splitlines()))
        assert rows[0] == ["layer", "q", "k", "v", "o", "gate", "up", "down"]
        assert len(rows) == 1 + FULL.num_layers
        assert all(float(x) == 0.5 for x in rows[1][1:])

    def test_sweep_csv(self, tmp_path):
        model = init_model(TINY)
        corpus = random_corpus(TINY, 2, 5)
        scores = {name: np.abs(init_model(TINY).params[name].data)
                  for name in prunable_names(TINY)}
        result = sparsity_sweep(model, scores, corpus, [0.0, 0.5])
        path = tmp_path / "s.csv"
        write_sweep_csv(result, path)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["sparsity", "perplexity"]
        assert len(rows) == 3

    def test_zero_fractions(self):
        model = init_model(TINY)
        mask = magnitude_mask(model, 0.5)
        from dualprune.pruning import apply_mask

        pruned = apply_mask(model, mask)
        prunable_frac, total_frac = zero_fractions(pruned)
        assert prunable_frac == pytest.approx(0.5, abs=0.01)
        assert 0 < total_frac < prunable_frac  # embeddings/norms dilute the total
