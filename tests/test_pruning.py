"""Mask selection: exact counts, ties, blocking, magnitude baseline, application."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualprune.errors import NumericError, ValidationError
from dualprune.importance import ImportanceMatrixG
from dualprune.model import ModelConfig, init_model, next_token_loss, prunable_names
from dualprune.pruning import (
    apply_mask,
    load_mask,
    magnitude_mask,
    save_mask,
    select_mask_blocked,
    select_mask_per_matrix,
    select_masks,
)

TINY = ModelConfig(vocab_size=32, context_length=16, num_layers=1, d_model=16,
                   num_heads=2, d_ff=24, seed=3)


class TestPerMatrix:
    def test_sparsity_zero_all_ones(self):
        mask = select_mask_per_matrix({"m": np.random.default_rng(0).random((4, 4))}, 0.0)
        assert np.array_equal(mask.masks["m"], np.ones((4, 4), dtype=np.uint8))

    def test_direct_ordering(self):
        scores = {"m": np.array([[4.0, 1.0], [3.0, 2.0]])}
        mask = select_mask_per_matrix(scores, 0.5)
        assert np.array_equal(mask.masks["m"], [[1, 0], [1, 0]])

    def test_tie_break_lowest_flat_index(self):
        scores = {"m": np.ones((2, 2))}
        mask = select_mask_per_matrix(scores, 0.5)
        assert np.array_equal(mask.masks["m"].reshape(-1), [0, 0, 1, 1])

    def test_invalid_sparsity(self):
        scores = {"m": np.ones((2, 2))}
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValidationError, match="sparsity"):
                select_mask_per_matrix(scores, bad)

    @pytest.mark.parametrize("sparsity", [0.1, 0.3, 0.5, 0.7])
    def test_exact_counts(self, sparsity):
        rng = np.random.default_rng(17)
        for _ in range(10):
            rows = int(rng.integers(1, 40))
            cols = int(rng.integers(1, 40))
            scores = {"m": rng.random((rows, cols))}
            mask = select_mask_per_matrix(scores, sparsity)
            zeros = int(mask.masks["m"].size - mask.masks["m"].sum())
            assert zeros == math.floor(sparsity * rows * cols)

    def test_monotone_nesting(self):
        rng = np.random.default_rng(23)
        scores = {"m": rng.permutation(30 * 20).astype(float).reshape(30, 20)}  # ties-free
        pruned_sets = []
        for sparsity in (0.1, 0.3, 0.5, 0.7):
            mask = select_mask_per_matrix(scores, sparsity)
            pruned_sets.append(set(np.flatnonzero(mask.masks["m"].reshape(-1) == 0)))
        for smaller, larger in zip(pruned_sets, pruned_sets[1:]):
            assert smaller <= larger

    @given(st.floats(min_value=1e-6, max_value=1e6), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_score_scale_invariance(self, c, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random((8, 9))
        base = select_mask_per_matrix({"m": scores}, 0.4).masks["m"]
        scaled = select_mask_per_matrix({"m": scores * c}, 0.4).masks["m"]
        assert np.array_equal(base, scaled)

    def test_rerun_bit_identical(self):
        rng = np.random.default_rng(5)
        scores = {"a": rng.random((7, 11)), "b": rng.random((3, 5))}
        m1 = select_mask_per_matrix(scores, 0.37)
        m2 = select_mask_per_matrix(scores, 0.37)
        assert m1.fingerprint() == m2.fingerprint()


class TestBlocked:
    def test_single_block_degeneracy(self):
        rng = np.random.default_rng(29)
        for trial in range(50):
            scores = {"m": rng.random((int(rng.integers(1, 20)), int(rng.integers(1, 20))))}
            wide = scores["m"].shape[1]
            blocked = select_mask_blocked(scores, 0.5, wide + int(rng.integers(0, 3)))
            plain = select_mask_per_matrix(scores, 0.5)
            assert np.array_equal(blocked.masks["m"], plain.masks["m"]), trial

    def test_per_block_counts(self):
        scores = {"m": np.random.default_rng(31).random((2, 4))}
        mask = select_mask_blocked(scores, 0.5, 2)
        for j in (0, 2):
            block = mask.masks["m"][:, j : j + 2]
            assert block.size - block.sum() == 2

    def test_ragged_last_block(self):
        rng = np.random.default_rng(37)
        scores = {"m": rng.random((6, 10))}
        mask = select_mask_blocked(scores, 0.3, 4)  # blocks of 4, 4, 2 columns
        for j0, width in ((0, 4), (4, 4), (8, 2)):
            block = mask.masks["m"][:, j0 : j0 + width]
            assert block.size - block.sum() == math.floor(0.3 * 6 * width)

    def test_property_counts_random(self):
        rng = np.random.default_rng(41)
        for trial in range(50):
            rows = int(rng.integers(1, 30))
            cols = int(rng.integers(1, 30))
            width = int(rng.integers(1, cols + 1))
            sparsity = float(rng.choice([0.1, 0.3, 0.5, 0.7]))
            mask = select_mask_blocked({"m": rng.random((rows, cols))}, sparsity, width).masks["m"]
            for j0 in range(0, cols, width):
                block = mask[:, j0 : j0 + width]
                assert block.size - block.sum() == math.floor(sparsity * block.size), trial

    def test_block_size_validation(self):
        for bad in (0, None, 2.0, {"m": 2}, True):
            with pytest.raises(ValidationError, match="block size must be an int >= 1, got"):
                select_mask_blocked({"m": np.ones((2, 2))}, 0.5, bad)


class TestSeveralSparsities:
    SPARSITIES = [0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 0.5]

    @pytest.mark.parametrize("mode,block_size", [("per-matrix", None), ("per-matrix", 4),
                                                 ("blocked", 4), ("blocked", 5)])
    def test_equals_one_selection_per_sparsity(self, mode, block_size):
        rng = np.random.default_rng(53)
        # rounded scores tie often, so the tie order is exercised at every sparsity
        scores = {"a": np.round(rng.random((6, 13)), 1), "b": np.ones((4, 9)),
                  "c": rng.random((8, 8))}
        masks = select_masks(scores, self.SPARSITIES, mode, block_size)
        assert [m.sparsity for m in masks] == self.SPARSITIES
        for sparsity, mask in zip(self.SPARSITIES, masks):
            if mode == "blocked":
                one = select_mask_blocked(scores, sparsity, block_size)
            else:
                one = select_mask_per_matrix(scores, sparsity)
            assert mask.fingerprint() == one.fingerprint(), sparsity
            assert (mask.mode, mask.block_size, mask.score_fingerprint) == (
                one.mode, one.block_size, one.score_fingerprint)
            for name in scores:
                assert np.array_equal(mask.masks[name], one.masks[name]), (sparsity, name)

    def test_any_invalid_sparsity_rejected(self):
        with pytest.raises(ValidationError, match="sparsity must lie in"):
            select_masks({"m": np.ones((2, 2))}, [0.5, 1.0], "per-matrix")


@pytest.mark.parametrize("shape", [(6,), (4, 0), (2, 3, 4)], ids=["1-D", "no-columns", "3-D"])
@pytest.mark.parametrize("select", [select_mask_per_matrix,
                                    lambda s, p: select_mask_blocked(s, p, 2)],
                         ids=["per-matrix", "blocked"])
def test_malformed_score_matrix_rejected(select, shape):
    scores = {"ok": np.ones((2, 2)), "bad": np.ones(shape)}
    with pytest.raises(ValidationError,
                       match=r"score matrix bad must be 2-D with at least one column, got shape"):
        select(scores, 0.5)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("mode", ["per-matrix", "blocked"])
def test_non_finite_score_rejected(mode, value):
    # argsort would rank NaN last, so a NaN-scored weight would always be kept
    scores = {"ok": np.ones((2, 2)), "bad": np.array([[3.0, value], [1.0, 2.0]])}
    with pytest.raises(NumericError, match="score matrix bad has non-finite entries"):
        select_masks(scores, [0.5], mode, 1)


class TestMagnitude:
    def test_keeps_largest_magnitudes(self):
        model = init_model(TINY)
        target = model.params["layers.0.q"]
        target.data[:2, :2] = [[-5.0, 0.1], [2.0, -0.2]]
        mask = magnitude_mask(model, 0.5)
        sub = mask.masks["layers.0.q"][:2, :2]
        assert sub[0, 0] == 1 and sub[1, 0] == 1  # -5 and 2 kept

    def test_sparsity_zero(self):
        model = init_model(TINY)
        mask = magnitude_mask(model, 0.0)
        assert all(m.all() for m in mask.masks.values())

    def test_matches_per_matrix_on_abs_weights(self):
        model = init_model(TINY)
        scores = {name: np.abs(model.params[name].data) for name in prunable_names(TINY)}
        direct = select_mask_per_matrix(scores, 0.5)
        mag = magnitude_mask(model, 0.5)
        for name in scores:
            assert np.array_equal(direct.masks[name], mag.masks[name])
        assert mag.method == "magnitude"


class TestApply:
    def test_all_ones_mask_is_identity(self):
        model = init_model(TINY)
        mask = magnitude_mask(model, 0.0)
        pruned = apply_mask(model, mask)
        for name in prunable_names(TINY):
            assert np.array_equal(pruned.params[name].data, model.params[name].data)

    def test_full_prune_still_runs(self):
        model = init_model(TINY)
        scores = {name: np.abs(model.params[name].data) for name in prunable_names(TINY)}
        mask = select_mask_per_matrix(scores, 0.999999)  # floor -> all but ~0 pruned
        for name, m in mask.masks.items():
            mask.masks[name] = np.zeros_like(m)  # drive to the sparsity->1 limit
        pruned = apply_mask(model, mask)
        loss = float(next_token_loss(pruned, np.arange(10) % TINY.vocab_size)[0].data)
        assert abs(loss - math.log(TINY.vocab_size)) < 0.5

    def test_zero_count_at_least_mask_zeros(self):
        model = init_model(TINY)
        model.params["layers.0.q"].data[0, :] = 0.0  # pre-existing zeros
        mask = magnitude_mask(model, 0.25)
        pruned = apply_mask(model, mask)
        total_zeros = sum(int((pruned.params[n].data == 0).sum()) for n in prunable_names(TINY))
        mask_zeros = sum(int(m.size - m.sum()) for m in mask.masks.values())
        assert total_zeros >= mask_zeros

    def test_shape_mismatch_rejected(self):
        model = init_model(TINY)
        mask = magnitude_mask(model, 0.5)
        mask.masks["layers.0.q"] = mask.masks["layers.0.q"][:, :-1]
        with pytest.raises(ValidationError, match="shape"):
            apply_mask(model, mask)

    def test_coverage_mismatch_rejected(self):
        model = init_model(TINY)
        mask = magnitude_mask(model, 0.5)
        del mask.masks["layers.0.down"]
        with pytest.raises(ValidationError, match="prunable"):
            apply_mask(model, mask)

    def test_mask_of_another_model_rejected(self):
        model = init_model(TINY)
        other = init_model(dataclasses.replace(TINY, seed=TINY.seed + 1))
        mask = magnitude_mask(model, 0.5)
        with pytest.raises(ValidationError, match="different model"):
            apply_mask(other, mask)
        mask.model_fingerprint = None  # a mask without provenance is taken as it is
        assert apply_mask(other, mask).meta["mask_fingerprint"] == mask.fingerprint()

    @pytest.mark.parametrize("select", [lambda S: select_mask_per_matrix(S, 0.5),
                                        lambda S: select_mask_blocked(S, 0.5, 4)],
                             ids=["per-matrix", "blocked"])
    def test_mask_from_scores_of_another_model_rejected(self, select):
        model = init_model(TINY)
        other = init_model(dataclasses.replace(TINY, seed=TINY.seed + 1))
        scores = {name: np.abs(model.params[name].data) for name in prunable_names(TINY)}
        mask = select(ImportanceMatrixG(scores, 1e-4, 1, "c", model.fingerprint()))
        assert mask.model_fingerprint == model.fingerprint()
        apply_mask(model, mask)
        with pytest.raises(ValidationError, match="different model"):
            apply_mask(other, mask)
        assert select(scores).model_fingerprint is None  # a plain dict records no model

    def test_provenance_recorded(self):
        model = init_model(TINY)
        mask = magnitude_mask(model, 0.5)
        pruned = apply_mask(model, mask)
        assert pruned.meta["mask_method"] == "magnitude"
        assert pruned.meta["mask_fingerprint"] == mask.fingerprint()
        assert model.meta.get("mask_fingerprint") is None  # original untouched

    def test_untouched_non_prunable(self):
        model = init_model(TINY)
        scores = {name: np.abs(model.params[name].data) for name in prunable_names(TINY)}
        pruned = apply_mask(model, select_mask_per_matrix(scores, 0.9))
        assert np.array_equal(pruned.params["embed"].data, model.params["embed"].data)
        assert np.array_equal(pruned.params["final_norm"].data, model.params["final_norm"].data)


class TestMaskPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(43)
        scores = {"layers.0.q": rng.random((16, 16)), "layers.0.up": rng.random((16, 24))}
        mask = select_mask_per_matrix(scores, 0.5)
        mask.model_fingerprint = "abc123"
        path = tmp_path / "m.mask"
        save_mask(mask, path)
        loaded = load_mask(path)
        assert loaded.sparsity == 0.5
        assert loaded.mode == mask.mode
        assert loaded.method == mask.method
        assert loaded.model_fingerprint == "abc123"
        assert loaded.score_fingerprint == mask.score_fingerprint
        for name in scores:
            assert np.array_equal(loaded.masks[name], mask.masks[name])
        assert loaded.fingerprint() == mask.fingerprint()

    def test_save_deterministic(self, tmp_path):
        scores = {"m": np.random.default_rng(47).random((9, 31))}
        mask = select_mask_blocked(scores, 0.3, 7)
        a, b = tmp_path / "a.mask", tmp_path / "b.mask"
        save_mask(mask, a)
        save_mask(mask, b)
        assert a.read_bytes() == b.read_bytes()

