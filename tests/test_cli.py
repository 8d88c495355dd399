"""CLI pipeline: stages, artifacts, exit codes, overrides."""

import argparse
import csv
import ctypes
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

import dualprune
from dualprune.cli import RunConfig, build_parser, main
from dualprune.container import FORMAT_VERSION, MAGIC, read_container, write_container
from dualprune.corpus import load_corpus_cache
from dualprune.importance import load_dual_scores, load_general_scores
from dualprune.model import load_checkpoint, save_checkpoint
from dualprune.pruning import Mask, load_mask, save_mask, select_mask_blocked


def csv_rows(path: Path) -> list[list[str]]:
    return list(csv.reader(path.read_text().splitlines()))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny end-to-end run: corpora, config file, pretrained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(0)
    letters = "abcdefgh ijklmnop"
    mixed = "".join(rng.choice(list(letters), size=40_000))
    domain = "".join(rng.choice(list("0123456789=; "), size=20_000))
    (root / "mixed.txt").write_text(mixed)
    (root / "domain.txt").write_text(domain)
    out = root / "run"
    config = root / "run.cfg"
    config.write_text(
        "\n".join(
            [
                "# tiny pipeline config",
                "vocab_size=256",
                "context_length=32",
                "num_layers=1",
                "d_model=32",
                "num_heads=2",
                "d_ff=48",
                "seed=5",
                f"train_corpus={root / 'mixed.txt'}",
                f"open_corpus={root / 'mixed.txt'}",
                f"domain_corpus={root / 'domain.txt'}",
                f"test_corpus={root / 'domain.txt'}",
                "train_region=0:0.8",
                "open_region=0.8:1",
                "domain_region=0:0.7",
                "test_region=0.7:1",
                "train_samples=64",
                "open_samples=8",
                "domain_samples=8",
                "test_samples=8",
                "sequence_length=32",
                "steps=30",
                "learning_rate=0.2",
                "batch_size=4",
                "lambda=0.1",
                "alpha=0.03",
                "damping=1e-4",
                "sparsity=0.5",
                f"output_dir={out}",
            ]
        )
        + "\n"
    )
    assert main(["pretrain", "--config", str(config)]) == 0
    assert main(["general-importance", "--config", str(config),
                 "--checkpoint", str(out / "model.ckpt")]) == 0
    assert main(["prune", "--config", str(config),
                 "--checkpoint", str(out / "model.ckpt"),
                 "--general-scores", str(out / "general_scores.bin")]) == 0
    return {"root": root, "config": config, "out": out}


class TestPretrain:
    def test_artifacts_exist(self, workspace):
        assert (workspace["out"] / "model.ckpt").is_file()
        assert (workspace["out"] / "pretrain_log.csv").is_file()

    def test_loss_log_has_steps_rows(self, workspace):
        rows = csv_rows(workspace["out"] / "pretrain_log.csv")
        assert rows[0] == ["step", "loss"]
        assert len(rows) == 1 + 30

    def test_rerun_byte_identical(self, workspace, tmp_path):
        first = (workspace["out"] / "model.ckpt").read_bytes()
        assert main(["pretrain", "--config", str(workspace["config"]),
                     "--output-dir", str(tmp_path)]) == 0
        assert (tmp_path / "model.ckpt").read_bytes() == first

    def test_missing_corpus_exit_2(self, workspace, tmp_path, capsys):
        assert main(["pretrain", "--config", str(workspace["config"]),
                     "--train-corpus", "/nope/missing.txt",
                     "--output-dir", str(tmp_path)]) == 2
        assert "/nope/missing.txt" in capsys.readouterr().err

    def test_invalid_config_exit_2(self, workspace, tmp_path):
        assert main(["pretrain", "--config", str(workspace["config"]),
                     "--num-heads", "3", "--output-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("flag,value", [("--batch-size", "0"), ("--batch-size", "-1"),
                                            ("--log-every", "0")])
    def test_batch_size_and_log_every_minimum_exit_2(self, workspace, tmp_path, capsys, flag, value):
        assert main(["pretrain", "--config", str(workspace["config"]), flag, value,
                     "--output-dir", str(tmp_path)]) == 2
        assert f"{flag[2:].replace('-', '_')} must be an int >= 1, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "model.ckpt").exists()

    def test_negative_seed_exit_2(self, workspace, tmp_path, capsys):
        assert main(["pretrain", "--config", str(workspace["config"]), "--seed", "-1",
                     "--output-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: ModelConfig.seed must be an int >= 0, got -1\n"
        assert not (tmp_path / "model.ckpt").exists()

    def test_checkpoint_path_is_a_directory_exit_2(self, workspace, tmp_path, capsys):
        (tmp_path / "model.ckpt").mkdir()
        assert main(["pretrain", "--config", str(workspace["config"]), "--steps", "2",
                     "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'model.ckpt'}: Is a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
        assert not any((tmp_path / "model.ckpt").iterdir())


class TestCalibrate:
    def test_writes_caches(self, workspace):
        assert main(["calibrate", "--config", str(workspace["config"])]) == 0
        for role in ("train", "open", "domain", "test"):
            cache = workspace["out"] / f"{role}.corpus.json"
            assert cache.is_file()
            corpus = load_corpus_cache(cache)
            assert len(corpus) > 0

    def test_cache_is_replayable_deterministically(self, workspace):
        cache = workspace["out"] / "domain.corpus.json"
        a = load_corpus_cache(cache)
        b = load_corpus_cache(cache)
        assert a.fingerprint() == b.fingerprint()

    def test_cache_without_windows_exit_3(self, workspace, tmp_path, capsys):
        info = json.loads((workspace["out"] / "domain.corpus.json").read_text())
        info["offsets"] = []
        cache = tmp_path / "empty.corpus.json"
        cache.write_text(json.dumps(info))
        assert main(["eval", "--config", str(workspace["config"]),
                     "--checkpoint", str(workspace["out"] / "model.ckpt"),
                     "--corpus-cache", str(cache), "--output-dir", str(tmp_path / "out")]) == 3
        assert "offsets must be a non-empty list" in capsys.readouterr().err


class TestLengthRule:
    """A sequence of L tokens feeds L - 1 inputs: every stage accepts L - 1 <= context_length."""

    def test_context_length_plus_one_accepted_by_every_stage(self, workspace, tmp_path):
        flags = ["--config", str(workspace["config"]), "--sequence-length", "33",
                 "--output-dir", str(tmp_path)]
        ckpt = ["--checkpoint", str(tmp_path / "model.ckpt")]
        assert main(["pretrain", *flags, "--steps", "2"]) == 0
        assert main(["general-importance", *flags, *ckpt]) == 0
        assert main(["prune", *flags, *ckpt,
                     "--general-scores", str(tmp_path / "general_scores.bin")]) == 0
        assert main(["eval", *flags, *ckpt]) == 0
        rows = csv_rows(tmp_path / "eval_test.csv")
        assert rows[1][4] == str(8 * 32)

    def test_context_length_plus_two_rejected(self, workspace, tmp_path, capsys):
        assert main(["pretrain", "--config", str(workspace["config"]), "--sequence-length", "34",
                     "--output-dir", str(tmp_path)]) == 2
        assert "forward: length 33 outside [1, 32]" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestGeneralImportance:
    def test_writes_scores_with_manifest(self, workspace):
        ckpt = workspace["out"] / "model.ckpt"
        path = workspace["out"] / "general_scores.bin"
        c = read_container(path, expect_kind="scores.general")
        assert len(c.blocks) == 1 * 7  # num_layers x 7
        G = load_general_scores(path)
        assert G.model_fingerprint == load_checkpoint(ckpt).fingerprint()

    def test_rerun_byte_identical(self, workspace):
        path = workspace["out"] / "general_scores.bin"
        first = path.read_bytes()
        assert main(["general-importance", "--config", str(workspace["config"]),
                     "--checkpoint", str(workspace["out"] / "model.ckpt")]) == 0
        assert path.read_bytes() == first

    def test_corrupted_checkpoint_exit_3(self, workspace, tmp_path):
        bad = tmp_path / "bad.ckpt"
        raw = bytearray((workspace["out"] / "model.ckpt").read_bytes())
        raw[0] ^= 0xFF
        bad.write_bytes(bytes(raw))
        assert main(["general-importance", "--config", str(workspace["config"]),
                     "--checkpoint", str(bad)]) == 3


class TestPrune:
    def test_dual_pipeline_artifacts(self, workspace):
        mask = load_mask(workspace["out"] / "mask.bin")
        assert mask.method == "dual"
        for name, m in mask.masks.items():
            assert m.size - m.sum() == int(0.5 * m.size), name
        pruned = load_checkpoint(workspace["out"] / "pruned.ckpt")
        assert pruned.meta["mask_fingerprint"] == mask.fingerprint()
        dual = load_dual_scores(workspace["out"] / "dual_scores.bin")
        assert dual.lam == 0.1

    def test_magnitude_skips_scores(self, workspace, tmp_path):
        ckpt = workspace["out"] / "model.ckpt"
        assert main(["prune", "--config", str(workspace["config"]),
                     "--checkpoint", str(ckpt), "--method", "magnitude",
                     "--output-dir", str(tmp_path)]) == 0
        assert not (tmp_path / "dual_scores.bin").exists()
        mask = load_mask(tmp_path / "mask.bin")
        assert mask.method == "magnitude"

    def test_fingerprint_mismatch_refused(self, workspace, tmp_path):
        other = tmp_path / "other"
        assert main(["pretrain", "--config", str(workspace["config"]),
                     "--seed", "99", "--output-dir", str(other)]) == 0
        assert main(["prune", "--config", str(workspace["config"]),
                     "--checkpoint", str(other / "model.ckpt"),
                     "--general-scores", str(workspace["out"] / "general_scores.bin"),
                     "--output-dir", str(tmp_path)]) == 2

    def test_non_finite_general_score_exit_4(self, workspace, tmp_path, capsys):
        # a NaN in G reaches the dual score through the regularizer
        c = read_container(workspace["out"] / "general_scores.bin", expect_kind="scores.general")
        blocks = dict(c.blocks)
        blocks["layers.0.k"] = blocks["layers.0.k"].copy()
        blocks["layers.0.k"][0, 0] = np.nan
        bad = tmp_path / "nan_general.bin"
        write_container(bad, c.kind, dict(c.meta), list(blocks.items()))
        out = tmp_path / "out"
        assert main(["prune", "--config", str(workspace["config"]),
                     "--checkpoint", str(workspace["out"] / "model.ckpt"),
                     "--general-scores", str(bad), "--output-dir", str(out)]) == 4
        assert ("numeric error: score matrix layers.0.k has non-finite entries"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_blocked_mask_pools_are_block_size_wide(self, workspace, tmp_path):
        # d_ff 48: gate and up are 48 columns wide, down and q/k/v/o 32; every pool is 16 wide
        assert main(["prune", "--config", str(workspace["config"]),
                     "--checkpoint", str(workspace["out"] / "model.ckpt"),
                     "--general-scores", str(workspace["out"] / "general_scores.bin"),
                     "--mode", "blocked", "--output-dir", str(tmp_path)]) == 0
        mask = load_mask(tmp_path / "mask.bin")
        dual = load_dual_scores(tmp_path / "dual_scores.bin")
        assert mask.mode == "blocked" and mask.block_size == 16
        for name, m in mask.masks.items():
            s = dual.scores[name]
            for j0 in range(0, m.shape[1], 16):
                pool, pool_scores = m[:, j0 : j0 + 16], s[:, j0 : j0 + 16]
                assert pool.size - pool.sum() == math.floor(0.5 * pool.size), (name, j0)
                assert pool_scores[pool == 0].max() <= pool_scores[pool == 1].min(), (name, j0)
        assert mask.fingerprint() == select_mask_blocked(dual, 0.5, 16).fingerprint()

    def test_lambda_zero_matches_manual_no_reg_mask(self, workspace, tmp_path):
        ckpt = workspace["out"] / "model.ckpt"
        scores = workspace["out"] / "general_scores.bin"
        assert main(["prune", "--config", str(workspace["config"]),
                     "--checkpoint", str(ckpt), "--general-scores", str(scores),
                     "--lambda", "0", "--output-dir", str(tmp_path)]) == 0
        mask_a = load_mask(tmp_path / "mask.bin")

        # no-regularization oracle: plain next-token gradients -> |u + u^2/2|
        import dualprune.importance as imp
        from dualprune.cli import _build_corpus, make_run_config, parse_config_file
        from dualprune.pruning import select_mask_per_matrix

        config = make_run_config(parse_config_file(workspace["config"]), {})
        model = load_checkpoint(ckpt)
        domain = _build_corpus(config, "domain")
        stats = imp.next_token_gradients(model, domain)
        u = {k: stats.mean[k] * model.params[k].data for k in stats.mean}
        s_noreg = {k: imp.score_from_first_order(v) for k, v in u.items()}
        mask_b = select_mask_per_matrix(s_noreg, 0.5)
        for name in mask_a.masks:
            assert np.array_equal(mask_a.masks[name], mask_b.masks[name]), name


class TestEvalMisuse:
    """Each misuse exits with one line on stderr and writes nothing."""

    def run_eval(self, workspace, out, capsys, *flags):
        code = main(["eval", "--config", str(workspace["config"]),
                     "--checkpoint", str(workspace["out"] / "model.ckpt"), "--output-dir", str(out),
                     *flags])
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err, err
        return code, err

    def test_tag_with_a_path_separator_exit_2(self, workspace, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "sub").mkdir(parents=True)
        code, err = self.run_eval(workspace, out, capsys, "--tag", "sub/x")
        assert (code, err) == (2, "error: --tag must be a plain file name, got 'sub/x'\n")
        assert list(out.rglob("*")) == [out / "sub"]

    def test_cache_named_with_a_path_separator_exit_3(self, workspace, tmp_path, capsys):
        assert main(["calibrate", "--config", str(workspace["config"])]) == 0
        info = json.loads((workspace["out"] / "test.corpus.json").read_text())
        info["name"] = "a/b"
        cache = tmp_path / "c.json"
        cache.write_text(json.dumps(info))
        out = tmp_path / "out"
        code, err = self.run_eval(workspace, out, capsys, "--corpus-cache", str(cache))
        assert code == 3
        assert "name must be a non-empty string free of path separators, got 'a/b'" in err
        assert not out.exists()

    def test_cache_with_a_non_string_source_path_exit_3(self, workspace, tmp_path, capsys):
        assert main(["calibrate", "--config", str(workspace["config"])]) == 0
        info = json.loads((workspace["out"] / "test.corpus.json").read_text())
        info["sources"][0]["path"] = 5
        cache = tmp_path / "c.json"
        cache.write_text(json.dumps(info))
        out = tmp_path / "out"
        code, err = self.run_eval(workspace, out, capsys, "--corpus-cache", str(cache))
        assert code == 3
        assert "every source needs a 'path' and a 'sha256', both strings" in err
        assert not out.exists()

    def test_checkpoint_with_invalid_config_exit_3(self, workspace, tmp_path, capsys):
        c = read_container(workspace["out"] / "model.ckpt", expect_kind="checkpoint")
        bad = tmp_path / "bad.ckpt"
        write_container(bad, c.kind, {**c.meta, "config.num_heads": "3"}, list(c.blocks.items()))
        out = tmp_path / "out"
        code, err = self.run_eval(workspace, out, capsys, "--checkpoint", str(bad))
        assert (code, err) == (3, f"artifact error: checkpoint {bad}: bad or missing config "
                                  f"metadata (d_model (32) must be divisible by num_heads (3))\n")
        assert not out.exists()

    def test_report_path_is_a_directory_exit_2(self, workspace, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "eval_test.csv").mkdir(parents=True)
        code, err = self.run_eval(workspace, out, capsys)
        assert (code, err) == (2, f"error: {out / 'eval_test.csv'}: Is a directory\n")
        assert sorted(p.name for p in out.iterdir()) == ["eval_test.csv"]

    def test_output_dir_naming_a_file_exit_2(self, workspace, tmp_path, capsys):
        out = tmp_path / "file"
        out.write_text("kept\n")
        code, err = self.run_eval(workspace, out, capsys)
        assert code == 2
        assert err.startswith(f"error: cannot create output directory {out}: ")
        assert out.read_text() == "kept\n"


class TestEvalMasksimSweep:
    def test_eval_reports(self, workspace):
        ckpt = workspace["out"] / "model.ckpt"
        assert main(["eval", "--config", str(workspace["config"]),
                     "--checkpoint", str(ckpt), "--corpus", "test", "--tag", "dense"]) == 0
        rows = csv_rows(workspace["out"] / "dense.csv")
        assert rows[0][0] == "model_fingerprint"
        assert float(rows[1][3]) >= 1.0

    def test_eval_dense_vs_pruned(self, workspace):
        # compare on the training distribution, where the dense model is near-optimal
        dense_ckpt = workspace["out"] / "model.ckpt"
        pruned_ckpt = workspace["out"] / "pruned.ckpt"
        assert main(["eval", "--config", str(workspace["config"]),
                     "--checkpoint", str(dense_ckpt), "--corpus", "open",
                     "--tag", "e_dense"]) == 0
        assert main(["eval", "--config", str(workspace["config"]),
                     "--checkpoint", str(pruned_ckpt), "--corpus", "open",
                     "--tag", "e_pruned"]) == 0
        dense_ppl = float(csv_rows(workspace["out"] / "e_dense.csv")[1][3])
        pruned_ppl = float(csv_rows(workspace["out"] / "e_pruned.csv")[1][3])
        assert pruned_ppl >= dense_ppl * 0.9

    def test_masksim_self_is_half(self, workspace):
        mask = workspace["out"] / "mask.bin"
        assert main(["masksim", "--config", str(workspace["config"]),
                     str(mask), str(mask)]) == 0
        rows = csv_rows(workspace["out"] / "masksim.csv")
        assert rows[0][0] == "layer"
        assert all(float(x) == 0.5 for x in rows[1][1:])

    def test_non_finite_model_exit_4(self, workspace, tmp_path, capsys):
        # one NaN norm weight: no mask prunes it, so every sweep point sees it
        model = load_checkpoint(workspace["out"] / "model.ckpt")
        model.params["final_norm"].data[0] = np.nan
        ckpt = tmp_path / "nan.ckpt"
        save_checkpoint(model, ckpt)
        c = read_container(workspace["out"] / "dual_scores.bin", expect_kind="scores.dual")
        scores = tmp_path / "nan_scores.bin"
        write_container(scores, c.kind, {**c.meta, "model_fingerprint": model.fingerprint()},
                        list(c.blocks.items()))
        out = tmp_path / "out"
        flags = ["--config", str(workspace["config"]), "--checkpoint", str(ckpt),
                 "--output-dir", str(out)]
        assert main(["eval", *flags]) == 4
        assert main(["sweep", *flags, "--scores", str(scores), "--sparsities", "0,0.5"]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["numeric error: mean_corpus_loss: non-finite loss nan on sequences 0..7"] * 2
        assert not out.exists()

    def test_masksim_block_byte_count_mismatch_exit_3(self, workspace, tmp_path, capsys):
        # a b1 block of shape (3, 9) that holds 3 bytes: one per row, not two
        header = b"kind=mask\nblock=layers.0.q|b1|3,9|0|3\n"
        bad = tmp_path / "bad_mask.bin"
        bad.write_bytes(MAGIC + bytes([FORMAT_VERSION]) + len(header).to_bytes(4, "little")
                        + header + bytes(3))
        out = tmp_path / "out"
        assert main(["masksim", "--config", str(workspace["config"]), "--output-dir", str(out),
                     str(bad), str(workspace["out"] / "mask.bin")]) == 3
        assert "block layers.0.q has 3 bytes, but b1 shape (3, 9) takes 6" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("blocks,message", [
        ({"embed": (256, 32)}, "embed is not a projection of layers 0..0"),
        ({"layers.0.q": (32, 32)}, "masks lack layers.0.k"),
    ], ids=["foreign", "missing"])
    def test_masksim_of_a_mask_without_every_projection_exit_2(self, workspace, tmp_path, capsys,
                                                                blocks, message):
        path = tmp_path / "partial_mask.bin"
        save_mask(Mask({name: np.ones(shape, dtype=np.uint8) for name, shape in blocks.items()},
                       sparsity=0.0, mode="per-matrix"), path)
        out = tmp_path / "out"
        assert main(["masksim", "--config", str(workspace["config"]), "--output-dir", str(out),
                     str(path), str(path)]) == 2
        assert capsys.readouterr().err == f"error: mask_similarity: {message}\n"
        assert not out.exists()

    def test_sweep_csv_rows(self, workspace):
        assert main(["sweep", "--config", str(workspace["config"]),
                     "--checkpoint", str(workspace["out"] / "model.ckpt"),
                     "--scores", str(workspace["out"] / "dual_scores.bin"),
                     "--corpus", "test",
                     "--sparsities", "0.1,0.2,0.3,0.4,0.5,0.6,0.7"]) == 0
        rows = csv_rows(workspace["out"] / "sweep.csv")
        assert rows[0] == ["sparsity", "perplexity"]
        assert len(rows) == 8

    def test_sweep_identical_reruns(self, workspace):
        path = workspace["out"] / "sweep.csv"
        first = path.read_bytes()
        assert main(["sweep", "--config", str(workspace["config"]),
                     "--checkpoint", str(workspace["out"] / "model.ckpt"),
                     "--scores", str(workspace["out"] / "dual_scores.bin"),
                     "--corpus", "test",
                     "--sparsities", "0.1,0.2,0.3,0.4,0.5,0.6,0.7"]) == 0
        assert path.read_bytes() == first

    def test_sweep_unparsable_sparsity_exit_2(self, workspace, tmp_path, capsys):
        assert main(["sweep", "--config", str(workspace["config"]),
                     "--checkpoint", str(workspace["out"] / "model.ckpt"),
                     "--scores", str(workspace["out"] / "dual_scores.bin"),
                     "--sparsities", "0.1,abc", "--output-dir", str(tmp_path)]) == 2
        assert "--sparsities: cannot parse 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_sweep_repeated_sparsity_exit_2(self, workspace, tmp_path, capsys):
        assert main(["sweep", "--config", str(workspace["config"]),
                     "--checkpoint", str(workspace["out"] / "model.ckpt"),
                     "--scores", str(workspace["out"] / "dual_scores.bin"),
                     "--sparsities", "0.5,0.5", "--output-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: sparsity_sweep: sparsity 0.5 given more than once\n"
        assert captured.out == ""
        assert not (tmp_path / "sweep.csv").exists()

    def test_sweep_empty_sparsity_list_exit_2(self, workspace, tmp_path, capsys):
        assert main(["sweep", "--config", str(workspace["config"]),
                     "--checkpoint", str(workspace["out"] / "model.ckpt"),
                     "--scores", str(workspace["out"] / "dual_scores.bin"),
                     "--sparsities", ",", "--output-dir", str(tmp_path)]) == 2
        assert "no sparsities given" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_sweep_scores_of_another_model_exit_2(self, workspace, tmp_path, capsys):
        # the pruned checkpoint is a different model from the one the scores were computed for
        assert main(["sweep", "--config", str(workspace["config"]),
                     "--checkpoint", str(workspace["out"] / "pruned.ckpt"),
                     "--scores", str(workspace["out"] / "dual_scores.bin"),
                     "--output-dir", str(tmp_path)]) == 2
        assert "different model" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("key,value", [("sample_count", "abc"),
                                           ("general_corpus_fingerprint", None),
                                           ("normalized", "1")])
    def test_sweep_bad_score_metadata_exit_3(self, workspace, tmp_path, key, value):
        c = read_container(workspace["out"] / "dual_scores.bin", expect_kind="scores.dual")
        meta = dict(c.meta)
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        bad = tmp_path / "bad_scores.bin"
        write_container(bad, c.kind, meta, list(c.blocks.items()))
        assert main(["sweep", "--config", str(workspace["config"]),
                     "--checkpoint", str(workspace["out"] / "model.ckpt"),
                     "--scores", str(bad), "--output-dir", str(tmp_path)]) == 3

    @pytest.mark.parametrize("mode", ["per-matrix", "blocked"])
    def test_sweep_scores_without_matrices_exit_2(self, workspace, tmp_path, mode):
        c = read_container(workspace["out"] / "dual_scores.bin", expect_kind="scores.dual")
        empty = tmp_path / "empty_scores.bin"
        write_container(empty, c.kind, dict(c.meta), [])
        assert main(["sweep", "--config", str(workspace["config"]),
                     "--checkpoint", str(workspace["out"] / "model.ckpt"),
                     "--scores", str(empty), "--mode", mode, "--output-dir", str(tmp_path)]) == 2
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("mode", ["per-matrix", "blocked"])
    def test_sweep_malformed_score_matrix_exit_2(self, workspace, tmp_path, capsys, mode):
        c = read_container(workspace["out"] / "dual_scores.bin", expect_kind="scores.dual")
        blocks = dict(c.blocks)
        blocks["layers.0.q"] = blocks["layers.0.q"].reshape(-1)
        bad = tmp_path / "flat_scores.bin"
        write_container(bad, c.kind, dict(c.meta), list(blocks.items()))
        assert main(["sweep", "--config", str(workspace["config"]),
                     "--checkpoint", str(workspace["out"] / "model.ckpt"),
                     "--scores", str(bad), "--mode", mode, "--output-dir", str(tmp_path)]) == 2
        assert ("score matrix layers.0.q must be 2-D with at least one column, got shape (1024,)"
                in capsys.readouterr().err)
        assert not (tmp_path / "sweep.csv").exists()

    def test_sweep_non_finite_score_exit_4(self, workspace, tmp_path, capsys):
        c = read_container(workspace["out"] / "dual_scores.bin", expect_kind="scores.dual")
        blocks = dict(c.blocks)
        blocks["layers.0.up"] = blocks["layers.0.up"].copy()
        blocks["layers.0.up"][3, 5] = np.nan
        bad = tmp_path / "nan_scores.bin"
        write_container(bad, c.kind, dict(c.meta), list(blocks.items()))
        assert main(["sweep", "--config", str(workspace["config"]),
                     "--checkpoint", str(workspace["out"] / "model.ckpt"),
                     "--scores", str(bad), "--output-dir", str(tmp_path)]) == 4
        assert ("numeric error: score matrix layers.0.up has non-finite entries"
                in capsys.readouterr().err)
        assert not (tmp_path / "sweep.csv").exists()


class TestConfigHandling:
    def test_env_var_overrides_file(self, workspace, tmp_path, monkeypatch):
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("DUALPRUNE_OUTPUT_DIR", str(env_dir))
        assert main(["calibrate", "--config", str(workspace["config"])]) == 0
        assert (env_dir / "train.corpus.json").is_file()

    def test_flag_overrides_env(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("DUALPRUNE_OUTPUT_DIR", str(tmp_path / "env_out"))
        flag_dir = tmp_path / "flag_out"
        assert main(["calibrate", "--config", str(workspace["config"]),
                     "--output-dir", str(flag_dir)]) == 0
        assert (flag_dir / "train.corpus.json").is_file()

    def test_unknown_config_key_exit_2(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("not_a_key=1\n")
        assert main(["calibrate", "--config", str(config)]) == 2

    @pytest.mark.parametrize("line", ["fisher_source=general", "normalize_general=1"])
    def test_removed_scoring_key_exit_2(self, tmp_path, capsys, line):
        config = tmp_path / "old.cfg"
        config.write_text(line + "\n")
        assert main(["calibrate", "--config", str(config)]) == 2
        key = line.partition("=")[0]
        assert f"unknown config key {key!r}" in capsys.readouterr().err

    def test_malformed_line_exit_2(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("jibberish\n")
        assert main(["calibrate", "--config", str(config)]) == 2

    def test_field_name_lam_is_no_config_key_exit_2(self, tmp_path, capsys):
        config = tmp_path / "lam.cfg"
        config.write_text("lam=0.5\n")
        assert main(["calibrate", "--config", str(config)]) == 2
        assert capsys.readouterr().err == "error: unknown config key 'lam'\n"

    @pytest.mark.parametrize("lines", [["steps=3", "steps=7"], ["lambda=0.1", "# note", " lambda = 0.2"]],
                             ids=["steps", "lambda-spaced"])
    def test_repeated_config_key_exit_2(self, tmp_path, capsys, lines):
        config = tmp_path / "twice.cfg"
        config.write_text("\n".join(lines) + "\n")
        assert main(["calibrate", "--config", str(config)]) == 2
        key = lines[0].partition("=")[0]
        assert capsys.readouterr().err == (f"error: {config}:{len(lines)}: config key {key!r} "
                                           f"set a second time\n")

    def test_missing_config_file_exit_2(self):
        assert main(["calibrate", "--config", "/does/not/exist.cfg"]) == 2

    def test_config_file_not_utf8_exit_2(self, tmp_path, capsys):
        config = tmp_path / "latin1.cfg"
        config.write_bytes("output_dir=caf\xe9\n".encode("latin-1"))
        assert main(["calibrate", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {config}: 'utf-8' codec can't decode")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command, flag, value, message", [
        ("prune", "--lambda", "nan", "lambda must be finite and >= 0, got nan"),
        ("prune", "--alpha", "inf", "alpha must be finite and > 0, got inf"),
        ("general-importance", "--damping", "nan", "damping must be finite and > 0, got nan"),
        ("pretrain", "--learning-rate", "nan", "learning_rate must be finite and > 0, got nan"),
        ("pretrain", "--learning-rate", "inf", "learning_rate must be finite and > 0, got inf"),
    ], ids=["lambda-nan", "alpha-inf", "damping-nan", "learning-rate-nan", "learning-rate-inf"])
    def test_non_finite_value_exit_2(self, workspace, tmp_path, capsys, command, flag, value,
                                     message):
        self._assert_rejected(workspace, tmp_path, capsys, command, flag, value, message)

    @pytest.mark.parametrize("command, flag, value, message", [
        ("prune", "--sparsity", "1.0", "sparsity must lie in [0, 1), got 1.0"),
        ("prune", "--mode", "diagonal", "unknown mask mode 'diagonal'"),
        ("prune", "--block-size", "0", "block size must be an int >= 1, got 0"),
        ("prune", "--method", "rand", "unknown pruning method 'rand'"),
    ], ids=["sparsity-1", "mode-diagonal", "block-size-0", "method-rand"])
    def test_bad_option_exit_2(self, workspace, tmp_path, capsys, command, flag, value, message):
        self._assert_rejected(workspace, tmp_path, capsys, command, flag, value, message)

    def test_magnitude_with_blocked_mode_exit_2(self, workspace, tmp_path, capsys):
        self._assert_rejected(workspace, tmp_path, capsys, "prune", "--mode", "blocked",
                              "method magnitude selects per-matrix masks only; mode must be "
                              "'per-matrix', got 'blocked'", "--method", "magnitude")

    @staticmethod
    def _assert_rejected(workspace, tmp_path, capsys, command, flag, value, message, *more_args):
        ckpt = ["--checkpoint", str(workspace["out"] / "model.ckpt")]
        inputs = {"pretrain": [], "general-importance": ckpt,
                  "prune": [*ckpt, "--general-scores", str(workspace["out"] / "general_scores.bin")]}
        assert main([command, "--config", str(workspace["config"]), *inputs[command], flag, value,
                     *more_args, "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not any(tmp_path.iterdir())

    def test_lambda_validation_exit_2(self, workspace, tmp_path):
        assert main(["pretrain", "--config", str(workspace["config"]),
                     "--lambda", "-1", "--output-dir", str(tmp_path)]) == 2


# (name, type, default) of every RunConfig field; each is also a flag of every subcommand
RUN_CONFIG_FIELDS = [
    ("vocab_size", int, 256), ("context_length", int, 64), ("num_layers", int, 2),
    ("d_model", int, 64), ("num_heads", int, 4), ("d_ff", int, 128), ("seed", int, 0),
    ("train_corpus", str, ""), ("open_corpus", str, ""), ("domain_corpus", str, ""),
    ("test_corpus", str, ""), ("train_samples", int, 512), ("open_samples", int, 128),
    ("domain_samples", int, 128), ("test_samples", int, 64), ("sequence_length", int, 64),
    ("train_region", str, "0:1"), ("open_region", str, "0:1"), ("domain_region", str, "0:1"),
    ("test_region", str, "0:1"), ("steps", int, 2000), ("learning_rate", float, 0.3),
    ("batch_size", int, 8), ("log_every", int, 50), ("lam", float, 0.1), ("alpha", float, 0.03),
    ("damping", float, 1e-4),
    ("sparsity", float, 0.5), ("mode", str, "per-matrix"), ("block_size", int, 16),
    ("method", str, "dual"), ("output_dir", str, "runs/default"),
]
COMMAND_OPTIONS = {
    "calibrate": [],
    "pretrain": [],
    "general-importance": ["--checkpoint"],
    "prune": ["--checkpoint", "--general-scores"],
    "eval": ["--checkpoint", "--corpus", "--corpus-cache", "--tag"],
    "masksim": ["mask_a", "mask_b"],
    "sweep": ["--checkpoint", "--scores", "--corpus", "--corpus-cache", "--sparsities"],
}


class TestSurface:
    """The command-line surface: config fields, their defaults and every option string."""

    def test_run_config_fields(self):
        hints = get_type_hints(RunConfig)
        assert [(f.name, hints[f.name], f.default) for f in fields(RunConfig)] == RUN_CONFIG_FIELDS

    def test_option_strings(self):
        config_flags = [f"--{('lambda' if name == 'lam' else name).replace('_', '-')}"
                        for name, _, _ in RUN_CONFIG_FIELDS]
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(COMMAND_OPTIONS)
        for command, parser in sub.choices.items():
            options = [o for a in parser._actions for o in (a.option_strings or [a.dest])]
            assert options == ["-h", "--help", "--config", *config_flags,
                               *COMMAND_OPTIONS[command]], command


class TestFlagSpelling:
    """A flag has one spelling: argparse's prefix matching is off."""

    PRUNE = ["prune", "--checkpoint", "x"]

    @pytest.mark.parametrize("flags", [["--lam", "7"], ["--spars", "0.3"],
                                       ["--lam", "7", "--spars", "0.3"], ["--check", "y"]])
    def test_flag_prefix_exits_2(self, capsys, flags):
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args([*self.PRUNE, *flags])
        assert raised.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--lambda", "7", "--sparsity", "0.3"],
                                       ["--lambda=7", "--sparsity=0.3"]])
    def test_full_names_parse(self, flags):
        args = build_parser().parse_args([*self.PRUNE, *flags])
        assert (args.checkpoint, args.lam, args.sparsity) == ("x", 7.0, 0.3)


def run_python(args, cwd, env, preexec_fn=None) -> str:
    """The stdout of `python *args` run in `cwd`."""
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env, preexec_fn=preexec_fn,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, (args, done.stderr)
    return done.stdout


# sha256 of each artifact of `recipe_runs`, with the numpy version and the
# OpenBLAS core that wrote them: their bits depend on both.
MANIFEST = Path(__file__).with_name("artifacts.sha256.json")
# openblas_get_corename under the symbol names of the builds numpy ships with.
CORENAME_GETTERS = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                    "openblas_get_corename64_", "openblas_get_corename")


def openblas_core() -> str:
    """The name of the core the loaded OpenBLAS runs its kernels for."""
    for path in dualprune._loaded_openblas():
        lib = ctypes.CDLL(path)
        for symbol in CORENAME_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_char_p
                return getter().decode()
    return "unknown"


@pytest.fixture(scope="class")
def recipe_runs(workspace, tmp_path_factory, package_env):
    """pretrain -> general-importance -> prune -> eval -> sweep at batch size 8,
    then a magnitude prune into `magnitude/` and the masksim of the two masks,
    through `python -m dualprune.cli`, once on one CPU (1 worker), once
    unrestricted and once unrestricted under OPENBLAS_NUM_THREADS=2:
    {run: (workers, output directory `run`)}."""
    common = ["--config", str(workspace["config"]), "--batch-size", "8"]
    config = [*common, "--output-dir", "run"]
    stages = [["pretrain", *config],
              ["general-importance", *config, "--checkpoint", "run/model.ckpt"],
              ["prune", *config, "--checkpoint", "run/model.ckpt",
               "--general-scores", "run/general_scores.bin"],
              ["eval", *config, "--checkpoint", "run/pruned.ckpt"],
              ["sweep", *config, "--checkpoint", "run/model.ckpt", "--scores", "run/dual_scores.bin"],
              ["prune", *common, "--output-dir", "magnitude", "--method", "magnitude",
               "--checkpoint", "run/model.ckpt"],
              ["masksim", *config, "run/mask.bin", "magnitude/mask.bin"]]
    one_cpu = {min(os.sched_getaffinity(0))}
    runs = {}
    for name, preexec_fn, env in (("one", lambda: os.sched_setaffinity(0, one_cpu), package_env),
                                  ("all", None, package_env),
                                  ("blas2", None, dict(package_env, OPENBLAS_NUM_THREADS="2"))):
        cwd = tmp_path_factory.mktemp(name)
        workers = int(run_python(["-c", "from dualprune import model; print(model.EVAL_WORKERS)"],
                                 cwd, env, preexec_fn))
        for argv in stages:
            run_python(["-m", "dualprune.cli", *argv], cwd, env, preexec_fn)
        runs[name] = workers, cwd / "run"
    return runs


def assert_same_artifacts(one_dir, other_dir):
    names = sorted(p.name for p in one_dir.iterdir())
    assert names == sorted(p.name for p in other_dir.iterdir())
    for name in names:
        assert (one_dir / name).read_bytes() == (other_dir / name).read_bytes(), name


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable CPUs and an affinity call")
class TestPoolSize:
    def test_artifacts_do_not_depend_on_the_worker_count(self, recipe_runs):
        (one, one_dir), (all_, all_dir) = recipe_runs["one"], recipe_runs["all"]
        assert one == 1 and all_ >= 2
        assert_same_artifacts(one_dir, all_dir)

    def test_artifacts_do_not_depend_on_the_blas_threads(self, recipe_runs):
        """The import-time pin runs OpenBLAS on one thread whatever the
        environment asks for, so every artifact keeps its bits."""
        assert_same_artifacts(recipe_runs["all"][1], recipe_runs["blas2"][1])

    def test_artifacts_match_the_manifest(self, recipe_runs):
        """Skipped, not failed, in another environment: tier-1 may run on
        another CPU core, whose OpenBLAS kernels may round differently."""
        manifest = json.loads(MANIFEST.read_text())
        here = {"numpy": np.__version__, "openblas_core": openblas_core()}
        hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in sorted(recipe_runs["all"][1].iterdir())}
        rewritten = json.dumps({**manifest, **here, "sha256": hashes}, indent=2) + "\n"
        recorded = {key: manifest[key] for key in here}
        if recorded != here:
            pytest.skip(f"{MANIFEST.name} was written under {recorded}, this is {here}; "
                        f"here it would read:\n{rewritten}")
        assert hashes == manifest["sha256"], \
            f"artifacts differ from {MANIFEST.name}; if the change is meant, write:\n{rewritten}"
