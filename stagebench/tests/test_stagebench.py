"""Tests of the stage benchmark itself.

Every workload runs at smoke size with every check and must pass; each
check must catch a deliberately corrupted output; the metric names must
match BENCHMARK.json; and a directory without the program must make the
benchmark fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from dualprune import importance, pruning, tensor  # noqa: E402
from dualprune.corpus import Corpus  # noqa: E402
from dualprune.evaluation import SweepResult  # noqa: E402
from dualprune.model import ModelConfig, init_model, pretrain, prunable_names  # noqa: E402
from dualprune.tensor import Tensor  # noqa: E402

from stagebench import checks  # noqa: E402
from stagebench.textgen import mixed_text, prose_text  # noqa: E402
from stagebench.workloads import WORKLOADS, Run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke_run(workload, trace, tmp_path):
    run = Run(workload, seed=3, seconds=1.0, trace=trace, smoke=True,
              workdir=tmp_path / "work", blas_threads=1)
    try:
        return run.execute()
    finally:
        run.cleanup()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_every_check(workload, tmp_path):
    result = smoke_run(workload, False, tmp_path)
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] > 0
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(result["metrics"]) == names
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


def test_traced_smoke_run_reports_every_layer_metric_and_unwraps(tmp_path):
    originals = (tensor.matmul, tensor.GradientTape.record, importance.mean_corpus_loss,
                 pruning.write_container)
    result = smoke_run("score", True, tmp_path)
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert result["metrics"]["tensor.matmul.calls"]["value"] > 0
    assert result["metrics"]["importance.oracle_forwards_per_weight"]["value"] == 2.0
    assert (tensor.matmul, tensor.GradientTape.record, importance.mean_corpus_loss,
            pruning.write_container) == originals


def test_benchmark_json_units_match_reported_units(tmp_path):
    result = smoke_run("oracle", False, tmp_path)
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_directory_without_program_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "stagebench", tmp_path / "stagebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "stagebench/run.py", "--workload", "score", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


# ---------------------------------------------------------------------------
# corrupted outputs are caught

@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(7)
    mixed = np.frombuffer(mixed_text(rng, 8000).encode(), dtype=np.uint8).astype(np.int64)
    prose = np.frombuffer(prose_text(rng, 2000).encode(), dtype=np.uint8).astype(np.int64)
    train = Corpus("train", [mixed[i:i + 32] for i in range(0, 6400, 32)])
    open_c = Corpus("open", [mixed[i:i + 32] for i in range(6400, 6400 + 6 * 32, 32)])
    domain = Corpus("domain", [prose[i:i + 32] for i in range(0, 6 * 32, 32)])
    model = init_model(ModelConfig(context_length=32, seed=1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pretrain(model, train, steps=5, learning_rate=0.3, batch_size=4)
        G = importance.general_importance(model, open_c)
    S = importance.dual_importance_scores(model, domain, G)
    return {"model": model, "open": open_c, "domain": domain, "G": G, "S": S,
            "open_grads": checks.sample_gradients(model, open_c),
            "domain_grads": checks.sample_gradients(model, domain)}


def test_honest_outputs_pass(setup):
    m = setup["model"]
    checks.check_general_scores(setup["G"], m, setup["open_grads"])
    checks.check_dual_scores(setup["S"], m, setup["G"], setup["domain_grads"])
    stats = importance.next_token_gradients(m, setup["domain"])
    checks.check_batched_mean_gradient(stats, m, setup["domain"])
    checks.check_fisher_inequality(stats)
    checks.check_finite_differences(m, setup["domain"].sequences[0])


def test_mask_with_one_extra_zero_is_caught(setup):
    mask = pruning.select_mask_per_matrix(setup["S"], 0.5)
    names = prunable_names(setup["model"].config)
    checks.check_mask(mask, setup["S"].scores, names)
    m = mask.masks[names[0]].reshape(-1)
    m[np.flatnonzero(m)[0]] = 0
    with pytest.raises(checks.CheckError, match="zeros"):
        checks.check_mask(mask, setup["S"].scores, names)


def test_mask_pruning_a_better_weight_is_caught(setup):
    mask = pruning.select_mask_blocked(setup["S"], 0.5, 16)
    names = prunable_names(setup["model"].config)
    name = names[3]
    scores = setup["S"].scores[name][:, :16]
    block = mask.masks[name][:, :16]
    best_kept = np.unravel_index(np.argmax(np.where(block == 1, scores, -np.inf)), block.shape)
    worst_pruned = np.unravel_index(np.argmin(np.where(block == 0, scores, np.inf)), block.shape)
    block[best_kept], block[worst_pruned] = 0, 1
    with pytest.raises(checks.CheckError, match="outscores"):
        checks.check_mask(mask, setup["S"].scores, names)


def test_perturbed_gradient_is_caught(setup):
    grads = setup["domain_grads"]
    name = "layers.1.up"
    i = np.unravel_index(np.argmax(np.abs(setup["model"].params[name].data) * grads.mean_abs[name]),
                         grads.mean[name].shape)
    bad = checks.SampleGradients({k: v.copy() for k, v in grads.mean.items()},
                                 grads.mean_square, grads.mean_abs, grads.count)
    bad.mean[name][i] *= 1.0 + 1e-6
    with pytest.raises(checks.CheckError, match="dual scores"):
        checks.check_dual_scores(setup["S"], setup["model"], setup["G"], bad)


def test_perturbed_fisher_is_caught(setup):
    grads = setup["open_grads"]
    bad = checks.SampleGradients(grads.mean, {k: v.copy() for k, v in grads.mean_square.items()},
                                 grads.mean_abs, grads.count)
    bad.mean_square["layers.0.q"][0, 0] *= 1.001
    with pytest.raises(checks.CheckError, match="general scores"):
        checks.check_general_scores(setup["G"], setup["model"], bad)


def test_perturbed_mean_gradient_and_fisher_violation_are_caught(setup):
    m = setup["model"]
    stats = importance.next_token_gradients(m, setup["domain"])
    stats.mean["layers.0.down"] = stats.mean["layers.0.down"] * (1.0 + 1e-6)
    with pytest.raises(checks.CheckError, match="batched"):
        checks.check_batched_mean_gradient(stats, m, setup["domain"])
    stats.mean_square["layers.0.down"] = stats.mean["layers.0.down"] ** 2 * 0.5
    with pytest.raises(checks.CheckError, match="E\\[g\\^2\\]"):
        checks.check_fisher_inequality(stats)


def test_wrong_tape_gradient_is_caught(setup, monkeypatch):
    real = tensor.backward

    def skewed(tape, loss):
        return {tid: Tensor(g.data * 1.01) for tid, g in real(tape, loss).items()}

    monkeypatch.setattr(checks.T, "backward", skewed)
    with pytest.raises(checks.CheckError, match="finite difference"):
        checks.check_finite_differences(setup["model"], setup["domain"].sequences[0])


def test_wrong_oracle_delta_is_caught(setup):
    m, c = setup["model"], setup["open"]
    indices = [3, 200]
    deltas = importance.brute_force_importance(m, c, (0, "v"), indices)
    checks.check_oracle(m, c, "layers.0.v", indices, deltas)
    deltas[1] *= 1.0 + 1e-6
    with pytest.raises(checks.CheckError, match="oracle delta"):
        checks.check_oracle(m, c, "layers.0.v", indices, deltas)


def test_container_byte_drift_and_sparsity_zero_drift_are_caught(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    a.write_bytes(b"\x00\x01")
    b.write_bytes(b"\x00\x02")
    arrays = {"w": np.arange(3.0)}
    with pytest.raises(checks.CheckError, match="different bytes"):
        checks.check_round_trip("w", arrays, {"w": np.arange(3.0)}, a, b)
    with pytest.raises(checks.CheckError, match="differ"):
        checks.check_round_trip("w", arrays, {"w": np.arange(3.0) + 1e-12}, a, a)
    sweep = SweepResult(rows=[(0.0, 10.000000001), (0.5, 12.0)], monotone=True)
    with pytest.raises(checks.CheckError, match="sparsity 0"):
        checks.check_sparsity_zero(sweep, 10.0)


def test_spearman_matches_definition():
    assert checks.spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert checks.spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
    assert checks.spearman([1, 2, 2, 3], [1, 3, 2, 4]) == pytest.approx(0.9486832980505138)
