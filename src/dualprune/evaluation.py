"""Perplexity evaluation, sparsity sweeps and mask-similarity analysis."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .model import PROJECTIONS, TransformerModel, mean_corpus_loss, prunable_names
from .pruning import MODE_PER_MATRIX, Mask, apply_mask, select_masks


@dataclass
class EvalReport:
    model_fingerprint: str
    corpus_name: str
    mean_loss: float
    perplexity: float
    token_count: int


@dataclass
class SimilarityReport:
    """Shared kept-weight fraction per matrix, with per-kind and per-layer means."""
    per_matrix: dict[str, float]
    by_kind: dict[str, float]
    by_layer: dict[int, float]


@dataclass
class SweepResult:
    rows: list[tuple[float, float]]  # (sparsity, perplexity)
    monotone: bool


def perplexity(model: TransformerModel, corpus) -> EvalReport:
    """exp of the token-count-weighted mean next-token cross-entropy."""
    mean_loss = mean_corpus_loss(model, corpus)
    return EvalReport(
        model_fingerprint=model.fingerprint(),
        corpus_name=corpus.name,
        mean_loss=mean_loss,
        perplexity=float(np.exp(mean_loss)),
        token_count=len(corpus) * (corpus.sequences.shape[1] - 1),
    )


def mask_similarity(mask_a: Mask, mask_b: Mask) -> SimilarityReport:
    """Per matrix: shared kept ("1") weights divided by the matrix size.

    The masks must cover the same matrices, every projection of layers
    0 .. L-1 for some L and nothing else; the first foreign or missing
    matrix is named."""
    if set(mask_a.masks) != set(mask_b.masks):
        raise ValidationError("mask_similarity: masks cover different matrices")
    layers = max(1, -(-len(mask_a.masks) // len(PROJECTIONS)))
    expected = {f"layers.{i}.{kind}": (i, kind) for i in range(layers) for kind in PROJECTIONS}
    foreign = [name for name in mask_a.masks if name not in expected]
    if foreign:
        raise ValidationError(f"mask_similarity: {foreign[0]} is not a projection of layers 0..{layers - 1}")
    missing = [name for name in expected if name not in mask_a.masks]
    if missing:
        raise ValidationError(f"mask_similarity: masks lack {missing[0]}")
    per_matrix: dict[str, float] = {}
    for name, a in mask_a.masks.items():
        b = mask_b.masks[name]
        if a.shape != b.shape:
            raise ValidationError(
                f"mask_similarity: shape mismatch for {name}: {a.shape} vs {b.shape}"
            )
        per_matrix[name] = float(np.logical_and(a == 1, b == 1).sum() / a.size)

    by_kind: dict[str, list[float]] = {}
    by_layer: dict[int, list[float]] = {}
    for name, frac in per_matrix.items():
        layer, kind = expected[name]
        by_kind.setdefault(kind, []).append(frac)
        by_layer.setdefault(layer, []).append(frac)
    return SimilarityReport(
        per_matrix=per_matrix,
        by_kind={k: float(np.mean(v)) for k, v in by_kind.items()},
        by_layer={k: float(np.mean(v)) for k, v in sorted(by_layer.items())},
    )


def sparsity_sweep(model: TransformerModel, scores, corpus, sparsity_list,
                   mode: str = MODE_PER_MATRIX, block_size=None) -> SweepResult:
    """Select, apply and evaluate a mask per sparsity, in ascending order of
    sparsity; flags the perplexity trend.

    Every mask comes from one `select_masks` call, so each pool is sorted once.
    A sparsity given twice (0 and -0 count as one) raises `ValidationError`.

    Scores that record the model they were computed for (a `model_fingerprint`)
    must come from `model`; a plain dict of arrays is taken as it is.
    """
    sparsity_list = sorted(s + 0.0 for s in sparsity_list)  # -0.0 as 0.0
    if not sparsity_list:
        raise ValidationError("sparsity_sweep: no sparsities given")
    repeated = [a for a, b in zip(sparsity_list, sparsity_list[1:]) if a == b]
    if repeated:
        raise ValidationError(f"sparsity_sweep: sparsity {repeated[0]} given more than once")
    rows: list[tuple[float, float]] = []
    for mask in select_masks(scores, sparsity_list, mode, block_size):
        report = perplexity(apply_mask(model, mask), corpus)
        rows.append((float(mask.sparsity), report.perplexity))
    monotone = all(b >= a for (_, a), (_, b) in zip(rows, rows[1:]))
    return SweepResult(rows=rows, monotone=monotone)


# ---------------------------------------------------------------------------
# report writers

def write_eval_report(report: EvalReport, csv_path, text_path, extra_lines: list[str]) -> None:
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model_fingerprint", "corpus", "mean_loss", "perplexity", "token_count"])
        writer.writerow([
            report.model_fingerprint, report.corpus_name,
            repr(report.mean_loss), repr(report.perplexity), report.token_count,
        ])
    lines = [
        f"corpus: {report.corpus_name}",
        f"tokens scored: {report.token_count}",
        f"mean next-token loss: {report.mean_loss:.6f}",
        f"perplexity: {report.perplexity:.4f}",
    ]
    lines.extend(extra_lines)
    Path(text_path).write_text("\n".join(lines) + "\n")


def write_similarity_grid(report: SimilarityReport, csv_path, text_path) -> None:
    """CSV grid of per-matrix similarities: one row per layer, one column per kind."""
    layers = sorted(report.by_layer)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer"] + list(PROJECTIONS))
        for layer in layers:
            row = [layer]
            for kind in PROJECTIONS:
                row.append(repr(report.per_matrix[f"layers.{layer}.{kind}"]))
            writer.writerow(row)
    lines = ["mask similarity (shared kept weights / matrix size)"]
    lines.append("by projection kind:")
    for kind in PROJECTIONS:
        lines.append(f"  {kind:>5s}: {report.by_kind[kind]:.4f}")
    lines.append("by layer:")
    for layer in layers:
        lines.append(f"  layer {layer}: {report.by_layer[layer]:.4f}")
    Path(text_path).write_text("\n".join(lines) + "\n")


def write_sweep_csv(result: SweepResult, csv_path) -> None:
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sparsity", "perplexity"])
        for sparsity, ppl in result.rows:
            writer.writerow([repr(sparsity), repr(ppl)])


def zero_fractions(model: TransformerModel) -> tuple[float, float]:
    """(zeros among prunable weights, zeros among all parameters)."""
    prunable_zero = prunable_total = 0
    all_zero = all_total = 0
    names = set(prunable_names(model.config))
    for name, t in model.params.items():
        z = int((t.data == 0.0).sum())
        all_zero += z
        all_total += t.data.size
        if name in names:
            prunable_zero += z
            prunable_total += t.data.size
    return prunable_zero / prunable_total, all_zero / all_total
