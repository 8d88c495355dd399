"""Mask selection and application.

Selection always zeroes exactly floor(sparsity * pool_size) weights per pool,
where a pool is one prunable matrix (default) or, in blocked mode, one group
of `block_size` consecutive columns; the width is the same in every matrix.
Ties are broken toward the lowest flat index, so masks are reproducible.  A
mask records the model its scores name, if any, and applies to that model only.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .container import read_container, record_from_container, record_meta, write_container
from .errors import NumericError, ValidationError, check_int
from .model import TransformerModel, check_scored_model, prunable_names

MODE_PER_MATRIX = "per-matrix"
MODE_BLOCKED = "blocked"


@dataclass
class Mask:
    """Binary keep(1)/prune(0) indicators for every prunable matrix.

    `block_size` is the column width of a blocked mask's pools, the same in
    every matrix (None for a per-matrix mask).  A set `model_fingerprint`
    names the only model the mask may be applied to.
    """
    masks: dict[str, np.ndarray]
    sparsity: float
    mode: str
    block_size: int | None = None
    method: str = "dual"
    score_fingerprint: str | None = None
    model_fingerprint: str | None = None

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.sparsity!r}|{self.mode}|{self.method}".encode())
        for name in sorted(self.masks):
            m = self.masks[name]
            h.update(name.encode())
            h.update(repr(m.shape).encode())
            h.update(np.packbits(m.astype(np.uint8)).tobytes())
        return h.hexdigest()


def check_sparsity(sparsity: float) -> None:
    if not 0.0 <= sparsity < 1.0:
        raise ValidationError(f"sparsity must lie in [0, 1), got {sparsity}")


def check_mode(mode: str) -> None:
    if mode not in (MODE_PER_MATRIX, MODE_BLOCKED):
        raise ValidationError(f"unknown mask mode {mode!r}")


def check_block_size(block_size) -> None:
    check_int("block size", block_size, 1)


def select_masks(scores, sparsities, mode: str, block_size: int | None = None) -> list[Mask]:
    """One mask per sparsity: zero the floor(sparsity * pool size) lowest scores in every pool.

    A pool is a group of `block_size` consecutive columns of one matrix in
    blocked mode (the last group may be narrower), or the whole matrix; a
    per-matrix selection ignores `block_size`.  Ties go to the lowest flat
    index within the pool.  Each pool is sorted once for all sparsities.
    A NaN or infinite score has no rank, so it raises `NumericError`.
    """
    check_mode(mode)
    sparsities = list(sparsities)
    for sparsity in sparsities:
        check_sparsity(sparsity)
    if mode == MODE_BLOCKED:
        check_block_size(block_size)
    else:
        block_size = None
    per_matrix = scores.scores if hasattr(scores, "scores") else dict(scores)
    masks: list[dict[str, np.ndarray]] = [{} for _ in sparsities]
    for name, s in per_matrix.items():
        if s.ndim != 2 or s.shape[1] == 0:
            raise ValidationError(
                f"score matrix {name} must be 2-D with at least one column, got shape {s.shape}"
            )
        if not np.isfinite(s).all():
            raise NumericError(f"score matrix {name} has non-finite entries")
        width = block_size or s.shape[1]
        for chosen in masks:
            chosen[name] = np.empty(s.shape, dtype=np.uint8)
        for j0 in range(0, s.shape[1], width):
            pool = s[:, j0 : j0 + width]
            order = np.argsort(pool.reshape(-1), kind="stable")
            for chosen, sparsity in zip(masks, sparsities):
                keep = np.ones(pool.size, dtype=np.uint8)
                keep[order[: math.floor(sparsity * pool.size)]] = 0
                chosen[name][:, j0 : j0 + width] = keep.reshape(pool.shape)
    score_fingerprint = score_content_fingerprint(per_matrix)
    return [
        Mask(
            masks=chosen,
            sparsity=sparsity,
            mode=mode,
            block_size=block_size,
            method="dual",
            score_fingerprint=score_fingerprint,
            model_fingerprint=getattr(scores, "model_fingerprint", None),
        )
        for sparsity, chosen in zip(sparsities, masks)
    ]


def select_mask_per_matrix(scores, sparsity: float) -> Mask:
    """Zero the floor(sparsity * M) lowest-scored weights within each matrix."""
    return select_masks(scores, [sparsity], MODE_PER_MATRIX)[0]


def select_mask_blocked(scores, sparsity: float, block_size: int) -> Mask:
    """Independent sub-mask for every group of `block_size` consecutive columns.

    The pools are `block_size` columns wide in every matrix (the last group of
    a matrix may be narrower), and the mask records that width.
    """
    return select_masks(scores, [sparsity], MODE_BLOCKED, block_size)[0]


def score_content_fingerprint(arrays: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name], dtype="<f8").tobytes())
    return h.hexdigest()


def magnitude_mask(model: TransformerModel, sparsity: float) -> Mask:
    """Layer-wise magnitude baseline: per-matrix rule with |W| as the score."""
    scores = {name: np.abs(model.params[name].data) for name in prunable_names(model.config)}
    mask = select_mask_per_matrix(scores, sparsity)
    mask.method = "magnitude"
    mask.score_fingerprint = None
    mask.model_fingerprint = model.fingerprint()
    return mask


def apply_mask(model: TransformerModel, mask: Mask) -> TransformerModel:
    """Return a copy of the model with masked weights set to zero.

    Only the seven prunable projections per layer are touched; the mask's
    fingerprint is recorded on the copy for provenance.  A mask that records
    a model fingerprint must come from `model`.
    """
    if mask.model_fingerprint is not None:
        check_scored_model(model, mask.model_fingerprint, "mask")
    expected = prunable_names(model.config)
    if set(mask.masks) != set(expected):
        raise ValidationError("mask does not cover exactly the model's prunable matrices")
    for name in expected:
        if mask.masks[name].shape != model.params[name].data.shape:
            raise ValidationError(
                f"mask shape {mask.masks[name].shape} does not match {name} "
                f"shape {model.params[name].data.shape}"
            )
    pruned = model.copy()
    for name in expected:
        pruned.params[name].data *= mask.masks[name]
    pruned.meta["mask_fingerprint"] = mask.fingerprint()
    pruned.meta["mask_method"] = mask.method
    pruned.meta["mask_sparsity"] = repr(mask.sparsity)
    return pruned


# ---------------------------------------------------------------------------
# persistence: bit-packed blocks in the shared container format

def save_mask(mask: Mask, path) -> None:
    write_container(path, "mask", record_meta(mask), list(mask.masks.items()), bitpack=frozenset(mask.masks))


def load_mask(path) -> Mask:
    c = read_container(path, expect_kind="mask")
    return record_from_container(Mask, c, path)
