"""Run-time wrapping of dualprune's public functions, recording spans.

Nothing in the program is edited: `Tracer.install` replaces module
attributes with wrappers and `Tracer.uninstall` puts the originals back.
A function imported by name into another module (``from .model import
mean_corpus_loss``) is a second reference to the same object, so every
dualprune module holding that object gets the wrapper.  Backward time per
tape primitive comes from wrapping each backward closure as it is
recorded on the tape; the closure's ``__qualname__`` names its primitive.

Spans (name, start, end, parent) are kept in flat arrays in memory and
summarised at the end: call count, total time and self time per name.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter
from typing import Callable

import numpy as np

import dualprune
from dualprune import model, tensor

TAPE_OPS = (
    "matmul", "add", "mul", "silu", "softmax_last", "rms_norm", "embedding_lookup",
    "causal_mask_add", "cross_entropy", "reshape", "transpose",
)

# (module, function) pairs wrapped as layer spans named "<module>.<function>".
LAYER_FUNCTIONS = {
    "tensor": TAPE_OPS + ("backward",),
    "model": ("mean_corpus_loss", "pretrain", "next_token_loss", "batch_next_token_loss"),
    "importance": (
        "next_token_gradients", "estimate_fisher_diagonal", "general_importance",
        "dual_importance_scores", "regularizer_gradient", "brute_force_importance",
        "save_general_scores", "load_general_scores", "save_dual_scores", "load_dual_scores",
    ),
    "pruning": ("select_mask_per_matrix", "select_mask_blocked", "magnitude_mask",
                "apply_mask", "save_mask", "load_mask"),
    "evaluation": ("perplexity", "sparsity_sweep"),
    "corpus": ("build_calibration",),
    "container": ("write_container", "read_container"),
}

# Counts recorded at a boundary, from the call's arguments.
ARGUMENT_COUNTS: dict[str, Callable] = {
    "importance.next_token_gradients": lambda args, kw: len(args[1].sequences),
    "importance.brute_force_importance": lambda args, kw: len(args[3]),
    "tensor.backward": lambda args, kw: len(args[0].records),
}


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "dualprune" or name.startswith("dualprune."))]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.arg_count = array("q")
        self._stack: list[int] = []
        self._patches = Patches()

    # -- recording ----------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._id(name)
        count = ARGUMENT_COUNTS.get(name)
        stack, starts, ends = self._stack, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(starts)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            self.arg_count.append(0 if count is None else count(args, kwargs))
            stack.append(idx)
            starts[idx] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def mark(self) -> int:
        """Index of the next span; spans from here on belong to a later phase."""
        return len(self.start)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = _package_modules()
        for mod_name, functions in LAYER_FUNCTIONS.items():
            home = getattr(dualprune, mod_name)
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.set(mod, attr, wrapper)
        self._patches.set(model.TransformerModel, "forward",
                          self.wrap("model.forward", model.TransformerModel.forward))

        record = tensor.GradientTape.record

        def traced_record(tape, out, inputs, backward_fn):
            op = backward_fn.__qualname__.split(".")[0]
            return record(tape, out, inputs, self.wrap(f"tensor.{op}.bwd", backward_fn))

        self._patches.set(tensor.GradientTape, "record", traced_record)

    def uninstall(self) -> None:
        self._patches.restore()

    # -- summaries ----------------------------------------------------------

    def summary(self, lo: int = 0, hi: int | None = None) -> dict[str, dict[str, float]]:
        """Calls, total and self seconds per span name over spans [lo, hi)."""
        hi = len(self.start) if hi is None else hi
        if hi <= lo:
            return {}
        ids = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        dur = (np.frombuffer(self.end, dtype=np.float64)[lo:hi]
               - np.frombuffer(self.start, dtype=np.float64)[lo:hi])
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi] - lo
        inside = parent >= 0
        child = np.bincount(parent[inside], weights=dur[inside], minlength=hi - lo)
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=dur, minlength=n)
        self_time = np.bincount(ids, weights=dur - child, minlength=n)
        counted = np.bincount(ids, weights=np.frombuffer(self.arg_count, dtype=np.int64)[lo:hi],
                              minlength=n)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]),
                   "self_s": float(self_time[i]), "counted": int(counted[i])}
            for i, name in enumerate(self.names) if calls[i]
        }

    def top_level_seconds(self, lo: int = 0, hi: int | None = None) -> float:
        hi = len(self.start) if hi is None else hi
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        dur = (np.frombuffer(self.end, dtype=np.float64)[lo:hi]
               - np.frombuffer(self.start, dtype=np.float64)[lo:hi])
        return float(dur[parent < 0].sum())

    def calls_under(self, name: str, root: str, lo: int = 0, hi: int | None = None) -> int:
        """Number of `name` spans in [lo, hi) with a `root` span among their ancestors."""
        hi = len(self.start) if hi is None else hi
        nid, rid = self._name_ids.get(name), self._name_ids.get(root)
        if nid is None or rid is None:
            return 0
        under = bytearray(hi - lo)
        found = 0
        for i in range(lo, hi):
            p = self.parent[i]
            flag = self.name_id[i] == rid or (p >= lo and under[p - lo])
            under[i - lo] = flag
            if flag and self.name_id[i] == nid:
                found += 1
        return found
