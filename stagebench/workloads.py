"""The benchmark's workloads: set-up, measured rounds, checks and metrics.

Every workload runs the same pipeline of stages in every round (pretrain,
general importance, dual scores, 50% masks and evaluation, sparsity sweep,
container writes and reads, removal oracle); the sizes decide which stage
takes nearly all the time:

* pretrain: 200 batch-8 SGD steps from a fresh init, then the rest of the
  pipeline at modest calibration size;
* score: general importance and dual scores on 384-sequence calibration
  sets (batch-1 gradient passes) and a six-point sparsity sweep in both
  mask modes, from a checkpoint built in set-up;
* oracle: the exact removal oracle on 6 seeded weights of each of the 14
  prunable matrices (forward-only batch-32 passes), from a set-up checkpoint.

Rounds repeat until the run's time is up.  The reference kernel is sampled
before every stage and, through `Ticker`, every 0.1 s inside stages; each
`*_ref` metric is a median, over rounds or items, of work measured in
reference units.  Every round starts from the same state, so every round
must give bit-identical outputs.
"""

from __future__ import annotations

import hashlib
import math
import resource
import shutil
import statistics
import sys
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from dualprune import corpus, evaluation, importance, pruning
from dualprune import model as model_mod
from dualprune.corpus import CalibrationSpec, Corpus
from dualprune.model import ModelConfig, init_model, prunable_matrices, prunable_names
from dualprune.pruning import MODE_BLOCKED, MODE_PER_MATRIX

from . import checks
from .refkernel import RefClock
from .spans import TAPE_OPS, Patches, Tracer
from .textgen import mixed_text, prose_text

WORKLOADS = ("pretrain", "score", "oracle")
LEARNING_RATE = 0.3
BATCH_SIZE = 8
SEQUENCE_LENGTH = 64
BLOCK_SIZE = 16
SPARSITY = 0.5
# Training below this share of ln 256 (the loss of a uniform guess) shows
# the model learned the byte statistics of its corpus.
LOSS_SHARE_OF_UNIFORM = 0.75


@dataclass(frozen=True)
class Sizes:
    pretraining_bytes: int  # fixed pretraining text (does not depend on the seed)
    mixed_bytes: int        # seeded open-domain text
    domain_bytes: int       # seeded prose
    train_samples: int
    open_samples: int       # general-importance calibration (mixed text)
    domain_samples: int     # dual-score calibration (prose)
    test_samples: int       # held-out prose for evaluation and the sweep
    open_test_samples: int  # held-out open-domain text: one contiguous stretch
    oracle_samples: int     # oracle calibration corpus (mixed text)
    oracle_per_matrix: int  # sampled weights per prunable matrix
    round_steps: int        # SGD steps per round
    setup_steps: int        # SGD steps of the set-up checkpoint (0: none, rounds start fresh)
    sweep: tuple[float, ...]
    setups: int = 3
    rounds: int | None = None  # fixed round count (smoke); None: until time is up
    loss_limit: float = LOSS_SHARE_OF_UNIFORM * math.log(256)


_TEXT = dict(pretraining_bytes=160_000, mixed_bytes=60_000, domain_bytes=120_000,
             train_samples=2048, open_test_samples=256)
_SMALL_PIPELINE = dict(open_samples=128, domain_samples=128, test_samples=128, oracle_samples=32,
                       sweep=(0.0, 0.5), **_TEXT)
FULL = {
    "pretrain": Sizes(oracle_per_matrix=1, round_steps=200, setup_steps=0, **_SMALL_PIPELINE),
    "score": Sizes(open_samples=384, domain_samples=384, test_samples=192, oracle_samples=32,
                   oracle_per_matrix=1, round_steps=100, setup_steps=60,
                   sweep=(0.0, 0.2, 0.4, 0.5, 0.6, 0.8), **_TEXT),
    "oracle": Sizes(oracle_per_matrix=6, round_steps=100, setup_steps=60, **_SMALL_PIPELINE),
}
SMOKE = Sizes(pretraining_bytes=8_000, mixed_bytes=4_000, domain_bytes=2_000, train_samples=64,
              open_samples=4, domain_samples=4, test_samples=4, open_test_samples=4, oracle_samples=4,
              oracle_per_matrix=1, round_steps=3, setup_steps=3, sweep=(0.0, 0.5), setups=2,
              rounds=2, loss_limit=math.log(256) + 1.0)


def sizes_for(workload: str, smoke: bool) -> Sizes:
    if not smoke:
        return FULL[workload]
    # the pretrain workload trains in its rounds, the others in set-up
    return replace(SMOKE, setup_steps=0) if workload == "pretrain" else SMOKE


# ---------------------------------------------------------------------------
# set-up

# The pretraining text, its windows and the model's init (the default
# ModelConfig, seed 0) do not depend on the run seed: SGD at this size is
# chaotic, and models trained on differently drawn windows of the same kind
# of text differed by a fifth in open-domain perplexity.  The seed draws the
# calibration and held-out text.
PRETRAINING_SEED = 0


@dataclass
class Inputs:
    corpora: dict
    checkpoint: object | None  # TransformerModel for score/oracle
    checkpoint_bytes: bytes | None

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.corpora):
            h.update(name.encode() + self.corpora[name].fingerprint().encode())
        h.update(self.checkpoint_bytes or b"")
        return h.hexdigest()


def build_inputs(sizes: Sizes, seed: int, workdir: Path) -> Inputs:
    """Texts, their corpora and, for score and oracle, a pretrained checkpoint.

    Calibration and held-out corpora of one text come from disjoint regions
    of it.  The open-domain held-out set is every window of the text's last
    stretch, so that it holds the same mix of prose, telemetry and numbers
    for every seed; the prose held-out set is a random sample.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    texts = {
        "pretraining": mixed_text(np.random.default_rng([PRETRAINING_SEED, 0]),
                                  sizes.pretraining_bytes),
        "mixed": mixed_text(np.random.default_rng([seed, 1]), sizes.mixed_bytes),
        "domain": prose_text(np.random.default_rng([seed, 2]), sizes.domain_bytes),
    }
    files = {}
    for name, text in texts.items():
        files[name] = workdir / f"{name}.txt"
        files[name].write_text(text)
    tail = 1.0 - sizes.open_test_samples * SEQUENCE_LENGTH / sizes.mixed_bytes
    specs = {  # name: (text, region, spec seed, sample count)
        "train": ("pretraining", (0.0, 1.0), PRETRAINING_SEED, sizes.train_samples),
        "open": ("mixed", (0.0, tail), seed * 16 + 2, sizes.open_samples),
        "oracle": ("mixed", (0.0, tail), seed * 16 + 3, sizes.oracle_samples),
        "open_test": ("mixed", (tail, 1.0), seed * 16 + 4, sizes.open_test_samples),
        "domain": ("domain", (0.0, 0.7), seed * 16 + 5, sizes.domain_samples),
        "domain_test": ("domain", (0.7, 1.0), seed * 16 + 6, sizes.test_samples),
    }
    corpora = {
        name: corpus.build_calibration(CalibrationSpec(
            [str(files[text])], count, SEQUENCE_LENGTH, seed=spec_seed, name=name, region=region))
        for name, (text, region, spec_seed, count) in specs.items()
    }
    if not sizes.setup_steps:
        return Inputs(corpora, None, None)
    model = init_model(ModelConfig())
    model_mod.pretrain(model, corpora["train"], steps=sizes.setup_steps,
                       learning_rate=LEARNING_RATE, batch_size=BATCH_SIZE)
    path = workdir / "setup.ckpt"
    model_mod.save_checkpoint(model, path)
    return Inputs(corpora, model_mod.load_checkpoint(path), path.read_bytes())


# ---------------------------------------------------------------------------
# measured rounds

class Ticker:
    """Samples the reference kernel inside stages and cuts pretrain into steps.

    Every forward pass of the program goes through one of two loss
    functions: `model.batch_next_token_loss` (one per SGD step, one per
    batch of `mean_corpus_loss`) or `model.next_token_loss` (one per
    sequence of `importance.next_token_gradients`).  The ticker hooks both.
    At a hook call, between two passes, it samples the reference kernel if
    `INTERVAL` seconds have passed since the last sample.  Inside
    `stepping` it also records each SGD step as the interval from one batch
    loss call to the next (the last step ends when pretrain returns).
    """

    INTERVAL = 0.1
    REPS = 2

    def __init__(self, ref: RefClock):
        self.ref = ref
        self.intervals: list[tuple[float, float]] = []
        self._stepping = False
        self._start: float | None = None
        self._pending: list[tuple[float, float]] = []
        self._patches = Patches()

    def install(self) -> None:
        batch_loss = model_mod.batch_next_token_loss
        sequence_loss = importance.next_token_loss

        def ticked_batch(*args, **kwargs):
            if self._stepping:
                self._step_boundary()
            else:
                self.tick()
            return batch_loss(*args, **kwargs)

        def ticked_sequence(*args, **kwargs):
            self.tick()
            return sequence_loss(*args, **kwargs)

        self._patches.set(model_mod, "batch_next_token_loss", ticked_batch)
        self._patches.set(importance, "next_token_loss", ticked_sequence)

    def uninstall(self) -> None:
        self._patches.restore()

    def tick(self) -> None:
        if perf_counter() - self.ref.ends[-1] >= self.INTERVAL:
            self.ref.sample(self.REPS)

    def _step_boundary(self) -> None:
        now = perf_counter()
        if self._start is not None:
            self._pending.append((self._start, now))
        self.tick()
        self._start = perf_counter()

    @contextmanager
    def stepping(self, steps: int):
        self._stepping, self._start, self._pending = True, None, []
        try:
            yield
            end = perf_counter()
        finally:
            start, self._stepping, self._start = self._start, False, None
        if start is None or len(self._pending) != steps - 1:
            raise RuntimeError(f"pretrain made {len(self._pending) + (start is not None)} batch "
                               f"loss calls for {steps} steps; the ticker cannot cut it into steps")
        self.intervals.extend(self._pending + [(start, end)])


@dataclass
class RoundOutput:
    model: object
    final_loss: float
    G: object
    S: object
    mask: object
    ppl: dict
    sweeps: dict
    oracle: dict
    files: dict
    loaded: dict

    def fingerprint(self) -> str:
        h = hashlib.sha256(self.model.fingerprint().encode())
        h.update(repr(self.final_loss).encode())
        for scores in (self.G.scores, self.S.scores):
            h.update(pruning.score_content_fingerprint(scores).encode())
        h.update(self.mask.fingerprint().encode())
        h.update(repr(sorted(self.ppl.items())).encode())
        h.update(repr(sorted((k, v.rows) for k, v in self.sweeps.items())).encode())
        for name in sorted(self.oracle):
            h.update(name.encode() + self.oracle[name][1].tobytes())
        for name in sorted(self.files):
            h.update(name.encode() + self.files[name].read_bytes())
        return h.hexdigest()


def oracle_sample(model, seed: int, per_matrix: int) -> dict[str, list[int]]:
    """Seeded distinct flat indices in every prunable matrix."""
    rng = np.random.default_rng([seed, 0x6F7261636C65])
    return {
        f"layers.{layer}.{proj}": sorted(int(i) for i in rng.choice(w.size, per_matrix, replace=False))
        for layer, proj, w in prunable_matrices(model)
    }


class Run:
    """One run of one workload: set-up, measured rounds, checks and metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 workdir: Path, blas_threads: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.sizes = sizes_for(workload, smoke)
        self.workdir = workdir
        self.blas_threads = blas_threads
        self.ref = RefClock()
        self.ticker = None if trace else Ticker(self.ref)  # traced runs sample between stages only
        self.tracer = Tracer() if trace else None
        # (start, end, weights) of every timed piece of work, by stage
        self.items: dict[str, list[tuple[float, float, int]]] = {}
        self.setup_times: list[float] = []
        self.round_spans: list[tuple[float, float]] = []  # (start, end) of each round
        self.attempted = 0
        self.failed = 0
        self.check_results: list[tuple[str, str]] = []
        self.derived: dict[str, float] = {}  # figures computed while checking
        self.peak_rss_mb = 0.0
        self._setup_fingerprints: list[str] = []
        self._setup_end = 0          # first span index after set-up (traced runs)
        self._round_mark: int | None = None  # first span index of the traced rounds

    # -- timing helpers -----------------------------------------------------

    @contextmanager
    def stage(self, name: str):
        self.ref.sample()
        t0 = perf_counter()
        yield
        self.items.setdefault(name, []).append((t0, perf_counter(), 1))
        self.attempted += 1

    # -- phases -------------------------------------------------------------

    def set_up(self) -> Inputs:
        builds = []
        for i in range(self.sizes.setups):
            self.ref.sample()
            t0 = perf_counter()
            builds.append(build_inputs(self.sizes, self.seed, self.workdir / f"setup{i}"))
            self.setup_times.append(perf_counter() - t0)
        self._setup_fingerprints = [b.fingerprint() for b in builds]
        return builds[0]

    def one_round(self, inputs: Inputs, index: int) -> RoundOutput:
        s, c = self.sizes, inputs.corpora
        out_dir = self.workdir / f"round{index}"
        out_dir.mkdir(parents=True, exist_ok=True)
        if inputs.checkpoint is None:
            model = trainee = init_model(ModelConfig())
        else:
            model, trainee = inputs.checkpoint, inputs.checkpoint.copy()
        stepping = self.ticker.stepping(s.round_steps) if self.ticker else nullcontext()
        with self.stage("pretrain"), stepping:
            _, history = model_mod.pretrain(trainee, c["train"], steps=s.round_steps,
                                            learning_rate=LEARNING_RATE, batch_size=BATCH_SIZE)
        with self.stage("general"):
            G = importance.general_importance(model, c["open"])
        with self.stage("dual"):
            S = importance.dual_importance_scores(model, c["domain"], G)
        with self.stage("quality"):
            mask = pruning.select_mask_per_matrix(S, SPARSITY)
            pruned = pruning.apply_mask(model, mask)
            magnitude = pruning.apply_mask(model, pruning.magnitude_mask(model, SPARSITY))
            ppl = {
                "domain": evaluation.perplexity(pruned, c["domain_test"]).perplexity,
                "open": evaluation.perplexity(pruned, c["open_test"]).perplexity,
                "magnitude_domain": evaluation.perplexity(magnitude, c["domain_test"]).perplexity,
                "magnitude_open": evaluation.perplexity(magnitude, c["open_test"]).perplexity,
                "dense_domain": evaluation.perplexity(model, c["domain_test"]).perplexity,
            }
        with self.stage("sweep"):
            sweeps = {
                MODE_PER_MATRIX: evaluation.sparsity_sweep(model, S, c["domain_test"], s.sweep),
                MODE_BLOCKED: evaluation.sparsity_sweep(model, S, c["domain_test"], s.sweep,
                                                        mode=MODE_BLOCKED, block_size=BLOCK_SIZE),
            }
        files = {name: out_dir / f"{name}.bin" for name in ("general", "dual", "mask", "checkpoint")}
        with self.stage("container"):
            importance.save_general_scores(G, files["general"])
            importance.save_dual_scores(S, files["dual"])
            pruning.save_mask(mask, files["mask"])
            model_mod.save_checkpoint(model, files["checkpoint"])
            loaded = {
                "general": importance.load_general_scores(files["general"]),
                "dual": importance.load_dual_scores(files["dual"]),
                "mask": pruning.load_mask(files["mask"]),
                "checkpoint": model_mod.load_checkpoint(files["checkpoint"]),
            }
        oracle = {}
        for name, indices in oracle_sample(model, self.seed, s.oracle_per_matrix).items():
            layer, proj = name.split(".")[1:]
            self.ref.sample()
            t0 = perf_counter()
            deltas = importance.brute_force_importance(model, c["oracle"], (int(layer), proj), indices)
            self.items.setdefault("oracle", []).append((t0, perf_counter(), len(indices)))
            self.attempted += 1
            oracle[name] = (indices, deltas)
        return RoundOutput(model, history[-1][1], G, S, mask, ppl, sweeps, oracle, files, loaded)

    def measure(self, inputs: Inputs) -> list[RoundOutput]:
        outputs: list[RoundOutput] = []
        start = perf_counter()
        while True:
            traced = self.trace and len(outputs) >= 1
            if traced and self._round_mark is None:
                self.tracer.install()
                self._round_mark = self.tracer.mark()
            t0 = perf_counter()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # "not converged" warnings of short training
                outputs.append(self.one_round(inputs, len(outputs)))
            self.round_spans.append((t0, perf_counter()))
            if self.sizes.rounds is not None:
                done = len(outputs) >= self.sizes.rounds
            else:
                done = perf_counter() - start >= self.seconds and (not self.trace or len(outputs) >= 2)
            if done:
                break
        self.ref.sample()
        return outputs

    def execute(self) -> dict:
        hooks = self.tracer if self.trace else self.ticker
        try:
            if self.trace:  # set-up is traced for corpus.build_calibration_s
                self.tracer.install()
                inputs = self.set_up()
                self.tracer.uninstall()
                self._setup_end = self.tracer.mark()
            else:
                inputs = self.set_up()
                self.ticker.install()
            outputs = self.measure(inputs)
        finally:
            hooks.uninstall()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.verify(inputs, outputs)
        return self.result(outputs)

    # -- checks -------------------------------------------------------------

    def _check(self, name: str, fn, *args) -> None:
        try:
            fn(*args)
        except checks.CheckError as e:
            self.check_results.append((name, str(e)))
            print(f"check {name} FAILED: {e}", file=sys.stderr)
        else:
            self.check_results.append((name, ""))

    def verify(self, inputs: Inputs, outputs: list[RoundOutput]) -> None:
        c, s = inputs.corpora, self.sizes
        last = outputs[-1]
        model, G, S = last.model, last.G, last.S
        names = prunable_names(model.config)

        def identical(label, values):
            if len(set(values)) != 1:
                raise checks.CheckError(f"{label} differ between repetitions of the same work")

        self._check("setups_identical", identical, "set-up inputs", self._setup_fingerprints)
        self._check("rounds_identical", identical, "round outputs",
                    [o.fingerprint() for o in outputs])
        self._check("finite_differences", checks.check_finite_differences, model,
                    c["domain_test"].sequences[0])
        self._check("final_loss", checks.check_final_loss, last.final_loss, s.loss_limit)

        sub = Corpus("domain_head", c["domain"].sequences[:32])
        stats = importance.next_token_gradients(model, sub)
        self._check("batched_mean_gradient", checks.check_batched_mean_gradient, stats, model, sub)
        self._check("fisher_inequality", checks.check_fisher_inequality, stats)

        open_grads = checks.sample_gradients(model, c["open"])
        self._check("general_scores", checks.check_general_scores, G, model, open_grads)
        domain_grads = checks.sample_gradients(model, c["domain"])
        self._check("dual_scores", checks.check_dual_scores, S, model, G, domain_grads)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            S0 = importance.dual_importance_scores(model, c["domain"], G, lam=0.0)
        self._check("dual_scores_lambda0", checks.check_dual_scores, S0, model, G, domain_grads)

        mask0 = pruning.select_mask_per_matrix(S0, SPARSITY)
        magnitude = pruning.magnitude_mask(model, SPARSITY)
        abs_w = {k: np.abs(model.params[k].data) for k in names}
        self._check("mask_dual", checks.check_mask, last.mask, S.scores, names)
        self._check("mask_lambda0", checks.check_mask, mask0, S0.scores, names)
        self._check("mask_magnitude", checks.check_mask, magnitude, abs_w, names)
        for sparsity in s.sweep:
            self._check(f"mask_sweep_{sparsity}", checks.check_mask,
                        pruning.select_mask_per_matrix(S, sparsity), S.scores, names)
            self._check(f"mask_sweep_blocked_{sparsity}", checks.check_mask,
                        pruning.select_mask_blocked(S, sparsity, BLOCK_SIZE), S.scores, names)
        for mode, sweep in last.sweeps.items():
            self._check(f"sparsity_zero_{mode}", checks.check_sparsity_zero, sweep,
                        last.ppl["dense_domain"])
        self.derived["mask_delta_vs_lambda0"] = sum(
            int((last.mask.masks[k] != mask0.masks[k]).sum()) for k in names)

        again = self.workdir / "rewrite"
        again.mkdir(exist_ok=True)
        loaded = last.loaded
        importance.save_general_scores(loaded["general"], again / "general.bin")
        importance.save_dual_scores(loaded["dual"], again / "dual.bin")
        pruning.save_mask(loaded["mask"], again / "mask.bin")
        model_mod.save_checkpoint(loaded["checkpoint"], again / "checkpoint.bin")
        originals = {
            "general": G.scores, "dual": S.scores, "mask": last.mask.masks,
            "checkpoint": {k: t.data for k, t in model.params.items()},
        }
        reread = {
            "general": loaded["general"].scores, "dual": loaded["dual"].scores,
            "mask": loaded["mask"].masks,
            "checkpoint": {k: t.data for k, t in loaded["checkpoint"].params.items()},
        }
        for name in originals:
            self._check(f"container_{name}", checks.check_round_trip, name, originals[name],
                        reread[name], last.files[name], again / f"{name}.bin")

        for name, (indices, deltas) in last.oracle.items():
            self._check(f"oracle_{name}", checks.check_oracle, model, c["oracle"], name,
                        indices, deltas)
        deltas = np.concatenate([d for _, d in last.oracle.values()])
        general = [G.scores[n].reshape(-1)[i] for n, (idx, _) in last.oracle.items() for i in idx]
        dual = [S.scores[n].reshape(-1)[i] for n, (idx, _) in last.oracle.items() for i in idx]
        self.derived["oracle_spearman_general"] = checks.spearman(deltas, general)
        self.derived["oracle_spearman_dual"] = checks.spearman(deltas, dual)

    # -- results ------------------------------------------------------------

    def stage_ref(self, stage: str) -> float:
        """Median over a stage's pieces of work of its reference units per weight."""
        return statistics.median(self.ref.measure(a, b)[1] / n for a, b, n in self.items[stage])

    def end_to_end(self, outputs: list[RoundOutput]) -> dict[str, tuple[float, str]]:
        med = statistics.median
        last = outputs[-1]
        return {
            "setup_s": (med(self.setup_times), "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "pretrain_step_ref": (
                med(self.ref.measure(a, b)[1] for a, b in self.ticker.intervals), "ref"),
            "general_importance_ref": (self.stage_ref("general"), "ref"),
            "dual_scores_ref": (self.stage_ref("dual"), "ref"),
            "sweep_ref": (self.stage_ref("sweep"), "ref"),
            "oracle_weight_ref": (self.stage_ref("oracle"), "ref"),
            "domain_ppl": (last.ppl["domain"], "ppl"),
            "open_ppl": (last.ppl["open"], "ppl"),
        }

    def per_layer(self, outputs: list[RoundOutput]) -> dict[str, tuple[float, str]]:
        tr, lo = self.tracer, self._round_mark
        traced = len(outputs) - 1  # the first round runs untraced
        summary = tr.summary(lo)
        setup = tr.summary(0, self._setup_end)

        def total(name):
            return summary.get(name, {}).get("total_s", 0.0) / traced

        def calls(name):
            return summary.get(name, {}).get("calls", 0) / traced

        m: dict[str, tuple[float, str]] = {}
        for op in TAPE_OPS:
            m[f"tensor.{op}.fwd_s"] = (total(f"tensor.{op}"), "s")
            m[f"tensor.{op}.bwd_s"] = (total(f"tensor.{op}.bwd"), "s")
            m[f"tensor.{op}.calls"] = (calls(f"tensor.{op}"), "count")
        backward = summary.get("tensor.backward", {"calls": 0, "counted": 0})
        m["tensor.backward_s"] = (total("tensor.backward"), "s")
        m["tensor.tape_records_per_pass"] = (
            backward["counted"] / backward["calls"] if backward["calls"] else 0.0, "count")
        m["model.forward_s"] = (total("model.forward"), "s")
        m["model.forward_calls"] = (calls("model.forward"), "count")
        m["model.mean_corpus_loss_s"] = (total("model.mean_corpus_loss"), "s")
        m["model.pretrain_s"] = (total("model.pretrain"), "s")
        m["model.final_train_loss"] = (outputs[-1].final_loss, "nats")
        m["importance.next_token_gradients_s"] = (total("importance.next_token_gradients"), "s")
        m["importance.next_token_gradients_seqs"] = (
            summary.get("importance.next_token_gradients", {}).get("counted", 0) / traced, "count")
        m["importance.brute_force_importance_s"] = (total("importance.brute_force_importance"), "s")
        weights = summary.get("importance.brute_force_importance", {}).get("counted", 0)
        forwards = tr.calls_under("model.forward", "importance.brute_force_importance", lo)
        m["importance.oracle_forwards_per_weight"] = (forwards / weights if weights else 0.0, "count")
        m["importance.oracle_spearman_general"] = (self.derived["oracle_spearman_general"], "rho")
        m["importance.oracle_spearman_dual"] = (self.derived["oracle_spearman_dual"], "rho")
        m["pruning.select_mask_per_matrix_s"] = (total("pruning.select_mask_per_matrix"), "s")
        m["pruning.select_mask_blocked_s"] = (total("pruning.select_mask_blocked"), "s")
        m["pruning.apply_mask_s"] = (total("pruning.apply_mask"), "s")
        m["pruning.mask_delta_vs_lambda0"] = (self.derived["mask_delta_vs_lambda0"], "count")
        m["evaluation.perplexity_s"] = (total("evaluation.perplexity"), "s")
        m["evaluation.sparsity_sweep_s"] = (total("evaluation.sparsity_sweep"), "s")
        m["evaluation.magnitude_domain_ppl"] = (outputs[-1].ppl["magnitude_domain"], "ppl")
        m["evaluation.magnitude_open_ppl"] = (outputs[-1].ppl["magnitude_open"], "ppl")
        m["corpus.build_calibration_s"] = (
            setup.get("corpus.build_calibration", {}).get("total_s", 0.0) / len(self.setup_times), "s")
        m["container.write_s"] = (total("container.write_container"), "s")
        m["container.read_s"] = (total("container.read_container"), "s")
        m["container.bytes_written"] = (
            float(sum(p.stat().st_size for p in outputs[-1].files.values())), "B")
        # Rounds in seconds of work and in reference units; the overhead is
        # taken in reference units, since the machine's speed may change
        # between the untraced round and the traced ones.
        work = [self.ref.measure(a, b) for a, b in self.round_spans]
        traced_wall = statistics.median(seconds for seconds, _ in work[1:])
        traced_units = statistics.median(units for _, units in work[1:])
        m["bench.ref_kernel_ms"] = (self.ref.median() * 1000.0, "ms")
        m["bench.measured_wall_s"] = (traced_wall, "s")
        m["bench.blas_threads"] = (float(self.blas_threads), "count")
        m["bench.trace_overhead_s"] = ((traced_units - work[0][1]) * self.ref.median(), "s")
        m["bench.span_coverage"] = (
            tr.top_level_seconds(lo) / sum(seconds for seconds, _ in work[1:]), "share")
        return m

    def result(self, outputs: list[RoundOutput]) -> dict:
        metrics = self.per_layer(outputs) if self.trace else self.end_to_end(outputs)
        return {
            "correct": all(not msg for _, msg in self.check_results),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        }

    def record(self, result: dict) -> dict:
        """Everything the run measured, for the record file."""
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "sizes": self.sizes.__dict__,
            "rounds": len(self.round_spans),
            "round_s": [self.ref.measure(a, b)[0] for a, b in self.round_spans],
            "setup_s": self.setup_times,
            "stage_s": {k: [self.ref.measure(a, b)[0] / n for a, b, n in v]
                        for k, v in self.items.items()},
            "stage_ref": {k: [self.ref.measure(a, b)[1] / n for a, b, n in v]
                          for k, v in self.items.items()},
            "pretrain_step_s": [b - a for a, b in self.ticker.intervals] if self.ticker else [],
            "ref_kernel_s": self.ref.samples,
            "checks": {name: msg or "ok" for name, msg in self.check_results},
            "spans": self.tracer.summary(self._round_mark) if self.trace else None,
            "result": result,
        }

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
