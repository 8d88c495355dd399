"""Pipeline CLI: pretrain -> general-importance -> prune -> eval/masksim/sweep.

Configuration is a flat key=value text file; every key can be overridden on
the command line with a flag of the same name (dashes for underscores).  The
DUALPRUNE_OUTPUT_DIR environment variable overrides output_dir from the file;
an explicit --output-dir flag overrides both.

Exit codes: 0 success, 2 input/validation error (a file the OS refused to
read or write included), 3 artifact-format error, 4 numeric failure (NaN/Inf).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

from . import evaluation, importance, pruning
from .corpus import CalibrationSpec, build_calibration, load_corpus_cache, save_corpus_cache
from .errors import ArtifactError, DualPruneError, NumericError, ValidationError
from .model import ModelConfig, init_model, load_checkpoint, pretrain, save_checkpoint

ENV_OUTPUT_DIR = "DUALPRUNE_OUTPUT_DIR"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ARTIFACT = 3
EXIT_NUMERIC = 4


@dataclass
class RunConfig:
    # model (ModelConfig's fields and defaults)
    vocab_size: int = ModelConfig.vocab_size
    context_length: int = ModelConfig.context_length
    num_layers: int = ModelConfig.num_layers
    d_model: int = ModelConfig.d_model
    num_heads: int = ModelConfig.num_heads
    d_ff: int = ModelConfig.d_ff
    seed: int = ModelConfig.seed
    # corpora (comma-separated paths; regions are "lo:hi" fractions)
    train_corpus: str = ""
    open_corpus: str = ""
    domain_corpus: str = ""
    test_corpus: str = ""
    train_samples: int = 512
    open_samples: int = 128
    domain_samples: int = 128
    test_samples: int = 64
    sequence_length: int = 64
    train_region: str = "0:1"
    open_region: str = "0:1"
    domain_region: str = "0:1"
    test_region: str = "0:1"
    # pretraining
    steps: int = 2000
    learning_rate: float = 0.3
    batch_size: int = 8
    log_every: int = 50
    # scoring
    lam: float = importance.DEFAULT_LAMBDA
    alpha: float = importance.DEFAULT_ALPHA
    damping: float = importance.DEFAULT_DAMPING
    # pruning
    sparsity: float = 0.5
    mode: str = pruning.MODE_PER_MATRIX
    block_size: int = 16
    method: str = "dual"  # dual | magnitude
    # io
    output_dir: str = "runs/default"

    def model_config(self) -> ModelConfig:
        return ModelConfig(**{f.name: getattr(self, f.name) for f in fields(ModelConfig)})

    def validate(self) -> None:
        self.model_config().validate()
        pruning.check_sparsity(self.sparsity)
        pruning.check_mode(self.mode)
        pruning.check_block_size(self.block_size)
        if self.method not in ("dual", "magnitude"):
            raise ValidationError(f"unknown pruning method {self.method!r}")
        if self.method == "magnitude" and self.mode != pruning.MODE_PER_MATRIX:
            raise ValidationError(f"method magnitude selects per-matrix masks only; "
                                  f"mode must be {pruning.MODE_PER_MATRIX!r}, got {self.mode!r}")
        importance.validate_lambda_alpha(self.lam, self.alpha)
        importance.validate_damping(self.damping)


_FIELD_TYPES = get_type_hints(RunConfig)

# config file keys and flags say "lambda" for the dataclass field `lam`, which is no key
_FIELD_TO_KEY = {"lam": "lambda"}
_KEY_TO_FIELD = {_FIELD_TO_KEY.get(name, name): name for name in _FIELD_TYPES}


def parse_config_file(path) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError(f"cannot read config file {path}: {e}") from None
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in values:
            raise ValidationError(f"{path}:{lineno}: config key {key!r} set a second time")
        values[key] = value
    return values


def _coerce(what: str, field_type, raw: str):
    try:
        return field_type(raw)
    except ValueError:
        raise ValidationError(f"{what}: cannot parse {raw!r}") from None


def make_run_config(file_values: dict[str, str], overrides: dict[str, object]) -> RunConfig:
    config = RunConfig()
    for key, raw in file_values.items():
        name = _KEY_TO_FIELD.get(key)
        if name is None:
            raise ValidationError(f"unknown config key {key!r}")
        setattr(config, name, _coerce(f"config key {key}", _FIELD_TYPES[name], raw))
    env_out = os.environ.get(ENV_OUTPUT_DIR)
    if env_out:
        config.output_dir = env_out
    for name, value in overrides.items():
        if value is not None:
            setattr(config, name, value)
    return config


def _parse_region(text: str) -> tuple[float, float]:
    try:
        lo, _, hi = text.partition(":")
        return (float(lo), float(hi))
    except ValueError:
        raise ValidationError(f"region must look like '0:0.7', got {text!r}") from None


def _build_corpus(config: RunConfig, role: str):
    paths_raw = getattr(config, f"{role}_corpus")
    if not paths_raw:
        raise ValidationError(f"no {role}_corpus configured")
    paths = [p.strip() for p in paths_raw.split(",") if p.strip()]
    role_offsets = {"train": 11, "open": 22, "domain": 33, "test": 44}
    return build_calibration(CalibrationSpec(
        sources=paths,
        sample_count=getattr(config, f"{role}_samples"),
        sequence_length=config.sequence_length,
        seed=config.seed + role_offsets[role],
        name=role,
        region=_parse_region(getattr(config, f"{role}_region")),
    ))


def _out_dir(config: RunConfig) -> Path:
    """The output directory, created on first use.  Stages ask for it only
    once they have a result to write, so a stage that fails before that
    leaves no directory behind."""
    out = Path(config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ValidationError(f"cannot create output directory {out}: {e.strerror}") from None
    return out


# ---------------------------------------------------------------------------
# subcommands

def cmd_calibrate(config: RunConfig, args) -> int:
    built = []
    for role in ("train", "open", "domain", "test"):
        if not getattr(config, f"{role}_corpus"):
            continue
        corpus = _build_corpus(config, role)
        cache = _out_dir(config) / f"{role}.corpus.json"
        save_corpus_cache(corpus, cache)
        built.append(role)
        print(f"{role}: {len(corpus)} sequences x {config.sequence_length} tokens -> {cache}")
    if not built:
        raise ValidationError("no corpus paths configured; nothing to calibrate")
    return EXIT_OK


def cmd_pretrain(config: RunConfig, args) -> int:
    corpus = _build_corpus(config, "train")
    model = init_model(config.model_config())
    model, history = pretrain(
        model, corpus, config.steps, config.learning_rate,
        batch_size=config.batch_size, log_every=config.log_every, verbose=True,
    )
    out = _out_dir(config)
    ckpt = out / "model.ckpt"
    save_checkpoint(model, ckpt)
    log_path = out / "pretrain_log.csv"
    with open(log_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss"])
        for step, loss in history:
            writer.writerow([step, repr(loss)])
    print(f"checkpoint -> {ckpt}")
    print(f"loss log   -> {log_path}")
    return EXIT_OK


def cmd_general_importance(config: RunConfig, args) -> int:
    model = load_checkpoint(args.checkpoint)
    corpus = _build_corpus(config, "open")
    G = importance.general_importance(model, corpus, config.damping)
    path = _out_dir(config) / "general_scores.bin"
    importance.save_general_scores(G, path)
    print(f"general importance over {G.sample_count} samples -> {path}")
    return EXIT_OK


def cmd_prune(config: RunConfig, args) -> int:
    model = load_checkpoint(args.checkpoint)

    if config.method == "dual":
        if not args.general_scores:
            raise ValidationError("--general-scores is required for method=dual")
        G = importance.load_general_scores(args.general_scores)
        domain = _build_corpus(config, "domain")
        scores = importance.dual_importance_scores(model, domain, G, config.lam, config.alpha)
        [mask] = pruning.select_masks(scores, [config.sparsity], config.mode, config.block_size)
        scores_path = _out_dir(config) / "dual_scores.bin"
        importance.save_dual_scores(scores, scores_path)
        print(f"dual scores (lambda={config.lam}, alpha={config.alpha}) -> {scores_path}")
    else:
        mask = pruning.magnitude_mask(model, config.sparsity)

    out = _out_dir(config)
    mask_path = out / "mask.bin"
    pruning.save_mask(mask, mask_path)
    pruned = pruning.apply_mask(model, mask)
    pruned_path = out / "pruned.ckpt"
    save_checkpoint(pruned, pruned_path)

    for name, m in mask.masks.items():
        print(f"{name}: pruned {m.size - int(m.sum())}/{m.size}")
    prunable_frac, total_frac = evaluation.zero_fractions(pruned)
    print(f"mask ({mask.method}, {mask.mode}) -> {mask_path}")
    print(f"pruned checkpoint -> {pruned_path}")
    print(f"zero fraction: {prunable_frac:.4f} of prunable weights, {total_frac:.4f} of all parameters")
    return EXIT_OK


def _load_eval_corpus(config: RunConfig, args):
    if getattr(args, "corpus_cache", None):
        return load_corpus_cache(args.corpus_cache)
    return _build_corpus(config, args.corpus)


def cmd_eval(config: RunConfig, args) -> int:
    if args.tag and any(sep in args.tag for sep in "/\\\0"):
        raise ValidationError(f"--tag must be a plain file name, got {args.tag!r}")
    model = load_checkpoint(args.checkpoint)
    corpus = _load_eval_corpus(config, args)
    report = evaluation.perplexity(model, corpus)
    prunable_frac, total_frac = evaluation.zero_fractions(model)
    stem = args.tag or f"eval_{corpus.name}"
    extra = [
        f"zero fraction (prunable weights): {prunable_frac:.6f}",
        f"zero fraction (all parameters): {total_frac:.6f}",
    ]
    out = _out_dir(config)
    evaluation.write_eval_report(report, out / f"{stem}.csv", out / f"{stem}.txt", extra)
    print(f"perplexity on {corpus.name}: {report.perplexity:.4f} "
          f"(mean loss {report.mean_loss:.6f}, {report.token_count} tokens)")
    print(f"report -> {out / (stem + '.csv')}")
    return EXIT_OK


def cmd_masksim(config: RunConfig, args) -> int:
    mask_a = pruning.load_mask(args.mask_a)
    mask_b = pruning.load_mask(args.mask_b)
    report = evaluation.mask_similarity(mask_a, mask_b)
    out = _out_dir(config)
    evaluation.write_similarity_grid(report, out / "masksim.csv", out / "masksim.txt")
    for kind, value in report.by_kind.items():
        print(f"{kind}: {value:.4f}")
    print(f"grid -> {out / 'masksim.csv'}")
    return EXIT_OK


def cmd_sweep(config: RunConfig, args) -> int:
    model = load_checkpoint(args.checkpoint)
    scores = importance.load_dual_scores(args.scores)
    corpus = _load_eval_corpus(config, args)
    sparsities = [_coerce("--sparsities", float, s) for s in args.sparsities.split(",") if s.strip()]
    result = evaluation.sparsity_sweep(model, scores, corpus, sparsities,
                                       mode=config.mode, block_size=config.block_size)
    out = _out_dir(config)
    evaluation.write_sweep_csv(result, out / "sweep.csv")
    for sparsity, ppl in result.rows:
        print(f"sparsity {sparsity:.2f}: perplexity {ppl:.4f}")
    print(f"perplexity trend monotone non-decreasing: {'yes' if result.monotone else 'no'}")
    print(f"table -> {out / 'sweep.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    for f in fields(RunConfig):
        key = _FIELD_TO_KEY.get(f.name, f.name)
        parser.add_argument(f"--{key.replace('_', '-')}", dest=f.name, type=_FIELD_TYPES[f.name],
                            default=None)


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False throughout: a flag has one spelling, so no prefix of
    # it parses, and a new flag cannot change what an existing prefix means
    parser = argparse.ArgumentParser(
        prog="dualprune",
        description="dual-importance unstructured pruning for a toy decoder-only transformer",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str, handler) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(handler=handler)
        _add_config_flags(p)
        return p

    command("calibrate", "build calibration/test corpora and write replayable caches", cmd_calibrate)
    command("pretrain", "train the toy model and write a checkpoint plus loss log", cmd_pretrain)

    p = command("general-importance", "score general weight importance on open-domain data",
                cmd_general_importance)
    p.add_argument("--checkpoint", required=True)

    p = command("prune", "compute dual scores, select a mask, write the pruned checkpoint", cmd_prune)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--general-scores", default=None)

    p = command("eval", "perplexity of a checkpoint on a configured corpus", cmd_eval)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", default="test", choices=["train", "open", "domain", "test"])
    p.add_argument("--corpus-cache", default=None, help="corpus cache JSON (overrides --corpus)")
    p.add_argument("--tag", default=None, help="basename for the report files")

    p = command("masksim", "similarity analysis of two mask files", cmd_masksim)
    p.add_argument("mask_a")
    p.add_argument("mask_b")

    p = command("sweep", "mask + evaluate across a list of sparsities", cmd_sweep)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--scores", required=True, help="dual score file")
    p.add_argument("--corpus", default="test", choices=["train", "open", "domain", "test"])
    p.add_argument("--corpus-cache", default=None)
    p.add_argument("--sparsities", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7")
    return parser


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    config = make_run_config(file_values, overrides)
    config.validate()
    return args.handler(config, args)


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    except ArtifactError as e:
        print(f"artifact error: {e}", file=sys.stderr)
        return EXIT_ARTIFACT
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except DualPruneError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:  # a file the OS refused, such as an output path that is a directory
        where = e.filename2 or e.filename
        print(f"error: {where}: {e.strerror}" if where else f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
