"""Command-line entry point: pretrain, estimate, eval, ablate, validate.

Every option resolves with the precedence CLI flag > INVKGE_* environment
variable > --config key=value file > built-in default, and each run echoes
its fully resolved configuration to <out>/config.txt so that
``invkge <cmd> --config <out>/config.txt`` reproduces it bit-for-bit. Every
command runs serially. All randomness flows from a single --seed through named
substreams.
"""

from __future__ import annotations

import argparse
import logging
import os
import re
import sys
from pathlib import Path

import numpy as np

from .datasets import (BenchmarkSplits, DatasetFormatError, DatasetValidationError,
                       load_split_dir, load_splits)
from .core import TripleStore
from .evaluation import (EvalReport, Thresholds, embed_ookg, format_report, link_prediction,
                         triplet_classification, tune_thresholds, write_report_csv)
from .models import (ROTATE, _write_atomically, _write_csv, load_checkpoint, load_vocabulary,
                     save_checkpoint, save_vocabulary)
from .reduction import (CORRELATION, DEGREE, SCHEMES, UNIFORM, build_correlation,
                        save_correlation_csv)
from .training import TrainConfig, TrainingDivergedError, train

ENV_PREFIX = "INVKGE_"
_REQUIRED = object()
_CAP_VARIANT = re.compile(r"cap[1-9][0-9]*")  # ASCII, no leading zero: the label is f"cap{K}"


class UsageError(Exception):
    """Bad invocation (wrong flags for the requested operation)."""


def _parse_bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# option name -> (cast, default); shared across resolution sources
_COMMON = {
    "seed": (int, 0),
    "threads": (int, 1),
    "out": (str, _REQUIRED),
    "task": (str, "lp"),
}
_SPLIT_PATHS = {
    "train": (str, _REQUIRED),
    "valid": (str, _REQUIRED),
    "aux": (str, _REQUIRED),
    "test": (str, _REQUIRED),
}
_SPECS: dict[str, dict] = {
    "pretrain": {
        **_COMMON, **_SPLIT_PATHS,
        "model": (str, "transe"),
        "dim": (int, 200),
        "gamma": (float, 12.0),
        "alpha": (float, 1.0),
        "neg": (int, 64),
        "l2": (float, 0.0),
        "batch_size": (int, 1024),
        "lr": (float, 1e-3),
        "steps": (int, 10_000),
        "norm": (int, 1),
        "log_every": (int, 100),
        "filter_false_negatives": (_parse_bool, False),
    },
    "estimate": {
        **_COMMON, **_SPLIT_PATHS,
        "checkpoint": (str, _REQUIRED),
        "vocab": (str, None),
        "scheme": (str, DEGREE),
        "delta": (float, 0.1),
        "cap": (int, None),
    },
    "eval": {
        **_COMMON, **_SPLIT_PATHS,
        "checkpoint": (str, _REQUIRED),
        "vocab": (str, None),
        "scheme": (str, None),
        "delta": (float, 0.1),
        "cap": (int, None),
        "dump_correlation": (_parse_bool, False),
    },
    "ablate": {
        **_COMMON,
        "train": (str, None),
        "valid": (str, None),
        "aux": (str, None),
        "test": (str, None),
        "checkpoint": (str, None),
        "vocab": (str, None),
        "scheme": (str, None),
        "delta": (float, 0.1),
        "variants": (str, _REQUIRED),
        "datasets": (str, None),
        "checkpoints": (str, None),
    },
    "validate": {
        **_SPLIT_PATHS,
        "task": (str, "lp"),
    },
}


def _read_config_file(path: str, command: str) -> dict[str, tuple[str, str]]:
    """``key -> (value, "file:line")`` of a key=value file, less the echoed command line."""
    values: dict[str, tuple[str, str]] = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, _, value = (part.strip() for part in line.partition("="))
            if key == "command" and value == command:
                continue
            if key not in _SPECS[command]:
                raise UsageError(f"{path}:{lineno}: {key}={value} is not an option of {command}")
            values[key] = (value, f"{path}:{lineno}")
    return values


def _cast(cast, name: str, text: str, source: str):
    try:
        return cast(text)
    except ValueError as exc:
        raise ValueError(f"{source}: bad value {text!r} for --{name.replace('_', '-')}: "
                         f"{exc}") from None


def _resolve(command: str, args: argparse.Namespace) -> dict:
    spec = _SPECS[command]
    file_values = _read_config_file(args.config, command) if args.config else {}
    resolved = {}
    for name, (cast, default) in spec.items():
        cli_value = getattr(args, name, None)
        if cli_value is not None:
            resolved[name] = cli_value
            continue
        env_value = os.environ.get(ENV_PREFIX + name.upper())
        if env_value is not None:
            resolved[name] = _cast(cast, name, env_value, ENV_PREFIX + name.upper())
            continue
        if name in file_values and file_values[name][0] != "":
            resolved[name] = _cast(cast, name, *file_values[name])
            continue
        if default is _REQUIRED:
            raise UsageError(f"missing required option --{name.replace('_', '-')}")
        resolved[name] = default
    if resolved.get("threads", 1) != 1:
        raise UsageError("every command runs serially; --threads must be 1")
    if resolved.get("scheme") not in (None, *SCHEMES):
        raise UsageError(f"unknown scheme {resolved['scheme']!r}")
    return resolved


def _write_text(path: Path, text: str) -> None:
    _write_atomically(path, (text.encode("utf-8"),))


def _echo_config(command: str, resolved: dict, out_dir: Path) -> None:
    lines = [f"command={command}", *(f"{key}={'' if value is None else value}"
                                     for key, value in sorted(resolved.items()))]
    _write_text(out_dir / "config.txt", "\n".join(lines) + "\n")


def _load_benchmark(cfg: dict) -> BenchmarkSplits:
    return load_splits(cfg["train"], cfg["valid"], cfg["aux"], cfg["test"], task=cfg["task"])


def _check_vocab(cfg: dict, splits: BenchmarkSplits) -> None:
    if cfg.get("vocab"):
        vocab = load_vocabulary(cfg["vocab"])
        if vocab != splits.vocab:
            raise UsageError("vocabulary sidecar does not match the split files")


def _load_tables(path: str, splits: BenchmarkSplits):
    tables, _ = load_checkpoint(path)
    if tables.num_entities != splits.vocab.num_entities \
            or tables.num_relations != splits.vocab.num_relations:
        raise UsageError(f"checkpoint {path}: vocabulary sizes do not match the split files")
    return tables


def cmd_pretrain(args: argparse.Namespace) -> int:
    cfg = _resolve("pretrain", args)
    splits = _load_benchmark(cfg)
    config = TrainConfig(model=cfg["model"], dim=cfg["dim"], margin=cfg["gamma"],
                         temperature=cfg["alpha"], num_negatives=cfg["neg"], l2=cfg["l2"],
                         batch_size=cfg["batch_size"], learning_rate=cfg["lr"],
                         steps=cfg["steps"], seed=cfg["seed"], norm_order=cfg["norm"],
                         filter_false_negatives=cfg["filter_false_negatives"],
                         log_every=cfg["log_every"])
    tables, trace = train(splits, config)
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(tables, out_dir / "checkpoint.bin", seed=cfg["seed"])
    save_vocabulary(splits.vocab, out_dir / "vocab.json")
    _write_text(out_dir / "loss.csv",
                "step,loss\n" + "".join(f"{step},{loss:.8f}\n" for step, loss in trace))
    _echo_config("pretrain", cfg, out_dir)
    print(f"checkpoint written to {out_dir / 'checkpoint.bin'}")
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    cfg = _resolve("estimate", args)
    if cfg["scheme"] == CORRELATION:
        raise UsageError("correlation weights are query-aware and only defined per "
                         "evaluation query; use --scheme degree or uniform here")
    splits = _load_benchmark(cfg)
    _check_vocab(cfg, splits)
    tables = _load_tables(cfg["checkpoint"], splits)
    entities = splits.ookg_entities
    vectors, found = embed_ookg(tables, splits, cfg["scheme"], entities, None,
                                smoothing=cfg["delta"], neighbor_cap=cfg["cap"],
                                seed=cfg["seed"])
    manifest = entities[found].tolist()
    dangling = entities[~found].tolist()

    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    matrix = vectors[found]
    if tables.model == ROTATE:
        matrix = np.ascontiguousarray(matrix).view(np.float64)  # interleave re/im
    _write_atomically(out_dir / "ookg_embeddings.f32",
                      (np.ascontiguousarray(matrix, dtype="<f4").data,))
    _write_text(out_dir / "ookg_manifest.tsv",
                "".join(f"{row}\t{entity}\t{splits.vocab.entity_name(entity)}\n"
                        for row, entity in enumerate(manifest)))
    _write_text(out_dir / "dangling.txt",
                "".join(f"{entity}\t{splits.vocab.entity_name(entity)}\n" for entity in dangling))
    _echo_config("estimate", cfg, out_dir)
    print(f"estimated {len(manifest)} entities ({len(dangling)} dangling) into {out_dir}")
    return 0


def _evaluate(cfg: dict, tables, splits: BenchmarkSplits, scheme: str | None, cap: int | None,
              thresholds: Thresholds | None = None) -> EvalReport:
    """The task's evaluation of ``tables`` on ``splits``; ``scheme`` None is the task's default."""
    options = dict(smoothing=cfg["delta"], neighbor_cap=cap, seed=cfg["seed"])
    if cfg["task"] == "lp":
        return link_prediction(tables, splits, scheme or CORRELATION, **options)
    return triplet_classification(tables, splits, scheme or DEGREE, thresholds=thresholds,
                                  **options)


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _resolve("eval", args)
    splits = _load_benchmark(cfg)
    _check_vocab(cfg, splits)
    tables = _load_tables(cfg["checkpoint"], splits)

    thresholds = None
    if cfg["task"] != "lp":
        thresholds = tune_thresholds(tables, splits.valid, splits.valid_labels)
    report = _evaluate(cfg, tables, splits, cfg["scheme"], cfg["cap"], thresholds)
    label = f"{'lp' if cfg['task'] == 'lp' else 'tc'}-{report.config['scheme']}"
    correlation = None
    if cfg["dump_correlation"]:
        train_store = TripleStore(splits.train, num_entities=splits.vocab.num_entities,
                                  num_relations=splits.vocab.num_relations)
        correlation = build_correlation(train_store)

    out_dir = Path(cfg["out"])  # written only once every result is in hand
    out_dir.mkdir(parents=True, exist_ok=True)
    if thresholds is not None:
        rows = [(splits.vocab.relation_name(rel), repr(thresholds.per_relation[rel]))
                for rel in sorted(thresholds.per_relation)]
        _write_csv(out_dir / "thresholds.csv",
                   [("relation", "threshold"), *rows, ("__default__", repr(thresholds.default))])
    if correlation is not None:
        save_correlation_csv(correlation, splits.vocab, out_dir / "correlation.csv")
    write_report_csv(out_dir / "report.csv", [(label, report)])
    _write_text(out_dir / "report.txt", format_report(label, report))
    _echo_config("eval", cfg, out_dir)
    print(format_report(label, report), end="")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    cfg = _resolve("ablate", args)
    variants = [v for v in cfg["variants"].split(",") if v]
    if not variants:
        raise UsageError("--variants must list at least one variant")
    for variant in variants:  # capK has one spelling, so no two labels run the same cap
        if variant not in (UNIFORM, "ratio") and not _CAP_VARIANT.fullmatch(variant):
            raise ValueError(f"unknown ablation variant {variant!r}")
        if variants.count(variant) > 1:
            raise UsageError(f"--variants names {variant!r} twice; it would run twice")

    # one run per report: (label, tables, splits, scheme, cap); a None scheme is the task's default
    ratio_runs = []
    if "ratio" in variants:
        if not cfg["datasets"] or not cfg["checkpoints"]:
            raise UsageError("the ratio variant needs --datasets and --checkpoints "
                             "(comma-separated, one checkpoint per dataset)")
        dataset_dirs = cfg["datasets"].split(",")
        checkpoint_paths = cfg["checkpoints"].split(",")
        if len(dataset_dirs) != len(checkpoint_paths):
            raise UsageError("--datasets and --checkpoints must have the same length")
        names = [Path(directory).name for directory in dataset_dirs]
        for name in names:  # a ratio run's reports are named after its directory
            if names.count(name) > 1:
                raise UsageError(f"--datasets names two directories {name!r}; "
                                 f"their ratio reports would overwrite each other")
        for name, directory, ckpt in zip(names, dataset_dirs, checkpoint_paths):
            member = load_split_dir(directory, task=cfg["task"])
            ratio_runs.append((f"ratio:{name}", _load_tables(ckpt, member), member,
                               cfg["scheme"], None))

    non_ratio = [v for v in variants if v != "ratio"]
    tables = None
    splits = None
    if non_ratio:
        for key in ("train", "valid", "aux", "test", "checkpoint"):
            if not cfg[key]:
                raise UsageError(f"variants {non_ratio} need --{key}")
        splits = _load_benchmark(cfg)
        _check_vocab(cfg, splits)
        tables = _load_tables(cfg["checkpoint"], splits)

    runs = []
    for variant in variants:
        if variant == "ratio":
            runs += ratio_runs
        elif variant == UNIFORM:
            runs.append((variant, tables, splits, UNIFORM, None))
        else:
            runs.append((variant, tables, splits, cfg["scheme"], int(variant[3:])))
    results = [(label, _evaluate(cfg, run_tables, run_splits, scheme, cap))
               for label, run_tables, run_splits, scheme, cap in runs]

    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    for label, report in results:
        safe = label.replace(":", "_")
        write_report_csv(out_dir / f"report_{safe}.csv", [(label, report)])
        _write_text(out_dir / f"report_{safe}.txt", format_report(label, report))
    write_report_csv(out_dir / "summary.csv", results)
    _echo_config("ablate", cfg, out_dir)
    for label, report in results:
        print(format_report(label, report), end="")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    """Check the split files against the benchmark invariants; exit 0/1."""
    cfg = _resolve("validate", args)
    splits = _load_benchmark(cfg)  # raises (exit 1) on format/validation errors
    print(f"train={len(splits.train)} valid={len(splits.valid)} aux={len(splits.aux)} "
          f"test={len(splits.test)} entities={splits.vocab.num_entities} "
          f"relations={splits.vocab.num_relations} in_graph={len(splits.ikg_entities)} "
          f"out_of_graph={len(splits.ookg_entities)} dangling={len(splits.dangling_ookg)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invkge",
        description="Pretrain translational KG embeddings and evaluate closed-form "
                    "estimation of out-of-graph entities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, spec: dict) -> None:
        p.add_argument("--config", help="key=value file with option defaults")
        for name, (cast, default) in spec.items():
            flag = "--" + name.replace("_", "-")
            if cast is _parse_bool:
                p.add_argument(flag, action="store_const", const=True, default=None)
            else:
                p.add_argument(flag, type=cast, default=None,
                               help=f"default: {default if default is not _REQUIRED else 'required'}")

    for command, func, help_text in (
            ("pretrain", cmd_pretrain, "train embeddings on the training split"),
            ("estimate", cmd_estimate, "dump reduced embeddings for out-of-graph entities"),
            ("eval", cmd_eval, "link prediction or triplet classification"),
            ("ablate", cmd_ablate, "neighbor-cap / uniform-weight / ratio ablations"),
            ("validate", cmd_validate, "check split files; exit code 0 iff valid")):
        p = sub.add_parser(command, help=help_text)
        add_common(p, _SPECS[command])
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits with 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DatasetFormatError, DatasetValidationError, TrainingDivergedError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
