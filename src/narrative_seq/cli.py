"""The ``narrative-seq`` command line: ingest, preprocess, train, evaluate,
and compare subcommands over the library.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure. In
compare mode a numeric failure in one model is recorded per model; the run
exits 0 as long as at least one model succeeds.

Every subcommand resolves its settings the same way: the ``--config`` JSON
object, overlaid with each flag given on the command line whose destination
is a config key, goes through ``harness.config_from_dict`` once. A flag
beats the file and the file beats the built-in default. Unknown keys and
invalid values exit 2, like any other data error.

The subcommands are thin: ``train`` and ``compare`` train and save through
``harness.train_and_save``, ``train`` and ``evaluate`` read their dataset
directory through ``harness.read_dataset_dir``, and ``evaluate`` scores
through ``harness.evaluate_on``. Every named split comes from
``harness.split_indices``: an empty split exits 2 naming its fraction's key
before anything is written. ``train`` checks the validation split,
``compare`` the validation and test splits and ``evaluate`` the split it
scores. An ``--out`` that cannot be a directory exits 2 before any training
starts.
"""

from __future__ import annotations

import argparse
import json
import sys

from pathlib import Path

from . import dataset_io, harness
from .checkpoint import load_checkpoint
from .corpus_ingest import class_distribution, filter_completed, load_reports
from .errors import CheckpointError, DataError, NumericError
from .evaluation import format_evaluation_summary
from .text_pipeline import load_stoplist, preprocess_corpus


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; this tool reserves 2 for
    # data errors, so route usage problems through exit code 1.
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="narrative-seq", description=__doc__)
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--seed", type=int, help="seed for split and training")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("ingest", help="load a corpus and print its class distribution")
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=("json", "csv"))

    p = sub.add_parser("preprocess", help="encode a corpus into a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=("json", "csv"))
    p.add_argument("--out", required=True)
    p.add_argument("--vocab-size", type=int)
    p.add_argument("--seq-len", type=int)
    p.add_argument("--pad", choices=("pre", "post"))
    p.add_argument("--stoplist")

    p = sub.add_parser("train", help="train one zoo model on an encoded dataset")
    p.add_argument("--data", required=True, help="directory written by preprocess")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    _add_train_flags(p)
    # SUPPRESS: when absent, the subparser must not reset a global --seed.
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a dataset split")
    p.add_argument("--model-file", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=harness.SPLIT_NAMES, default="test")
    p.add_argument("--out")

    p = sub.add_parser("compare", help="train and evaluate a set of zoo models")
    p.add_argument("--data", dest="data_path")
    p.add_argument("--out", dest="output_dir")
    p.add_argument("--models", dest="model_names", type=_split_names,
                   help="comma-separated zoo names (default: all ten)")
    _add_train_flags(p)
    return parser


def _add_train_flags(p) -> None:
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", type=int, dest="batch_size")
    p.add_argument("--lr", type=float, dest="learning_rate")


def _split_names(text: str) -> list[str]:
    return [m.strip() for m in text.split(",") if m.strip()]


def _infer_format(path: str, explicit: str | None) -> str:
    if explicit:
        return explicit
    suffix = Path(path).suffix.lower()
    if suffix == ".json":
        return "json"
    if suffix == ".csv":
        return "csv"
    raise DataError(
        f"cannot infer corpus format from {path!r}; pass --format json|csv"
    )


def _load_filtered(args, verbose: bool):
    result = load_reports(args.data, _infer_format(args.data, args.format))
    if result.warnings:
        print(f"skipped {len(result.warnings)} malformed entries", file=sys.stderr)
        if verbose:
            for warning in result.warnings:
                print(f"  {warning}", file=sys.stderr)
    return filter_completed(result.records)


def _cmd_ingest(args, config: harness.ExperimentConfig) -> int:
    records = _load_filtered(args, args.verbose)
    dist = class_distribution(records)
    width = max(len(label.display_name) for label in dist.counts)
    print(f"{'Damage level':<{width + 2}}Count")
    for label, count in dist.counts.items():
        print(f"{label.display_name:<{width + 2}}{count}")
    print(f"{'Total':<{width + 2}}{dist.total}")
    print(json.dumps(dist.to_dict(), sort_keys=True))
    return 0


def _cmd_preprocess(args, config: harness.ExperimentConfig) -> int:
    records = _load_filtered(args, args.verbose)
    if not records:
        raise DataError("no usable records after the completed-investigation filter")
    stoplist = load_stoplist(config.stoplist) if config.stoplist else None
    sequences, labels, vocab = preprocess_corpus(
        records, vocab_size=config.vocab_size, seq_len=config.seq_len,
        stoplist=stoplist, pad=config.pad,
    )
    out_dir = harness.make_output_dir(args.out)
    dataset = dataset_io.EncodedDataset(
        sequences=sequences, labels=labels, vocab_size=vocab.size
    )
    dataset_io.write_encoded_dataset(out_dir / dataset_io.ENCODED_FILENAME, dataset)
    dataset_io.write_vocab_sidecar(out_dir / dataset_io.VOCAB_FILENAME, vocab)
    print(
        f"encoded {len(dataset)} records (seq_len={config.seq_len}, "
        f"vocab size={vocab.size}) into {out_dir}"
    )
    return 0


def _cmd_train(args, config: harness.ExperimentConfig) -> int:
    dataset, fingerprint = harness.read_dataset_dir(args.data)
    harness.split_indices(len(dataset), config.split, "validation")
    spec, history, _ = harness.train_and_save(args.model, config, dataset, fingerprint,
                                              args.out)
    last = history[-1]
    print(
        f"trained {spec.name} for {config.train.epochs} epochs: "
        f"train acc {last.train_accuracy:.4f}, val acc {last.val_accuracy:.4f}"
    )
    print(f"checkpoint and history written to {Path(args.out)}")
    return 0


def _cmd_evaluate(args, config: harness.ExperimentConfig) -> int:
    dataset, fingerprint = harness.read_dataset_dir(args.data)
    spec, params = load_checkpoint(args.model_file, fingerprint)
    rows = params["embedding"].shape[0]
    if rows != dataset.vocab_size:
        raise CheckpointError(f"{args.model_file}: embedding has {rows} rows, but the "
                              f"dataset's vocabulary size is {dataset.vocab_size}")
    indices = harness.split_indices(len(dataset), config.split, args.split)
    report = harness.evaluate_on(spec, params, dataset, indices)
    print(f"{spec.name} on the {args.split} split ({indices.size} records)")
    print(format_evaluation_summary(report), end="")
    if args.out:
        metrics_path = harness.make_output_dir(args.out) / harness.METRICS_FILENAME
        harness.write_json(metrics_path, report.to_dict())
        print(f"metrics written to {metrics_path}")
    return 0


def _cmd_compare(args, config: harness.ExperimentConfig) -> int:
    if not config.data_path:
        raise _UsageError("compare needs --data or data_path in the config file")
    if not config.output_dir:
        raise _UsageError("compare needs --out or output_dir in the config file")
    manifest = harness.run_experiment(config)
    # The manifest lists the table only when a model of this run succeeded.
    if harness.RESULTS_TABLE_FILENAME in manifest["files"]:
        table = Path(config.output_dir) / harness.RESULTS_TABLE_FILENAME
        print(table.read_text(encoding="utf-8"), end="")
    failed = [n for n, m in manifest["models"].items() if m["status"] == "failed"]
    for name in failed:
        print(
            f"model {name} failed: {manifest['models'][name]['error']}",
            file=sys.stderr,
        )
    ok = len(manifest["models"]) - len(failed)
    print(f"{ok}/{len(manifest['models'])} models completed; manifest in "
          f"{config.output_dir}")
    return 0 if ok else 3


_COMMANDS = {
    "ingest": _cmd_ingest,
    "preprocess": _cmd_preprocess,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "compare": _cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise _UsageError("a subcommand is required (see --help)")
        values = harness.read_config_file(args.config) if args.config else {}
        values.update({key: value for key, value in vars(args).items()
                       if key in harness.CONFIG_KEYS and value is not None})
        return _COMMANDS[args.command](args, harness.config_from_dict(values))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())
