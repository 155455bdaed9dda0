"""Command-line front end: train, eval, augment, ablation, sweep,
representation export, and synthetic-corpus generation.

Exit codes: 0 success, 1 runtime failure (single-line diagnostic on
stderr), 2 flag/usage errors (argparse). Every command touches only its
declared output paths. Fixed seeds reproduce every output file
byte-for-byte; ``sweep`` prints each cell's mean wall-clock time per run
but writes no timing to ``sweep.csv``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .adversarial import PerturbationPolicy, augment_dataset
from .capsule import mean_pool
from .model import check_parameters, first_nonfinite, forward_batch, parameter_shapes
from .serialize import (
    ModelFormatError,
    build_manifest,
    config_parts_from_meta,
    fmt_float,
    load_model,
    model_meta,
    save_model,
    write_ablation_csv,
    write_json,
    write_metrics_csv,
    write_representations_csv,
    write_sweep_csv,
)
from .tensor import ShapeMismatchError, Tensor, TensorError, Workspace
from .text import (DatasetError, encode_batch, load_embeddings, read_dataset, read_text,
                   write_dataset)
from .training import (
    TrainConfig,
    TrainingError,
    best_epoch,
    config_from_dict,
    config_to_dict,
    evaluate,
    run_ablation,
    run_sweep,
    split_dataset,
    train,
)
from .synth import generate_embeddings, generate_synthetic_corpus, write_embeddings_file

STAGES = ("encoder-pooled", "condensed", "class")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _load_config(path):
    raw = read_text(path)
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        # malformed text, an integer beyond Python's digit limit, or
        # nesting beyond the stack: named like read_dataset's lines
        raise ValueError(f"{path}: unreadable JSON: {exc}") from exc
    if isinstance(data, dict) and isinstance(data.get("config"), dict):
        data = data["config"]  # a manifest also works as a config source
    return config_from_dict(data)


def _run_inputs(args):
    """The config, the first --max-docs documents and the embedding table of
    a train, ablation or sweep run."""
    return (_load_config(args.config), read_dataset(args.data)[:args.max_docs],
            load_embeddings(args.embeddings))


def cmd_train(args) -> int:
    config, docs, table = _run_inputs(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    params, history = train(config, docs, table)
    best = best_epoch(history)
    _, _, test_docs = split_dataset(docs, config.split, config.seed)
    test_metrics = evaluate(params, test_docs, table, config)

    write_metrics_csv(out_dir / "metrics.csv", history, test=test_metrics,
                      test_epoch=best.epoch)
    save_model(out_dir / "model.caps", params, model_meta(config, table.dimension))
    manifest = build_manifest(config_to_dict(config), config.seed,
                              {"data": args.data, "embeddings": args.embeddings})
    write_json(out_dir / "manifest.json", manifest)
    splits_dir = out_dir / "splits"
    splits_dir.mkdir(exist_ok=True)
    write_dataset(splits_dir / "test.jsonl", test_docs)
    print(f"trained {config.encoder.kind} for {config.epochs} epochs; "
          f"best valid accuracy {fmt_float(best.valid.accuracy)} (epoch {best.epoch}); "
          f"test accuracy {fmt_float(test_metrics.accuracy)}")
    return 0


def _rebuild_from_checkpoint(model_path):
    """Load a checkpoint and check its parameters against the model's inventory.

    Raises ModelFormatError naming the first missing, unexpected, misshapen
    or non-finite parameter.
    """
    params, meta = load_model(model_path)
    encoder, head, n_s, n_w, e_d = config_parts_from_meta(meta)
    config = TrainConfig(encoder=encoder, head=head, n_s=n_s, n_w=n_w)
    try:
        check_parameters(params, parameter_shapes(encoder, head, e_d, n_s * n_w))
    except ValueError as exc:
        raise ModelFormatError(f"{model_path}: metadata describes no buildable model: {exc}")
    except ShapeMismatchError as exc:
        raise ModelFormatError(f"{model_path}: {exc}")
    first = first_nonfinite(params)
    if first is not None:
        raise ModelFormatError(f"{model_path}: parameter {first!r} holds non-finite values")
    return params, config, e_d


def _checkpoint_inputs(args):
    """The rebuilt checkpoint of an eval or export-repr run, its embedding
    table, checked against the model's dimension, and a non-empty dataset."""
    params, config, e_d = _rebuild_from_checkpoint(args.model)
    table = load_embeddings(args.embeddings)
    if table.dimension != e_d:
        raise DatasetError(
            f"embedding dimension {table.dimension} != model dimension {e_d}")
    docs = read_dataset(args.data)
    if not docs:
        raise DatasetError("dataset is empty")
    return params, config, table, docs


def cmd_eval(args) -> int:
    params, config, table, docs = _checkpoint_inputs(args)
    metrics = evaluate(params, docs, table, config)
    print(json.dumps({
        "accuracy": metrics.accuracy,
        "precision": metrics.precision,
        "recall": metrics.recall,
        "loss": metrics.loss,
    }))
    return 0


def cmd_augment(args) -> int:
    docs = read_dataset(args.data)
    augmented = augment_dataset(docs, PerturbationPolicy(), args.seed, epoch=0)
    write_dataset(args.out, augmented)
    return 0


def cmd_ablation(args) -> int:
    config, docs, table = _run_inputs(args)
    rows = run_ablation(config, docs, table)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_ablation_csv(out_dir / "ablation.csv", rows)
    for row in rows:
        print(f"{row.label}: valid {fmt_float(row.valid.accuracy)} "
              f"test {fmt_float(row.test.accuracy)}")
    return 0


def cmd_sweep(args) -> int:
    config, docs, table = _run_inputs(args)
    cells = run_sweep(config, args.n_pc, args.n_cc, args.repeats, docs, table)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(out_dir / "sweep.csv", cells)
    for cell in cells:
        print(f"{cell.parameter}={cell.value}: mean accuracy "
              f"{fmt_float(cell.mean_accuracy)} ({cell.mean_runtime_s:.2f}s/run)")
    return 0


def cmd_export_repr(args) -> int:
    params, config, table, docs = _checkpoint_inputs(args)
    if config.head is None and args.stage in ("condensed", "class"):
        raise TrainingError(f"stage {args.stage!r} requires a capsule-head model")
    ids, labels = encode_batch(docs, table, config.n_s, config.n_w)

    vectors = []
    with Workspace(), np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, len(labels), config.batch_size):
            stop = min(start + config.batch_size, len(labels))
            result = forward_batch(config.encoder, config.head, params,
                                   Tensor(table.embed(ids[start:stop])))
            if args.stage == "encoder-pooled":
                stage = mean_pool(result.feature_map).values
            elif args.stage == "condensed":
                stage = result.condensed.values
            else:
                stage = result.class_capsules.values
            vectors.append(stage.reshape(stop - start, -1))
    vectors = np.concatenate(vectors)
    if not np.isfinite(vectors).all():
        raise TrainingError(f"stage {args.stage!r} vectors hold non-finite values")
    write_representations_csv(args.out, labels, vectors)
    return 0


def cmd_gen_synth(args) -> int:
    docs, vocab = generate_synthetic_corpus(args.docs, args.vocab, args.seed)
    write_dataset(args.out, docs)
    vectors = generate_embeddings(vocab, args.embedding_dim, args.seed)
    write_embeddings_file(args.embeddings_out, vocab, vectors)
    print(f"wrote {len(docs)} documents ({sum(d.label for d in docs)} positive) "
          f"and {len(vocab)} embeddings of dimension {args.embedding_dim}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="textcaps",
        description="Adversarial capsule networks for binary text classification.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--config", required=True, help="JSON config (or manifest)")
        p.add_argument("--data", required=True, help="JSON Lines dataset")
        p.add_argument("--embeddings", required=True, help="word2vec text embeddings")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--max-docs", type=_positive_int, default=None,
                       help="truncate the dataset to its first N documents")

    p_train = sub.add_parser("train", help="train a model and write outputs")
    add_io(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--embeddings", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_aug = sub.add_parser("augment", help="write adversarial copies of a dataset")
    p_aug.add_argument("--data", required=True)
    p_aug.add_argument("--seed", type=int, required=True)
    p_aug.add_argument("--out", required=True)
    p_aug.set_defaults(func=cmd_augment)

    p_abl = sub.add_parser("ablation", help="baseline/+Adv/+Capsule/+Adv+Capsule grid")
    add_io(p_abl)
    p_abl.set_defaults(func=cmd_ablation)

    p_sweep = sub.add_parser("sweep", help="capsule hyperparameter sweep")
    add_io(p_sweep)
    p_sweep.add_argument("--n-pc", type=_positive_int, nargs="+", default=[2, 8, 32])
    p_sweep.add_argument("--n-cc", type=_positive_int, nargs="+", default=[32, 128, 256])
    p_sweep.add_argument("--repeats", type=_positive_int, default=3)
    p_sweep.set_defaults(func=cmd_sweep)

    p_repr = sub.add_parser("export-repr", help="export per-document representations")
    p_repr.add_argument("--model", required=True)
    p_repr.add_argument("--data", required=True)
    p_repr.add_argument("--embeddings", required=True)
    p_repr.add_argument("--stage", required=True, choices=STAGES)
    p_repr.add_argument("--out", required=True)
    p_repr.set_defaults(func=cmd_export_repr)

    p_gen = sub.add_parser("gen-synth", help="generate a synthetic corpus + embeddings")
    p_gen.add_argument("--docs", type=_positive_int, required=True)
    p_gen.add_argument("--vocab", type=_positive_int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--embeddings-out", required=True)
    p_gen.add_argument("--embedding-dim", type=_positive_int, default=16)
    p_gen.set_defaults(func=cmd_gen_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TensorError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
