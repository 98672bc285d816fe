"""Command-line surface: convert, stats, pretrain, finetune, evaluate, explain.

Every command takes an --out directory and echoes its fully resolved
configuration (defaults and seed included) to ``run_config.json`` there, so
a run can be reproduced from its own output. Exit codes: 0 success,
1 runtime failure (e.g. divergence), 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import metrics as metrics_mod
from .checkpoint import CheckpointError, load_into
from .corpus import M_LEN_CHOICES, CorpusError, SplitSpec
from .encoding import RESERVED_TOKENS, EncodingError, Vocab, build_vocab, encode
from .finetune import (
    DetectionHeads,
    FinetuneSchedule,
    coarse_metrics,
    finetune_run,
    predict,
    write_reports_jsonl,
)
from .model import VOCAB_NAME, BundleConfigError, HierarchicalModel, ModelConfig, load_bundle
from .parallel import map_ordered
from .pooling import POOL_KINDS
from .pretrain import (
    DivergenceError,
    MlmHead,
    MspDecoder,
    PretrainSchedule,
    pretrain_run,
)
from .transformer import PRESETS, preset_config


class UsageError(ValueError):
    """Bad flags or inputs; maps to exit code 2."""


def _echo_config(args: argparse.Namespace) -> None:
    os.makedirs(args.out, exist_ok=True)
    resolved = {k: v for k, v in vars(args).items() if k != "func"}
    with open(os.path.join(args.out, "run_config.json"), "w") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _load_corpus(path: str):
    if not os.path.isfile(path):
        raise UsageError(f"corpus file not found: {path}")
    return corpus_mod.load_corpus(path)


def _encode_corpus(samples, vocab: Vocab, m_len: int):
    encodeds, skipped = [], 0
    for s in samples:
        try:
            encodeds.append(encode(s, vocab, m_len))
        except EncodingError:
            skipped += 1
    return encodeds, skipped


def _model_config(args, vocab_size: int) -> ModelConfig:
    enc = preset_config(args.strategy_preset, vocab_size=vocab_size)
    return ModelConfig(encoder=enc, m_len=args.m_len, t2s=args.t2s)


def _build_fresh(args, samples):
    vocab = build_vocab(samples, max_size=args.vocab_size, min_freq=args.min_freq)
    config = _model_config(args, len(vocab))
    model = HierarchicalModel(config, seed=args.seed)
    return model, vocab


def _load_model(checkpoint_dir: str):
    if not os.path.isdir(checkpoint_dir):
        raise UsageError(f"checkpoint directory not found: {checkpoint_dir}")
    try:
        config, arrays, vocab, meta = load_bundle(checkpoint_dir)
    except BundleConfigError as exc:
        raise UsageError(str(exc)) from exc
    if vocab is None:
        raise UsageError(f"checkpoint {checkpoint_dir} has no vocabulary file")
    if len(vocab) != config.encoder.vocab_size:
        raise UsageError(
            f"{os.path.join(checkpoint_dir, VOCAB_NAME)} holds {len(vocab)} tokens; "
            f"the config's vocab_size is {config.encoder.vocab_size}")
    model = HierarchicalModel(config, seed=0)
    model.load_state(arrays)
    return model, vocab, arrays, meta


def _load_heads(model, arrays, meta) -> DetectionHeads:
    if not any(k.startswith("heads.") for k in arrays):
        raise UsageError("checkpoint has no detection heads; fine-tune first")
    heads = DetectionHeads(
        model.config.encoder.hidden,
        model.config.encoder.ffn_hidden,
        np.random.default_rng(0),
        threshold=float(meta.get("threshold", 0.5)),
    )
    load_into(heads.parameters(), arrays)
    return heads


def _bounded(cast, low, high=math.inf, open_low: bool = False):
    """argparse type: a finite ``cast`` value (int or float) from ``low``
    (excluded with ``open_low``) to ``high``."""
    def number(raw: str):  # argparse names the type by this name
        value = cast(raw)
        # NaN fails every comparison
        if not ((value > low if open_low else value >= low) and value <= high
                and value != math.inf):
            limit = f"{'above' if open_low else 'at least'} {low:g}"
            if high < math.inf:
                limit += f" and at most {high:g}"
            raise argparse.ArgumentTypeError(f"must be a finite number {limit}, got {raw}")
        return value
    return number


def _numbers(low, high=math.inf, open_low: bool = False, count: int | None = None):
    """argparse type: a comma list of ``_bounded(float, low, high, open_low)``
    values, exactly ``count`` of them when given."""
    number = _bounded(float, low, high, open_low)

    def numbers(raw: str):
        values = tuple(number(x) for x in raw.split(","))
        if count is not None and len(values) != count:
            raise argparse.ArgumentTypeError(f"needs {count} comma-separated numbers, got {raw}")
        return values
    return numbers


def _split_three(args, samples):
    spec = SplitSpec(*args.split, seed=args.seed)
    return corpus_mod.split(samples, spec, stratify=args.stratify)


# -- commands ---------------------------------------------------------------


def cmd_convert(args) -> int:
    out_path = os.path.join(args.out, "corpus.jsonl")
    if not os.path.isfile(args.csv):
        raise UsageError(f"csv file not found: {args.csv}")
    count = corpus_mod.convert_csv_corpus(
        args.csv,
        out_path,
        code_column=args.code_column,
        label_column=args.label_column,
        lines_column=args.lines_column,
        id_column=args.id_column,
        cwe_column=args.cwe_column,
        zero_based_lines=not args.one_based_lines,
    )
    print(f"converted {count} records -> {out_path}")
    return 0


def cmd_stats(args) -> int:
    samples = _load_corpus(args.corpus)
    vocab = build_vocab(samples, max_size=args.vocab_size, min_freq=args.min_freq)

    def token_length(sample):
        from .encoding import tokenize_line
        return 1 + sum(len(tokenize_line(ln)) for ln in sample.code.split("\n"))

    stats = {
        "classes": corpus_mod.class_stats(samples),
        "truncation": corpus_mod.truncation_stats(samples, token_length),
        "vocab_size": len(vocab),
    }
    with open(os.path.join(args.out, "stats.json"), "w") as fh:
        json.dump(stats, fh, indent=2)
        fh.write("\n")
    table = corpus_mod.format_stats_table(stats["truncation"])
    with open(os.path.join(args.out, "stats.txt"), "w") as fh:
        fh.write(table + "\n")
    print(table)
    return 0


def cmd_pretrain(args) -> int:
    samples = _load_corpus(args.corpus)
    if args.init_from:
        model, vocab, arrays, _ = _load_model(args.init_from)
    else:
        model, vocab = _build_fresh(args, samples)
        arrays = None
    cfg = model.config.encoder
    ss = np.random.SeedSequence([args.seed, 0xDEC0])
    dec_rng, mlm_rng = (np.random.default_rng(s) for s in ss.spawn(2))
    decoder = MspDecoder(cfg.hidden, cfg.vocab_size, dec_rng,
                         max_decode_len=args.max_decode_len)
    mlm_head = MlmHead(cfg.hidden, cfg.ffn_hidden, cfg.vocab_size, mlm_rng)
    if arrays is not None:
        # a module the checkpoint has no tensor of starts fresh
        for module, prefix in ((decoder, "decoder."), (mlm_head, "mlm.")):
            if any(k.startswith(prefix) for k in arrays):
                load_into(module.parameters(), arrays)
    encodeds, skipped = _encode_corpus(samples, vocab, model.config.m_len)
    if not encodeds:
        raise UsageError("no encodable samples in the corpus")
    schedule = PretrainSchedule(
        mlm_steps=args.mlm_steps,
        msp_steps=args.steps,
        batch_size=args.batch,
        learning_rate=args.lr,
        seed=args.seed,
        checkpoint_every=args.checkpoint_every,
        per_token_mean=not args.sum_loss,
    )
    state = pretrain_run(encodeds, model, decoder, mlm_head, schedule,
                         out_dir=args.out, vocab=vocab)
    print(f"pretraining done: {state.step} steps, {skipped} samples skipped; "
          f"checkpoint at {os.path.join(args.out, 'checkpoint')}")
    return 0


def cmd_finetune(args) -> int:
    schedule = FinetuneSchedule(
        epochs=args.epochs,
        batch_size=args.batch,
        learning_rate=args.lr,
        lambda_fine=args.lambda_fine,
        seed=args.seed,
        class_weights=args.class_weights,
        freeze_encoder=args.freeze_encoder,
        early_stop_patience=args.early_stop,
    )
    samples = _load_corpus(args.corpus)
    train_s, eval_s, test_s = _split_three(args, samples)
    if not train_s:
        raise UsageError("training split is empty")

    resume = None
    best_dir = os.path.join(args.out, "best")
    if args.resume:
        # a run writes best/ in its first epoch, before last/
        if not os.path.isdir(best_dir):
            raise UsageError(f"cannot resume: {best_dir} is missing")
        model, vocab, arrays, meta = _load_model(os.path.join(args.out, "last"))
        heads = _load_heads(model, arrays, meta)
        resume = (arrays, meta)
    else:
        if args.checkpoint:
            model, vocab, _, _ = _load_model(args.checkpoint)
        else:
            model, vocab = _build_fresh(args, train_s)
        heads = DetectionHeads(
            model.config.encoder.hidden, model.config.encoder.ffn_hidden,
            np.random.default_rng(np.random.SeedSequence([args.seed, 0x4EAD])),
            threshold=args.threshold,
        )

    train_enc, skipped_tr = _encode_corpus(train_s, vocab, model.config.m_len)
    eval_enc, _ = _encode_corpus(eval_s, vocab, model.config.m_len)
    if not train_enc:
        raise UsageError("no encodable samples in the training split")
    result = finetune_run(train_enc, eval_enc, model, heads, schedule,
                          out_dir=args.out, vocab=vocab, resume=resume)

    # score the best checkpoint on the evaluation split
    model, vocab, arrays, meta = _load_model(best_dir)
    heads = _load_heads(model, arrays, {"threshold": args.threshold})
    report = coarse_metrics(eval_enc, model, heads)
    report["best_epoch"] = result.best_epoch
    report["train_skipped"] = skipped_tr
    with open(os.path.join(args.out, "metrics.json"), "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"fine-tuning done: best eval f1 {result.best_f1:.4f} "
          f"(epoch {result.best_epoch + 1})")
    return 0


def _select_part(args, splits):
    train_s, eval_s, test_s = splits
    return {
        "train": train_s, "eval": eval_s, "test": test_s,
        "all": train_s + eval_s + test_s,
    }[args.split_part]


def cmd_evaluate(args) -> int:
    model, vocab, arrays, meta = _load_model(args.checkpoint)
    heads = _load_heads(model, arrays, meta)
    samples = _load_corpus(args.corpus)
    part = _select_part(args, _split_three(args, samples))
    if not part:
        raise UsageError(f"selected split {args.split_part!r} is empty")
    encodeds, skipped = _encode_corpus(part, vocab, model.config.m_len)
    if not encodeds:
        raise UsageError("no encodable samples in the selected split")
    reports = list(map_ordered(
        lambda e: predict(e, model, heads, k_percent=args.k[0]), encodeds))
    write_reports_jsonl(reports, os.path.join(args.out, "predictions.jsonl"))

    labels = [e.label for e in encodeds]
    predictions = [r.coarse_label for r in reports]
    counts = metrics_mod.ConfusionCounts.from_predictions(labels, predictions)
    summary = metrics_mod.classification_metrics(counts)

    records = []
    for enc, rep in zip(encodeds, reports):
        if enc.label != 1:
            continue
        if args.topk_filter == "coarse-correct" and rep.coarse_label != 1:
            continue
        truth = frozenset(
            line for line, flag in zip(enc.orig_lines, enc.vul_flags) if flag
        )
        records.append(metrics_mod.LocalizationRecord(
            truth=truth, ranked=tuple(s["line"] for s in rep.statements),
            total_lines=enc.L,
        ))
    summary["topk"] = {
        str(k): metrics_mod.topk_accuracy(records, k, detail=True)
        for k in args.k
    }
    summary["skipped"] = skipped
    with open(os.path.join(args.out, "metrics.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    metrics_mod.write_csv(
        os.path.join(args.out, "topk.csv"), ["k_percent", "topk_accuracy"],
        metrics_mod.sweep_topk(records),
    )
    print(json.dumps({k: summary[k] for k in
                      ("accuracy", "precision", "recall", "f1")}))
    return 0


def cmd_explain(args) -> int:
    model, vocab, arrays, meta = _load_model(args.checkpoint)
    heads = _load_heads(model, arrays, meta)
    samples = _load_corpus(args.corpus)
    matching = [s for s in samples if s.id == args.id]
    if not matching:
        raise UsageError(f"sample id {args.id!r} not found in corpus")
    sample = matching[0]
    encoded = encode(sample, vocab, model.config.m_len)
    report = predict(encoded, model, heads, k_percent=args.k)
    rows = metrics_mod.export_heatmap(report, sample.code)
    note = None
    if report.coarse_label == 0:
        note = "coarse-negative; ranking suppressed"
    out_path = os.path.join(args.out, f"heatmap_{args.id}.csv")
    metrics_mod.write_heatmap_csv(rows, out_path, note=note)
    print(f"wrote {out_path} ({len(rows)} lines, p_vul={report.p_vul:.4f})")
    return 0


# -- parser -----------------------------------------------------------------


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m-len", type=int, choices=M_LEN_CHOICES, default=512,
                   help="maximum accepted token-stream length")
    p.add_argument("--t2s", choices=POOL_KINDS,
                   default="average", help="token-to-statement strategy")
    p.add_argument("--strategy-preset", choices=sorted(PRESETS),
                   default="desk-2x64x4", help="encoder size preset")
    _add_vocab_flags(p)


def _add_vocab_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--vocab-size", type=_bounded(int, len(RESERVED_TOKENS), open_low=True),
                   default=4096, help="largest vocabulary, reserved tokens included")
    p.add_argument("--min-freq", type=_bounded(int, 1), default=1,
                   help="fewest occurrences for a token to get an id")


def _add_split_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--split", type=_numbers(0, count=3), default="0.8,0.1,0.1",
                   help="train,evaluation,test fractions")
    p.add_argument("--stratify", action="store_true",
                   help="split per label class")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linesift",
        description="Staged coarse-to-fine vulnerability detection "
                    "with a hierarchical token/statement encoder.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert a big_vul-style CSV to JSONL")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--code-column", default="processed_func")
    p.add_argument("--label-column", default="target")
    p.add_argument("--lines-column", default="flaw_line_index")
    p.add_argument("--id-column", default=None)
    p.add_argument("--cwe-column", default="CWE ID")
    p.add_argument("--one-based-lines", action="store_true",
                   help="CSV line indices are already 1-based")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("stats", help="corpus class and truncation statistics")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    _add_vocab_flags(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("pretrain", help="masked-statement (and token) pretraining")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_bounded(int, 0), default=0)
    _add_model_flags(p)
    p.add_argument("--steps", type=_bounded(int, 0), default=300,
                   help="masked-statement steps")
    p.add_argument("--mlm-steps", type=_bounded(int, 0), default=0,
                   help="token-level warm-up steps")
    p.add_argument("--batch", type=_bounded(int, 1), default=4)
    p.add_argument("--lr", type=_bounded(float, 0, open_low=True), default=1e-3)
    p.add_argument("--init-from", default=None, help="continue from a checkpoint")
    p.add_argument("--checkpoint-every", type=_bounded(int, 0), default=100)
    p.add_argument("--max-decode-len", type=_bounded(int, 1), default=64)
    p.add_argument("--sum-loss", action="store_true",
                   help="sum per-token losses instead of averaging")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="staged supervised detection training")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_bounded(int, 0), default=0)
    p.add_argument("--checkpoint", default=None, help="pretrained model to start from")
    _add_model_flags(p)
    _add_split_flags(p)
    p.add_argument("--epochs", type=_bounded(int, 1), default=10)
    p.add_argument("--batch", type=_bounded(int, 1), default=8)
    p.add_argument("--lr", type=_bounded(float, 0, open_low=True), default=2e-3)
    p.add_argument("--lambda-fine", type=_bounded(float, 0), default=1.0)
    p.add_argument("--class-weights", type=_numbers(0, open_low=True, count=2),
                   default=None, help="comma pair, e.g. 1.0,16.3")
    p.add_argument("--threshold", type=_bounded(float, 0, 1), default=0.5)
    p.add_argument("--freeze-encoder", action="store_true")
    p.add_argument("--early-stop", type=_bounded(int, 1), default=None)
    p.add_argument("--resume", action="store_true",
                   help="continue from <out>/last")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="score a fine-tuned checkpoint")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_bounded(int, 0), default=0)
    _add_split_flags(p)
    p.add_argument("--split-part", choices=("train", "eval", "test", "all"),
                   default="test")
    p.add_argument("--k", type=_numbers(0, 100, open_low=True), default="2,5,10,20",
                   help="comma list of k percentages")
    p.add_argument("--topk-filter", choices=("all", "coarse-correct"),
                   default="all")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("explain", help="per-line heatmap for one sample")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--id", required=True)
    p.add_argument("--k", type=_bounded(float, 0, 100, open_low=True), default=10.0)
    p.set_defaults(func=cmd_explain)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    echo, before = Path(args.out, "run_config.json"), None
    try:
        if echo.is_file():
            before = echo.read_bytes()
        _echo_config(args)
        return args.func(args)
    except (UsageError, CorpusError, EncodingError, CheckpointError,
            FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if before is not None:  # a refused command leaves the run's echo as it was
            echo.write_bytes(before)
        elif echo.is_file():
            echo.unlink()
        return 2
    except DivergenceError as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
