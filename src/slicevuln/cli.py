"""Command-line entry point. Thin wrappers around the library stages.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Progress goes to stderr; machine-readable output is written to files only.
The seed defaults to --seed, then SLICEVULN_SEED, then 42.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shlex
import sys
from contextlib import contextmanager
from pathlib import Path

from . import balancer, corpus, experiments, metrics, model, slicer, synth, tokenizer
from .errors import DataError, NumericError, read_utf8


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def convert_arg_line_to_args(self, arg_line):
        """A flags-file line holds shell words; '#' starts a comment."""
        try:
            return shlex.split(arg_line, comments=True)
        except ValueError as e:  # an unclosed quote
            self.error(f"flags file line {arg_line!r}: {e}")

    def _read_args_from_files(self, arg_strings):
        # argparse decodes a flags file by the locale and lets a decoding
        # error escape as a traceback; check each file is readable UTF-8 first
        for arg in arg_strings:
            if arg and arg[0] in self.fromfile_prefix_chars:
                try:
                    read_utf8(arg[1:])
                except (DataError, OSError) as e:
                    self.error(str(e))
        return super()._read_args_from_files(arg_strings)


def _seed(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_seed, default=None,
                   help="default: SLICEVULN_SEED env var, then 42")
    p.add_argument("--out", type=Path, required=True, help="output file or directory")
    p.set_defaults(parser=p)


@contextmanager
def _flag_values(args):
    """Configs reject out-of-range values with ValueError.  Those are usage
    errors (exit 1)."""
    try:
        yield
    except ValueError as e:
        args.parser.error(str(e))


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SLICEVULN_SEED")
    if not env:
        return 42
    try:
        return _seed(env)
    except argparse.ArgumentTypeError as e:
        args.parser.error(f"SLICEVULN_SEED: {e}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="slicevuln", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("slice", help="extract candidate slices from C/C++ sources")
    p.add_argument("--in", dest="inputs", type=Path, nargs="+", required=True)
    p.add_argument("--api-list", type=Path, default=None)
    p.add_argument("--max-lines", type=int, default=30)
    p.add_argument("--hops", type=int, default=2)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes across input files; never changes results")
    _add_common(p)

    p = sub.add_parser("build-dataset", help="generate a synthetic labeled corpus")
    p.add_argument("--preset", choices=["reference", "desk"], default="desk")
    p.add_argument("--counts", type=Path, default=None,
                   help="per-kind counts manifest (overrides --preset)")
    _add_common(p)

    p = sub.add_parser("balance", help="downsample a corpus under H1 or H2")
    p.add_argument("--hypothesis", choices=["h1", "h2"], required=True)
    p.add_argument("--in", dest="input", type=Path, required=True)
    _add_common(p)

    p = sub.add_parser("train", help="train the classifier on a labeled corpus")
    p.add_argument("--in", dest="input", type=Path, required=True)
    p.add_argument("--train-fraction", type=float, default=0.8)
    _add_model_flags(p)
    _add_common(p)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a labeled corpus")
    p.add_argument("--model", dest="checkpoint", type=Path, required=True)
    p.add_argument("--vocab", type=Path, required=True)
    p.add_argument("--in", dest="input", type=Path, required=True)
    p.add_argument("--no-normalize", action="store_true")
    _add_common(p)

    p = sub.add_parser("run-strategy", help="run one strategy end to end",
                       fromfile_prefix_chars="@",
                       epilog="@FILE reads flags from FILE, shell words on each line; "
                              "flags after it win")
    p.add_argument("--strategy", choices=["s1", "s2", "s3"], default="s2")
    p.add_argument("--in", dest="input", type=Path, required=True)
    _add_model_flags(p)
    _add_common(p)

    p = sub.add_parser("report", help="compare previously written JSON reports")
    p.add_argument("--in", dest="inputs", type=Path, nargs="+", required=True)
    _add_common(p)
    return parser


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--hidden", type=int, default=None)
    p.add_argument("--heads", type=int, default=None)
    p.add_argument("--ff", type=int, default=None)
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--vocab-size", type=int, default=None)
    p.add_argument("--dropout", type=float, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--patience", type=int, default=None)
    p.add_argument("--weight-decay", type=float, default=None)
    p.add_argument("--no-normalize", action="store_true")


_MODEL_KEYS = {
    "layers": "num_layers", "hidden": "hidden_dim", "heads": "num_heads",
    "ff": "ff_dim", "max_len": "max_len", "vocab_size": "vocab_size",
    "dropout": "dropout",
}
_TRAIN_KEYS = {
    "lr": "learning_rate", "batch_size": "batch_size", "epochs": "epochs",
    "patience": "early_stop_patience", "weight_decay": "weight_decay",
}


def _configs_from_args(args, seed: int) -> tuple[model.ModelConfig, model.TrainConfig]:
    model_kw = {key: getattr(args, flag) for flag, key in _MODEL_KEYS.items()
                if getattr(args, flag) is not None}
    train_kw = {key: getattr(args, flag) for flag, key in _TRAIN_KEYS.items()
                if getattr(args, flag) is not None}
    return model.ModelConfig(**model_kw), model.TrainConfig(**train_kw, seed=seed)


def _slice_one_file(job: tuple[str, slicer.SliceConfig]) -> list[dict]:
    """Candidate records of one file; a DataError names the file."""
    path, cfg = job
    name = Path(path).name
    try:
        source = Path(path).read_text(encoding="utf-8")
        return [{
            "id": f"{name}#{j}",
            "kind": cand.kind.value,
            "focus": cand.focus,
            "line": cand.line,
            "span": list(cand.span),
            "code": slicer.build_slice(source, cand, cfg),
            "source": path,
        } for j, cand in enumerate(slicer.extract_candidates(source, cfg))]
    except (UnicodeDecodeError, DataError) as e:
        raise DataError(f"{path}: {e}") from e


def _cmd_slice(args) -> int:
    api = slicer.load_api_list(args.api_list) if args.api_list else slicer.DEFAULT_API_LIST
    with _flag_values(args):
        cfg = slicer.SliceConfig(api_list=api, max_slice_lines=args.max_lines,
                                 def_use_hops=args.hops)
    jobs = [(str(p), cfg) for p in args.inputs]
    if args.jobs > 1 and len(jobs) > 1:
        # pool.map preserves input order, so worker count cannot change output
        from multiprocessing import Pool

        with Pool(min(args.jobs, len(jobs))) as pool:
            per_file = pool.map(_slice_one_file, jobs)
    else:
        per_file = [_slice_one_file(job) for job in jobs]
    args.out.mkdir(parents=True, exist_ok=True)
    out_path = args.out / "slices.jsonl"
    count = 0
    with open(out_path, "w", encoding="utf-8") as fh:
        for records in per_file:
            for record in records:
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")
                count += 1
    _log(f"wrote {count} candidate slices to {out_path}")
    return 0


def _cmd_build_dataset(args) -> int:
    if args.counts is not None:
        counts = synth.read_counts_manifest(args.counts)
        sset = synth.pattern_corpus(counts, seed=_resolve_seed(args))
    elif args.preset == "reference":
        sset = synth.reference_corpus()
    else:
        sset = synth.pattern_corpus(seed=_resolve_seed(args))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    corpus.save(sset, args.out)
    _log(f"wrote {len(sset)} samples to {args.out}")
    return 0


def _cmd_balance(args) -> int:
    sset = corpus.load(args.input)
    fn = balancer.balance_h1 if args.hypothesis == "h1" else balancer.balance_h2
    bset = fn(sset, _resolve_seed(args))
    data_path, manifest_path = balancer.save_balanced(bset, args.out)
    _log(f"balanced {len(sset)} -> {len(bset)} samples ({bset.hypothesis}); "
         f"wrote {data_path} and {manifest_path}")
    return 0


def _cmd_train(args) -> int:
    seed = _resolve_seed(args)
    sset = corpus.load(args.input)
    with _flag_values(args):
        mcfg, tcfg = _configs_from_args(args, seed)
        train_set, val_set = corpus.split(sset, args.train_fraction, seed)
    _log(f"training on {len(train_set)} samples, validating on {len(val_set)}")
    fitted = experiments.fit(train_set, val_set, mcfg, tcfg, not args.no_normalize)
    args.out.mkdir(parents=True, exist_ok=True)
    vocab_path = fitted.vocab.save(args.out / "vocab.txt")
    ckpt = model.save_checkpoint(fitted.net, args.out / "checkpoint.npz",
                                 fitted.vocab.content_hash())
    (args.out / "history.json").write_text(
        json.dumps(dataclasses.asdict(fitted.history), indent=2) + "\n", encoding="utf-8")
    _log(f"stopped at epoch {fitted.history.stopped_epoch}; wrote {ckpt} and {vocab_path}")
    return 0


def _cmd_evaluate(args) -> int:
    vocab = tokenizer.Vocab.load(args.vocab)
    net, _ = model.load_checkpoint(args.checkpoint, vocab.content_hash())
    sset = corpus.load(args.input)
    texts = experiments.model_texts(sset, not args.no_normalize)
    data = experiments.encode_set(sset, texts, vocab, net.config.max_len)
    _, per_kind, overall = experiments.score(net, sset, data)
    rows = metrics.kind_rows(per_kind, overall)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "metrics.txt").write_text(
        metrics.format_metric_table(rows) + "\n", encoding="utf-8")
    (args.out / "metrics.csv").write_text(experiments.metrics_csv(rows), encoding="utf-8")
    _log(f"evaluated {len(sset)} samples; wrote metrics under {args.out}")
    return 0


def _cmd_run_strategy(args) -> int:
    seed = _resolve_seed(args)
    with _flag_values(args):
        mcfg, tcfg = _configs_from_args(args, seed)
        spec = experiments.StrategySpec(
            id=args.strategy.upper(), model_config=mcfg, train_config=tcfg,
            normalize_symbols=not args.no_normalize,
        )
    sset = corpus.load(args.input)
    _log(f"running {spec.id} ({spec.hypothesis}) on {len(sset)} samples, seed {seed}")
    report = experiments.run(spec, sset)
    run_dir = args.out / f"{spec.id.lower()}-seed{seed}"
    for fmt, name in (("table", "metrics.txt"), ("csv", "metrics.csv"),
                      ("json", "report.json")):
        experiments.emit(report, fmt, run_dir / name)
    _log(f"overall F1 {metrics.percent(report.overall.f1)}%; reports under {run_dir}")
    return 0


def _read_report(path: Path) -> dict:
    """A report.json payload.  Malformed JSON, or a payload that lacks a field
    the comparison reads, is a DataError naming the file."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        experiments.compare([payload])
    except (KeyError, TypeError, ValueError) as e:  # JSONDecodeError is a ValueError
        raise DataError(f"{path}: not a report.json ({type(e).__name__}: {e})") from e
    return payload


def _cmd_report(args) -> int:
    payloads = [_read_report(path) for path in args.inputs]
    args.out.mkdir(parents=True, exist_ok=True)
    out_path = args.out / "comparison.csv"
    out_path.write_text(experiments.compare(payloads), encoding="utf-8")
    _log(f"wrote {out_path}")
    return 0


_COMMANDS = {
    "slice": _cmd_slice,
    "build-dataset": _cmd_build_dataset,
    "balance": _cmd_balance,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "run-strategy": _cmd_run_strategy,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:  # with the subcommand's usage line, not the top level's
            getattr(args, "parser", parser).error(f"unrecognized arguments: {' '.join(unknown)}")
        if args.command is None:
            parser.print_help(sys.stderr)
            return 1
        return _COMMANDS[args.command](args)
    except SystemExit as e:  # argparse and _flag_values exit; surface as a return code
        return int(e.code) if e.code is not None else 0
    except NumericError as e:
        _log(f"numeric failure: {e}")
        return 3
    except (DataError, FileNotFoundError, OSError) as e:
        _log(f"data error: {e}")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
