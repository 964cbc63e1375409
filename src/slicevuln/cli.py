"""Command-line entry point. Thin wrappers around the library stages.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Progress goes to stderr; machine-readable output is written to files only.
The commands that draw random numbers take --seed; it defaults to 42.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import shlex
import sys
from collections import Counter
from contextlib import ExitStack
from json.encoder import encode_basestring as _json_str
from pathlib import Path

from . import balancer, corpus, experiments, metrics, model, slicer, synth
from .errors import DataError, NumericError, clip, read_utf8


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def _read_args_from_files(self, arg_strings):
        # a flags file holds flags: an @word read from one is left as it is,
        # not read as another file.  argparse nests files without end, decodes
        # them by the locale, lets a decoding error escape as a traceback and
        # keeps a leading byte-order mark; read each file as UTF-8 and drop
        # the mark, as slice does for sources
        expanded = []
        for arg in arg_strings:
            if not (arg and arg[0] in self.fromfile_prefix_chars):
                expanded.append(arg)
                continue
            if arg == "@":
                self.error("@ names no flags file")
            try:
                text = read_utf8(arg[1:]).removeprefix("\ufeff")
            except (DataError, OSError) as e:
                self.error(str(e))
            for line in text.splitlines():  # shell words; '#' starts a comment
                try:
                    expanded += shlex.split(line, comments=True)
                except ValueError as e:  # an unclosed quote
                    self.error(f"flags file line {clip(repr(line))}: {e}")
        return expanded


def _seed(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {clip(repr(text))}")
    return int(text)


def _path(text: str) -> Path:
    if not text:  # Path("") is the current directory
        raise argparse.ArgumentTypeError("expected a path, got ''")
    return Path(text)


def _add_common(p: argparse.ArgumentParser, run, seed: bool = False) -> None:
    """--out on every command; --seed on those that draw random numbers.
    main calls run(args); args.parser reports the command's usage errors."""
    if seed:
        p.add_argument("--seed", type=_seed, default=42, help="default: 42")
    p.add_argument("--out", type=_path, required=True, help="output file or directory")
    p.set_defaults(parser=p, run=run)


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process.  Every default is set here, so a parse
    writes nothing to it and each main call starts from the same tree."""
    parser = _Parser(prog="slicevuln", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("slice", help="extract candidate slices from C/C++ sources")
    p.add_argument("--in", dest="inputs", type=_path, nargs="+", required=True)
    _add_common(p, _cmd_slice)

    p = sub.add_parser("build-dataset", help="generate a synthetic labeled corpus")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--preset", choices=["reference", "desk"], default=None,
                        help="default: desk")
    source.add_argument("--counts", type=_path, default=None, help="per-kind counts manifest")
    _add_common(p, _cmd_build_dataset, seed=True)

    p = sub.add_parser("balance", help="downsample a corpus under H1 or H2")
    p.add_argument("--hypothesis", choices=["h1", "h2"], required=True)
    p.add_argument("--in", dest="input", type=_path, required=True)
    _add_common(p, _cmd_balance, seed=True)

    p = sub.add_parser("train", help="train the classifier on a labeled corpus")
    p.add_argument("--in", dest="input", type=_path, required=True)
    _add_model_flags(p)
    _add_common(p, _cmd_train, seed=True)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a labeled corpus")
    p.add_argument("--model", dest="checkpoint", type=_path, required=True,
                   help="a checkpoint from train; it carries the vocabulary")
    p.add_argument("--in", dest="input", type=_path, required=True)
    _add_common(p, _cmd_evaluate)

    p = sub.add_parser("run-strategy", help="run one strategy end to end",
                       fromfile_prefix_chars="@",
                       epilog="@FILE reads flags from FILE, shell words on each line; "
                              "flags after it win")
    p.add_argument("--strategy", choices=[sid.lower() for sid in experiments.STRATEGY_IDS],
                   default="s2")
    p.add_argument("--in", dest="input", type=_path, required=True)
    _add_model_flags(p)
    _add_common(p, _cmd_run_strategy, seed=True)

    p = sub.add_parser("report", help="compare previously written JSON reports")
    p.add_argument("--in", dest="inputs", type=_path, nargs="+", required=True)
    _add_common(p, _cmd_report)
    return parser


# every model and training flag, once: its dest (the flag is --dest with
# dashes) and the config field it sets; a flag's type is that field's default's
_CONFIG_FLAGS = {
    "layers": "num_layers", "hidden": "hidden_dim", "heads": "num_heads",
    "ff": "ff_dim", "max_len": "max_len", "vocab_size": "vocab_size",
    "dropout": "dropout", "lr": "learning_rate", "batch_size": "batch_size",
    "epochs": "epochs", "patience": "early_stop_patience", "weight_decay": "weight_decay",
}


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    defaults = {**dataclasses.asdict(model.ModelConfig()),
                **dataclasses.asdict(model.TrainConfig())}
    for dest, key in _CONFIG_FLAGS.items():
        p.add_argument(f"--{dest.replace('_', '-')}", type=type(defaults[key]), default=None)


def _configs_from_args(args) -> tuple[model.ModelConfig, model.TrainConfig]:
    """Configs reject out-of-range values with ValueError.  Those are usage
    errors (exit 1)."""
    given = {key: getattr(args, dest) for dest, key in _CONFIG_FLAGS.items()
             if getattr(args, dest) is not None}
    given["seed"] = args.seed

    def config(cls):
        return cls(**{f.name: given[f.name] for f in dataclasses.fields(cls) if f.name in given})

    try:
        return config(model.ModelConfig), config(model.TrainConfig)
    except ValueError as e:
        args.parser.error(str(e))


def _slice_one_file(path: str) -> list[str]:
    """The slices.jsonl rows of one file's candidates, each a line of JSON
    text; a DataError names the file.  Each id is the path as given plus the
    candidate's index, so ids stay unique across files that share a name.
    The text is JSONEncoder(ensure_ascii=False)'s: strings through
    encode_basestring, separators ", " and ": ".  A leading byte-order mark
    is dropped, as C compilers drop it."""
    source = read_utf8(path).removeprefix("\ufeff")
    path_text = _json_str(path)
    try:
        return [
            f'{{"id": {_json_str(f"{path}#{j}")}, "kind": "{cand.kind.value}", '
            f'"focus": {_json_str(cand.focus)}, "line": {cand.line}, '
            f'"span": [{cand.span[0]}, {cand.span[1]}], '
            f'"code": {_json_str(slicer.build_slice(cand))}, "source": {path_text}}}\n'
            for j, cand in enumerate(slicer.extract_candidates(source))]
    except DataError as e:
        raise DataError(f"{path}: {e}") from e


def _cmd_slice(args) -> int:
    # a file given twice would repeat its slice ids
    repeated = [str(p) for p, n in Counter(args.inputs).items() if n > 1]
    if repeated:
        args.parser.error(f"argument --in: given more than once: {', '.join(repeated)}")
    # each row holds its path's text, and rows are written as UTF-8
    for p in args.inputs:
        try:
            str(p).encode("utf-8")
        except UnicodeEncodeError:
            args.parser.error(f"argument --in: path is not UTF-8: {os.fsencode(p)!r}")
    # one file's rows at a time go to a temporary file that is renamed into
    # place after the last; a failure removes it and every directory this run
    # made, so a bad file leaves no output and an earlier slices.jsonl as it was
    out_path = args.out / "slices.jsonl"
    tmp_path = args.out / f"slices.jsonl.{os.getpid()}.tmp"
    written = 0
    with ExitStack() as undo:
        for d in reversed((args.out, *args.out.parents)):
            if not d.is_dir():
                d.mkdir()
                undo.callback(d.rmdir)
        with open(tmp_path, "x", encoding="utf-8") as fh:
            undo.callback(tmp_path.unlink)
            for p in args.inputs:
                rows = _slice_one_file(str(p))
                fh.writelines(rows)
                written += len(rows)
                del rows  # before the next file's rows are built
        os.replace(tmp_path, out_path)
        undo.pop_all()
    _log(f"wrote {written} candidate slices to {out_path}")
    return 0


def _cmd_build_dataset(args) -> int:
    if args.counts is not None:
        counts = synth.read_counts_manifest(args.counts)
        sset = synth.pattern_corpus(counts, seed=args.seed)
    elif args.preset == "reference":
        sset = synth.reference_corpus()
    else:
        sset = synth.pattern_corpus(seed=args.seed)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    corpus.save(sset, args.out)
    _log(f"wrote {len(sset)} samples to {args.out}")
    return 0


def _cmd_balance(args) -> int:
    sset = corpus.load(args.input)
    fn = balancer.balance_h1 if args.hypothesis == "h1" else balancer.balance_h2
    bset = fn(sset, args.seed)
    data_path, manifest_path = balancer.save_balanced(bset, args.out)
    _log(f"balanced {len(sset)} -> {len(bset)} samples ({bset.hypothesis}); "
         f"wrote {data_path} and {manifest_path}")
    return 0


def _cmd_train(args) -> int:
    mcfg, tcfg = _configs_from_args(args)
    sset = corpus.load(args.input)
    train_set, val_set = corpus.split(sset, args.seed)
    _log(f"training on {len(train_set)} samples, validating on {len(val_set)}")
    fitted = experiments.fit(train_set, val_set, mcfg, tcfg)
    args.out.mkdir(parents=True, exist_ok=True)
    ckpt = model.save_checkpoint(fitted.net, args.out / "checkpoint.npz", fitted.vocab)
    (args.out / "history.json").write_text(
        json.dumps(dataclasses.asdict(fitted.history), indent=2) + "\n", encoding="utf-8")
    _log(f"stopped at epoch {fitted.history.stopped_epoch}; wrote {ckpt}")
    return 0


def _cmd_evaluate(args) -> int:
    net, vocab = model.load_checkpoint(args.checkpoint)
    sset = corpus.load(args.input)
    data = experiments.encode_test_set(sset, vocab, net.config.max_len, str(args.input))
    experiments.write_metrics(args.out, experiments.score(net, sset, data))
    _log(f"evaluated {len(sset)} samples; wrote metrics under {args.out}")
    return 0


def _cmd_run_strategy(args) -> int:
    mcfg, tcfg = _configs_from_args(args)
    spec = experiments.StrategySpec(id=args.strategy.upper(), model_config=mcfg,
                                    train_config=tcfg)
    sset = corpus.load(args.input)
    _log(f"running {spec.id} ({spec.hypothesis}) on {len(sset)} samples, seed {spec.seed}")
    report = experiments.run(spec, sset)
    run_dir = experiments.emit(report, args.out / f"{spec.id.lower()}-seed{spec.seed}")
    _log(f"overall F1 {metrics.percent(report.overall.f1)}%; reports under {run_dir}")
    return 0


def _read_report(path: Path) -> dict:
    """A report.json payload.  Malformed JSON, or a payload that lacks a field
    the comparison reads, is a DataError naming the file."""
    try:
        payload = json.loads(read_utf8(path))
        experiments.compare([payload])
    except (KeyError, TypeError, ValueError,  # JSONDecodeError is a ValueError
            OverflowError,  # an integer too large for a float
            RecursionError) as e:  # JSON nested too deep
        raise DataError(f"{path}: not a report.json ({type(e).__name__}: {e})") from e
    return payload


def _cmd_report(args) -> int:
    payloads = [_read_report(path) for path in args.inputs]
    args.out.mkdir(parents=True, exist_ok=True)
    out_path = args.out / "comparison.csv"
    out_path.write_text(experiments.compare(payloads), encoding="utf-8")
    _log(f"wrote {out_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()  # built on the first call only
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:  # with the subcommand's usage line, not the top level's
            getattr(args, "parser", parser).error(f"unrecognized arguments: {' '.join(unknown)}")
        if args.command is None:
            parser.print_help(sys.stderr)
            return 1
        return args.run(args)
    except SystemExit as e:  # usage errors exit through argparse; surface as a return code
        return int(e.code) if e.code is not None else 0
    except NumericError as e:
        _log(f"numeric failure: {e}")
        return 3
    except (DataError, OSError) as e:
        _log(f"data error: {e}")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
