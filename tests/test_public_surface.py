import dataclasses
import enum
import inspect

import slicevuln


def test_public_surface():
    # every public name, and each public function's parameters with their
    # defaults; a new name, parameter or default shows up here as a diff
    assert slicevuln.__all__ == [
        "Kind", "Label", "Sample", "SampleSet", "load", "save", "split",
        "Candidate", "Token", "TokenClass", "build_slice", "extract_candidates", "lex",
        "BalancedSet", "balance_h1", "balance_h2", "remainder",
        "EncodedDataset", "Vocab", "build_vocab", "encode", "normalize",
        "Model", "ModelConfig", "TrainConfig", "TrainHistory",
        "forward", "grad_check", "init", "predict", "train",
        "ConfusionMatrix", "MetricSet", "aggregate", "compute", "confusion",
        "Report", "ResourceUsage", "StrategySpec", "compare", "emit", "run",
        "DataError", "LexError", "NumericError", "SliceVulnError",
    ]
    functions = {name: [p.name if p.default is p.empty else f"{p.name}={p.default!r}"
                        for p in inspect.signature(obj).parameters.values()]
                 for name in slicevuln.__all__
                 if inspect.isfunction(obj := getattr(slicevuln, name))}
    assert functions == {
        "load": ["path"],
        "save": ["sset", "path"],
        "split": ["sset", "seed"],
        "build_slice": ["candidate"],
        "extract_candidates": ["source"],
        "lex": ["source", "layout=True"],
        "balance_h1": ["corpus", "seed"],
        "balance_h2": ["corpus", "seed"],
        "remainder": ["corpus", "balanced"],
        "build_vocab": ["corpus", "max_size"],
        "encode": ["text", "vocab", "max_len"],
        "normalize": ["slice_text"],
        "forward": ["model", "data", "batch_size=64"],
        "grad_check": ["model", "data", "num_samples=200"],
        "init": ["cfg", "seed"],
        "predict": ["model", "data"],
        "train": ["model", "train_data", "val_data", "tcfg"],
        "aggregate": ["per_kind"],
        "compute": ["cm"],
        "confusion": ["predictions", "truth"],
        "compare": ["payloads"],
        "emit": ["report", "run_dir"],
        "run": ["spec", "full_corpus"],
    }


def test_config_fields():
    # every config field, and the report's, the dataset's and the candidate's;
    # a new setting or field shows up here as a diff
    configs = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
               for cls in (slicevuln.ModelConfig, slicevuln.TrainConfig,
                           slicevuln.StrategySpec, slicevuln.Report,
                           slicevuln.EncodedDataset, slicevuln.Candidate,
                           slicevuln.Sample)}
    assert configs == {
        "ModelConfig": ["num_layers", "hidden_dim", "num_heads", "ff_dim", "max_len",
                        "vocab_size", "dropout"],
        "TrainConfig": ["learning_rate", "batch_size", "epochs", "weight_decay",
                        "early_stop_patience", "seed"],
        "StrategySpec": ["id", "model_config", "train_config"],
        "Report": ["strategy", "confusion", "resources", "fingerprints", "history"],
        "EncodedDataset": ["ids", "labels"],
        "Candidate": ["kind", "line", "focus", "span", "file"],
        "Sample": ["id", "kind", "label", "code", "source"],
    }


def test_public_methods():
    # each public non-enum class's own public methods and properties; a new
    # or removed method shows up here as a diff
    kinds = (property, classmethod, staticmethod)
    members = {name: [attr for attr, value in vars(cls).items() if not attr.startswith("_")
                      and (inspect.isfunction(value) or isinstance(value, kinds))]
               for name in slicevuln.__all__
               if inspect.isclass(cls := getattr(slicevuln, name))
               and not issubclass(cls, enum.Enum)}
    assert members == {
        "Sample": [], "SampleSet": ["counts", "ids"], "Candidate": [], "Token": [],
        "BalancedSet": [], "EncodedDataset": [], "Vocab": ["lookup"],
        "Model": ["num_parameters"], "ModelConfig": ["head_dim"], "TrainConfig": [],
        "TrainHistory": [], "ConfusionMatrix": ["total"], "MetricSet": [],
        "Report": ["overall"], "ResourceUsage": [], "StrategySpec": ["hypothesis", "seed"],
        "DataError": [], "LexError": [], "NumericError": [], "SliceVulnError": [],
    }
