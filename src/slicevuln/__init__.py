"""slicevuln: vulnerability-candidate slicing, balanced sampling, and a
compact transformer classifier for C/C++ code."""

__version__ = "0.1.0"

from .corpus import Kind, Label, Sample, SampleSet, load, save, split
from .slicer import (
    Candidate,
    SliceConfig,
    Token,
    TokenClass,
    build_slice,
    extract_candidates,
    lex,
    load_api_list,
)
from .balancer import BalancedSet, balance_h1, balance_h2, remainder
from .tokenizer import Encoding, EncodedDataset, Vocab, build_vocab, encode, normalize
from .model import (
    Model,
    ModelConfig,
    TrainConfig,
    TrainHistory,
    forward,
    grad_check,
    init,
    predict,
    train,
)
from .metrics import ConfusionMatrix, MetricSet, aggregate, compute, confusion
from .experiments import Report, ResourceUsage, StrategySpec, compare, emit, run
from .errors import DataError, LexError, NumericError, SliceVulnError

__all__ = [
    "Kind", "Label", "Sample", "SampleSet", "load", "save", "split",
    "Candidate", "SliceConfig", "Token", "TokenClass", "build_slice",
    "extract_candidates", "lex", "load_api_list",
    "BalancedSet", "balance_h1", "balance_h2", "remainder",
    "Encoding", "EncodedDataset", "Vocab", "build_vocab", "encode", "normalize",
    "Model", "ModelConfig", "TrainConfig", "TrainHistory",
    "forward", "grad_check", "init", "predict", "train",
    "ConfusionMatrix", "MetricSet", "aggregate", "compute", "confusion",
    "Report", "ResourceUsage", "StrategySpec", "compare", "emit", "run",
    "DataError", "LexError", "NumericError", "SliceVulnError",
]
