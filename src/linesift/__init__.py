"""linesift: staged coarse-to-fine vulnerability detection.

A hierarchical encoder (per-segment token transformer, token-to-statement
pooling, statement transformer) with masked-statement pretraining, joint
coarse/fine supervised detection heads, and line-level localization
metrics. Built on a small float64 autodiff core so every gradient is
checkable against finite differences.
"""

from .tensor import Tensor, OptimizerState, adamw_step
from .corpus import FunctionSample, SplitSpec, load_corpus, save_corpus, split
from .encoding import Vocab, EncodedSample, build_vocab, encode
from .transformer import EncoderConfig, TokenEncoder, StatementEncoder
from .model import HierarchicalModel, ModelConfig
from .pretrain import MspDecoder, MlmHead, make_mask_plan, apply_mask_plan
from .finetune import DetectionHeads, PredictionReport, predict
from .metrics import ConfusionCounts, LocalizationRecord, classification_metrics

__version__ = "0.1.0"

__all__ = [
    "Tensor", "OptimizerState", "adamw_step",
    "FunctionSample", "SplitSpec", "load_corpus", "save_corpus", "split",
    "Vocab", "EncodedSample", "build_vocab", "encode",
    "EncoderConfig", "TokenEncoder", "StatementEncoder",
    "HierarchicalModel", "ModelConfig",
    "MspDecoder", "MlmHead", "make_mask_plan", "apply_mask_plan",
    "DetectionHeads", "PredictionReport", "predict",
    "ConfusionCounts", "LocalizationRecord", "classification_metrics",
    "__version__",
]
