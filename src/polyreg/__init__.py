"""Condition-aware multi-task polymer property regression from text.

Pipeline pieces: property registry, literature-record parser and audit,
masked prompt builder, hashed-embedding encoder with a low-rank adapter,
residual trunk with 22 linear heads, KDE-weighted homoscedastic training
objective, deterministic trainer, metrics, and a synthetic-corpus
experiment harness.
"""

from .registry import PropertyRegistry, PropertySpec, default_registry, load_registry
from .records import (
    ExtractedSample,
    MalformedDocument,
    ParseFailure,
    PropertyObservation,
    Quantity,
    extract_corpus,
    extract_document,
    parse_quantity,
    to_canonical,
)
from .audit import AuditRecord, AuditReport, audit, load_bundled_fixture
from .prompts import build_prompt, leakage_hits, mask_labels, target_values
from .datasets import PromptInstance, build_dataset, load_dataset, save_dataset
from .model import PropertyModel
from .trainer import TrainConfig, TrainedModel, load_trained, save_trained, train
from .metrics import EvalReport, evaluate, r_squared, strict_numeric_parse
from .corpus import SynthConfig, gen_corpus
from .harness import AblationReport, run_ablation, run_uncertainty_report

__version__ = "0.1.0"
