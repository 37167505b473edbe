"""Condition-aware multi-task polymer property regression from text.

Pipeline pieces: property registry, literature-record parser and audit,
masked prompt builder, hashed-embedding encoder with a low-rank adapter,
residual trunk with 22 linear heads, KDE-weighted homoscedastic training
objective, deterministic trainer, metrics, and a synthetic-corpus
experiment harness.

Each exported name, and each submodule, is imported on first use
(PEP 562), so ``import polyreg`` loads no stage it does not run.
"""

import importlib

# bound now, not on first use: a first ``import polyreg.audit`` made
# later would bind the submodule as ``polyreg.audit`` over the function
from .audit import audit

__version__ = "0.1.0"


def __getattr__(name):
    """An exported name, ``__all__`` (those names) or a submodule, made or
    imported on first use and kept in the package namespace."""
    homes = {
        "registry": ("PropertyRegistry", "PropertySpec", "default_registry", "load_registry"),
        "records": (
            "ExtractedSample", "MalformedDocument", "ParseFailure", "PropertyObservation", "Quantity",
            "extract_corpus", "extract_document", "parse_quantity", "to_canonical",
        ),
        "audit": ("AuditRecord", "AuditReport", "load_bundled_fixture"),
        "prompts": ("build_prompt", "leakage_hits", "mask_labels", "target_values"),
        "datasets": ("PromptInstance", "build_dataset", "load_dataset", "save_dataset"),
        "model": ("PropertyModel",),
        "config": ("SynthConfig", "TrainConfig"),
        "trainer": ("TrainedModel", "load_trained", "save_trained", "train"),
        "metrics": ("EvalReport", "evaluate", "r_squared", "strict_numeric_parse"),
        "corpus": ("gen_corpus",),
        "harness": ("AblationReport", "run_ablation", "run_uncertainty_report"),
    }
    home = next((module for module, names in homes.items() if name in names), None)
    if name == "__all__":
        value = ["audit", *(export for names in homes.values() for export in names)]
    elif home is not None:
        value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    else:
        try:
            value = importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
