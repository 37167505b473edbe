"""Importing polyreg loads only what the caller uses.

``import polyreg`` imports each exported name's submodule on first use,
and each ``polyreg`` subcommand imports only the stages it runs, so a
subcommand pays for no stage it does not run.  The front end loads no
numpy: the default registry, both run configs, extraction
(``polyreg.records``), ``polyreg.audit``, the CLI's parser and the
``extract`` and ``audit`` subcommands run without it.  No polyreg module loads
``scipy.stats`` (about a second) or, where scipy keeps erf in its
``_special_ufuncs`` extension, ``scipy.special`` (about 0.3 s with a
second OpenBLAS); ``polyreg.trainer`` and ``polyreg.metrics`` load
``polyreg.regressor``, which loads erf.  Each check runs in a fresh
interpreter, since this test process may already hold all of these.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = SRC / "polyreg" / "data"

# the package's exports by the submodule that defines each
EXPORTS = {
    "audit": ["AuditRecord", "AuditReport", "audit", "load_bundled_fixture"],
    "config": ["SynthConfig", "TrainConfig"],
    "corpus": ["gen_corpus"],
    "datasets": ["PromptInstance", "build_dataset", "load_dataset", "save_dataset"],
    "harness": ["AblationReport", "run_ablation", "run_uncertainty_report"],
    "metrics": ["EvalReport", "evaluate", "r_squared", "strict_numeric_parse"],
    "model": ["PropertyModel"],
    "prompts": ["build_prompt", "leakage_hits", "mask_labels", "target_values"],
    "records": [
        "ExtractedSample",
        "MalformedDocument",
        "ParseFailure",
        "PropertyObservation",
        "Quantity",
        "extract_corpus",
        "extract_document",
        "parse_quantity",
        "to_canonical",
    ],
    "registry": ["PropertyRegistry", "PropertySpec", "default_registry", "load_registry"],
    "trainer": ["TrainedModel", "load_trained", "save_trained", "train"],
}
STAGES = ["config", "records", "prompts", "datasets", "corpus", "model", "encoder"]
STAGES += ["regressor", "objective", "trainer", "checkpoint", "metrics", "harness"]


def _fresh(code: str, *args, cwd=None) -> str:
    """What ``code`` prints in a fresh interpreter that imports from src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def _loaded_under(module: str, package: str) -> str:
    """The sorted names of ``package`` and its submodules that a fresh
    ``import module`` loads, as the subprocess prints them."""
    return _fresh(f"import sys, {module}; print(sorted(m for m in sys.modules if (m + '.').startswith('{package}.')))")


def _special_ufuncs_has_erf() -> bool:
    try:
        from scipy.special import _special_ufuncs
    except ImportError:
        return False
    return hasattr(_special_ufuncs, "erf")


@pytest.mark.parametrize("module", ["polyreg", "polyreg.cli", "polyreg.trainer", "polyreg.metrics"])
def test_import_leaves_out_scipy_stats(module):
    assert _loaded_under(module, "scipy.stats") == "[]"


@pytest.mark.skipif(
    not _special_ufuncs_has_erf(),
    reason="this scipy has no _special_ufuncs extension with erf, so polyreg takes erf from scipy.special",
)
@pytest.mark.parametrize("module", ["polyreg", "polyreg.cli", "polyreg.trainer", "polyreg.metrics"])
def test_import_leaves_out_scipy_special(module):
    assert _loaded_under(module, "scipy.special") == "[]"


def test_the_default_registry_loads_no_stage():
    code = "import sys, polyreg; polyreg.default_registry(); print(sorted(sys.modules))"
    loaded = set(ast.literal_eval(_fresh(code)))
    assert loaded.isdisjoint(f"polyreg.{stage}" for stage in STAGES), sorted(loaded)
    assert loaded.isdisjoint({"concurrent.futures", "logging"})


@pytest.mark.parametrize(
    "code",
    [
        "import polyreg; polyreg.default_registry()",
        "import polyreg; polyreg.SynthConfig; polyreg.TrainConfig",
        "import polyreg.config",
        "import polyreg.records",
        "import polyreg.audit",
        "import polyreg.cli",
    ],
)
def test_the_front_end_loads_no_numpy(code):
    assert _fresh(f"{code}; import sys; print('numpy' in sys.modules)") == "False"


def test_a_config_error_is_reported_without_numpy(tmp_path):
    (tmp_path / "bad.cfg").write_text("n_docs = 1\n")
    code = "import sys; from polyreg.cli import main; print(main(sys.argv[1:]), 'numpy' in sys.modules)"
    for command in ("gen-corpus", "ablate"):
        assert _fresh(code, command, "--config", "bad.cfg", "-o", "out.txt", cwd=tmp_path) == "1 False"
    assert _fresh(code, "train", "data.tsv", "--config", "bad.cfg", "-o", "out.txt", cwd=tmp_path) == "1 False"
    assert os.listdir(tmp_path) == ["bad.cfg"]


def test_all_holds_the_exports():
    names = ast.literal_eval(_fresh("import polyreg; print(sorted(polyreg.__all__))"))
    assert names == sorted(name for names in EXPORTS.values() for name in names)


@pytest.mark.parametrize("access", ["polyreg.{name}", "__import__('polyreg', fromlist=['{name}']).{name}"])
def test_each_export_is_its_submodules_object(access):
    """Each name, first reached as an attribute or by ``from polyreg
    import``, is the object its defining submodule holds."""
    checks = " and ".join(
        f"{access.format(name=name)} is importlib.import_module('polyreg.{module}').{name}"
        for module, names in EXPORTS.items()
        for name in names
    )
    assert _fresh(f"import importlib, polyreg; print({checks})") == "True"


@pytest.mark.parametrize(
    "code",
    [
        "import polyreg",
        "import polyreg.audit",
        "import polyreg.audit, polyreg",
        "from polyreg import audit",
        "import polyreg; import polyreg.audit",
        "from polyreg.audit import audit; import polyreg",
    ],
)
def test_audit_stays_the_function_in_every_import_order(code):
    assert _fresh(f"{code}; import sys; print(type(sys.modules['polyreg'].audit).__name__)") == "function"


def test_a_submodule_is_an_attribute_after_a_bare_import():
    assert _fresh("import polyreg; print(polyreg.trainer.__name__)") == "polyreg.trainer"


def test_an_unknown_name_is_an_attribute_error():
    assert _fresh("import polyreg; print(hasattr(polyreg, 'no_such_name'))") == "False"


_CLI = (
    "import sys\n"
    "from polyreg.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(code, sorted(m for m in sys.modules if m.startswith('polyreg.') or m == 'numpy'))\n"
)


@pytest.fixture(scope="module")
def cli_modules(tmp_path_factory):
    """Subcommand -> the polyreg modules, and numpy if it is one, that a
    fresh process running it on tiny inputs has loaded."""
    tmp = tmp_path_factory.mktemp("cli")
    (tmp / "run.cfg").write_text(
        "n_docs = 40\nobs_prob = 0.8\nepochs = 1\nvocab_size = 1024\ndim = 16\nrank = 4\nhidden_dim = 16\n"
    )
    steps = {
        "gen-corpus": ["--config", "run.cfg", "-o", "corpus.txt"],
        "extract": ["corpus.txt", "-o", "obs.jsonl"],
        "build-dataset": ["obs.jsonl", "-o", "train.tsv"],
        "audit": [str(DATA / "audit_extracted.tsv"), str(DATA / "audit_gold.tsv")],
        "train": ["train.tsv", "--config", "run.cfg", "-o", "model.ckpt"],
    }
    loaded = {}
    for name, args in steps.items():
        # the subcommand prints its own lines first
        code, modules = _fresh(_CLI, name, *args, cwd=tmp).splitlines()[-1].split(" ", 1)
        assert code == "0", name
        loaded[name] = set(ast.literal_eval(modules))
    return loaded


@pytest.mark.parametrize(
    "command, left_out",
    [
        ("gen-corpus", ["regressor", "trainer", "metrics", "harness"]),
        ("extract", ["regressor", "trainer", "metrics", "harness"]),
        ("build-dataset", ["regressor", "trainer", "metrics", "harness"]),
        ("audit", ["regressor", "trainer", "metrics", "harness"]),
        ("train", ["metrics", "harness"]),
    ],
)
def test_a_subcommand_loads_only_its_stages(cli_modules, command, left_out):
    assert cli_modules[command].isdisjoint(f"polyreg.{m}" for m in left_out), sorted(cli_modules[command])


@pytest.mark.parametrize("command", ["extract", "audit"])
def test_a_text_subcommand_loads_no_numpy(cli_modules, command):
    assert "numpy" not in cli_modules[command], sorted(cli_modules[command])
