import os
import re
import shlex
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from polyreg.audit import bundled_fixture_paths
from polyreg.checkpoint import MAGIC, VERSION
from polyreg.cli import build_parser, main
from polyreg.datasets import PromptInstance, save_dataset
from polyreg.registry import N_HEADS, default_registry

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src"


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_audit_subcommand_prints_strict_precision(capsys, tmp_path):
    extracted, gold = bundled_fixture_paths()
    out_path = tmp_path / "audit.tsv"
    code, out, err = _run(capsys, "audit", str(extracted), str(gold), "-o", str(out_path))
    assert code == 0
    assert "strict precision 0.842" in out
    body = out_path.read_text()
    assert "strict_precision\t0.841667" in body
    assert "n\t120" in body


def test_audit_writes_the_pinned_table_for_the_bundled_fixture(capsys, tmp_path):
    out_path = tmp_path / "audit.tsv"
    assert _run(capsys, "audit", *map(str, bundled_fixture_paths()), "-o", str(out_path))[0] == 0
    assert out_path.read_bytes() == (
        b"metric\tvalue\n"
        b"sample_assoc_precision\t1.000000\n"
        b"property_precision\t0.908333\n"
        b"value_precision\t0.941667\n"
        b"unit_precision\t0.941667\n"
        b"strict_precision\t0.841667\n"
        b"n\t120\n"
    )


def test_audit_names_a_record_the_gold_lacks(capsys, tmp_path):
    extracted, gold = bundled_fixture_paths()
    extra = tmp_path / "extracted.tsv"
    extra.write_text(extracted.read_text(encoding="utf-8") + "zz9\ts1\tTg\t100\t°C\n", encoding="utf-8")
    out_path = tmp_path / "audit.tsv"
    code, out, err = _run(capsys, "audit", str(extra), str(gold), "-o", str(out_path))
    assert (code, out) == (1, "")
    assert err == "error: record 'zz9' is in the extracted records but not in the gold\n"
    assert not out_path.exists()


def test_pipeline_end_to_end(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("n_docs = 60\nobs_prob = 0.6\n")
    code, out, _ = _run(capsys, "gen-corpus", "--config", str(cfg), "--seed", "0", "-o", str(corpus))
    assert code == 0 and "wrote 60 documents" in out

    obs = tmp_path / "obs.jsonl"
    code, out, _ = _run(capsys, "extract", str(corpus), "-o", str(obs))
    assert code == 0 and "unmapped=0" in out

    dataset = tmp_path / "train.tsv"
    code, out, _ = _run(capsys, "build-dataset", str(obs), "-o", str(dataset))
    assert code == 0 and "prompt instances" in out

    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text(
        "epochs = 0\nvocab_size = 1024\ndim = 16\nrank = 4\nhidden_dim = 16\nn_blocks = 1\n"
    )
    ckpt = tmp_path / "model.ckpt"
    code, out, _ = _run(capsys, "train", str(dataset), "--config", str(train_cfg), "-o", str(ckpt))
    assert code == 0 and ckpt.exists()

    report = tmp_path / "eval.tsv"
    code, out, _ = _run(capsys, "eval", str(ckpt), str(dataset), "-o", str(report))
    assert code == 0
    body = report.read_text()
    assert body.startswith("head_id\t")
    assert "# config_digest" in body
    assert (tmp_path / "eval.tsv.json").exists()
    # an untrained model must not look predictive
    import json

    payload = json.loads((tmp_path / "eval.tsv.json").read_text())
    if payload["macro_primary_r2"] is not None:
        assert payload["macro_primary_r2"] <= 0.1


def test_uncertainty_report_subcommand(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("n_docs = 120\nobs_prob = 0.8\n")
    assert _run(capsys, "gen-corpus", "--config", str(cfg), "-o", str(corpus))[0] == 0
    obs = tmp_path / "obs.jsonl"
    assert _run(capsys, "extract", str(corpus), "-o", str(obs))[0] == 0
    dataset = tmp_path / "ds.tsv"
    assert _run(capsys, "build-dataset", str(obs), "-o", str(dataset))[0] == 0
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text(
        "epochs = 2\nvocab_size = 1024\ndim = 16\nrank = 4\nhidden_dim = 16\nn_blocks = 1\n"
    )
    ckpt = tmp_path / "m.ckpt"
    assert _run(capsys, "train", str(dataset), "--config", str(train_cfg), "-o", str(ckpt))[0] == 0
    out_path = tmp_path / "unc.tsv"
    code, out, _ = _run(capsys, "uncertainty-report", str(ckpt), str(dataset), "-o", str(out_path))
    assert code == 0
    assert "calibration ratio" in out
    assert "# low_signal" in out_path.read_text()


def test_gen_corpus_rejects_misspelled_config_key(capsys, tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("n_dcos = 60\n")
    corpus = tmp_path / "corpus.txt"
    code, out, err = _run(capsys, "gen-corpus", "--config", str(cfg), "-o", str(corpus))
    assert code != 0
    assert "'n_dcos'" in err and str(cfg) in err
    assert not corpus.exists()


@pytest.mark.parametrize("line", ["n_docs = 1", "heads = 5, 5", "heads = 99"])
def test_gen_corpus_rejects_an_invalid_corpus_config(capsys, tmp_path, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    corpus = tmp_path / "corpus.txt"
    code, _, err = _run(capsys, "gen-corpus", "--config", str(cfg), "-o", str(corpus))
    assert code == 1
    assert err.startswith(f"error: {cfg}: ") and err.count("\n") == 1
    assert not corpus.exists()


# the corpus must be refused before any array is drawn, so the run is a
# child whose address space is capped at 2 GiB: one that draws 10**9
# documents fails fast instead of filling the host's memory
_BOUNDED_GEN_CORPUS = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from polyreg.cli import main
sys.exit(main(["gen-corpus", "--config", sys.argv[1], "-o", sys.argv[2]]))
"""


def test_gen_corpus_refuses_n_docs_past_the_bound_before_drawing(tmp_path):
    pytest.importorskip("resource")  # the child caps its address space with it
    cfg = tmp_path / "big.cfg"
    cfg.write_text("n_docs = 1000000000\n")
    corpus = tmp_path / "corpus.txt"
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", _BOUNDED_GEN_CORPUS, str(cfg), str(corpus)],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert done.returncode == 1, done.stderr[-2000:]
    assert done.stderr == f"error: {cfg}: n_docs must be at most MAX_DOCS = 1048576, got 1000000000\n"
    assert not corpus.exists()


def _audit_with_stdout_to(out: Path, output: str) -> subprocess.CompletedProcess:
    """``polyreg audit`` of the bundled fixture with ``-o output``, run in
    ``out``'s directory with its stdout written to ``out``."""
    code = "import sys; from polyreg.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = ["audit", *map(str, bundled_fixture_paths()), "-o", output]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out, "wb") as stdout:
        return subprocess.run(
            [sys.executable, "-c", code, *argv], cwd=out.parent, env=env, stdout=stdout, stderr=subprocess.PIPE, text=True
        )


@pytest.mark.parametrize("output", ["/dev/stdout", "out.txt"])
def test_an_output_that_is_the_redirected_stdout_is_refused(tmp_path, output):
    if output == "/dev/stdout" and not os.path.exists(output):
        pytest.skip("no /dev/stdout")
    out = tmp_path / "out.txt"
    done = _audit_with_stdout_to(out, output)
    assert done.returncode == 1
    assert done.stderr == f"error: {output}: the same file as stdout or stderr, which polyreg does not replace\n"
    assert out.read_bytes() == b""
    assert os.listdir(tmp_path) == ["out.txt"]


def test_an_output_beside_the_redirected_stdout_is_written(tmp_path):
    out = tmp_path / "out.txt"
    done = _audit_with_stdout_to(out, "audit.tsv")
    assert (done.returncode, done.stderr) == (0, "")
    assert out.read_text() == "strict precision 0.842 (120 records)\n"
    assert (tmp_path / "audit.tsv").read_text().endswith("strict_precision\t0.841667\nn\t120\n")
    assert sorted(os.listdir(tmp_path)) == ["audit.tsv", "out.txt"]


def test_build_dataset_masks_the_mean_label_of_a_head_reported_twice(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(
        "== SAMPLE s1 ==\nSample: film tested at 105 MPa preload.\n"
        "tensile strength = 100 MPa; tensile strength = 110 MPa\n",
        encoding="utf-8",
    )
    obs, dataset = tmp_path / "obs.jsonl", tmp_path / "ds.tsv"
    assert _run(capsys, "extract", str(corpus), "-o", str(obs))[0] == 0
    code, out, err = _run(capsys, "build-dataset", str(obs), "-o", str(dataset))
    assert (code, err) == (0, "")
    assert "wrote 1 prompt instances" in out
    row = dataset.read_text(encoding="utf-8").splitlines()[1].split("\t")
    assert row[2] == "[Sample]\\nfilm tested at [MASKED] MPa preload.\\n[Synthesis]\\n"
    assert "105" in row[3:]  # the label


def test_build_dataset_names_a_sample_without_sample_text(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(
        "== SAMPLE s1 ==\nSynthesis: cured 2 h.\nTg = 105 °C\n"
        "== SAMPLE s2 ==\nSample: film.\nTg = 90 °C\n",
        encoding="utf-8",
    )
    obs, dataset = tmp_path / "obs.jsonl", tmp_path / "ds.tsv"
    assert _run(capsys, "extract", str(corpus), "-o", str(obs))[0] == 0
    code, out, err = _run(capsys, "build-dataset", str(obs), "-o", str(dataset))
    assert (code, out) == (1, "")
    assert err == "error: sample s1: sample description must be non-empty\n"
    assert not dataset.exists()


def _tg_dataset(path) -> None:
    """Four samples, each labelled with one Tg."""
    tg = default_registry().lookup("Tg").head_id
    instances = []
    for i, value in enumerate([60.0, 100.0, 140.0, 180.0]):
        labels, mask = np.full(N_HEADS, np.nan), np.zeros(N_HEADS, dtype=bool)
        labels[tg], mask[tg] = value, True
        instances.append(PromptInstance(f"s{i}", "sample_only", "[Sample]\nx", labels, mask))
    save_dataset(instances, path)


def test_score_responses_subcommand(capsys, tmp_path):
    dataset = tmp_path / "dataset.tsv"
    _tg_dataset(dataset)
    responses = tmp_path / "responses.tsv"
    responses.write_text(
        "sample_id\thead\tresponse\n"
        "s0\tglass transition temperature\t61 °C\n"
        "s1\tTg\t99\n"
        "s2\tTg\taround 140 or so\n"  # rejected by strict parsing
        "s3\tTg\t181 °C\n"
        "s0\tTm\t170\n"  # parsed, but s0 has no Tm label
    )
    out_path = tmp_path / "scores.tsv"
    code, out, err = _run(capsys, "score-responses", str(responses), str(dataset), "-o", str(out_path))
    assert code == 0, err
    assert out == "scored 1 heads; macro primary R2 = 0.9996; retention = 0.800\n"
    lines = out_path.read_text().splitlines()
    assert lines[0] == "head_id\tname\tn\tr2_linear\tr2_log\tmae\trmse\tprimary"
    assert lines[1:] == ["0\tTg\t3\t0.999598\t0.999330\t1\t1\tlinear", "# retention\t0.800000"]


def test_score_responses_writes_the_pinned_table(capsys, tmp_path):
    # Tg scores in full; Tm's two equal labels leave both its R² columns NA
    reg = default_registry()
    tg, tm = reg.lookup("Tg").head_id, reg.lookup("Tm").head_id
    instances = []
    for i, (y_tg, y_tm) in enumerate([(60.0, 150.0), (100.0, 150.0), (140.0, None), (180.0, None)]):
        labels = np.full(N_HEADS, np.nan)
        labels[tg], labels[tm] = y_tg, np.nan if y_tm is None else y_tm
        instances.append(PromptInstance(f"s{i}", "sample_only", "[Sample]\nx", labels, ~np.isnan(labels)))
    dataset = tmp_path / "dataset.tsv"
    save_dataset(instances, dataset)
    responses = tmp_path / "responses.tsv"
    responses.write_text(
        "sample_id\thead\tresponse\n"
        "s0\tTg\t58.5 °C\n"
        "s0\tTm\t148\n"
        "s1\tTg\t104\n"
        "s1\tmelting point\t425.15 K\n"
        "s2\tTg\tno answer\n"
        "s3\tTg\t177.25\n",
        encoding="utf-8",
    )
    out_path = tmp_path / "scores.tsv"
    assert _run(capsys, "score-responses", str(responses), str(dataset), "-o", str(out_path))[0] == 0
    assert out_path.read_bytes() == (
        b"head_id\tname\tn\tr2_linear\tr2_log\tmae\trmse\tprimary\n"
        b"0\tTg\t3\t0.996543\t0.996003\t2.75\t2.93329\tlinear\n"
        b"1\tTm\t2\tNA\tNA\t2\t2\tlinear\n"
        b"# retention\t0.833333\n"
    )


def test_eval_refuses_a_dataset_of_another_variant(capsys, tmp_path):
    dataset, ckpt = tmp_path / "only.tsv", tmp_path / "model.ckpt"
    _tg_dataset(dataset)
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text(
        "variant = sample_only\nepochs = 0\nvocab_size = 1024\ndim = 16\nrank = 4\nhidden_dim = 16\nn_blocks = 1\n"
    )
    assert _run(capsys, "train", str(dataset), "--config", str(train_cfg), "-o", str(ckpt))[0] == 0
    other = tmp_path / "synthesis.tsv"
    other.write_text(dataset.read_text(encoding="utf-8").replace("\tsample_only\t", "\tsample_synthesis\t"))
    report = tmp_path / "eval.tsv"
    code, out, err = _run(capsys, "eval", str(ckpt), str(other), "-o", str(report))
    assert (code, out) == (1, "")
    assert err == (
        "error: evaluate: an instance has variant 'sample_synthesis', but the model was trained on 'sample_only'\n"
    )
    assert not report.exists()


def test_score_responses_names_a_malformed_line(capsys, tmp_path):
    dataset = tmp_path / "dataset.tsv"
    _tg_dataset(dataset)
    responses = tmp_path / "responses.tsv"
    responses.write_text("sample_id\thead\tresponse\ns1\tTg\t99\ns2\tTg\n")
    out_path = tmp_path / "scores.tsv"
    code, out, err = _run(capsys, "score-responses", str(responses), str(dataset), "-o", str(out_path))
    assert code == 1 and out == ""
    assert re.fullmatch(f"error: {re.escape(str(responses))}:3: .*\n", err)
    assert not out_path.exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ("rank = 64", "rank < dim"),
        ("pooling_mode = max", "unknown pooling mode 'max'"),
        ("n_blocks = 0", "at least one residual block"),
    ],
)
def test_train_rejects_an_invalid_config_before_reading_the_dataset(capsys, tmp_path, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    dataset = tmp_path / "absent.tsv"  # never opened: the config fails first
    ckpt = tmp_path / "model.ckpt"
    code, _, err = _run(capsys, "train", str(dataset), "--config", str(cfg), "-o", str(ckpt))
    assert code == 1
    assert str(cfg) in err and message in err and "absent.tsv" not in err
    assert not ckpt.exists()


def _sealed_checkpoint(meta: bytes) -> bytes:
    """A CRC-valid checkpoint holding metadata ``meta`` and no tensors."""
    body = MAGIC + struct.pack("<IQ", VERSION, len(meta)) + meta + struct.pack("<I", 0)
    return body + struct.pack("<I", zlib.crc32(body))


@pytest.mark.parametrize(
    "blob, message",
    [
        (b"x", "file too short"),
        (_sealed_checkpoint(b"{not json"), "undecodable metadata or tensor table: Expecting property name"),
        (_sealed_checkpoint(b"\xff\xfe"), "undecodable metadata or tensor table: 'utf-8' codec can't decode"),
        (_sealed_checkpoint(b"[" * 100_000), "undecodable metadata or tensor table: maximum recursion depth"),
    ],
    ids=["too_short", "meta_not_json", "meta_not_utf8", "meta_nested_deep"],
)
@pytest.mark.parametrize("command", ["eval", "uncertainty-report"])
def test_a_refused_checkpoint_is_named(capsys, tmp_path, command, blob, message):
    ckpt = tmp_path / "notckpt.npz"
    ckpt.write_bytes(blob)
    argv = [command, str(ckpt), str(tmp_path / "d.tsv"), "-o", str(tmp_path / "out.tsv")]
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: checkpoint {ckpt}: {message}") and err.count("\n") == 1


def test_ablate_accepts_corpus_and_trainer_keys_in_one_config(capsys, tmp_path):
    cfg = tmp_path / "ablate.cfg"
    cfg.write_text(
        "n_docs = 60\nsynth.obs_prob = 0.8\n"
        "epochs = 1\nvocab_size = 512\ndim = 8\nrank = 2\nhidden_dim = 8\nn_blocks = 1\n"
    )
    out_path = tmp_path / "ablation.tsv"
    code, out, err = _run(capsys, "ablate", "--config", str(cfg), "--seed", "3", "-o", str(out_path))
    assert code == 0, err
    assert "ablation mean delta" in out
    assert out_path.read_text().startswith("head_id\t")


def test_missing_file_gives_nonzero_exit_and_diagnostic(capsys, tmp_path):
    code, out, err = _run(capsys, "extract", str(tmp_path / "missing.txt"), "-o", str(tmp_path / "x"))
    assert code != 0
    assert "error:" in err


def test_extract_names_a_corpus_byte_that_is_not_utf8(capsys, tmp_path):
    docs = tmp_path / "corpus.txt"
    docs.write_bytes(b"# doc 1\r\nPS film\n\xff")
    code, out, err = _run(capsys, "extract", str(docs), "-o", str(tmp_path / "obs.jsonl"))
    assert code == 1 and out == ""
    assert err == f"error: {docs}:3: byte 0xff is not UTF-8 (invalid start byte)\n"


_DOC = "== SAMPLE {} ==\nSample: PS film.\nTg = 100 °C\n"


@pytest.mark.parametrize(
    "corpus, line, message",
    [
        ("== DOC 0 ==\n" + _DOC.format("s1") + "== DOC 1 ==\n== SAMPLE a b ==\n", 6,
         "malformed sample delimiter: '== SAMPLE a b =='"),
        ("== DOC 0 ==\n" + _DOC.format("s1") + _DOC.format("s1"), 5, "sample id 's1' repeats line 2"),
        ("== DOC 0 ==\n" + _DOC.format("s1") + "== DOC 1 ==\n" + _DOC.format("s2") + _DOC.format("s1"), 9,
         "sample id 's1' repeats line 2"),
        ("== DOC 0 ==\n" + _DOC.format("s1") + "== DOC 1 ==\nSample: PS film.\n", 5,
         "document contains no sample sections"),
        ("PS film.\n== DOC 0 ==\n" + _DOC.format("s1"), 1, "document contains no sample sections"),
    ],
)
def test_extract_names_the_corpus_line_of_a_malformed_document(capsys, tmp_path, corpus, line, message):
    docs, obs = tmp_path / "corpus.txt", tmp_path / "obs.jsonl"
    docs.write_text(corpus, encoding="utf-8")
    assert _run(capsys, "extract", str(docs), "-o", str(obs)) == (1, "", f"error: {docs}:{line}: {message}\n")
    assert not obs.exists()


def test_extract_counts_corpus_lines_as_grep_does(capsys, tmp_path):
    """U+2028 and a form feed end no line, so the bad delimiter is on line
    4, as ``grep -n`` counts it; ``\\r\\n`` ends one."""
    docs, obs = tmp_path / "corpus.txt", tmp_path / "obs.jsonl"
    corpus = "== DOC 0 ==\r\n== SAMPLE s1 ==\nSample: PS film\u2028annealed\x0ctwice.\n== SAMPLE a b ==\n"
    docs.write_bytes(corpus.encode())
    error = f"error: {docs}:4: malformed sample delimiter: '== SAMPLE a b =='\n"
    assert _run(capsys, "extract", str(docs), "-o", str(obs)) == (1, "", error)


def test_build_dataset_names_a_deeply_nested_line(capsys, tmp_path):
    obs = tmp_path / "deep.jsonl"
    obs.write_text("[" * 100_000 + "\n")
    code, out, err = _run(capsys, "build-dataset", str(obs), "-o", str(tmp_path / "train.tsv"))
    assert code == 1 and out == ""
    assert err == f"error: {obs}:1: JSON nested too deeply\n"


def test_debug_reraises_and_default_prints_one_line(capsys, tmp_path):
    argv = ["train", str(tmp_path / "missing.tsv"), "-o", str(tmp_path / "model.ckpt")]
    code, out, err = _run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    with pytest.raises(FileNotFoundError, match="missing.tsv"):
        main(["--debug", *argv])
    assert capsys.readouterr().err == ""


def test_unknown_subcommand_exits_nonzero(capsys):
    code, _, _ = _run(capsys, "frobnicate")
    assert code != 0


def _readme_commands() -> list[str]:
    """The ``polyreg ...`` lines of the README's "Command line" block."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("polyreg ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) == 9
    parser = build_parser()
    for line in commands:
        args = parser.parse_args(shlex.split(line)[1:])
        assert args.command == line.split()[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["extract", "corpus.txt"],
        ["build-dataset", "observations.jsonl"],
        ["eval", "model.ckpt", "dataset.tsv"],
        ["audit", "extracted.tsv", "gold.tsv"],
        ["uncertainty-report", "model.ckpt", "dataset.tsv"],
        ["score-responses", "r.tsv", "dataset.tsv"],
    ],
)
def test_seed_is_refused_where_no_seed_is_read(capsys, argv):
    code, _, err = _run(capsys, *argv, "--seed", "1", "-o", "out.tsv")
    assert code == 2 and "unrecognized arguments: --seed 1" in err
