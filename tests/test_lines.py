"""Every line-oriented input file loads the same whatever its line ends,
and every file polyreg writes is all or nothing.

``lines.read_lines`` reads text with universal newlines, so ``\\r\\n`` and
a lone ``\\r`` end a line as ``\\n`` does.  A reader that decoded bytes
itself would leave a ``\\r`` at the end of every line of these files.
A byte that is not UTF-8 is an error naming the file and its line.

``lines.replacing`` writes a new file beside its target and moves it over
the target only once the last byte is written, so a writer that fails
part-way leaves the previous file as it was.
"""

import builtins
import errno
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polyreg.audit import bundled_fixture_paths, read_records
from polyreg.checkpoint import save_checkpoint
from polyreg.cli import main
from polyreg.config import TrainConfig, load_configs
from polyreg.corpus import SynthConfig, gen_corpus, write_corpus
from polyreg.datasets import build_dataset, load_dataset, save_dataset
from polyreg.lines import replacing
from polyreg.metrics import score_prediction_file
from polyreg.records import extract_corpus, load_extracted, save_extracted
from polyreg.registry import default_registry
from polyreg.trainer import save_trained, train


@pytest.fixture(scope="module")
def samples():
    return extract_corpus(gen_corpus(SynthConfig(seed=0, n_docs=12)).text)[0]


# each writes one file kind at ``path`` with ``\n`` line ends and returns
# its loader, whose result compares with ``==``


def _observations(samples, path):
    save_extracted(samples, path)
    return load_extracted


def _dataset(samples, path):
    save_dataset(build_dataset(samples, "sample_synthesis"), path)
    return lambda p: [
        (inst.sample_id, inst.variant, inst.text, inst.labels.tobytes(), inst.label_mask.tobytes())
        for inst in load_dataset(p)
    ]


def _audit(samples, path):
    path.write_bytes(bundled_fixture_paths()[1].read_bytes())
    return read_records


def _responses(samples, path):
    instances = build_dataset(samples, "sample_synthesis")
    registry = default_registry()
    rows = ["sample_id\thead\tresponse"] + [
        f"{inst.sample_id}\t{registry.spec(t).name}\t{float(inst.labels[t])!r}"
        for inst in instances
        for t in np.flatnonzero(inst.label_mask)
    ]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    def load(p):
        report, retention = score_prediction_file(p, instances)
        return report.to_table(), retention

    return load


def _config(samples, path):
    path.write_text("# corpus\nn_docs = 60\nheads = 5, 6\n\nepochs = 3  # trainer\n", encoding="utf-8")
    return load_configs


@pytest.mark.parametrize("write", [_observations, _dataset, _audit, _responses, _config])
def test_a_crlf_file_loads_as_its_lf_original(tmp_path, samples, write):
    lf, crlf = tmp_path / "lf", tmp_path / "crlf"
    load = write(samples, lf)
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    assert load(crlf) == load(lf)


def test_a_lone_carriage_return_ends_a_config_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"seed = 4\rn_docs = 60\n")
    assert load_configs(path) == (SynthConfig(seed=4, n_docs=60), TrainConfig(seed=4))


@pytest.mark.parametrize("write", [_observations, _dataset, _audit, _responses, _config])
def test_a_file_of_one_byte_that_is_not_utf8_is_named(tmp_path, samples, write):
    load = write(samples, tmp_path / "good")
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(bad))}:1: byte 0xff is not UTF-8 \(invalid start byte\)$"):
        load(bad)


@pytest.mark.parametrize("write", [_observations, _dataset, _audit, _responses, _config])
def test_a_byte_that_is_not_utf8_names_its_line(tmp_path, samples, write):
    good, bad = tmp_path / "good", tmp_path / "bad"
    load = write(samples, good)
    lines = good.read_bytes().split(b"\n")
    lines[2] = lines[2][:1] + b"\xc3(" + lines[2][1:]
    bad.write_bytes(b"\r\n".join(lines))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(bad))}:3: byte 0xc3 is not UTF-8"):
        load(bad)


# ---- all-or-nothing writes ---------------------------------------------------


class _DiskFull:
    """A file open for writing that takes ``room`` more characters (or
    bytes) and then fails with ENOSPC, after writing what fits."""

    def __init__(self, fh, room):
        self._fh, self._room = fh, room

    def write(self, data):
        if len(data) > self._room:
            self._fh.write(data[: self._room])
            self._room = 0
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self._room -= len(data)
        return self._fh.write(data)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def _fill_disk(monkeypatch, directory, nth, room):
    """Make the ``nth`` file (from 0) opened for writing in ``directory``
    fail after ``room`` characters; ``open`` is left as it is for every
    other file."""
    real_open = builtins.open
    opened = []

    def open_(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if set(mode) & set("wax+") and os.path.dirname(os.path.abspath(file)) == str(directory):
            opened.append(file)
            if len(opened) == nth + 1:
                return _DiskFull(fh, room)
        return fh

    monkeypatch.setattr(builtins, "open", open_)


@pytest.fixture(scope="module")
def eval_inputs(tmp_path_factory, samples):
    """(checkpoint, dataset) paths for ``polyreg eval``: an untrained tiny model."""
    directory = tmp_path_factory.mktemp("eval")
    instances = build_dataset(samples, "sample_synthesis")
    cfg = TrainConfig(epochs=0, vocab_size=1024, dim=16, rank=4, hidden_dim=16, n_blocks=1)
    save_dataset(instances, directory / "ds.tsv")
    save_trained(train(cfg, instances), directory / "model.ckpt")
    return str(directory / "model.ckpt"), str(directory / "ds.tsv")


# each writes its files into a directory; the CLI runs with --debug, so a
# failure raises rather than exits 1
WRITERS = {
    "save_dataset": (["train.tsv"], lambda d, s, e: save_dataset(build_dataset(s, "sample_only"), d / "train.tsv")),
    "save_extracted": (["obs.jsonl"], lambda d, s, e: save_extracted(s, d / "obs.jsonl")),
    "save_checkpoint": (
        ["model.ckpt"],
        lambda d, s, e: save_checkpoint(d / "model.ckpt", {"w": np.arange(4096.0)}, {"seed": 0}),
    ),
    "write_corpus": (
        ["corpus.txt"],
        lambda d, s, e: write_corpus(gen_corpus(SynthConfig(n_docs=12)), d / "corpus.txt"),
    ),
    "polyreg eval": (
        ["eval.tsv", "eval.tsv.json"],
        lambda d, s, e: main(["--debug", "eval", *e, "-o", str(d / "eval.tsv")]),
    ),
    "polyreg audit": (
        ["audit.tsv"],
        lambda d, s, e: main(["--debug", "audit", *map(str, bundled_fixture_paths()), "-o", str(d / "audit.tsv")]),
    ),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_a_write_that_fails_part_way_leaves_the_previous_files(tmp_path, monkeypatch, samples, eval_inputs, writer):
    names, write = WRITERS[writer]
    fresh, kept = tmp_path / "fresh", tmp_path / "kept"
    fresh.mkdir()
    kept.mkdir()
    write(fresh, samples, eval_inputs)
    previous = {name: f"the previous {name}\n".encode() for name in names}
    for name, data in previous.items():
        (kept / name).write_bytes(data)
    for nth, name in enumerate(names):  # each of eval's two files in turn
        _fill_disk(monkeypatch, kept, nth, (fresh / name).stat().st_size // 2)
        with pytest.raises(OSError, match="No space left on device"):
            write(kept, samples, eval_inputs)
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in kept.iterdir()} == previous
    write(kept, samples, eval_inputs)
    assert {p.name: p.read_bytes() for p in kept.iterdir()} == {p.name: p.read_bytes() for p in fresh.iterdir()}


def test_an_interrupt_leaves_the_target_and_no_temporary_file(tmp_path):
    target = tmp_path / "out.tsv"
    target.write_bytes(b"old\n")
    with pytest.raises(KeyboardInterrupt):
        with replacing(target) as fh:
            fh.write("new\n")
            raise KeyboardInterrupt
    assert os.listdir(tmp_path) == ["out.tsv"]
    assert target.read_bytes() == b"old\n"


def test_text_is_utf8_with_lf_line_ends(tmp_path):
    with replacing(tmp_path / "out.txt") as fh:
        fh.write("Tg = 105 \u00b0C\nx\n")
    assert (tmp_path / "out.txt").read_bytes() == b"Tg = 105 \xc2\xb0C\nx\n"


@pytest.mark.skipif(os.name != "posix", reason="permission bits and the umask are POSIX")
def test_a_rewrite_keeps_the_mode_and_a_new_file_takes_the_umask(tmp_path):
    kept, new = tmp_path / "kept.tsv", tmp_path / "new.tsv"
    kept.write_bytes(b"old\n")
    kept.chmod(0o640)
    umask = os.umask(0o022)
    try:
        for path in (kept, new):
            with replacing(path) as fh:
                fh.write("new\n")
    finally:
        os.umask(umask)
    assert stat.S_IMODE(kept.stat().st_mode) == 0o640
    assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~0o022
    assert kept.read_bytes() == new.read_bytes() == b"new\n"


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="no symlinks")
def test_a_symlinked_target_stays_a_symlink(tmp_path, samples):
    real, link = tmp_path / "real.jsonl", tmp_path / "link.jsonl"
    real.write_bytes(b"old\n")
    link.symlink_to(real.name)
    save_extracted(samples, link)
    assert link.is_symlink() and os.readlink(link) == real.name
    assert load_extracted(real) == samples
    assert sorted(os.listdir(tmp_path)) == ["link.jsonl", "real.jsonl"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_a_fifo_target_is_refused_naming_it(tmp_path, capsys):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    # refused before anything opens the FIFO, which would block
    with pytest.raises(ValueError, match=rf"^{re.escape(str(fifo))}: not a regular file"):
        with replacing(fifo):
            pass
    assert main(["audit", *map(str, bundled_fixture_paths()), "-o", str(fifo)]) == 1
    assert capsys.readouterr().err == f"error: {fifo}: not a regular file, which polyreg does not replace\n"
    assert os.listdir(tmp_path) == ["out.fifo"]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_dev_stdout_as_a_pipe_is_refused(tmp_path):
    code = "import sys; from polyreg.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = ["audit", *map(str, bundled_fixture_paths()), "-o", "/dev/stdout"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "error: /dev/stdout: not a regular file, which polyreg does not replace\n"
    assert os.listdir(tmp_path) == []
