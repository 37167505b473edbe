"""Every line-oriented input file loads the same whatever its line ends.

``lines.read_lines`` reads text with universal newlines, so ``\\r\\n`` and
a lone ``\\r`` end a line as ``\\n`` does.  A reader that decoded bytes
itself would leave a ``\\r`` at the end of every line of these files.
A byte that is not UTF-8 is an error naming the file and its line.
"""

import re

import numpy as np
import pytest

from polyreg.audit import bundled_fixture_paths, read_records
from polyreg.cli import CONFIG_SECTIONS
from polyreg.config import read_config
from polyreg.corpus import SynthConfig, gen_corpus
from polyreg.datasets import build_dataset, load_dataset, save_dataset
from polyreg.metrics import score_prediction_file
from polyreg.records import extract_corpus, load_extracted, save_extracted
from polyreg.registry import default_registry


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
    return lambda p: read_config(p, CONFIG_SECTIONS)


@pytest.mark.parametrize("write", [_observations, _dataset, _audit, _responses, _config])
def test_a_crlf_file_loads_as_its_lf_original(tmp_path, samples, write):
    lf, crlf = tmp_path / "lf", tmp_path / "crlf"
    load = write(samples, lf)
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    assert load(crlf) == load(lf)


def test_a_lone_carriage_return_ends_a_config_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"seed = 4\rn_docs = 60\n")
    assert read_config(path, CONFIG_SECTIONS) == {"synth": {"seed": 4, "n_docs": 60}, "train": {"seed": 4}}


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
