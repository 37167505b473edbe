import numpy as np
import pytest

from polyreg.cli import CONFIG_SECTIONS, _load_configs
from polyreg.config import read_config
from polyreg.corpus import MAX_DOCS, SynthConfig
from polyreg.trainer import TrainConfig


def _write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_keys_are_routed_by_field_name(tmp_path):
    path = _write(
        tmp_path,
        "# corpus\nn_docs = 60\nsynth.gamma = 0.25\nheads = 5, 6\neta = 5:0.1,6:0.2\n"
        "seed = 4\nepochs = 3  # trainer\nfreeze_trunk = yes\npooling_mode = attention\n",
    )
    synth, train = _load_configs(path)
    assert synth == SynthConfig(seed=4, n_docs=60, gamma=0.25, heads=(5, 6), eta={5: 0.1, 6: 0.2})
    assert train == TrainConfig(seed=4, epochs=3, freeze_trunk=True, pooling_mode="attention")


def test_command_line_seed_overrides_both(tmp_path):
    synth, train = _load_configs(_write(tmp_path, "seed = 4\n"), seed=9)
    assert synth.seed == train.seed == 9
    synth, train = _load_configs(None, seed=2)
    assert (synth, train) == (SynthConfig(seed=2), TrainConfig(seed=2))
    # as gen-corpus and train read --seed: the field is named, not numpy's error
    with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
        _load_configs(None, seed=-1)


@pytest.mark.parametrize(
    "text, message",
    [
        ("n_dcos = 60\n", "unknown config key 'n_dcos'"),
        ("synth.epochs = 3\n", "unknown config key 'synth.epochs'"),
        ("epochs\n", "expected 'key = value'"),
        ("n_docs = many\n", "bad value 'many' for 'n_docs'"),
        ("freeze_trunk = maybe\n", "bad value 'maybe' for 'freeze_trunk'"),
    ],
)
def test_bad_lines_name_the_file(tmp_path, text, message):
    path = _write(tmp_path, text)
    with pytest.raises(ValueError, match=message) as err:
        read_config(path, CONFIG_SECTIONS)
    assert str(err.value).startswith(f"{path}:1: ")


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(n_docs=1), "n_docs must be at least 2, got 1"),
        (dict(n_docs=-1), "n_docs must be at least 2, got -1"),
        (dict(heads=()), r"heads must be distinct head ids in 0\.\.21, got \(\)"),
        (dict(heads=(99,)), r"heads must be distinct head ids in 0\.\.21, got \(99,\)"),
        (dict(heads=(5, 5)), r"heads must be distinct head ids in 0\.\.21, got \(5, 5\)"),
        (dict(seed=-1), "seed must be at least 0, got -1"),
        (dict(eta=float("nan")), "eta must be finite, got nan"),
        (dict(heads=(5, 6), eta={5: 0.1, 6: float("nan")}), r"eta must be finite, got \{5: 0\.1, 6: nan\}"),
        (dict(gamma=float("inf")), "gamma must be finite, got inf"),
        (dict(tail_skew=float("-inf")), "tail_skew must be finite, got -inf"),
        (dict(obs_prob=float("nan")), r"obs_prob must be in \[0, 1\], got nan"),
        (dict(obs_prob=1.5), r"obs_prob must be in \[0, 1\], got 1\.5"),
        (dict(obs_prob=-0.1), r"obs_prob must be in \[0, 1\], got -0\.1"),
        (dict(heads=(5, 6), eta={99: 5.0, 7: 3.0}), r"eta names heads \[7, 99\] that are not in heads \(5, 6\)"),
        (dict(gamma=10**400), "gamma must be finite, got 1000"),  # too large for a float
        (dict(tail_skew=-(10**400)), "tail_skew must be finite, got -1000"),
        (dict(heads=(5, 6), eta={5: 0.1, 6: 10**400}), r"eta must be finite, got \{5: 0\.1, 6: 1000"),
        (dict(n_docs=2**20 + 1), "n_docs must be at most MAX_DOCS = 1048576, got 1048577"),
        (dict(n_docs=10**400), "n_docs must be at most MAX_DOCS = 1048576, got 1000"),
    ],
)
def test_synth_config_rejects_bad_values(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SynthConfig(**kwargs)


def test_synth_config_accepts_the_papers_corpus_size_and_the_bound():
    # constructing a config draws nothing
    assert SynthConfig(n_docs=276_400).n_docs == 276_400
    assert SynthConfig(n_docs=MAX_DOCS).n_docs == 2**20


def test_synth_config_accepts_numpy_scalars():
    cfg = SynthConfig(heads=(5, 6), eta={5: np.float64(0.1), 6: np.float32(0.2)}, gamma=np.float64(0.5))
    assert cfg.eta_for(6) == np.float32(0.2)


def test_default_config_digest_is_pinned():
    # the digest ends every report table
    assert TrainConfig().digest() == (
        "dc86b880c031483e74792be57dcc4712fa4b97f3d26245d8bc2273b90f311235"
    )


def test_every_config_field_has_a_parser(tmp_path):
    lines = [f"synth.{k} = {v}" for k, v in (
        ("seed", 1), ("n_docs", 2), ("heads", "5"), ("eta", 0.1), ("gamma", 0.2),
        ("tail_skew", 0.3), ("obs_prob", 0.4),
    )]
    lines += [f"train.{k} = {v}" for k, v in vars(TrainConfig()).items()]
    values = read_config(_write(tmp_path, "\n".join(lines) + "\n"), CONFIG_SECTIONS)
    assert set(values["synth"]) == set(vars(SynthConfig()))
    assert TrainConfig(**values["train"]) == TrainConfig()
