import pytest

from polyreg.cli import CONFIG_SECTIONS, _load_configs
from polyreg.config import read_config
from polyreg.corpus import SynthConfig
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
    assert str(path) in str(err.value)


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
