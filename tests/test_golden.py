"""Golden digests: a tiny fixed pipeline run must keep producing the same
checkpoint, eval-table, eval-JSON, uncertainty-table and ablation-table
bytes.

Run-against-run comparisons only show that one version of the code is
deterministic; these digests also catch a change that silently alters
results.  OpenBLAS may sum matrix products in an order that depends on
its thread count, so the run happens in a child process with the thread
count pinned; the same digests must come out with one thread and with
two.  A change that is meant to alter output bytes re-pins both digests
and says so in CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHECKPOINT_SHA256 = "34b366aca7bad671e0f4e99b04a31d1a66267c6c65248f6b487229c07cb78a51"
EVAL_TABLE_SHA256 = "dc9780bfbd120855c5abae63c32ff85afc943dc95f97b6214a77fddfcfd27208"
EVAL_JSON_SHA256 = "439d2c1897d27525d008e5a3a80b2c8f6be3a8f7c35d1247ba50e0eccca65f83"
UNCERTAINTY_TABLE_SHA256 = "a5cd27b9139f41a8637d2b7e96929c996819cb0ce0091d5194a74cb188bddfc4"
ABLATION_TABLE_SHA256 = "271515b8f2dd0e2d8a6bc01225a85bd645e25e588787374466273026ce5b3bdf"

_PIPELINE = """
import hashlib, sys
from polyreg import corpus, datasets, harness, metrics, records, registry, trainer

reg = registry.default_registry()
synth = corpus.gen_corpus(corpus.SynthConfig(seed=0, n_docs=120, obs_prob=0.5), reg)
samples, _ = records.extract_corpus(synth.text, reg)
train_part, test_part = harness.split_samples(samples, 0)
train_set = datasets.build_dataset(train_part, "sample_synthesis", reg)
test_set = datasets.build_dataset(test_part, "sample_synthesis", reg)
cfg = trainer.TrainConfig(seed=0, epochs=3, batch_size=16, vocab_size=2048)
trained = trainer.train(cfg, train_set, reg)
trainer.save_trained(trained, sys.argv[1])
report = metrics.evaluate(trained, test_set, reg)
uncertainty = harness.run_uncertainty_report(trained, test_set, reg)
ablation = harness.run_ablation(cfg, corpus.SynthConfig(seed=0, n_docs=120, obs_prob=0.5), reg)
with open(sys.argv[1], "rb") as fh:
    print(hashlib.sha256(fh.read()).hexdigest())
for text in (report.to_table(), report.to_json(), uncertainty.to_table(), ablation.to_table()):
    print(hashlib.sha256(text.encode("utf-8")).hexdigest())
"""


def _digests(tmp_path, threads: int) -> list[str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _PIPELINE, str(tmp_path / "model.ckpt")],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout.split()


def _assert_golden(digests: list[str]) -> None:
    checkpoint, table, eval_json, uncertainty, ablation = digests
    assert checkpoint == CHECKPOINT_SHA256
    assert table == EVAL_TABLE_SHA256
    assert eval_json == EVAL_JSON_SHA256
    assert uncertainty == UNCERTAINTY_TABLE_SHA256
    assert ablation == ABLATION_TABLE_SHA256


def test_golden_checkpoint_and_eval_table_digests(tmp_path):
    _assert_golden(_digests(tmp_path, threads=1))


def test_golden_digests_hold_with_two_blas_threads(tmp_path):
    _assert_golden(_digests(tmp_path, threads=2))
