"""Golden digests: a tiny fixed pipeline run must keep producing the same
checkpoint, eval-table, eval-JSON, uncertainty-table and ablation-table
bytes, and the same extracted-observation file and train/test dataset
files; each intermediate file must also read back as what was written.
The same training set also trains an attention-pooled model, whose
checkpoint and eval-table bytes are pinned too.

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

CHECKPOINT_SHA256 = "4c6f2fc8b820f6a56e99e6a81ead10841dc8ab399771d22669ac1e9105e52660"
EVAL_TABLE_SHA256 = "dc9780bfbd120855c5abae63c32ff85afc943dc95f97b6214a77fddfcfd27208"
EVAL_JSON_SHA256 = "60d0ae4fb12fe4f764d86f160258803ffef4c3d49f8c494a571b46a17979f926"
UNCERTAINTY_TABLE_SHA256 = "a5cd27b9139f41a8637d2b7e96929c996819cb0ce0091d5194a74cb188bddfc4"
ABLATION_TABLE_SHA256 = "271515b8f2dd0e2d8a6bc01225a85bd645e25e588787374466273026ce5b3bdf"
EXTRACTED_SHA256 = "872dab274cf6e0ec4f5d56de13d09a809c86827334f2fc294dff43a5c052cae3"
TRAIN_TSV_SHA256 = "924e3120f699c02a5ea18c51e5520907ee090682dc6f50de04ffd254ff16f65d"
TEST_TSV_SHA256 = "7053ce9bdd97d66f60a34886884326830b02d150f2d9dec78747692b1acb8f40"
# the same run's model trained with attention pooling
ATTENTION_CHECKPOINT_SHA256 = "e8b806e3b3e16465feb5009954ce5fff0053fc65eddf03d8c92acf143cbc15a9"
ATTENTION_EVAL_TABLE_SHA256 = "4a4ecddb3c0b5df5c5048ba46a5480d8042bf2176823f63831ccf9321edd6df2"

_PIPELINE = """
import hashlib, sys
from pathlib import Path
import numpy as np
from polyreg import corpus, datasets, harness, metrics, records, registry, trainer

def same_instances(a, b):
    return len(a) == len(b) and all(
        (x.sample_id, x.variant, x.text) == (y.sample_id, y.variant, y.text)
        and x.labels.tobytes() == y.labels.tobytes()
        and np.array_equal(x.label_mask, y.label_mask)
        for x, y in zip(a, b)
    )

out = Path(sys.argv[1])

reg = registry.default_registry()
synth = corpus.gen_corpus(corpus.SynthConfig(seed=0, n_docs=120, obs_prob=0.5), reg)
samples, _ = records.extract_corpus(synth.text, reg)
records.save_extracted(samples, out / "observations.jsonl")
round_trips = [records.load_extracted(out / "observations.jsonl") == samples]
train_part, test_part = harness.split_samples(samples, 0)
train_set = datasets.build_dataset(train_part, "sample_synthesis", reg)
test_set = datasets.build_dataset(test_part, "sample_synthesis", reg)
for name, built in (("train.tsv", train_set), ("test.tsv", test_set)):
    datasets.save_dataset(built, out / name)
    round_trips.append(same_instances(datasets.load_dataset(out / name), built))
cfg = trainer.TrainConfig(seed=0, epochs=3, batch_size=16, vocab_size=2048)
trained = trainer.train(cfg, train_set, reg)
trainer.save_trained(trained, out / "model.ckpt")
report = metrics.evaluate(trained, test_set, reg)
uncertainty = harness.run_uncertainty_report(trained, test_set, reg)
ablation = harness.run_ablation(cfg, corpus.SynthConfig(seed=0, n_docs=120, obs_prob=0.5), reg)
attention_cfg = trainer.TrainConfig(seed=0, epochs=3, batch_size=16, vocab_size=2048, pooling_mode="attention")
attended = trainer.train(attention_cfg, train_set, reg)
trainer.save_trained(attended, out / "attention.ckpt")
attended_table = metrics.evaluate(attended, test_set, reg).to_table()
with open(out / "model.ckpt", "rb") as fh:
    print(hashlib.sha256(fh.read()).hexdigest())
for text in (report.to_table(), report.to_json(), uncertainty.to_table(), ablation.to_table()):
    print(hashlib.sha256(text.encode("utf-8")).hexdigest())
for name in ("observations.jsonl", "train.tsv", "test.tsv"):
    print(hashlib.sha256((out / name).read_bytes()).hexdigest())
print(hashlib.sha256((out / "attention.ckpt").read_bytes()).hexdigest())
print(hashlib.sha256(attended_table.encode("utf-8")).hexdigest())
print(all(round_trips))
"""


def _digests(tmp_path, threads: int) -> list[str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _PIPELINE, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout.split()


def _assert_golden(digests: list[str]) -> None:
    """Every digest at once, so one run shows every mismatch."""
    expected = {
        "checkpoint": CHECKPOINT_SHA256,
        "eval table": EVAL_TABLE_SHA256,
        "eval json": EVAL_JSON_SHA256,
        "uncertainty table": UNCERTAINTY_TABLE_SHA256,
        "ablation table": ABLATION_TABLE_SHA256,
        "observations": EXTRACTED_SHA256,
        "train tsv": TRAIN_TSV_SHA256,
        "test tsv": TEST_TSV_SHA256,
        "attention checkpoint": ATTENTION_CHECKPOINT_SHA256,
        "attention eval table": ATTENTION_EVAL_TABLE_SHA256,
        "round trips": "True",
    }
    assert dict(zip(expected, digests)) == expected


def test_golden_checkpoint_and_eval_table_digests(tmp_path):
    _assert_golden(_digests(tmp_path, threads=1))


def test_golden_digests_hold_with_two_blas_threads(tmp_path):
    _assert_golden(_digests(tmp_path, threads=2))
