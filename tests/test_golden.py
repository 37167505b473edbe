"""Golden digests: a tiny fixed pipeline run must keep producing the same
checkpoint and eval-table bytes.

Run-against-run comparisons only show that one version of the code is
deterministic; these digests also catch a change that silently alters
results.  Checkpoint bytes depend on the OpenBLAS thread count, so the
run happens in a child process pinned to one thread.  A change that is
meant to alter output bytes re-pins both digests and says so in
CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHECKPOINT_SHA256 = "8096e8977f6fcf4f4a689d9e82ea350715ca5ff470d8891301c40f70ca5b13d1"
EVAL_TABLE_SHA256 = "504c9b0e7e3770d6c5fd605604f01485dd8fff2ed7c76df77013346309397b3c"

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
table = metrics.evaluate(trained, test_set, reg).to_table()
with open(sys.argv[1], "rb") as fh:
    print(hashlib.sha256(fh.read()).hexdigest())
print(hashlib.sha256(table.encode("utf-8")).hexdigest())
"""


def test_golden_checkpoint_and_eval_table_digests(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _PIPELINE, str(tmp_path / "model.ckpt")],
        env=env, capture_output=True, text=True, check=True,
    )
    checkpoint, table = out.stdout.split()
    assert checkpoint == CHECKPOINT_SHA256
    assert table == EVAL_TABLE_SHA256
