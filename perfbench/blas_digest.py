"""Checkpoint digest of one fixed training run under a given BLAS thread count.

    python3 perfbench/blas_digest.py --threads 1
    python3 perfbench/blas_digest.py --threads 2

Trains on 2,500 documents (``obs_prob`` 0.5, seed 0), the training part of
the seed-0 80/20 ``split_samples`` split, at vocab 4096 for 5 epochs with
batch 96, and prints the time in ``train`` and the sha256 of the checkpoint
``save_trained`` writes.
Each digest is stable from run to run; the two thread counts give
different digests, which is why ``run.py`` pins one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--threads", type=int, required=True)
    args = parser.parse_args()
    # must precede the first numpy import
    os.environ["OPENBLAS_NUM_THREADS"] = str(args.threads)
    sys.path.insert(0, str(HERE.parent / "src"))
    from polyreg import corpus, datasets, harness, records, trainer

    synth = corpus.gen_corpus(corpus.SynthConfig(seed=0, n_docs=2500, obs_prob=0.5))
    samples, _ = records.extract_corpus(synth.text)
    train_part, _ = harness.split_samples(samples, 0)
    train_set = datasets.build_dataset(train_part, "sample_synthesis")
    cfg = trainer.TrainConfig(seed=0, epochs=5, batch_size=96, vocab_size=4096)
    t0 = time.perf_counter()
    trained = trainer.train(cfg, train_set)
    train_s = time.perf_counter() - t0
    work = HERE.parent / ".perfbench_work" / f"digest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        path = work / "model.ckpt"
        trainer.save_trained(trained, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"OPENBLAS_NUM_THREADS={args.threads} train {train_s:.2f} s sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
