"""Walk through record extraction and the extraction audit.

Generates a small synthetic corpus, extracts property observations from
it, then scores the bundled audit fixture the same way a real annotation
audit would run.
"""

import numpy as np

from polyreg.audit import audit, load_bundled_fixture
from polyreg.corpus import SynthConfig, gen_corpus
from polyreg.records import extract_corpus, split_corpus
from polyreg.registry import default_registry


def main():
    registry = default_registry()

    corpus = gen_corpus(SynthConfig(seed=0, n_docs=8, obs_prob=0.6))
    print("first document:")
    print(next(split_corpus(corpus.text)))

    samples, counters = extract_corpus(corpus.text)
    n_obs = sum(len(s.observations) for s in samples)
    print(f"extracted {n_obs} observations from {len(samples)} samples")
    print(f"counters: unmapped={counters.unmapped} "
          f"parse_failures={counters.parse_failures} "
          f"incompatible_units={counters.incompatible_units}")

    sample = samples[0]
    print(f"\nsample {sample.sample_id}:")
    for obs in sample.observations:
        spec = registry.spec(obs.head_id)
        print(f"  {spec.name:24s} {obs.canonical_value:12.5g} {spec.canonical_unit}")

    # audit fixture: 120 hand-checked records with planted extraction errors
    extracted, gold = load_bundled_fixture()
    report = audit(extracted, gold)
    print("\naudit fixture:")
    for name, value in report.as_rows():
        print(f"  {name:28s} {value:.4f}")


if __name__ == "__main__":
    main()
