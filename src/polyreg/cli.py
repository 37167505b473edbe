"""Command-line surface tying the pipeline together.

Subcommands: gen-corpus, extract, build-dataset, train, eval, ablate,
audit, uncertainty-report, score-responses.  All exit 0 on success and 1
with a one-line diagnostic on any error; ``polyreg --debug ...``
re-raises it instead.  Each subcommand imports the stages it runs, so
``polyreg extract`` never loads the model or the trainer; the parser, a
config error, ``extract`` and ``audit`` load no numpy.
"""

from __future__ import annotations

import argparse
import sys

from .config import VARIANTS, load_configs
from .lines import replacing, text_file


def _write_table(fh, table: str, key: str, value: str) -> None:
    """A report table followed by one ``# key<TAB>value`` footer line."""
    fh.write(f"{table}# {key}\t{value}\n")


def cmd_gen_corpus(args) -> int:
    cfg, _ = load_configs(args.config, args.seed)
    from .corpus import gen_corpus, write_corpus

    corpus = gen_corpus(cfg)
    write_corpus(corpus, args.output)
    print(f"wrote {cfg.n_docs} documents to {args.output}")
    return 0


def cmd_extract(args) -> int:
    from .records import MalformedDocument, extract_corpus, save_extracted

    with text_file(args.docs) as fh:
        text = fh.read()
    try:
        samples, counters = extract_corpus(text)
    except MalformedDocument as exc:
        raise MalformedDocument(f"{args.docs}:{exc.line}: {exc}", exc.line) from None
    save_extracted(samples, args.output)
    n_obs = sum(len(s.observations) for s in samples)
    print(
        f"extracted {n_obs} observations from {len(samples)} samples "
        f"(unmapped={counters.unmapped}, parse_failures={counters.parse_failures}, "
        f"incompatible_units={counters.incompatible_units})"
    )
    return 0


def cmd_build_dataset(args) -> int:
    from .datasets import build_dataset, save_dataset
    from .records import load_extracted

    samples = load_extracted(args.observations)
    instances = build_dataset(samples, args.variant)
    save_dataset(instances, args.output)
    print(f"wrote {len(instances)} prompt instances ({args.variant}) to {args.output}")
    return 0


def cmd_train(args) -> int:
    _, cfg = load_configs(args.config, args.seed)
    from .datasets import load_dataset
    from .trainer import save_trained, train

    instances = load_dataset(args.dataset)
    trained = train(cfg, instances)
    save_trained(trained, args.output)
    trace = ", ".join(f"{x:.4f}" for x in trained.loss_trace[-3:])
    print(f"trained {cfg.epochs} epochs; final losses [{trace}]; checkpoint {args.output}")
    return 0


def cmd_eval(args) -> int:
    from .datasets import load_dataset
    from .metrics import evaluate
    from .trainer import load_trained

    trained = load_trained(args.checkpoint)
    instances = load_dataset(args.dataset)
    report = evaluate(trained, instances)
    # both files are written before either replaces its target
    with replacing(args.output) as table, replacing(args.output + ".json") as js:
        _write_table(table, report.to_table(), "config_digest", trained.model.cfg.digest())
        js.write(report.to_json() + "\n")
    macro = "NA" if report.macro_primary_r2 is None else f"{report.macro_primary_r2:.4f}"
    print(f"evaluated {len(report.heads)} heads; macro primary R2 = {macro}")
    return 0


def cmd_ablate(args) -> int:
    synth_cfg, train_cfg = load_configs(args.config, args.seed)
    from .harness import run_ablation

    report = run_ablation(train_cfg, synth_cfg)
    with replacing(args.output) as fh:
        _write_table(fh, report.to_table(), "config_digest", train_cfg.digest())
    print(f"ablation mean delta = {report.mean_delta:.4f} over {len(report.rows)} heads")
    return 0


def cmd_audit(args) -> int:
    from .audit import audit, read_records

    extracted = read_records(args.extracted)
    gold = read_records(args.gold)
    report = audit(extracted, gold)
    if args.output:
        with replacing(args.output) as fh:
            fh.writelines(["metric\tvalue\n", *(f"{k}\t{v:.6f}\n" for k, v in report.as_rows()), f"n\t{report.n}\n"])
    print(f"strict precision {report.strict_precision:.3f} ({report.n} records)")
    return 0


def cmd_uncertainty_report(args) -> int:
    from .datasets import load_dataset
    from .harness import run_uncertainty_report
    from .trainer import load_trained

    trained = load_trained(args.checkpoint)
    instances = load_dataset(args.dataset)
    report = run_uncertainty_report(trained, instances)
    with replacing(args.output) as fh:
        _write_table(fh, report.to_table(), "config_digest", trained.model.cfg.digest())
    sp = "NA" if report.spearman is None else f"{report.spearman:.4f}"
    print(f"uncertainty spearman = {sp}, calibration ratio = {report.calibration_ratio:.3f}")
    return 0


def cmd_score_responses(args) -> int:
    from .datasets import load_dataset
    from .metrics import score_prediction_file

    instances = load_dataset(args.dataset)
    report, retention = score_prediction_file(args.responses, instances)
    with replacing(args.output) as fh:
        _write_table(fh, report.to_table(), "retention", f"{retention:.6f}")
    macro = "NA" if report.macro_primary_r2 is None else f"{report.macro_primary_r2:.4f}"
    print(f"scored {len(report.heads)} heads; macro primary R2 = {macro}; retention = {retention:.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polyreg")
    parser.add_argument("--debug", action="store_true", help="re-raise an error with its traceback")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, doc, configured=False):
        """A subcommand; a ``configured`` one reads ``--config`` and ``--seed``."""
        p = sub.add_parser(name, help=doc)
        if configured:
            p.add_argument("--config", default=None)
            p.add_argument("--seed", type=int, default=None)
        p.set_defaults(fn=fn)
        return p

    p = add("gen-corpus", cmd_gen_corpus, "generate a synthetic corpus file", configured=True)
    p.add_argument("-o", "--output", required=True)

    p = add("extract", cmd_extract, "extract observations from a corpus file")
    p.add_argument("docs")
    p.add_argument("-o", "--output", required=True)

    p = add("build-dataset", cmd_build_dataset, "build masked prompt datasets")
    p.add_argument("observations")
    p.add_argument("--variant", choices=VARIANTS, default="sample_synthesis")
    p.add_argument("-o", "--output", required=True)

    p = add("train", cmd_train, "train a model on a prompt dataset", configured=True)
    p.add_argument("dataset")
    p.add_argument("-o", "--output", required=True)

    p = add("eval", cmd_eval, "evaluate a checkpoint on a dataset")
    p.add_argument("checkpoint")
    p.add_argument("dataset")
    p.add_argument("-o", "--output", required=True)

    p = add("ablate", cmd_ablate, "run the matched synthesis ablation", configured=True)
    p.add_argument("-o", "--output", required=True)

    p = add("audit", cmd_audit, "score extracted records against gold annotations")
    p.add_argument("extracted")
    p.add_argument("gold")
    p.add_argument("-o", "--output", default=None)

    p = add("uncertainty-report", cmd_uncertainty_report, "task-level uncertainty vs error")
    p.add_argument("checkpoint")
    p.add_argument("dataset")
    p.add_argument("-o", "--output", required=True)

    p = add("score-responses", cmd_score_responses, "score a model's text answers on a dataset")
    p.add_argument("responses")
    p.add_argument("dataset")
    p.add_argument("-o", "--output", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except Exception as exc:  # surface a diagnostic, nonzero exit
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
