import dataclasses

import numpy as np
import pytest

from polyreg.audit import (
    AuditRecord,
    AuditReport,
    MismatchedIds,
    audit,
    load_bundled_fixture,
    read_records,
)


def _record(i, **overrides):
    base = dict(
        record_id=f"r{i:03d}",
        sample_id=f"s{i % 7}",
        head="Tg",
        value=float(100 + i),
        unit="°C",
    )
    base.update(overrides)
    return AuditRecord(**base)


def test_identical_records_score_one():
    gold = [_record(i) for i in range(30)]
    report = audit(list(gold), gold)
    for _, value in report.as_rows():
        assert value == 1.0
    assert report.n == 30


def test_bundled_fixture_component_precisions():
    extracted, gold = load_bundled_fixture()
    report = audit(extracted, gold)
    assert report.n == 120
    assert report.sample_assoc_precision == pytest.approx(120 / 120)
    assert report.property_precision == pytest.approx(109 / 120)
    assert report.value_precision == pytest.approx(113 / 120)
    assert report.unit_precision == pytest.approx(113 / 120)
    assert report.strict_precision == pytest.approx(101 / 120)


def test_unit_spelling_variants_count_as_match():
    gold = [_record(0, unit="°C")]
    extracted = [_record(0, unit="deg C")]
    assert audit(extracted, gold).unit_precision == 1.0


def test_mismatched_id_sets_raise():
    gold = [_record(0), _record(1)]
    extracted = [_record(0), _record(2)]
    with pytest.raises(MismatchedIds, match="^record 'r001' is in the gold records but not in the extracted$"):
        audit(extracted, gold)
    with pytest.raises(MismatchedIds, match="^record 'r002' is in the extracted records but not in the gold$"):
        audit(extracted, gold[:1])
    with pytest.raises(MismatchedIds):
        audit([], [])


def test_a_repeated_record_id_raises_naming_it_and_its_list():
    gold = [_record(i) for i in range(3)]
    # the repeat disagrees with the gold, so keeping only the last record
    # would score it right and leave the other out of n
    repeated = [_record(0), _record(1, head="Tm"), _record(1), _record(2), _record(2)]
    with pytest.raises(MismatchedIds, match="^record 'r001' repeats in the extracted records$"):
        audit(repeated, gold)
    with pytest.raises(MismatchedIds, match="^record 'r001' repeats in the gold records$"):
        audit(gold, repeated)
    same = _record(0)
    with pytest.raises(MismatchedIds, match="^record 'r000' repeats in the gold records$"):
        audit([same], [same, same])


def test_strict_precision_bounded_by_components():
    # random planted errors: strict can never exceed any component precision
    rng = np.random.default_rng(11)
    for trial in range(20):
        gold = [_record(i) for i in range(40)]
        extracted = []
        for r in gold:
            kwargs = {}
            if rng.random() < 0.2:
                kwargs["sample_id"] = r.sample_id + "x"
            if rng.random() < 0.2:
                kwargs["head"] = "Tm"
            if rng.random() < 0.2:
                kwargs["value"] = r.value + 1.0
            if rng.random() < 0.2:
                kwargs["unit"] = "MPa"
            extracted.append(
                AuditRecord(
                    r.record_id,
                    kwargs.get("sample_id", r.sample_id),
                    kwargs.get("head", r.head),
                    kwargs.get("value", r.value),
                    kwargs.get("unit", r.unit),
                )
            )
        report = audit(extracted, gold)
        for _, value in report.as_rows()[:4]:
            assert report.strict_precision <= value + 1e-12


def test_as_rows_names_every_report_field_but_n_in_order():
    names = [f.name for f in dataclasses.fields(AuditReport)]
    assert names[0] == "n"
    assert [name for name, _ in audit([_record(0)], [_record(0)]).as_rows()] == names[1:]


METRICS = ["sample_assoc_precision", "property_precision", "value_precision", "unit_precision", "strict_precision"]


def test_precisions_equal_a_per_record_reference_count():
    rng = np.random.default_rng(5)
    for trial in range(20):
        gold = [_record(i) for i in range(int(rng.integers(1, 60)))]
        extracted = [
            AuditRecord(
                r.record_id,
                r.sample_id + "x" if rng.random() < 0.3 else r.sample_id,
                "Tm" if rng.random() < 0.3 else r.head,
                r.value * 1.001 if rng.random() < 0.3 else r.value,
                rng.choice(["°C", "degC", "K", "MPa"]) if rng.random() < 0.5 else r.unit,
            )
            for r in gold
        ]
        rng.shuffle(extracted)  # audit pairs records by id, not by position
        by_id = {r.record_id: r for r in extracted}
        counts = np.zeros(5, dtype=int)
        for g in gold:
            e = by_id[g.record_id]
            ok = [
                e.sample_id == g.sample_id,
                e.head == g.head,
                abs(e.value - g.value) <= 1e-9 * abs(g.value),
                e.unit in ("°C", "degC"),  # every gold unit is °C
            ]
            counts += ok + [all(ok)]
        report = audit(extracted, gold)
        assert report.n == len(gold)
        assert report.as_rows() == list(zip(METRICS, counts / len(gold)))


def test_records_round_trip(tmp_path):
    records = [_record(i) for i in range(5)]
    path = tmp_path / "records.tsv"
    rows = [f"{r.record_id}\t{r.sample_id}\t{r.head}\t{r.value:.10g}\t{r.unit}\n" for r in records]
    path.write_text("record_id\tsample_id\thead\tvalue\tunit\n" + "".join(rows), encoding="utf-8")
    assert read_records(path) == records


def test_read_records_requires_header(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("r000\ts0\tTg\t100\t°C\n")
    with pytest.raises(ValueError):
        read_records(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("r1\ts1\tTg\tabc\t°C", "could not convert string to float: 'abc'"),
        ("r1\ts1\tTg", "expected 5 columns, got 3"),
        ("r1\ts1\tTg\t100\t°C\tx", "expected 5 columns, got 6"),
        ("\t\t\t", "expected 5 columns, got 4"),
        # a nan record can never match, not even itself
        ("r1\ts1\tTg\tnan\t°C", "value nan is not finite"),
        ("r1\ts1\tTg\t-Infinity\t°C", "value -inf is not finite"),
    ],
)
def test_read_records_names_the_line_of_a_bad_row(tmp_path, row, message):
    path = tmp_path / "bad.tsv"
    path.write_text(f"record_id\tsample_id\thead\tvalue\tunit\nr0\ts0\tTg\t100\t°C\n\n{row}\n")
    with pytest.raises(ValueError, match=message) as err:
        read_records(path)
    assert str(err.value).startswith(f"{path}:4: ")


def test_read_records_rejects_a_repeated_record_id(tmp_path):
    # keyed by id, a repeated row would silently shrink n and drop one of them
    path = tmp_path / "gold.tsv"
    rows = ["record_id\tsample_id\thead\tvalue\tunit", "r0\ts0\tTg\t100\t°C", "r1\ts1\tTg\t120\t°C", "r0\ts2\tTm\t150\t°C"]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="record_id 'r0' repeats line 2") as err:
        read_records(path)
    assert str(err.value).startswith(f"{path}:4: ")
