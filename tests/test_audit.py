import numpy as np
import pytest

from polyreg.audit import (
    AuditRecord,
    MismatchedIds,
    audit,
    load_bundled_fixture,
    read_records,
    write_records,
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
    with pytest.raises(MismatchedIds):
        audit(extracted, gold)
    with pytest.raises(MismatchedIds):
        audit([], [])


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


def test_records_round_trip(tmp_path):
    records = [_record(i) for i in range(5)]
    path = tmp_path / "records.tsv"
    write_records(records, path)
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
    ],
)
def test_read_records_names_the_line_of_a_bad_row(tmp_path, row, message):
    path = tmp_path / "bad.tsv"
    path.write_text(f"record_id\tsample_id\thead\tvalue\tunit\nr0\ts0\tTg\t100\t°C\n\n{row}\n")
    with pytest.raises(ValueError, match=message) as err:
        read_records(path)
    assert str(err.value).startswith(f"{path}:4: ")
