import json

import pytest

from conwaykit.diagram import components, mirror
from conwaykit.poly import parse_poly
from conwaykit.skein import SkeinContext, a2, conway
from conwaykit.table import (
    TableError,
    TableValidationError,
    check_entry,
    default_table_path,
    load_table,
)

EXPECTED_NAMES = {"0_1", "3_1", "5_2", "8_19", "10_148", "L6a1{1}"}


def test_default_table_loads_and_validates():
    # validate=True recomputes every entry with the engine, so a pass here
    # certifies the stored PD codes and polynomials agree
    table = load_table(validate=True)
    assert set(table) == EXPECTED_NAMES


def test_spot_values():
    table = load_table(validate=False)
    assert table["3_1"].conway == parse_poly("1+z^2")
    assert table["0_1"].conway == parse_poly("1")
    assert table["L6a1{1}"].components == 2
    assert len(components(table["L6a1{1}"].diagram())) == 2
    assert a2(table["5_2"].diagram()) == 2


def test_mirror_of_ten_crossing_entry():
    # knot Conway polynomials are even, hence mirror-invariant
    table = load_table(validate=False)
    d = table["10_148"].diagram()
    assert conway(mirror(d)) == parse_poly("1+4z^2+3z^4+z^6")
    assert conway(mirror(d)) == conway(d)


def test_check_entry_reports_mismatch():
    table = load_table(validate=False)
    good = table["3_1"]
    got = check_entry(good)
    assert got == "1+z^2 with 1 component(s)"
    bad = type(good)(
        name=good.name, pd=good.pd, conway=parse_poly("1+3z^2"), components=1
    )
    got = check_entry(bad)
    assert got == "1+z^2 with 1 component(s)"
    assert got != "1+3z^2 with 1 component(s)"


def _write_corrupted(tmp_path, mutate):
    raw = json.loads(default_table_path().read_text())
    mutate(raw)
    p = tmp_path / "table.json"
    p.write_text(json.dumps(raw))
    return p


def test_env_override(tmp_path, monkeypatch):
    p = _write_corrupted(tmp_path, lambda raw: None)
    monkeypatch.setenv("KNOT_TABLE", str(p))
    assert default_table_path() == p
    table = load_table(validate=True)
    assert set(table) == EXPECTED_NAMES
    monkeypatch.delenv("KNOT_TABLE")
    assert default_table_path() != p


def test_corrupted_polynomial_rejected(tmp_path, monkeypatch):
    def mutate(raw):
        entry = next(e for e in raw if e["name"] == "5_2")
        entry["conway"] = "1+9z^2"

    p = _write_corrupted(tmp_path, mutate)
    monkeypatch.setenv("KNOT_TABLE", str(p))
    with pytest.raises(TableValidationError, match="5_2"):
        load_table(validate=True)
    # the raw entries remain accessible for per-entry reporting
    entries = load_table(validate=False)
    assert entries["5_2"].conway == parse_poly("1+9z^2")
    got = check_entry(entries["5_2"], SkeinContext())
    assert got == "1+2z^2 with 1 component(s)"
    assert got != "1+9z^2 with 1 component(s)"


def test_corrupted_component_count_rejected(tmp_path, monkeypatch):
    def mutate(raw):
        next(e for e in raw if e["name"] == "L6a1{1}")["components"] = 1

    p = _write_corrupted(tmp_path, mutate)
    monkeypatch.setenv("KNOT_TABLE", str(p))
    with pytest.raises(TableValidationError):
        load_table(validate=True)


def test_structural_errors(tmp_path, monkeypatch):
    cases = {
        "not json": "][",
        "not array": "{}",
        "bad item": "[1]",
        "missing key": '[{"name": "x", "pd": "O", "components": 1}]',
        "bad components": '[{"name": "x", "pd": "O", "conway": "1", "components": "1"}]',
        "bad poly": '[{"name": "x", "pd": "O", "conway": "1+q", "components": 1}]',
        "duplicate": (
            '[{"name": "x", "pd": "O", "conway": "1", "components": 1},'
            ' {"name": "x", "pd": "O", "conway": "1", "components": 1}]'
        ),
        "empty name": '[{"name": "", "pd": "O", "conway": "1", "components": 1}]',
        "not utf-8": b'[{"name": "\xe9"}]',
        "nested 100000 deep": b"[" * 100_000,
        "int of 5000 digits": "[%s]" % ("1" * 5000),
        "conway of 5000 digits": (
            '[{"name": "x", "pd": "O", "conway": "%s", "components": 1}]' % ("9" * 5000)
        ),
        "exponent too large": (
            '[{"name": "x", "pd": "O", "conway": "z^1000000000", "components": 1}]'
        ),
    }
    for label, text in cases.items():
        p = tmp_path / f"{abs(hash(label))}.json"
        p.write_bytes(text if isinstance(text, bytes) else text.encode())
        monkeypatch.setenv("KNOT_TABLE", str(p))
        with pytest.raises(TableError):
            load_table()


def test_missing_file(monkeypatch):
    monkeypatch.setenv("KNOT_TABLE", "/nonexistent/table.json")
    with pytest.raises(TableError, match="cannot read"):
        load_table()


def test_bad_pd_reported_not_raised():
    entry = load_table(validate=False)["3_1"]
    broken = type(entry)(name="x", pd="X(1,2,3)", conway=entry.conway, components=1)
    got = check_entry(broken)
    assert got.startswith("pd error: ")


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("pd", 5, "pd must be a string"),
        ("pd", None, "pd must be a string"),
        ("conway", 1, "conway must be a string"),
        ("components", True, "components must be int"),
        ("components", 1.0, "components must be int"),
    ],
)
def test_entry_fields_of_wrong_type_are_table_errors(
    tmp_path, monkeypatch, key, value, message
):
    def mutate(raw):
        next(e for e in raw if e["name"] == "3_1")[key] = value

    p = _write_corrupted(tmp_path, mutate)
    monkeypatch.setenv("KNOT_TABLE", str(p))
    for validate in (True, False):
        with pytest.raises(TableError, match=message):
            load_table(validate=validate)
