"""Reference table of named knots and links.

The packaged JSON file carries, for each entry, a PD code together with
the published Conway polynomial and component count.  Loading the table
recomputes every polynomial with the skein engine and, by default, refuses
to hand out entries that fail that cross-validation, so a transcription
error in the data file cannot silently poison downstream checks.

The table location can be overridden with the KNOT_TABLE environment
variable or an explicit path argument, which is how the verification
harness exercises its fault-injection path.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import NamedTuple

from .diagram import Diagram, components, parse_pd
from .poly import IntPoly, format_poly, parse_poly
from .skein import SkeinContext, conway


class TableError(ValueError):
    """The table file is missing, malformed, or structurally invalid."""


class TableValidationError(TableError):
    """An entry's stored polynomial or component count disagrees with the
    value recomputed by the skein engine."""


class KnotTableEntry(NamedTuple):
    name: str
    pd: str
    conway: IntPoly
    components: int

    def diagram(self) -> Diagram:
        return parse_pd(self.pd)


_REQUIRED_KEYS = ("name", "pd", "conway", "components")


def default_table_path() -> Path:
    env = os.environ.get("KNOT_TABLE")
    if env:
        return Path(env)
    return Path(__file__).with_name("data") / "knot_table.json"


def _parse_entries(raw: object, source: str) -> dict[str, KnotTableEntry]:
    if not isinstance(raw, list):
        raise TableError(f"{source}: expected a JSON array of entries")
    entries: dict[str, KnotTableEntry] = {}
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise TableError(f"{source}: entry {i} is not an object")
        for key in _REQUIRED_KEYS:
            if key not in item:
                raise TableError(f"{source}: entry {i} lacks key {key!r}")
        name = item["name"]
        if not isinstance(name, str) or not name:
            raise TableError(f"{source}: entry {i} has an invalid name")
        if name in entries:
            raise TableError(f"{source}: duplicate entry name {name!r}")
        # a bool is an int to isinstance, and a JSON true is not a count
        if item["components"].__class__ is not int:
            raise TableError(f"{source}: entry {name!r} components must be int")
        for key in ("pd", "conway"):
            if not isinstance(item[key], str):
                raise TableError(f"{source}: entry {name!r} {key} must be a string")
        try:
            poly = parse_poly(item["conway"])
        except ValueError as exc:
            raise TableError(
                f"{source}: entry {name!r} conway string: {exc}"
            ) from exc
        entries[name] = KnotTableEntry(
            name=name, pd=item["pd"], conway=poly, components=item["components"]
        )
    return entries


def check_entry(
    entry: KnotTableEntry, ctx: SkeinContext | None = None
) -> tuple[bool, str]:
    """Recompute an entry with the skein engine.

    Returns (matches, description of the recomputed values)."""
    try:
        d = entry.diagram()
    except ValueError as exc:
        return False, f"pd error: {exc}"
    ncomp = len(components(d))
    value = conway(d, ctx)
    ok = value == entry.conway and ncomp == entry.components
    return ok, f"{format_poly(value)} with {ncomp} component(s)"


def load_table(
    path: str | os.PathLike | None = None, validate: bool = True
) -> dict[str, KnotTableEntry]:
    """Load the table, keyed by entry name.

    With validate=True (the default) every entry is recomputed by the
    skein engine and any disagreement raises TableValidationError.  Pass
    validate=False to obtain the raw entries, e.g. to report mismatches
    one by one instead of failing fast.
    """
    where = Path(path) if path is not None else default_table_path()
    try:
        text = where.read_text()
    except OSError as exc:
        raise TableError(f"cannot read table {where}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TableError(f"{where}: invalid JSON: {exc}") from exc
    entries = _parse_entries(raw, str(where))
    if validate:
        ctx = SkeinContext()
        bad = []
        for entry in entries.values():
            ok, got = check_entry(entry, ctx)
            if not ok:
                bad.append(
                    f"{entry.name}: stored {format_poly(entry.conway)} with "
                    f"{entry.components} component(s), recomputed {got}"
                )
        if bad:
            raise TableValidationError(
                f"{where}: {len(bad)} entries failed engine validation: "
                + "; ".join(bad)
            )
    return entries
