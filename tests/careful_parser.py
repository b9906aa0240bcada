"""Reference tuple parser: the careful parser ``v6ready.passive`` used for
every line its one-pass ``ingest`` could not file at once, kept as a test
oracle for the line rules.

``tuple_from_fields`` validates one tuple's fields and builds a
``v6ready.passive.PassiveTuple``; ``tsv_tuple`` and ``json_tuple`` read one
line of each form into those fields, and ``iter_tuples`` reads a tuple
file's lines, picking the form by its first non-blank line and counting
malformed lines.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator

from v6ready.names import DomainName, normalize
from v6ready.passive import IngestStats, MalformedTuple, PassiveTuple
from v6ready.records import RRType


def _parse_name(text, names: dict[str, DomainName]) -> DomainName:
    name = names.get(text)
    if name is None:
        name = names[text] = normalize(text)
    return name


def tuple_from_fields(count, time_first, time_last, rrname, rrtype, bailiwick,
                      rdata, names: dict[str, DomainName] | None = None) -> PassiveTuple:
    """One validated tuple; ``names`` maps raw name text to names already
    parsed. The three numbers must be ``int`` (so a JSON integer, never a
    bool, float or string), ``count >= 1``, ``time_first <= time_last``,
    and the rdata non-empty and all text."""
    names = {} if names is None else names
    try:
        if not (type(count) is type(time_first) is type(time_last) is int):
            raise TypeError("count, time_first and time_last must be integers")
        if not all(isinstance(v, str) for v in rdata):
            raise TypeError("rdata values must be strings")
        if count < 1:
            raise MalformedTuple("count must be >= 1")
        if time_first > time_last:
            raise MalformedTuple("time_first after time_last")
        if not rdata:
            raise MalformedTuple("empty rdata")
        return PassiveTuple(
            count=count,
            time_first=time_first,
            time_last=time_last,
            rrname=_parse_name(rrname, names),
            rrtype=rrtype if isinstance(rrtype, RRType) else RRType.from_text(str(rrtype)),
            bailiwick=_parse_name(bailiwick, names),
            rdata=tuple(rdata),
        )
    except (ValueError, TypeError, OverflowError) as exc:
        raise MalformedTuple(str(exc)) from exc


def _tsv_int(text: str) -> int:
    """``text`` as a number if it is ASCII digits only that ``int``
    converts; ``int`` alone also takes "+1", "1_0", " 2 " and other
    scripts' digits."""
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise MalformedTuple(f"not a number: {text!r}")


def tsv_tuple(line: str, names: dict[str, DomainName]) -> PassiveTuple:
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 7:
        raise MalformedTuple(f"expected 7 tab-separated fields, got {len(parts)}")
    rdata = [v for v in parts[6].split(",") if v]
    return tuple_from_fields(_tsv_int(parts[0]), _tsv_int(parts[1]), _tsv_int(parts[2]),
                             parts[3], parts[4], parts[5], rdata, names)


def json_tuple(line: str, names: dict[str, DomainName]) -> PassiveTuple:
    try:
        obj = json.loads(line)
    except ValueError as exc:  # a JSONDecodeError, or more digits than int() converts
        raise MalformedTuple(str(exc)) from exc
    if not isinstance(obj, dict):
        raise MalformedTuple("JSON record must be an object")
    try:
        rdata = obj["rdata"]
        if not isinstance(rdata, list):
            # a string would otherwise be read one character per value
            raise MalformedTuple("rdata must be a JSON list")
        return tuple_from_fields(
            obj["count"], obj["time_first"], obj["time_last"], obj["rrname"],
            obj["rrtype"], obj["bailiwick"], rdata, names,
        )
    except KeyError as exc:
        raise MalformedTuple(f"missing field {exc}") from exc


def iter_tuples(lines: Iterable[str], stats: IngestStats | None = None) -> Iterator[PassiveTuple]:
    """The tuples of one file's lines, JSON or TSV by its first non-blank
    line; blank lines are skipped, malformed ones counted and skipped."""
    stats = stats if stats is not None else IngestStats()
    parser = None
    names: dict[str, DomainName] = {}
    for line in lines:
        if not line.strip():
            continue
        if parser is None:
            parser = json_tuple if line.lstrip().startswith("{") else tsv_tuple
        try:
            t = parser(line, names)
        except MalformedTuple:
            stats.malformed += 1
            continue
        stats.tuples += 1
        yield t
