"""Domain grouping, NS-set operator aggregation and centralization CDFs.

Zones are grouped into TLD / second-level / below-second-level buckets
(PSL-driven) plus popularity tiers when a toplist is supplied. NS sets are
aggregated to the PSL-registered domains of their member names, with
configurable pattern rules to collapse known multi-zone operators, and a
CDF of zones per NS set summarizes centralization among zones that do not
resolve over IPv6.
"""

from __future__ import annotations

import csv
import itertools
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Mapping

from . import INPUT_ENCODING
from .classify import ResolutionStatus, failure_breakdown
from .names import _PLAIN, MAX_LABEL, MAX_WIRE, DnsNameError, DomainName, normalize
from .psl import PublicSuffixList, registered_or_self
from .records import ascii_int

GROUP_TLD = "tld"
GROUP_SECOND_LEVEL = "second-level"
GROUP_BELOW_SECOND_LEVEL = "below-second-level"

RANK_TIERS = (
    ("top1k", 1_000),
    ("1k-10k", 10_000),
    ("10k-100k", 100_000),
    ("100k-1m", 1_000_000),
)

STATES = ("dual", "v4-only", "v6-only", "none")


@dataclass(frozen=True)
class DomainGroup:
    kind: str  # hierarchy bucket or "rank-tier"
    tier: str | None = None
    unknown_suffix: bool = False

    @property
    def label(self) -> str:
        return self.tier if self.kind == "rank-tier" else self.kind


# The characters of a toplist row or TLD-list line that takes the fast path:
# the label bytes that present as themselves, without the CSV quote, plus
# the dot. A name of these characters has no escape, space or non-ASCII
# character, so its canonical text is its lowercased text without the one
# trailing dot.
_PLAIN_ROW = _PLAIN.replace(b'"', b"") + b"."


def _plain(text: str, also: bytes = b"") -> bool:
    """True iff ``text`` holds only ``_PLAIN_ROW`` characters and ``also``."""
    return text.isascii() and not text.encode().translate(None, _PLAIN_ROW + also)


def _plain_key(name: str) -> str | None:
    """``str(normalize(name))`` of a ``_plain`` name, None where
    ``normalize`` raises; the checks are those of its fast path."""
    if name in (".", ""):
        return "."
    if name[-1] == ".":
        name = name[:-1]
    if name[0] == "." or name[-1] == "." or ".." in name or len(name) > MAX_LABEL and (
            len(name) + 2 > MAX_WIRE or max(map(len, name.split("."))) > MAX_LABEL):
        return None
    return name.lower()


def _name_key(name: str) -> str | None:
    """The canonical text of a name, ``str(normalize(name))``, or None
    when the name does not parse."""
    if _plain(name):
        return _plain_key(name)
    try:
        return str(normalize(name))
    except DnsNameError:
        return None


def parse_tld_list(text: str, rejected: list[str] | None = None) -> frozenset[str]:
    """The canonical text of each TLD: one per line, '#' comments,
    case-insensitive. A line whose name does not parse is skipped and
    appended to ``rejected``."""
    out = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key = _name_key(line)
            if key is not None:
                out.add(key)
            elif rejected is not None:
                rejected.append(raw)
    return frozenset(out)


def load_tld_list(path: str | Path, rejected: list[str] | None = None) -> frozenset[str]:
    return parse_tld_list(Path(path).read_text(encoding=INPUT_ENCODING), rejected)


# more than MAX_LABEL label characters in a row, in names joined by commas
_LONG_LABEL = re.compile(f"[^.,]{{{MAX_LABEL + 1}}}")


def _toplist_columns(text: str) -> dict[str, int] | None:
    """``parse_toplist`` of a ``_plain`` text whose every line is one
    ``rank,name`` row that no rule of the per-row loop skips or rejects,
    read column by column; None for any other text, which the per-row loop
    then reads from the start.

    In a ``_plain`` text ``str.splitlines`` breaks only at ``\\n``, ``\\r``
    and ``\\r\\n``, so its lines are the csv rows, and no field has spaces
    to strip. Each column is checked as a whole: every rank is ASCII digits
    that ``int`` converts (``ascii_int``), and every name is non-empty, has
    no leading dot and no ``..``, and, where the longest is past
    ``MAX_LABEL`` characters, has no label past ``MAX_LABEL`` and fits the
    wire (``_plain_key``); its key is its lowercased text without the one
    trailing dot. A text with one row that fails a check (a header, a blank
    line, a row of one or three fields, a name the loop maps to "." or
    rejects) is read by the loop alone."""
    lines = text.splitlines()
    # as many commas as lines and none of them holds two; no name starts
    # with a dot or holds ".."
    if (not lines or text.count(",") != len(lines) or ",." in text or ".." in text
            or max(map(str.count, lines, itertools.repeat(","))) != 1):
        return None
    # each of these is about as large as the text: it is dropped as soon as
    # the next is made, so that no two are held at once
    fields = ",".join(lines)
    del lines
    fields = fields.split(",")
    ranks, names = fields[0::2], fields[1::2]
    del fields
    if not all(map(str.isdigit, ranks)) or "" in names:
        return None
    try:
        values = list(map(int, ranks))
    except ValueError:  # more digits than int() converts
        return None
    del ranks
    joined = ",".join(names).lower().replace(".,", ",")
    del names
    keys = (joined[:-1] if joined[-1] == "." else joined).split(",")
    del joined
    longest = max(map(len, keys))
    if longest > MAX_LABEL:
        # only a name past MAX_LABEL characters can hold too long a label
        long_names = ",".join(itertools.compress(keys, map(MAX_LABEL.__lt__, map(len, keys))))
        if longest + 2 > MAX_WIRE or _LONG_LABEL.search(long_names):
            return None
    out = dict(zip(keys, values))
    if len(out) < len(keys):  # a name listed twice keeps its best rank
        for key, rank in zip(keys, values):
            if rank < out[key]:
                out[key] = rank
    return out


def parse_toplist(text: str, rejected: list[str] | None = None) -> dict[str, int]:
    """rank,domain CSV (headerless), keyed by the canonical text of the
    name; the rank is ASCII digits, and later duplicates keep the best rank.
    A row whose name does not parse is skipped and appended to ``rejected``.

    A ``_plain`` text of ``rank,name`` rows alone is read column by column
    (``_toplist_columns``). Otherwise a ``_plain`` row is split on commas;
    any other row, and the lines a quoted field of it runs on into, goes
    through ``csv.reader``.
    """
    every_line_plain = _plain(text, b"\r\n")
    out = _toplist_columns(text) if every_line_plain else None
    if out is not None:
        return out
    out = {}
    lines = iter(text.splitlines())
    for line in lines:
        plain = every_line_plain or _plain(line)
        row = line.split(",") if plain else next(csv.reader(itertools.chain((line,), lines)))
        if len(row) < 2:
            continue
        rank = ascii_int(row[0].strip())
        if rank is None:
            continue
        name = row[1].strip()
        key = _plain_key(name) if plain else _name_key(name)
        if key is None:
            if rejected is not None:
                rejected.append(",".join(row))
            continue
        if key not in out or rank < out[key]:
            out[key] = rank
    return out


def load_toplist(path: str | Path, rejected: list[str] | None = None) -> dict[str, int]:
    return parse_toplist(Path(path).read_text(encoding=INPUT_ENCODING), rejected)


def rank_tier(rank: int) -> str | None:
    for tier, bound in RANK_TIERS:
        if rank <= bound:
            return tier
    return None


def group_domain(
    name: DomainName,
    psl: PublicSuffixList,
    tlds: frozenset[str],
    toplist: Mapping[str, int] | None = None,
) -> frozenset[DomainGroup]:
    """Exactly one hierarchy group plus an optional rank tier. ``tlds`` and
    ``toplist`` hold names by their canonical text, ``str(name)``."""
    if name.is_root:
        raise ValueError("the root has no grouping")
    groups: set[DomainGroup] = set()
    suffix = psl.match(name)
    if len(name.labels) == 1:
        groups.add(DomainGroup(GROUP_TLD, unknown_suffix=str(name) not in tlds))
    elif suffix is None:
        # No PSL rule: group under the rightmost label, flagged.
        if len(name.labels) == 2:
            groups.add(DomainGroup(GROUP_SECOND_LEVEL, unknown_suffix=True))
        else:
            groups.add(DomainGroup(GROUP_BELOW_SECOND_LEVEL, unknown_suffix=True))
    else:
        suffix_depth = len(suffix.labels)
        if len(name.labels) == suffix_depth:
            # A multi-label public suffix is registry infrastructure,
            # grouped with the TLDs.
            groups.add(DomainGroup(GROUP_TLD))
        elif len(name.labels) == suffix_depth + 1:
            groups.add(DomainGroup(GROUP_SECOND_LEVEL))
        else:
            groups.add(DomainGroup(GROUP_BELOW_SECOND_LEVEL))
    if toplist:
        rank = toplist.get(str(name))
        if rank is None:
            rank = toplist.get(str(registered_or_self(name, suffix)))
        if rank is not None:
            tier = rank_tier(rank)
            if tier:
                groups.add(DomainGroup("rank-tier", tier=tier))
    return frozenset(groups)


# -- NS set aggregation -----------------------------------------------------


@dataclass(frozen=True)
class OperatorRule:
    pattern: re.Pattern
    label: str


def parse_operator_rules(text: str) -> tuple[OperatorRule, ...]:
    """Lines of ``REGEX<whitespace>LABEL``; '#' comments. Default is empty:
    operator knowledge is site-specific and ships as configuration. A line
    without a label, or a pattern that does not compile (a repeat count
    past the engine's limit and groups nested too deep included), raises a
    ValueError."""
    rules = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ValueError(f"bad operator rule line: {raw!r}")
        try:
            pattern = re.compile(parts[0])
        except (re.error, OverflowError, RecursionError) as exc:
            raise ValueError(f"bad operator rule pattern {parts[0]!r}: {exc}") from exc
        rules.append(OperatorRule(pattern, parts[1].strip()))
    return tuple(rules)


def load_operator_rules(path: str | Path) -> tuple[OperatorRule, ...]:
    return parse_operator_rules(Path(path).read_text(encoding=INPUT_ENCODING))


def ns_set_key(
    ns_names: Iterable[DomainName],
    psl: PublicSuffixList,
    rules: tuple[OperatorRule, ...] = (),
) -> frozenset[str]:
    """Order-insensitive operator identifier for one zone's NS set."""
    out = set()
    for ns in ns_names:
        text = str(ns)
        label = None
        for rule in rules:
            if rule.pattern.search(text):
                label = rule.label
                break
        if label is None:
            label = str(registered_or_self(ns, psl.match(ns)))
        out.add(label)
    return frozenset(out)


@dataclass
class CdfResult:
    """Zones-per-NS-set concentration among non-IPv6-resolvable zones."""

    points: list[tuple[float, float]] = field(default_factory=list)
    set_count: int = 0
    zone_count: int = 0
    top10_share: float = 0.0
    top10pct_share: float = 0.0


def nsset_cdf(
    entries: Iterable[tuple[Iterable[DomainName], bool]],
    psl: PublicSuffixList,
    rules: tuple[OperatorRule, ...] = (),
) -> CdfResult:
    """CDF over the number of zones per NS set.

    ``entries`` are (NS names, v6_resolvable) pairs; only zones that do not
    resolve over IPv6 enter the distribution. Points run over NS sets
    sorted by descending zone count: (fraction of sets, cumulative fraction
    of zones).
    """
    counts: dict[frozenset[str], int] = {}
    for ns_names, v6_ok in entries:
        if v6_ok:
            continue
        key = ns_set_key(ns_names, psl, rules)
        counts[key] = counts.get(key, 0) + 1
    result = CdfResult()
    if not counts:
        return result
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], sorted(kv[0])))
    result.set_count = len(ordered)
    result.zone_count = sum(counts.values())
    cum = 0
    for i, (_key, n) in enumerate(ordered):
        cum += n
        result.points.append(((i + 1) / result.set_count, cum / result.zone_count))
    result.top10_share = sum(n for _, n in ordered[:10]) / result.zone_count
    top10pct = max(1, round(result.set_count * 0.10))
    result.top10pct_share = sum(n for _, n in ordered[:top10pct]) / result.zone_count
    return result


# -- CSV outputs ---------------------------------------------------------------


def state_share_rows(
    statuses: Mapping[DomainName, ResolutionStatus],
    psl: PublicSuffixList | None = None,
    tlds: frozenset[str] | None = None,
    toplist: Mapping[str, int] | None = None,
) -> list[dict]:
    """Per-group resolvability state shares; the 'all' row is always present."""
    buckets: dict[str, dict[str, int]] = {}

    def bump(label: str, state: str):
        b = buckets.setdefault(label, {s: 0 for s in STATES})
        b[state] += 1

    for zone, status in statuses.items():
        bump("all", status.state)
        if psl is not None and tlds is not None and not zone.is_root:
            for group in group_domain(zone, psl, tlds, toplist):
                bump(group.label, status.state)
    rows = []
    for label in sorted(buckets, key=lambda x: (x != "all", x)):
        counts = buckets[label]
        total = sum(counts.values())
        row = {"group": label, "total": total}
        for s in STATES:
            row[s] = counts[s]
            row[f"{s}_pct"] = round(100.0 * counts[s] / total, 4) if total else 0.0
        rows.append(row)
    return rows


def cause_share_rows(statuses: Mapping[DomainName, ResolutionStatus]) -> list[dict]:
    """Cause shares over zones with IPv6 intent that do not resolve via IPv6."""
    breakdown = failure_breakdown(statuses.values())
    return [
        {
            "cause": cause,
            "zones": breakdown.counts[cause],
            "population": breakdown.population,
            "pct": round(breakdown.percentage(cause), 4),
        }
        for cause in sorted(breakdown.counts)
    ]


def write_csv(out: IO[str], rows: list[dict]) -> None:
    if not rows:
        out.write("")
        return
    writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)


def cdf_rows(result: CdfResult) -> list[dict]:
    rows = [
        {
            "set_fraction": round(x, 6),
            "zone_fraction": round(y, 6),
        }
        for x, y in result.points
    ]
    return rows
