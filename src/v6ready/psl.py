"""Public suffix list parsing: exact, wildcard (*) and exception (!) rules.

Rules from the private section are honored but tagged, so callers can
flag groupings that rest on privately-registered suffixes.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from . import INPUT_ENCODING
from .names import DomainName


def _psl_label(part: str) -> bytes:
    if part.isascii():
        return part.lower().encode()
    try:
        return part.lower().encode("idna")
    except UnicodeError:
        return part.lower().encode("utf-8")


class PslMatch(NamedTuple):
    suffix: DomainName
    private: bool


# A rule is (labels, exception, private): labels leftmost-first with "*"
# kept literally, a "*" label matching any one label except the last.
Rule = tuple[tuple[bytes, ...], bool, bool]


class PublicSuffixList:
    def __init__(self, rules: list[Rule]):
        # labels -> place in the file of the first such rule, exceptions and
        # the others apart: a later duplicate never decides a match
        self._rules: dict[tuple[bytes, ...], int] = {}
        self._exceptions: dict[tuple[bytes, ...], int] = {}
        for place, (labels, exception, _private) in enumerate(rules):
            (self._exceptions if exception else self._rules).setdefault(labels, place)
        self._private = [private for _labels, _exception, private in rules]
        # rule length -> the places of the "*" labels, before the last, of
        # each rule that long
        self._stars: dict[int, set[tuple[int, ...]]] = {}
        for labels, _exception, _private in rules:
            if b"*" in labels:
                stars = tuple(i for i, label in enumerate(labels[:-1]) if label == b"*")
                self._stars.setdefault(len(labels), set()).add(stars)
        for length in {len(labels) for labels in (*self._rules, *self._exceptions)}:
            self._stars.setdefault(length, set()).add(())

    @classmethod
    def parse(cls, text: str) -> "PublicSuffixList":
        rules = []
        private = False
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            if line.startswith("//"):
                if "===BEGIN PRIVATE DOMAINS===" in line:
                    private = True
                elif "===END PRIVATE DOMAINS===" in line:
                    private = False
                continue
            line = line.split()[0]
            exception = line.startswith("!")
            if exception:
                line = line[1:]
            if line.isascii():
                parts = line.lower().encode().split(b".")
            else:
                parts = [_psl_label(p) for p in line.split(".")]
            if b"" in parts:
                parts = [p for p in parts if p]
                if not parts:
                    continue
            rules.append((tuple(parts), exception, private))
        return cls(rules)

    @classmethod
    def load(cls, path: str | Path) -> "PublicSuffixList":
        return cls.parse(Path(path).read_text(encoding=INPUT_ENCODING))

    def match(self, name: DomainName) -> PslMatch | None:
        """The prevailing rule for ``name``: the longest exception, else the
        longest rule; of rules as long, the first in the file."""
        labels = name.labels
        found = []  # (exception, length, -place) of each matching rule
        for depth, shapes in self._stars.items():
            if depth > len(labels):
                continue
            suffix = labels[-depth:]
            for stars in shapes:
                key = (tuple(b"*" if i in stars else label for i, label in enumerate(suffix))
                       if stars else suffix)
                place = self._rules.get(key)
                if place is not None:
                    found.append((False, depth, -place))
                place = self._exceptions.get(key)
                if place is not None:
                    found.append((True, depth, -place))
        if not found:
            return None
        exception, depth, place = max(found)
        return PslMatch(name.ancestor_at_depth(depth - 1 if exception else depth),
                        self._private[-place])


def registered(name: DomainName, match: PslMatch | None) -> DomainName | None:
    """The registered domain of ``name`` under ``match``, its prevailing PSL
    rule (``PublicSuffixList.match``): the suffix plus one label; None when
    the name is a suffix itself or matches no rule."""
    if match is None or len(name.labels) <= len(match.suffix.labels):
        return None
    return name.ancestor_at_depth(len(match.suffix.labels) + 1)


def registered_or_self(name: DomainName, match: PslMatch | None) -> DomainName:
    """``registered(name, match)``; else the last two labels of ``name``;
    else the name itself."""
    domain = registered(name, match)
    if domain is not None:
        return domain
    if len(name.labels) >= 2:
        return name.ancestor_at_depth(2)
    return name
