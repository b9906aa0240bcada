"""Public suffix list parsing: exact, wildcard (*) and exception (!) rules.

Rules from the private section are honored but tagged, so callers can
flag groupings that rest on privately-registered suffixes.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

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
        # keyed by the last label; each list keeps the rules' file order
        self._by_tail: dict[bytes, list[Rule]] = {}
        for rule in rules:
            self._by_tail.setdefault(rule[0][-1], []).append(rule)

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
        return cls.parse(Path(path).read_text(encoding="utf-8"))

    def match(self, name: DomainName) -> PslMatch | None:
        """The prevailing rule for ``name``: the longest exception, else the
        longest rule; of rules as long, the first in the file."""
        labels = name.labels
        if not labels:
            return None
        candidates = [
            (exception, len(rule), private)
            for rule, exception, private in self._by_tail.get(labels[-1], ())
            if len(rule) <= len(labels)
            and all(r == b"*" or r == t for r, t in zip(rule, labels[-len(rule):]))
        ]
        if not candidates:
            return None
        exception, depth, private = max(candidates, key=lambda c: c[:2])
        return PslMatch(name.ancestor_at_depth(depth - 1 if exception else depth), private)

    def public_suffix(self, name: DomainName) -> DomainName | None:
        m = self.match(name)
        return m.suffix if m else None

    def registered_domain(self, name: DomainName) -> DomainName | None:
        """The suffix plus one label; None when the name is a suffix itself
        or matches no rule."""
        m = self.match(name)
        if m is None:
            return None
        depth = len(m.suffix.labels)
        if len(name.labels) <= depth:
            return None
        return name.ancestor_at_depth(depth + 1)


def registered_or_self(psl: PublicSuffixList, name: DomainName) -> DomainName:
    reg = psl.registered_domain(name)
    if reg is not None:
        return reg
    if len(name.labels) >= 2:
        return name.ancestor_at_depth(2)
    return name
