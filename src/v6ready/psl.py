"""Public suffix list parsing: exact, wildcard (*) and exception (!) rules.

Rules from the private section are honored but tagged, so callers can
flag groupings that rest on privately-registered suffixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .names import DomainName

EXACT = "exact"
WILDCARD = "wildcard"
EXCEPTION = "exception"


def _psl_label(part: str) -> bytes:
    if part.isascii():
        return part.lower().encode()
    try:
        return part.lower().encode("idna")
    except UnicodeError:
        return part.lower().encode("utf-8")


@dataclass(frozen=True)
class PslRule:
    labels: tuple[bytes, ...]  # leftmost-first, "*" kept literally
    kind: str
    private: bool

    @property
    def depth(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class PslMatch:
    suffix: DomainName
    rule: PslRule

    @property
    def private(self) -> bool:
        return self.rule.private


class PublicSuffixList:
    def __init__(self, rules: list[PslRule]):
        self.rules = rules
        self._by_tail: dict[bytes, list[PslRule]] = {}
        for rule in rules:
            self._by_tail.setdefault(rule.labels[-1], []).append(rule)

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
            kind = EXACT
            if line.startswith("!"):
                kind = EXCEPTION
                line = line[1:]
            parts = tuple(_psl_label(p) for p in line.split(".") if p)
            if not parts:
                continue
            if parts[0] == b"*" and kind == EXACT:
                kind = WILDCARD
            rules.append(PslRule(parts, kind, private))
        return cls(rules)

    @classmethod
    def load(cls, path: str | Path) -> "PublicSuffixList":
        return cls.parse(Path(path).read_text(encoding="utf-8"))

    def _matches(self, name: DomainName) -> list[PslRule]:
        if not name.labels:
            return []
        out = []
        for rule in self._by_tail.get(name.labels[-1], ()):
            if rule.depth > len(name.labels):
                continue
            tail = name.labels[-rule.depth:]
            if all(r in (b"*", t) for r, t in zip(rule.labels, tail)):
                out.append(rule)
        return out

    def match(self, name: DomainName) -> PslMatch | None:
        """The prevailing rule for ``name``: exceptions first, else longest."""
        candidates = self._matches(name)
        if not candidates:
            return None
        exceptions = [r for r in candidates if r.kind == EXCEPTION]
        if exceptions:
            rule = max(exceptions, key=lambda r: r.depth)
            depth = rule.depth - 1
        else:
            rule = max(candidates, key=lambda r: r.depth)
            depth = rule.depth
        if depth > len(name.labels):
            return None
        return PslMatch(name.ancestor_at_depth(depth), rule)

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

