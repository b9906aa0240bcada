"""Public suffix list parsing: exact, wildcard (*) and exception (!) rules.

Rules from the private section are honored like any other.
"""

from __future__ import annotations

from pathlib import Path

from . import INPUT_ENCODING
from .names import DomainName


def _psl_label(part: str) -> bytes:
    if part.isascii():
        return part.lower().encode()
    try:
        return part.lower().encode("idna")
    except UnicodeError:
        return part.lower().encode("utf-8")


# A rule is (labels, exception): labels leftmost-first with "*" kept
# literally, a "*" label matching any one label except the last.
Rule = tuple[tuple[bytes, ...], bool]


class PublicSuffixList:
    def __init__(self, rules: list[Rule]):
        # only a rule's labels and whether it is an exception decide a match
        self._rules = {labels for labels, exception in rules if not exception}
        self._exceptions = {labels for labels, exception in rules if exception}
        # rule length -> the places of the "*" labels, before the last, of
        # each rule that long
        self._stars: dict[int, set[tuple[int, ...]]] = {}
        for labels, _exception in rules:
            if b"*" in labels:
                stars = tuple(i for i, label in enumerate(labels[:-1]) if label == b"*")
                self._stars.setdefault(len(labels), set()).add(stars)
        for length in {len(labels) for labels in (*self._rules, *self._exceptions)}:
            self._stars.setdefault(length, set()).add(())

    @classmethod
    def parse(cls, text: str) -> "PublicSuffixList":
        rules = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("//"):
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
            rules.append((tuple(parts), exception))
        return cls(rules)

    @classmethod
    def load(cls, path: str | Path) -> "PublicSuffixList":
        return cls.parse(Path(path).read_text(encoding=INPUT_ENCODING))

    def match(self, name: DomainName) -> DomainName | None:
        """The public suffix of ``name`` under its prevailing rule: the
        longest exception less its leftmost label, else the longest rule;
        None when no rule matches."""
        labels = name.labels
        found = []  # (exception, length) of each matching rule
        for depth, shapes in self._stars.items():
            if depth > len(labels):
                continue
            suffix = labels[-depth:]
            for stars in shapes:
                key = (tuple(b"*" if i in stars else label for i, label in enumerate(suffix))
                       if stars else suffix)
                if key in self._rules:
                    found.append((False, depth))
                if key in self._exceptions:
                    found.append((True, depth))
        if not found:
            return None
        exception, depth = max(found)
        return name.ancestor_at_depth(depth - 1 if exception else depth)


def registered(name: DomainName, suffix: DomainName | None) -> DomainName | None:
    """The registered domain of ``name`` under ``suffix``, its public suffix
    (``PublicSuffixList.match``): the suffix plus one label; None when the
    name is a suffix itself or matches no rule."""
    if suffix is None or len(name) <= len(suffix):
        return None
    return name.ancestor_at_depth(len(suffix) + 1)


def registered_or_self(name: DomainName, suffix: DomainName | None) -> DomainName:
    """``registered(name, suffix)``; else the last two labels of ``name``;
    else the name itself."""
    domain = registered(name, suffix)
    if domain is not None:
        return domain
    if len(name) >= 2:
        return name.ancestor_at_depth(2)
    return name
