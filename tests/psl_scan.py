"""Reference public suffix matcher: the scan over every rule that shares
the name's last label, which ``psl.PublicSuffixList.match`` replaced by a
lookup of each suffix. Kept as a test oracle; both must give the same suffix.
"""

from __future__ import annotations

from v6ready.names import DomainName
from v6ready.psl import PublicSuffixList, Rule


class ScanningSuffixList(PublicSuffixList):
    def __init__(self, rules: list[Rule]):
        # keyed by the last label
        self._by_tail: dict[bytes, list[Rule]] = {}
        for rule in rules:
            self._by_tail.setdefault(rule[0][-1], []).append(rule)

    def match(self, name: DomainName) -> DomainName | None:
        """The public suffix of ``name`` under its prevailing rule: the
        longest exception less its leftmost label, else the longest rule."""
        labels = name.labels
        if not labels:
            return None
        candidates = [
            (exception, len(rule))
            for rule, exception in self._by_tail.get(labels[-1], ())
            if len(rule) <= len(labels)
            and all(r == b"*" or r == t for r, t in zip(rule, labels[-len(rule):]))
        ]
        if not candidates:
            return None
        exception, depth = max(candidates)
        return name.ancestor_at_depth(depth - 1 if exception else depth)
