"""Reference public suffix matcher: the scan over every rule that shares
the name's last label, which ``psl.PublicSuffixList.match`` replaced by a
lookup of each suffix. Kept as a test oracle; both must pick the same rule.
"""

from __future__ import annotations

from v6ready.names import DomainName
from v6ready.psl import PslMatch, PublicSuffixList, Rule


class ScanningSuffixList(PublicSuffixList):
    def __init__(self, rules: list[Rule]):
        # keyed by the last label; each list keeps the rules' file order
        self._by_tail: dict[bytes, list[Rule]] = {}
        for rule in rules:
            self._by_tail.setdefault(rule[0][-1], []).append(rule)

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
