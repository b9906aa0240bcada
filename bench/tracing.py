"""Spans and counts recorded around the program's public entry points.

The tracer replaces functions of the loaded ``v6ready`` modules with
wrappers, from the outside: the program itself is not changed. A span is
(id, parent id, name, start ns, end ns); spans stay in memory and are
written out once, at the end of a traced run. A name's self time is its
spans' time minus the time of their direct children.
"""

from __future__ import annotations

import itertools
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path

# span name -> (module, attribute path). Every binding of the same function
# object in any v6ready module is wrapped, so ``from .x import f`` callers
# are traced too.
SPANS = {
    "cli.main": ("cli", "main"),
    "passive.iter_tuples": ("passive", "iter_tuples"),
    "passive.ingest": ("passive", "ingest"),
    "passive.fixed_point": ("passive", "fixed_point"),
    "passive.classify_zones": ("passive", "classify_zones"),
    "passive.snapshot_stats": ("passive", "snapshot_stats"),
    "passive.write_verdicts": ("passive", "write_verdicts"),
    "analytics.state_share_rows": ("analytics", "state_share_rows"),
    "analytics.cause_share_rows": ("analytics", "cause_share_rows"),
    "analytics.nsset_cdf": ("analytics", "nsset_cdf"),
    "analytics.load_toplist": ("analytics", "load_toplist"),
    "analytics.load_tld_list": ("analytics", "load_tld_list"),
    "psl.load": ("psl", "PublicSuffixList.load"),
    "classify.classify": ("classify", "classify"),
    "resolver.resolve_chain": ("resolver", "Resolver.resolve_chain"),
    "resolver.enrich": ("resolver", "Resolver.enrich"),
    "resolver.probe_ns_liveness": ("resolver", "Resolver.probe_ns_liveness"),
    "query.query": ("query", "QueryEngine.query"),
    "wire.encode": ("wire", "encode"),
    "wire.decode": ("wire", "decode"),
    "mocknet.exchange": ("mocknet", "Universe.exchange"),
    "mocknet.load_fixtures": ("mocknet", "load_fixtures"),
    "mocknet.build_universe": ("mocknet", "build_universe"),
}
# Called too often for a span each: counted only.
COUNTS = {
    "names.normalize": ("names", "normalize"),
    "names.lt": ("names", "DomainName.__lt__"),
    "names.eq": ("names", "DomainName.__eq__"),
}
GENERATORS = {"passive.iter_tuples"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")  # flat (id, parent, name index, start, end)
        self.counts: dict[str, list[int]] = defaultdict(lambda: [0])
        self.sweeps: list[int] = []  # ResolutionTable.sweeps, v4 + v6, per call
        self.fixed_point_sizes: list[tuple[int, int]] = []  # (zones, ns)
        self.caches: list = []  # every ResponseCache the program creates
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, name: str, fn):
        ni = len(self.names)
        self.names.append(name)
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.extend((sid, parent, ni, start, end))
            if name == "passive.fixed_point":
                self.sweeps.append(sum(result.sweeps.values()))
                self.fixed_point_sizes.append((len(args[0]), end - start))
            return result

        return wrapper

    def _generator_wrapper(self, name: str, fn):
        """One span whose length is the time spent inside the generator."""
        ni = len(self.names)
        self.names.append(name)
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            sid = parent = start = None
            busy = 0
            try:
                while True:
                    stack = stack_of()
                    if sid is None:
                        sid = next(ids)
                        parent = stack[-1] if stack else -1
                    stack.append(sid)
                    t0 = clock()
                    if start is None:
                        start = t0
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        busy += clock() - t0
                        stack.pop()
                    yield item
            finally:
                if sid is not None:
                    spans.extend((sid, parent, ni, start, start + busy))

        return wrapper

    def _count_wrapper(self, name: str, fn):
        cell = self.counts[name]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap the entry points of ``modules`` (short name -> module)."""
        for kind, table in (("span", SPANS), ("count", COUNTS)):
            for name, (mod, path) in table.items():
                owner = modules[mod]
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                if kind == "count":
                    wrapped = self._count_wrapper(name, fn)
                elif name in GENERATORS:
                    wrapped = self._generator_wrapper(name, fn)
                else:
                    wrapped = self._span_wrapper(name, fn)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                self._patch(owner, attr, wrapped)
                if not cls_path:
                    for other in modules.values():
                        for key, value in list(vars(other).items()):
                            if value is fn and other is not owner:
                                self._patch(other, key, wrapped)
        cache_cls = modules["query"].ResponseCache
        original_init = cache_cls.__init__
        caches = self.caches

        def init(cache, *args, **kwargs):
            original_init(cache, *args, **kwargs)
            caches.append(cache)

        self._patch(cache_cls, "__init__", init)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        s = self.spans
        child = defaultdict(int)
        for i in range(0, len(s), 5):
            if s[i + 1] >= 0:
                child[s[i + 1]] += s[i + 4] - s[i + 3]
        out: dict[str, dict[str, float]] = {
            n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in self.names}
        for i in range(0, len(s), 5):
            dur = s[i + 4] - s[i + 3]
            row = out[self.names[s[i + 2]]]
            row["calls"] += 1
            row["total_s"] += dur / 1e9
            row["self_s"] += (dur - child.get(s[i], 0)) / 1e9
        return out

    def count(self, name: str) -> int:
        return self.counts[name][0]

    def write(self, path: Path) -> None:
        """Spans as TSV: id, parent, name, start_ns, end_ns."""
        s = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(0, len(s), 5):
                fh.write(f"{s[i]}\t{s[i + 1]}\t{self.names[s[i + 2]]}\t"
                         f"{s[i + 3]}\t{s[i + 4]}\n")
