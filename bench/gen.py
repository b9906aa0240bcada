"""Seeded, linear-time input generator for the v6ready benchmark.

Everything here is plain Python over strings and shares no code with
``v6ready``: the generator writes the files the program reads (mocknet
fixture files, root hints, domain lists, monthly tuple files, a public
suffix list, a TLD list and a toplist) and keeps its own record of what it
put in them (black-holed addresses, injected malformed lines, the
operator's glue event). ``oracle`` computes per-zone resolvability from
that record, independently of the program's fixed point and resolver.

Names are presentation strings without a trailing dot; the root is ".".
"""

from __future__ import annotations

import gzip
import ipaddress
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

ROOT = "."
V4, V6 = "v4", "v6"

DROP_AAAA_GLUE = "drop-aaaa-glue"
DROP_AAAA_APEX = "drop-aaaa-apex"
WRONG_NS_SET_CHILD = "wrong-ns-set-child"
TRUNCATE_UDP = "truncate-udp"
FORMERR_ON_EDNS = "formerr-on-edns"
BLACKHOLE_V6 = "blackhole-v6"
BLACKHOLE_ALL = "blackhole-all"

RECORD_DEFECTS = (DROP_AAAA_GLUE, DROP_AAAA_APEX, WRONG_NS_SET_CHILD,
                  TRUNCATE_UDP, FORMERR_ON_EDNS)
DEFECT_RATES = {  # per NS host ("ns-*", "oob-ns") or per zone
    "ns-no-v6": 0.2,
    "ns-no-v4": 0.04,
    "oob-ns": 0.3,
    DROP_AAAA_GLUE: 0.12,
    DROP_AAAA_APEX: 0.12,
    WRONG_NS_SET_CHILD: 0.1,
    TRUNCATE_UDP: 0.05,
    FORMERR_ON_EDNS: 0.05,
}

TLDS = ("com", "net", "org", "de", "uk", "jp", "io", "info", "nl", "fr")
SUFFIX_ZONES = ("co.uk", "ac.jp")
# Registrations go under these; "uk" and "jp" only delegate their suffixes.
REGISTRIES = ("com", "net", "org", "de", "io", "info", "nl", "fr") + SUFFIX_ZONES
PUBLIC_SUFFIXES = frozenset(TLDS + SUFFIX_ZONES)

OPERATOR_ZONE = "opdns.net"
OPERATOR_NS = ("ns1.opdns.net", "ns2.opdns.net")

ROOT_HOSTS = (
    ("a.root-servers.test", ("10.255.0.1",), ("fd00:ffff::1",)),
    ("b.root-servers.test", ("10.255.0.2",), ("fd00:ffff::2",)),
)

# The seed-independent subtree of the check workload: a TLD whose servers
# never answer over IPv6, with healthy children below it.
DARK_TLD = "dark6"
DARK_CHILDREN = tuple(f"c{k}.{DARK_TLD}" for k in range(6))


def is_within(name: str, zone: str) -> bool:
    return zone == ROOT or name == zone or name.endswith("." + zone)


def depth(name: str) -> int:
    return 0 if name == ROOT else name.count(".") + 1


def child_only_ns(zone: str) -> str:
    """The extra apex NS a wrong-ns-set-child zone claims (mocknet's name)."""
    return f"ns-child-only.{zone}"


def v4_addr(n: int) -> str:
    return f"10.{(n >> 16) & 0xFF}.{(n >> 8) & 0xFF}.{n & 0xFF}"


def v6_addr(n: int, prefix: int = 0xFD00) -> str:
    return ipaddress.IPv6Address((prefix << 112) | n).compressed


@dataclass
class Host:
    owner: str
    v4: tuple[str, ...]
    v6: tuple[str, ...]


@dataclass
class Model:
    """One simulated universe, in creation order (parents first)."""

    zones: list[str] = field(default_factory=list)
    parent: dict[str, str] = field(default_factory=dict)
    ns: dict[str, list[str]] = field(default_factory=dict)
    hosts: dict[str, Host] = field(default_factory=dict)
    defects: dict[str, set[str]] = field(default_factory=dict)

    def add_zone(self, zone: str, parent: str | None) -> None:
        self.zones.append(zone)
        if parent is not None:
            self.parent[zone] = parent
        self.ns[zone] = []
        self.defects[zone] = set()

    def add_ns(self, zone: str, name: str, owner: str, v4=(), v6=()) -> None:
        if name not in self.hosts:
            self.hosts[name] = Host(owner, tuple(v4), tuple(v6))
        self.ns[zone].append(name)

    def apex_ns(self, zone: str) -> list[str]:
        names = list(self.ns[zone])
        if WRONG_NS_SET_CHILD in self.defects[zone]:
            names.append(child_only_ns(zone))
        return names

    def leaves(self) -> set[str]:
        return set(self.zones) - set(self.parent.values())


class _Addresses:
    def __init__(self):
        self.n = 0

    def next(self, want_v4: bool, want_v6: bool):
        self.n += 1
        return ((v4_addr(self.n),) if want_v4 else (),
                (v6_addr(self.n),) if want_v6 else ())


# Depth below the registry of each new registration, in creation order.
LEVELS = (1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 4, 5)
# A parent is one of the latest zones one level up, so no early zone
# gathers a large subtree (whose cost would then depend on the seed).
PARENT_WINDOW = 8


def build_model(seed: int, n_zones: int, operator_share: float = 0.2,
                providers: int = 0, cycles: int = 0,
                plain_inner: bool = False) -> tuple[Model, _Addresses]:
    """A seeded tree of ``n_zones`` registrations below fixed TLDs.

    Depths follow ``LEVELS``; a zone's parent is a registry, or deeper one
    of the latest ``PARENT_WINDOW`` zones one level up. About
    ``operator_share`` of the registrations delegate to the two NS of one
    operator, whose hosts have no IPv6 address (``operator_event`` gives
    them one). Of the other zones' NS, a share
    ``DEFECT_RATES["oob-ns"]`` is out of bailiwick: with ``providers``, one
    of the two shared NS of that many hosting zones; without, a new host in
    a random earlier zone, which chains dependencies. ``cycles`` disjoint
    pairs of registrations one level below the registry then each get one
    more NS, hosted in the other zone of the pair. With ``plain_inner``,
    every zone with children has two servers of its own with both address
    families and no defect, and the pairs go on leaves: an inner zone's
    make-up adds to every check of its subtree, and the cost of a round
    would then depend on the seed much more than on the program. Time and
    memory are linear in ``n_zones``.
    """
    rng = random.Random(seed)
    addrs = _Addresses()
    m = Model()
    m.add_zone(ROOT, None)
    for name, v4, v6 in ROOT_HOSTS:
        m.add_ns(ROOT, name, ROOT, v4, v6)
    for zone in TLDS + SUFFIX_ZONES:
        m.add_zone(zone, zone.split(".", 1)[1] if "." in zone else ROOT)
        for j in (1, 2):
            m.add_ns(zone, f"ns{j}.{zone}", zone, *addrs.next(True, True))
    m.add_zone(OPERATOR_ZONE, "net")
    for name in OPERATOR_NS:
        m.add_ns(OPERATOR_ZONE, name, OPERATOR_ZONE, *addrs.next(True, False))
    first = len(m.zones)

    by_level: dict[int, list[str]] = {0: list(REGISTRIES)}
    for i in range(n_zones):
        level = LEVELS[i % len(LEVELS)]
        while not by_level.get(level - 1):
            level -= 1
        pool = by_level[level - 1]
        parent = rng.choice(pool if level == 1 else pool[-PARENT_WINDOW:])
        m.add_zone(f"z{i}.{parent}", parent)
        by_level.setdefault(level, []).append(m.zones[-1])
    hosting = set(rng.sample(by_level[1], providers)) if providers else set()
    leaves = m.leaves()

    def new_host(zone: str, name: str, owner: str) -> None:
        want_v4 = rng.random() >= DEFECT_RATES["ns-no-v4"]
        want_v6 = rng.random() >= DEFECT_RATES["ns-no-v6"]
        m.add_ns(zone, name, owner, *addrs.next(want_v4, want_v6))

    for i, zone in enumerate(m.zones[first:]):
        idx = first + i
        if plain_inner and zone not in leaves:
            for j in (1, 2):
                m.add_ns(zone, f"ns{j}.{zone}", zone, *addrs.next(True, True))
            continue
        if zone in hosting:
            for j in (1, 2):
                new_host(zone, f"ns{j}.{zone}", zone)
        elif rng.random() < operator_share:
            for name in OPERATOR_NS:
                m.add_ns(zone, name, OPERATOR_ZONE)
        else:
            for j in range(rng.choice((1, 2, 2, 3))):
                if rng.random() >= DEFECT_RATES["oob-ns"]:
                    new_host(zone, f"ns{j}.{zone}", zone)
                elif hosting:
                    provider = rng.choice(sorted(hosting))
                    name = f"ns{1 + j % 2}.{provider}"
                    if name not in m.ns[zone]:
                        m.add_ns(zone, name, provider)
                else:
                    owner = m.zones[rng.randrange(1, idx)]  # never below zone
                    new_host(zone, f"ns{j}-{i}.{owner}", owner)
        for defect in RECORD_DEFECTS:
            if rng.random() < DEFECT_RATES[defect]:
                m.defects[zone].add(defect)
    pairable = [z for z in (sorted(leaves) if plain_inner else by_level[1])
                if z not in hosting and OPERATOR_NS[0] not in m.ns[z]]
    paired = rng.sample(pairable, 2 * cycles)
    for k, (a, b) in enumerate(zip(paired[::2], paired[1::2])):
        for zone, owner in ((a, b), (b, a)):
            m.add_ns(zone, f"nsc{k}.{owner}", owner, *addrs.next(True, True))
    return m, addrs


def operator_event(m: Model, addrs: _Addresses) -> None:
    """The operator's hosts gain IPv6 addresses, hence AAAA glue."""
    for name in OPERATOR_NS:
        host = m.hosts[name]
        host.v6 = addrs.next(False, True)[1]


def add_dark_subtree(m: Model) -> None:
    """Seed-independent zones: ``dark6`` never answers over IPv6."""
    m.add_zone(DARK_TLD, ROOT)
    m.defects[DARK_TLD].add(BLACKHOLE_V6)
    for j in (1, 2):
        m.add_ns(DARK_TLD, f"ns{j}.{DARK_TLD}", DARK_TLD,
                 (f"10.253.0.{j}",), (v6_addr(j, 0xFD0D),))
    for k, zone in enumerate(DARK_CHILDREN):
        m.add_zone(zone, DARK_TLD)
        m.add_ns(zone, f"ns1.{zone}", zone,
                 (f"10.253.1.{k + 1}",), (v6_addr(0x100 + k + 1, 0xFD0D),))


def add_liveness_defects(m: Model, addrs: _Addresses, rng: random.Random,
                         among: list[str], count: int) -> list[str]:
    """Black-hole ``count`` leaf zones of ``among``, half of them over IPv6
    only and half altogether.

    Each chosen leaf serves no other zone and gets two servers of its own
    with both address families and no record defect, so that every
    black-holed target costs the same timeouts. Other placements make the
    resolver report IPv6 success for an unreachable zone on some seeds
    only: below a dead zone (the fixed ``dark6`` subtree shows that fault
    on every seed), and where a live server of an unresolvable zone stands
    in for a dead in-bailiwick one.
    """
    serving = {m.hosts[n].owner for z in m.zones for n in m.ns[z]
               if m.hosts[n].owner != z}
    leaves = m.leaves()
    pool = [z for z in among if z in leaves and z not in serving]
    chosen = rng.sample(pool, count)
    for k, zone in enumerate(chosen):
        m.ns[zone] = []
        m.defects[zone] = {BLACKHOLE_V6 if k % 2 == 0 else BLACKHOLE_ALL}
        for j in (1, 2):
            m.add_ns(zone, f"ns{j}.{zone}", zone, *addrs.next(True, True))
    return sorted(chosen)


def blackholed_addresses(m: Model) -> dict[str, list[str]]:
    """Addresses that never answer, per protocol, from the liveness defects."""
    out: dict[str, set[str]] = {V4: set(), V6: set()}
    for h in m.hosts.values():
        d = m.defects[h.owner]
        if BLACKHOLE_ALL in d:
            out[V4].update(h.v4)
        if BLACKHOLE_ALL in d or BLACKHOLE_V6 in d:
            out[V6].update(h.v6)
    return {p: sorted(a) for p, a in out.items()}


# -- the benchmark's own oracle ---------------------------------------------


def oracle(m: Model, liveness: bool = True) -> dict[str, dict[str, bool]]:
    """Per-zone resolvability over each protocol.

    A zone resolves when its parent resolves and both the parent's
    delegation and the zone's own NS set name a server that has an address
    record over that protocol (glue for in-bailiwick names, the host's own
    zone otherwise) and answers over it.
    """
    res: dict[tuple[str, str], bool] = {}

    def responds(name: str, proto: str) -> bool:
        if not liveness:
            return True
        d = m.defects[owner(name)]
        return BLACKHOLE_ALL not in d and not (proto == V6 and BLACKHOLE_V6 in d)

    def owner(name: str) -> str:
        # a child-only NS is not a host of the model; its zone owns it
        return m.hosts[name].owner if name in m.hosts else name.split(".", 1)[1]

    def addrs(name: str, proto: str) -> tuple[str, ...]:
        if name not in m.hosts:  # mocknet gives a child-only NS both
            return ("x",)
        h = m.hosts[name]
        return h.v4 if proto == V4 else h.v6

    def glue(zone: str, name: str, proto: str) -> bool:
        if proto == V6 and DROP_AAAA_GLUE in m.defects[zone]:
            return False
        return bool(addrs(name, proto))

    def apex(name: str, proto: str) -> bool:
        if proto == V6 and DROP_AAAA_APEX in m.defects[owner(name)]:
            return False
        return bool(addrs(name, proto))

    def usable(zone: str, name: str, proto: str, parent_side: bool) -> bool:
        if is_within(name, zone):
            seen = glue(zone, name, proto) if parent_side else apex(name, proto)
        else:
            seen = res.get((owner(name), proto), False) and apex(name, proto)
        return seen and responds(name, proto)

    for proto in (V4, V6):
        res[(ROOT, proto)] = any(addrs(n, proto) and responds(n, proto)
                                 for n in m.ns[ROOT])
        for zone in m.zones[1:]:
            res[(zone, proto)] = False
    # Least fixed point: grows monotonically from "nothing resolves";
    # a pass in creation order settles every zone whose dependencies came
    # before it, so an acyclic model needs one pass plus the check.
    changed = True
    while changed:
        changed = False
        for zone in m.zones[1:]:
            for proto in (V4, V6):
                if res[(zone, proto)] or not res[(m.parent[zone], proto)]:
                    continue
                if (any(usable(zone, n, proto, True) for n in m.ns[zone])
                        and any(usable(zone, n, proto, False) for n in m.apex_ns(zone))):
                    res[(zone, proto)] = changed = True
    return {z: {V4: res[(z, V4)], V6: res[(z, V6)]} for z in m.zones[1:]}


def registered(name: str) -> str:
    """The PSL registered domain of a universe name (fillers never match)."""
    labels = name.split(".")
    for k in (2, 1):
        if len(labels) > k and ".".join(labels[-k:]) in PUBLIC_SUFFIXES:
            return ".".join(labels[-k - 1:])
    return ".".join(labels[-2:])


def top_nsset_share(m: Model, truth: dict[str, dict[str, bool]]) -> float:
    """Largest NS-set share among zones that do not resolve over IPv6."""
    counts: dict[frozenset, int] = {}
    for zone, verdict in truth.items():
        if verdict[V6]:
            continue
        key = frozenset(registered(n) for n in m.apex_ns(zone))
        counts[key] = counts.get(key, 0) + 1
    total = sum(counts.values())
    return max(counts.values()) / total if total else 0.0


# -- files ----------------------------------------------------------------------


def write_fixtures(m: Model, path: Path) -> None:
    """mocknet-fixtures: a header line, then one JSON document per zone."""
    hosted: dict[str, list[str]] = {}
    for name, h in m.hosts.items():
        hosted.setdefault(h.owner, []).append(name)
    lines = [json.dumps({"format": "mocknet-fixtures", "version": 1})]
    for zone in m.zones:
        def entry(name, with_addrs):
            h = m.hosts[name]
            return {"name": name, "v4": list(h.v4) if with_addrs else [],
                    "v6": list(h.v6) if with_addrs else []}
        own = set(m.ns[zone])
        lines.append(json.dumps({
            "zone": zone,
            "ns": [entry(n, m.hosts[n].owner == zone) for n in m.ns[zone]],
            "hosted": [entry(n, True) for n in sorted(hosted.get(zone, ()))
                       if n not in own],
            "defects": sorted(m.defects[zone]),
        }, sort_keys=True))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_root_hints(m: Model, path: Path) -> None:
    lines = []
    for name in m.ns[ROOT]:
        h = m.hosts[name]
        lines += [f"{name} {V4} {a}" for a in h.v4]
        lines += [f"{name} {V6} {a}" for a in h.v6]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def record_tuples(m: Model, zones: list[str]) -> list[tuple[str, str, str, list[str]]]:
    """The complete record-level view of ``zones`` as (rrname, rrtype,
    bailiwick, rdata): both NS views, glue under the parent, and every
    host's addresses under its owner zone, with record defects applied."""
    out = []

    def emit(rrname, rrtype, bailiwick, values):
        if values:
            out.append((rrname, rrtype, bailiwick, sorted(values)))

    present = set(zones)
    for zone in zones:
        if zone != ROOT:
            parent = m.parent[zone]
            emit(zone, "NS", parent, m.ns[zone])
            for name in m.ns[zone]:
                if is_within(name, zone):
                    h = m.hosts[name]
                    emit(name, "A", parent, h.v4)
                    if DROP_AAAA_GLUE not in m.defects[zone]:
                        emit(name, "AAAA", parent, h.v6)
        emit(zone, "NS", zone, m.apex_ns(zone))
        if WRONG_NS_SET_CHILD in m.defects[zone]:
            n = len(out)
            emit(child_only_ns(zone), "A", zone, [v4_addr(0xFE0000 + n)])
            if DROP_AAAA_APEX not in m.defects[zone]:
                emit(child_only_ns(zone), "AAAA", zone, [v6_addr(n, 0xFD0E)])
    for name, h in m.hosts.items():
        if h.owner not in present:
            continue
        emit(name, "A", h.owner, h.v4)
        if DROP_AAAA_APEX not in m.defects[h.owner]:
            emit(name, "AAAA", h.owner, h.v6)
    return out


# Lines the program must count as malformed, exactly once each. Every one
# parses in both the TSV and the JSON form of a month.
def _malformed(zone: str, k: int, json_form: bool) -> str:
    kind = k % 10
    if kind == 0:
        return "{\"count\": 1, \"rrname\": " if json_form else "1\t2\t3\tx.com\tNS"
    fields = {"count": 1, "time_first": 100, "time_last": 200, "rrname": zone,
              "rrtype": "NS", "bailiwick": zone, "rdata": [f"ns1.{zone}"]}
    if kind == 1:
        fields["count"] = "many"
    elif kind == 2:
        fields["count"] = 0
    elif kind == 3:
        fields["time_first"] = 300
    elif kind == 4:
        fields["rdata"] = []
    elif kind == 5:
        fields["rrtype"] = "BOGUS"
    elif kind == 6:
        fields["rrname"] = "x" * 64 + "." + zone
    elif kind == 7:
        fields["rdata"] = [f"ns1..{zone}"]
    elif kind == 8:
        fields.update(rrname=f"ns1.{zone}", rrtype="A", rdata=["fd00::1"])
    else:
        fields.update(rrname=f"ns1.{zone}", rrtype="AAAA", rdata=["10.1.2.3"])
    if json_form:
        if kind == 0:
            return "[1, 2, 3]"
        return json.dumps(fields)
    return "\t".join(str(fields[f]) for f in ("count", "time_first", "time_last",
                                              "rrname", "rrtype", "bailiwick")) \
        + "\t" + ",".join(fields["rdata"])


def tuple_lines(m: Model, zones: list[str], rng: random.Random, json_form: bool,
                malformed: int) -> list[str]:
    """One month of observations: the record view plus redundant copies,
    split NS sets, non-delegation rrtypes, CNAMEs and malformed lines."""
    base = 1_650_000_000 + rng.randrange(1_000_000)
    rows = []
    for rrname, rrtype, bw, rdata in record_tuples(m, zones):
        rows.append((rrname, rrtype, bw, rdata))
        r = rng.random()
        if r < 0.2:
            rows.append((rrname, rrtype, bw, rdata))
        elif r < 0.3 and len(rdata) > 1:
            rows.append((rrname, rrtype, bw, rdata[:1]))
    for zone in zones[1:]:
        if rng.random() < 0.5:
            rows.append((zone, "SOA", zone,
                         [f"ns1.{zone} hostmaster.{zone} 1 7200 3600 1209600 300"]))
            rows.append((zone, "MX", zone, [f"10 mail.{zone}"]))
            rows.append((zone, "TXT", zone, ["v=spf1 -all"]))
        if rng.random() < 0.2:
            rows.append((f"www.{zone}", "CNAME", zone, [zone]))
    rng.shuffle(rows)
    lines = []
    for rrname, rrtype, bw, rdata in rows:
        count = 1 + rng.randrange(500)
        first = base + rng.randrange(86400 * 28)
        last = first + rng.randrange(86400 * 3)
        if json_form:
            lines.append(json.dumps({"count": count, "time_first": first,
                                     "time_last": last, "rrname": rrname,
                                     "rrtype": rrtype, "bailiwick": bw,
                                     "rdata": rdata}))
        else:
            lines.append(f"{count}\t{first}\t{last}\t{rrname}\t{rrtype}\t{bw}\t"
                         + ",".join(rdata))
    for k in range(malformed):
        zone = zones[1 + rng.randrange(len(zones) - 1)]
        lines.insert(1 + rng.randrange(len(lines)), _malformed(zone, k, json_form))
    return lines


def write_lines(path: Path, lines: list[str]) -> None:
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if path.suffix == ".gz":
        data = gzip.compress(data, compresslevel=1, mtime=0)
    path.write_bytes(data)


def write_psl(path: Path, rng: random.Random, fillers: int) -> None:
    """A PSL whose ICANN section holds the universe's suffixes among
    ``fillers`` rules under TLDs the universe never uses."""
    icann = list(TLDS) + list(SUFFIX_ZONES)
    private = []
    for k in range(fillers):
        tld = f"f{k % 997}"
        kind = rng.random()
        if kind < 0.1:
            icann.append(tld)
        elif kind < 0.15:
            icann.append(f"*.w{k}.{tld}")
            icann.append(f"!www.w{k}.{tld}")
        elif kind < 0.3:
            private.append(f"p{k}.s{k % 31}.{tld}")
        else:
            icann.append(f"s{k}.{tld}")
    text = ["// Generated public suffix list", "// ===BEGIN ICANN DOMAINS==="]
    text += icann + ["// ===END ICANN DOMAINS===", "",
                     "// ===BEGIN PRIVATE DOMAINS==="] + private
    text += ["// ===END PRIVATE DOMAINS==="]
    path.write_text("\n".join(text) + "\n", encoding="utf-8")


def write_tlds(path: Path, fillers: int) -> None:
    names = list(TLDS) + [f"f{k}" for k in range(fillers)]
    path.write_text("# generated TLD list\n" + "\n".join(n.upper() for n in names)
                    + "\n", encoding="utf-8")


def write_toplist(path: Path, m: Model, rng: random.Random, size: int) -> None:
    """rank,domain rows: half the registrations among filler domains."""
    names = [z for z in m.zones[1:] if depth(z) >= 2 and rng.random() < 0.5]
    names += [f"site{k}.f{k % 997}" for k in range(size - len(names))]
    rng.shuffle(names)
    ranks = sorted(rng.sample(range(1, 1_000_001), len(names)))
    path.write_text("".join(f"{r},{n}\n" for r, n in zip(ranks, names)),
                    encoding="utf-8")


# -- workload inputs ------------------------------------------------------------

PASSIVE_MONTH_ZONES = (200, 300, 400, 500, 600, 700)
PASSIVE_EVENT_MONTH = 3  # the operator's hosts have IPv6 from this month on
PASSIVE_MALFORMED = 40  # per month
PSL_FILLERS = 9000
TLD_FILLERS = 1500
TOPLIST_SIZE = 30000
SCAN_ZONES = 600
CHECK_ZONES = 300
CHECK_BLACKHOLED = 30


def _truth(m: Model, liveness: bool) -> dict[str, list[bool]]:
    return {z: [v[V4], v[V6]] for z, v in oracle(m, liveness).items()}


def passive_inputs(seed: int, dest: Path, month_zones=PASSIVE_MONTH_ZONES,
                   event_month: int = PASSIVE_EVENT_MONTH) -> dict:
    """Monthly tuple files of one growing universe, alternately JSONL.gz and
    TSV, plus the PSL, TLD list and toplist."""
    m, addrs = build_model(seed, month_zones[-1])
    rng = random.Random(seed * 7919 + 1)
    write_psl(dest / "psl.dat", rng, PSL_FILLERS)
    write_tlds(dest / "tlds.txt", TLD_FILLERS)
    write_toplist(dest / "toplist.csv", m, rng, TOPLIST_SIZE)
    first = len(m.zones) - month_zones[-1]
    months = []
    for k, n in enumerate(month_zones):
        if k == event_month:
            operator_event(m, addrs)
        zones = m.zones[:first + n]
        json_form = k % 2 == 0
        name = f"tuples-2022-{k + 1:02d}" + (".jsonl.gz" if json_form else ".tsv")
        lines = tuple_lines(m, zones, rng, json_form, PASSIVE_MALFORMED)
        write_lines(dest / name, lines)
        sub = Model(zones, m.parent, {z: m.ns[z] for z in zones}, m.hosts,
                    {z: m.defects[z] for z in zones})
        truth = oracle(sub, liveness=False)
        months.append({
            "month": f"2022-{k + 1:02d}",
            "file": name,
            "zones": len(zones) - 1,
            "tuples": len(lines) - PASSIVE_MALFORMED,
            "malformed": PASSIVE_MALFORMED,
            "operator_v6": bool(m.hosts[OPERATOR_NS[0]].v6),
            "top_share": top_nsset_share(sub, truth),
            "truth": {z: [v[V4], v[V6]] for z, v in truth.items()},
        })
    return {"months": months, "psl": "psl.dat", "tlds": "tlds.txt",
            "toplist": "toplist.csv"}


def scan_inputs(seed: int, dest: Path) -> dict:
    m, _ = build_model(seed, SCAN_ZONES, providers=SCAN_ZONES // 20,
                       cycles=SCAN_ZONES // 20, plain_inner=True)
    write_fixtures(m, dest / "fixtures.jsonl")
    write_root_hints(m, dest / "roots.hints")
    domains = m.zones[1:]
    (dest / "domains.txt").write_text("\n".join(domains) + "\n", encoding="utf-8")
    return {"fixtures": "fixtures.jsonl", "roots": "roots.hints",
            "list": "domains.txt", "truth": _truth(m, liveness=True)}


def check_inputs(seed: int, dest: Path) -> dict:
    """Every second registration is a target, so depths follow ``LEVELS``;
    a fixed number of them are black-holed leaves, and the ``dark6``
    subtree adds the same seven targets on every seed."""
    m, addrs = build_model(seed, CHECK_ZONES, providers=CHECK_ZONES // 20,
                           cycles=CHECK_ZONES // 20, plain_inner=True)
    targets = m.zones[-CHECK_ZONES:]
    add_dark_subtree(m)
    add_liveness_defects(m, addrs, random.Random(seed * 7919 + 2), targets,
                         CHECK_BLACKHOLED)
    write_fixtures(m, dest / "fixtures.jsonl")
    write_root_hints(m, dest / "roots.hints")
    targets += [DARK_TLD, *DARK_CHILDREN]
    truth = _truth(m, liveness=True)
    return {"fixtures": "fixtures.jsonl", "roots": "roots.hints",
            "targets": targets, "fault_targets": list(DARK_CHILDREN),
            "truth": {t: truth[t] for t in targets},
            "blackholed": blackholed_addresses(m)}


INPUTS = {"passive-monthly": passive_inputs, "scan-warm": scan_inputs,
          "check-cold": check_inputs}


def make_inputs(workload: str, seed: int, dest: Path) -> None:
    """Write one workload's inputs and ``manifest.json`` into ``dest``."""
    dest.mkdir(parents=True)
    manifest = INPUTS[workload](seed, dest)
    manifest.update(workload=workload, seed=seed)
    (dest / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


if __name__ == "__main__":
    import sys

    make_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
