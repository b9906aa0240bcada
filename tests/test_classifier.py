import random

from universes import N, crawl, passive_verdicts, with_liveness_faults
from v6ready.classify import (
    CAUSE_IN_BAILIWICK_NS_WITHOUT_AAAA,
    CAUSE_MISSING_GLUE,
    CAUSE_NO_AAAA_FOR_NS,
    CAUSE_NS_UNRESPONSIVE,
    CAUSE_PARENT_UNRESOLVABLE,
    FailureCause,
    NsContext,
    ResolutionStatus,
    ROOT_STATUS,
    classify,
    failure_breakdown,
    mirror_causes,
    state_of,
)
from v6ready.mocknet import fixture_tuples, random_universe
from v6ready.records import V4, V6, AddrRecords, ZoneRecordSet


def rs(zone, parent, ns_parent, ns_child=None, addrs=None):
    zone = N(zone)
    parent = N(parent)
    ns_by_bw = {parent: frozenset(N(n) for n in ns_parent)}
    if ns_child is not None:
        ns_by_bw[zone] = frozenset(N(n) for n in ns_child)
    addr_by_bw = {}
    for (name, bw), (v4, v6) in (addrs or {}).items():
        addr_by_bw[(N(name), N(bw))] = AddrRecords(frozenset(v4), frozenset(v6))
    return ZoneRecordSet(zone, ns_by_bw, addr_by_bw)


def test_oob_ns_with_only_a_records_is_no_aaaa():
    evidence = rs(
        "example.org", "org",
        ["ns1.example.net", "ns2.example.net"],
        ["ns1.example.net", "ns2.example.net"],
        {
            ("ns1.example.net", "example.net"): ({"10.0.5.11"}, set()),
            ("ns2.example.net", "example.net"): ({"10.0.5.12"}, set()),
        },
    )
    contexts = {
        N("ns1.example.net"): NsContext(N("example.net"), v4=True, v6=True),
        N("ns2.example.net"): NsContext(N("example.net"), v4=True, v6=True),
    }
    status = classify(evidence, ROOT_STATUS, contexts)
    assert status.state == "v4-only"
    assert status.causes == {CAUSE_NO_AAAA_FOR_NS}
    assert not status.intent_v6


def test_in_bailiwick_child_aaaa_but_a_only_glue_is_missing_glue():
    evidence = rs(
        "sub.example.org", "example.org",
        ["ns3.sub.example.org"],
        ["ns3.sub.example.org"],
        {
            ("ns3.sub.example.org", "example.org"): ({"10.0.7.1"}, set()),
            ("ns3.sub.example.org", "sub.example.org"): ({"10.0.7.1"}, {"fd00::71"}),
        },
    )
    status = classify(evidence, ROOT_STATUS, {})
    assert status.state == "v4-only"
    assert status.causes == {CAUSE_MISSING_GLUE}
    assert status.intent_v6


def test_broken_parent_propagates_regardless_of_own_records():
    parent_status = ResolutionStatus("v4-only", True, False, True)
    evidence = rs(
        "good.bad.example", "bad.example",
        ["ns.good.bad.example"],
        ["ns.good.bad.example"],
        {
            ("ns.good.bad.example", "bad.example"): ({"10.1.1.1"}, {"fd00::a"}),
            ("ns.good.bad.example", "good.bad.example"): ({"10.1.1.1"}, {"fd00::a"}),
        },
    )
    status = classify(evidence, parent_status, {})
    assert status.state == "v4-only"
    assert status.causes == {CAUSE_PARENT_UNRESOLVABLE}


def test_glue_present_but_apex_missing_aaaa():
    evidence = rs(
        "shop.example", "example",
        ["ns.shop.example"],
        ["ns.shop.example"],
        {
            ("ns.shop.example", "example"): ({"10.2.1.1"}, {"fd00::b"}),
            ("ns.shop.example", "shop.example"): ({"10.2.1.1"}, set()),
        },
    )
    status = classify(evidence, ROOT_STATUS, {})
    assert status.state == "v4-only"
    assert status.causes == {CAUSE_IN_BAILIWICK_NS_WITHOUT_AAAA}


def test_dual_state_has_no_failures():
    evidence = rs(
        "ok.example", "example",
        ["ns.ok.example"], ["ns.ok.example"],
        {
            ("ns.ok.example", "example"): ({"10.3.1.1"}, {"fd00::c"}),
            ("ns.ok.example", "ok.example"): ({"10.3.1.1"}, {"fd00::c"}),
        },
    )
    status = classify(evidence, ROOT_STATUS, {})
    assert status.state == "dual"
    assert status.v6_failures == frozenset()


def test_exhaustiveness_every_broken_intent_zone_has_a_cause():
    for seed in range(25):
        u, _truth = random_universe(seed, 40)
        _rs, _table, statuses = passive_verdicts(fixture_tuples(u))
        for zone, status in statuses.items():
            if status.intent_v6 and status.state in ("v4-only", "none"):
                assert status.v6_failures, f"seed {seed} zone {zone}"


def test_injected_defect_is_detected_exactly_once_soundness():
    from universes import taxonomy_scenarios

    for name, universe, target, expected, descendants in taxonomy_scenarios():
        _resolver, results = crawl(universe)
        status = results[target].status
        assert status.causes == {expected}, f"{name}: {sorted(status.causes)}"
        for desc in descendants:
            assert results[desc].status.causes == {CAUSE_PARENT_UNRESOLVABLE}, name


def test_ns_that_stayed_silent_is_unusable_and_named():
    both = ({"10.1.0.1"}, {"fd00:1::1"})
    evidence = rs("d.t", "t", ["ns1.d.t", "ns2.d.t"], ["ns1.d.t", "ns2.d.t"], {
        ("ns1.d.t", "t"): both, ("ns1.d.t", "d.t"): both,
        ("ns2.d.t", "t"): both, ("ns2.d.t", "d.t"): both,
    })
    assert classify(evidence, ROOT_STATUS, {}).state == "dual"  # all assumed live
    # ns2 was never asked over IPv4, so it counts as live there.
    answers = {(N("ns1.d.t"), V4): True, (N("ns1.d.t"), V6): False,
               (N("ns2.d.t"), V6): False}
    status = classify(evidence, ROOT_STATUS, {}, answers)
    assert status.state == "v4-only"
    assert {f.cause: f.witnesses for f in status.v6_failures} == {
        CAUSE_NS_UNRESPONSIVE: ("ns1.d.t", "ns2.d.t")}
    answers[(N("ns2.d.t"), V6)] = True
    assert classify(evidence, ROOT_STATUS, {}, answers).state == "dual"


def test_passive_path_never_reports_unresponsive_ns():
    for seed in range(20):
        u, _truth = random_universe(seed, 30)
        _rs, _table, statuses = passive_verdicts(
            fixture_tuples(with_liveness_faults(u, seed)))
        assert not any(CAUSE_NS_UNRESPONSIVE in s.causes for s in statuses.values())


def test_symmetry_mirror_detects_v4_breakage():
    # v4 mirror of the missing-glue case: AAAA glue present, A glue absent.
    evidence = rs(
        "sub.example.org", "example.org",
        ["ns3.sub.example.org"],
        ["ns3.sub.example.org"],
        {
            ("ns3.sub.example.org", "example.org"): (set(), {"fd00::71"}),
            ("ns3.sub.example.org", "sub.example.org"): ({"10.0.7.1"}, {"fd00::71"}),
        },
    )
    causes = mirror_causes(evidence, parent_resolvable_v4=True)
    assert {c.cause for c in causes} == {CAUSE_MISSING_GLUE}


def test_failure_breakdown_empty():
    b = failure_breakdown([])
    assert b.population == 0
    assert b.percentage(CAUSE_MISSING_GLUE) == 0.0


def test_failure_breakdown_percentages():
    statuses = []
    for _ in range(4):
        statuses.append(ResolutionStatus(
            "v4-only", True, False, True,
            frozenset({FailureCause(CAUSE_MISSING_GLUE, ())})))
    for _ in range(6):
        statuses.append(ResolutionStatus(
            "v4-only", True, False, True,
            frozenset({FailureCause(CAUSE_NO_AAAA_FOR_NS, ())})))
    b = failure_breakdown(statuses)
    assert b.population == 10
    assert b.percentage(CAUSE_MISSING_GLUE) == 40.0
    assert b.percentage(CAUSE_NO_AAAA_FOR_NS) == 60.0


def test_failure_breakdown_matches_recount_oracle():
    rng = random.Random(11)
    causes_pool = [CAUSE_MISSING_GLUE, CAUSE_NO_AAAA_FOR_NS,
                   CAUSE_PARENT_UNRESOLVABLE]
    statuses = []
    for _ in range(300):
        v6 = rng.random() < 0.4
        intent = rng.random() < 0.7
        cs = frozenset(
            FailureCause(c, ()) for c in rng.sample(causes_pool, rng.randint(1, 3))
        ) if not v6 else frozenset()
        statuses.append(ResolutionStatus(
            state_of(True, v6), True, v6, intent, cs))
    b = failure_breakdown(statuses)
    # independent recount
    population = sum(1 for s in statuses if s.intent_v6 and not s.v6)
    assert b.population == population
    for cause in causes_pool:
        manual = sum(
            1 for s in statuses
            if s.intent_v6 and not s.v6 and cause in {f.cause for f in s.v6_failures}
        )
        assert b.counts.get(cause, 0) == manual
