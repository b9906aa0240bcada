import random

import pytest
from hypothesis import given, settings, strategies as st

from psl_scan import ScanningSuffixList
from universes import N
from v6ready.analytics import (
    GROUP_BELOW_SECOND_LEVEL,
    GROUP_SECOND_LEVEL,
    GROUP_TLD,
    cause_share_rows,
    group_domain,
    ns_set_key,
    nsset_cdf,
    parse_operator_rules,
    parse_tld_list,
    parse_toplist,
    rank_tier,
    state_share_rows,
)
from v6ready.classify import ResolutionStatus, failure_breakdown
from v6ready.names import DomainName
from v6ready.psl import PublicSuffixList, registered

PSL_TEXT = """\
// ===BEGIN ICANN DOMAINS===
com
net
org
uk
co.uk
*.ck
!www.ck
// ===END ICANN DOMAINS===
// ===BEGIN PRIVATE DOMAINS===
hosting.example
// ===END PRIVATE DOMAINS===
"""

PSL = PublicSuffixList.parse(PSL_TEXT)
TLDS = parse_tld_list("com\nnet\norg\nuk\nck\n")


def hierarchy(name):
    groups = group_domain(N(name), PSL)
    assert len(groups) == 1
    return groups[0]


def test_psl_exact_rule():
    assert str(PSL.match(N("bbc.co.uk"))) == "co.uk"
    assert str(registered(N("www.bbc.co.uk"), PSL.match(N("www.bbc.co.uk")))) == "bbc.co.uk"


def test_psl_wildcard_rule():
    assert str(PSL.match(N("a.random.ck"))) == "random.ck"
    assert registered(N("random.ck"), PSL.match(N("random.ck"))) is None


def test_psl_exception_rule():
    assert str(PSL.match(N("www.ck"))) == "ck"
    assert str(registered(N("www.ck"), PSL.match(N("www.ck")))) == "www.ck"


def test_psl_private_section_rule_is_honoured():
    assert PSL.match(N("site.hosting.example")) == N("hosting.example")


# a rule line, or a section marker; "*" may stand at any label, the last
# one included, and labels repeat, so rules overlap, tie and duplicate
psl_lines = st.one_of(
    st.builds(lambda bang, labels: bang + ".".join(labels),
              st.sampled_from(["", "!"]),
              st.lists(st.sampled_from(["a", "b", "c", "*"]), min_size=1, max_size=4)),
    st.sampled_from(["// ===BEGIN PRIVATE DOMAINS===", "// ===END PRIVATE DOMAINS==="]))
psl_names = st.lists(st.sampled_from([b"a", b"b", b"c", b"d", b"*"]), max_size=5)


@settings(max_examples=500, deadline=None)
@given(st.lists(psl_lines, max_size=12), st.lists(psl_names, min_size=1, max_size=8))
def test_psl_lookup_picks_the_rule_the_scan_picks(lines, names):
    text = "\n".join(lines)
    psl, scan = PublicSuffixList.parse(text), ScanningSuffixList.parse(text)
    for labels in names:
        name = DomainName(labels)
        assert psl.match(name) == scan.match(name), (text, name)


def test_psl_rules_as_long_give_one_suffix_in_either_order():
    private = "// ===BEGIN PRIVATE DOMAINS===\n"
    for first, second in (("*.b", "a.b"), ("a.b", "*.b")):
        psl = PublicSuffixList.parse(f"{first}\n{private}{second}\n!x.a.b\n!*.a.b\n")
        assert psl.match(N("a.b")) == N("a.b"), first
        assert psl.match(N("c.b")) == N("c.b"), first
        assert psl.match(N("x.a.b")) == N("a.b"), first  # the exception
        assert psl.match(N("y.a.b")) == N("a.b"), first


def test_group_canonical_psl_second_level():
    assert hierarchy("bbc.co.uk") == GROUP_SECOND_LEVEL


def test_group_below_second_level():
    assert hierarchy("a.b.example.com") == GROUP_BELOW_SECOND_LEVEL


def test_group_tld_with_icann_list():
    assert hierarchy("com") == GROUP_TLD


def test_group_multi_label_public_suffix_counts_as_tld():
    assert hierarchy("co.uk") == GROUP_TLD


def test_group_unknown_suffix_by_its_label_count():
    # no PSL rule: the rightmost label stands in for the suffix
    assert hierarchy("zz") == GROUP_TLD
    assert hierarchy("foo.zz") == GROUP_SECOND_LEVEL
    assert hierarchy("a.foo.zz") == GROUP_BELOW_SECOND_LEVEL


def test_group_single_label_under_a_root_exception_rule_is_a_tld():
    psl = PublicSuffixList.parse("!zz\n")
    assert psl.match(N("zz")) == N(".")
    assert group_domain(N("zz"), psl) == (GROUP_TLD,)
    assert group_domain(N("a.zz"), psl) == (GROUP_BELOW_SECOND_LEVEL,)


def test_rank_tiers_follow_four_buckets():
    assert rank_tier(1) == "top1k"
    assert rank_tier(1000) == "top1k"
    assert rank_tier(1001) == "1k-10k"
    assert rank_tier(10_000) == "1k-10k"
    assert rank_tier(99_999) == "10k-100k"
    assert rank_tier(1_000_000) == "100k-1m"
    assert rank_tier(1_000_001) is None


def test_toplist_rank_assignment():
    toplist = parse_toplist("1,bbc.co.uk\n5000,example.com\n")
    assert group_domain(N("news.bbc.co.uk"), PSL, toplist) == (GROUP_BELOW_SECOND_LEVEL,
                                                                "top1k")
    assert group_domain(N("example.com"), PSL, toplist) == (GROUP_SECOND_LEVEL, "1k-10k")
    assert group_domain(N("other.com"), PSL, toplist) == (GROUP_SECOND_LEVEL,)


def test_grouping_stable_under_renormalization():
    a = group_domain(N("WWW.BBC.CO.UK"), PSL)
    b = group_domain(N(str(N("www.bbc.co.uk"))), PSL)
    assert a == b


def make_entries(spec):
    """spec: list of (ns-set label list, zone count)."""
    entries = []
    for names, count in spec:
        for _ in range(count):
            entries.append(([N(n) for n in names], False))
    return entries


def test_cdf_top_set_share():
    entries = make_entries([
        (["ns1.hoster-a.com"], 7),
        (["ns1.hoster-b.com"], 2),
        (["ns1.hoster-c.com"], 1),
    ])
    cdf = nsset_cdf(entries, PSL)
    assert cdf.zone_count == 10 and cdf.set_count == 3
    assert cdf.points[0][1] == pytest.approx(0.7)
    assert cdf.top10_share == pytest.approx(1.0)  # only three sets exist
    assert cdf.top10pct_share == pytest.approx(0.7)


def test_cdf_degenerate_single_set():
    entries = make_entries([(["ns1.only.com", "ns2.only.com"], 12)])
    cdf = nsset_cdf(entries, PSL)
    assert cdf.points == [(1.0, 1.0)]


def test_cdf_monotone_and_ends_at_one():
    rng = random.Random(3)
    spec = [([f"ns.h{i}.com"], rng.randint(1, 30)) for i in range(40)]
    cdf = nsset_cdf(make_entries(spec), PSL)
    ys = [y for _x, y in cdf.points]
    assert ys == sorted(ys)
    assert ys[-1] == pytest.approx(1.0)


def test_cdf_matches_recount_oracle():
    rng = random.Random(17)
    for _ in range(5):
        spec = [([f"ns.h{i}.com"], rng.randint(1, 25)) for i in range(rng.randint(2, 30))]
        entries = make_entries(spec)
        cdf = nsset_cdf(entries, PSL)
        counts = sorted((c for _n, c in spec), reverse=True)
        total = sum(counts)
        cum = 0
        for i, c in enumerate(counts):
            cum += c
            assert cdf.points[i][1] == pytest.approx(cum / total)
            assert cdf.points[i][0] == pytest.approx((i + 1) / len(counts))


def test_only_non_v6_zones_enter_cdf():
    entries = make_entries([(["ns.h1.com"], 3)])
    entries += [([N("ns.h2.com")], True)] * 10  # v6-resolvable: excluded
    cdf = nsset_cdf(entries, PSL)
    assert cdf.zone_count == 3


def test_operator_collapse_never_increases_set_count():
    entries = make_entries([
        (["dns1.operator-east.com"], 4),
        (["dns2.operator-west.net"], 4),
        (["ns.other.org"], 2),
    ])
    plain = nsset_cdf(entries, PSL)
    rules = parse_operator_rules(r"^dns\d+\.operator- bigco" + "\n")
    collapsed = nsset_cdf(entries, PSL, rules)
    assert collapsed.set_count <= plain.set_count
    assert collapsed.set_count == 2  # bigco plus other.org
    assert collapsed.zone_count == plain.zone_count


def test_ns_set_key_order_insensitive():
    a = ns_set_key([N("ns1.x.com"), N("ns2.y.net")], PSL)
    b = ns_set_key([N("ns2.y.net"), N("ns1.x.com")], PSL)
    assert a == b == frozenset({"x.com", "y.net"})


def test_state_and_cause_share_rows():
    statuses = {
        N("a.com"): ResolutionStatus(True, True, True),
        N("b.com"): ResolutionStatus(True, False, True, frozenset()),
        N("c.com"): ResolutionStatus(False, False, False),
        N("d.com"): ResolutionStatus(True, True, True),
    }
    rows = state_share_rows(statuses, PSL, TLDS)
    all_row = [r for r in rows if r["group"] == "all"][0]
    assert all_row["total"] == 4
    assert all_row["dual"] == 2 and all_row["dual_pct"] == 50.0
    second = [r for r in rows if r["group"] == GROUP_SECOND_LEVEL][0]
    assert second["total"] == 4
    cause_rows = cause_share_rows(failure_breakdown(statuses.values()))
    assert cause_rows == []  # b.com has intent but no recorded causes
