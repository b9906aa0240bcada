"""The toplist, TLD-list and PSL parsers against per-line references.

Each reference is the parser as it was before names were keyed by their
canonical text: every toplist row through ``csv.reader`` and
``normalize``, every TLD line through ``normalize``, and one rule object
per PSL line matched by scanning the rules under the name's last label.
The toplist reference takes a rank of ASCII digits only, as the parser
does, and skips a rank of more digits than ``int`` converts. The operator
rules parser has no reference: any text gives rules or a ValueError.
"""

import csv
import re
import sys
import warnings
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings, strategies as st

from universes import N
from v6ready import analytics
from v6ready.analytics import parse_operator_rules, parse_tld_list, parse_toplist
from v6ready.names import DnsNameError, DomainName, normalize
from v6ready.psl import PublicSuffixList, registered


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the class and message are what is compared
        return ("error", type(exc), str(exc))


# -- toplist and TLD list ----------------------------------------------------


def reference_toplist(text, rejected):
    out = {}
    for row in csv.reader(text.splitlines()):
        if not row or len(row) < 2:
            continue
        rank = row[0].strip()
        if not (rank.isascii() and rank.isdigit()):
            continue
        try:
            rank = int(rank)
        except ValueError:  # past the conversion limit
            continue
        try:
            name = normalize(row[1].strip())
        except DnsNameError:
            rejected.append(",".join(row))
            continue
        if name not in out or rank < out[name]:
            out[name] = rank
    return {str(name): rank for name, rank in out.items()}


def reference_tld_list(text, rejected):
    out = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                out.add(normalize(line))
            except DnsNameError:
                rejected.append(raw)
    return {str(name) for name in out}


NAME_FRAGMENTS = ["a", "B", "com", "Org", "-", "_", "0", "*", "xn--p1ai", ".", "..",
                  "\\.", "\\065", "\\256", "\\", " ", "\t", '"', ",", "é", "例", "²",
                  "x" * 63, "y" * 64]


@st.composite
def near_wire_limit(draw):
    """Escape-free names of 4 to 6 labels whose wire length is 250 to 260."""
    count = draw(st.integers(min_value=4, max_value=6))
    chars = draw(st.integers(min_value=248, max_value=258)) - (count - 1)
    sizes = [chars // count + (i < chars % count) for i in range(count)]
    return ".".join("a" * k for k in sizes) + draw(st.sampled_from(["", "."]))


names = st.one_of(
    st.sampled_from(["a.com", "A.COM.", "b.org", "", ".", "a..com", ".a"]),  # duplicates
    st.lists(st.sampled_from(NAME_FRAGMENTS), min_size=1, max_size=6).map(".".join),
    st.lists(st.sampled_from(NAME_FRAGMENTS), max_size=6).map("".join),
    near_wire_limit(),
    st.text(max_size=12),
)
# the most digits ``int`` converts, and one more
LIMIT_RANKS = ["1" * sys.get_int_max_str_digits(), "1" * (sys.get_int_max_str_digits() + 1)]
ranks = st.one_of(
    st.integers(min_value=0, max_value=2_000_000).map(str),
    st.sampled_from(["", "x", "²", "٣", " 5 ", "1_0", "-1", "+3", "1.0", "0x1", *LIMIT_RANKS]),
)


def csv_field(text, style):
    if style == "quoted":
        return '"' + text.replace('"', '""') + '"'
    if style == "spaced":
        return f" {text} "
    return text


@st.composite
def toplist_rows(draw):
    styles = st.sampled_from(["plain", "plain", "quoted", "spaced"])
    fields = [csv_field(draw(ranks), draw(styles)), csv_field(draw(names), draw(styles))]
    fields += draw(st.lists(st.sampled_from(["x", "", '"q"', " 1"]), max_size=2))
    return ",".join(fields[:draw(st.integers(min_value=1, max_value=4))])


line_texts = st.lists(st.one_of(toplist_rows(), toplist_rows(), st.text(max_size=20)),
                      max_size=12)
line_ends = st.sampled_from(["\n", "\r\n", "\r"])


@settings(max_examples=800, deadline=None)
@given(line_texts, line_ends)
def test_parse_toplist_matches_csv_reference(lines, end):
    text = end.join(lines)
    got_rejected, want_rejected = [], []
    got = outcome(parse_toplist, text, got_rejected)
    assert got == outcome(reference_toplist, text, want_rejected)
    assert got_rejected == want_rejected


# Texts of plain characters only, mostly ``rank,name`` rows, so that many
# are read column by column and the rest hold a few rows that are not read so.
regular_ranks = st.one_of(
    st.integers(min_value=0, max_value=40).map(str),
    st.integers(min_value=0, max_value=40).map("00{}".format),
    st.integers(min_value=0, max_value=2_000_000).map(str),
    st.sampled_from(LIMIT_RANKS[:1]),
)
# the longest name that fits the wire: 253 characters, 255 bytes on the wire
LONGEST_NAME = ".".join(["x" * 63] * 3 + ["x" * 61])
regular_names = st.one_of(
    st.sampled_from(["a.com", "A.Com.", "b.org", "B.ORG", "c", "c.", "7", "x" * 63,
                     "X" * 62 + ".", ".".join("a" * 31), "www." + "X" * 63 + ".com",
                     ".".join(["x" * 63] * 3) + ".", LONGEST_NAME, LONGEST_NAME + "."]),
    st.lists(st.sampled_from(["a", "B", "com", "-", "_", "0", "*", "xn--p1ai"]),
             min_size=1, max_size=5).map(".".join).flatmap(
        lambda name: st.sampled_from([name, name + "."])),
)
regular_fields = st.one_of(regular_ranks, regular_names)
three_fields = st.builds("{},{},{}".format, regular_fields, regular_fields, regular_fields)
odd_names = st.one_of(
    st.sampled_from(["", ".", "..", "a..", ".a", ".a.", "a..b", "x" * 63 + ".", "y" * 64,
                     "Y" * 64 + ".", "www." + "y" * 64 + ".com", "y" * 64 + ".com.",
                     "a." + "y" * 64, ".".join(["x" * 63] * 4), "x" + LONGEST_NAME,
                     "x" + LONGEST_NAME + "."]),
    near_wire_limit(),
)
odd_ranks = st.one_of(st.just(LIMIT_RANKS[1]),
                      st.sampled_from(["", "x", "-1", "+3", "1.0", "1_0", "0x1"]))
# each a list of rows; a row of three fields next to one of one field has as
# many commas as lines
odd_rows = st.one_of(
    st.builds("{},{}".format, regular_ranks, odd_names).map(lambda row: [row]),
    st.builds("{},{}".format, odd_ranks, regular_names).map(lambda row: [row]),
    st.one_of(regular_fields, three_fields, st.sampled_from(["", ","])).map(lambda row: [row]),
    st.tuples(three_fields, regular_fields).map(list),
    st.tuples(regular_fields, three_fields).map(list),
)


@st.composite
def plain_toplists(draw):
    """Rows of ranks and names of the column checks, with up to two runs of
    other rows at the start, the end or anywhere."""
    rows = draw(st.lists(st.builds("{},{}".format, regular_ranks, regular_names),
                         max_size=12))
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        place = draw(st.sampled_from([0, len(rows), draw(st.integers(0, len(rows)))]))
        rows[place:place] = draw(odd_rows)
    ends = draw(st.lists(line_ends, min_size=len(rows), max_size=len(rows)))
    text = "".join(row + end for row, end in zip(rows, ends))
    if rows and draw(st.booleans()):  # no line end after the last row
        text = text[:-len(ends[-1])]
    return text


@settings(max_examples=1500, deadline=None)
@given(plain_toplists())
def test_parse_toplist_of_plain_texts_matches_csv_reference(text):
    got_rejected, want_rejected = [], []
    got = outcome(parse_toplist, text, got_rejected)
    assert got == outcome(reference_toplist, text, want_rejected)
    assert got_rejected == want_rejected


def test_a_toplist_of_plain_rows_is_read_column_by_column(monkeypatch):
    def per_row(*args):
        raise AssertionError("a row was read on its own")

    for helper in ("ascii_int", "_plain_key", "_name_key"):
        monkeypatch.setattr(analytics, helper, per_row)
    # 1,000 rows, 300 names listed twice with a better and then a worse rank,
    # and names past 63 characters up to the longest that fits the wire
    text = "".join(f"{rank:04},Site{rank % 700}.Example.\r\n" for rank in range(1, 1001))
    text += f"1001,www.{'x' * 63}.com\n1002,{LONGEST_NAME}.\n"
    toplist = parse_toplist(text)
    assert toplist == reference_toplist(text, [])
    assert toplist["site1.example"] == 1 and toplist["site0.example"] == 700
    assert toplist[LONGEST_NAME] == 1002


tld_lines = st.one_of(
    names,
    names.map(lambda n: f"  {n}  # comment"),
    names.map(str.upper),
    st.text(max_size=20),
)


@settings(max_examples=800, deadline=None)
@given(st.lists(tld_lines, max_size=12), line_ends)
def test_parse_tld_list_matches_normalize_reference(lines, end):
    text = end.join(lines)
    got_rejected, want_rejected = [], []
    got = outcome(parse_tld_list, text, got_rejected)
    assert got == outcome(lambda t, r: frozenset(reference_tld_list(t, r)), text, want_rejected)
    assert got_rejected == want_rejected


def test_toplist_keys_are_canonical_text():
    rejected = []
    toplist = parse_toplist('3,WWW.Example.COM.\n2,"a\\.b.com"\n1," spaced.org "\n'
                            "4,www.example.com\n5,a..b\n", rejected)
    assert toplist == {"www.example.com": 3, "a\\.b.com": 2, "spaced.org": 1}
    assert rejected == ["5,a..b"]


# -- public suffix list ------------------------------------------------------


def reference_psl_label(part):
    if part.isascii():
        return part.lower().encode()
    try:
        return part.lower().encode("idna")
    except UnicodeError:
        return part.lower().encode("utf-8")


@dataclass(frozen=True)
class ReferenceRule:
    labels: tuple
    exception: bool


class ReferencePsl:
    def __init__(self, text):
        self.by_tail = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("//"):
                continue
            line = line.split()[0]
            exception = line.startswith("!")
            if exception:
                line = line[1:]
            parts = tuple(reference_psl_label(p) for p in line.split(".") if p)
            if parts:
                rule = ReferenceRule(parts, exception)
                self.by_tail.setdefault(parts[-1], []).append(rule)

    def match(self, name):
        """The suffix of the prevailing rule, or None."""
        if not name.labels:
            return None
        candidates = []
        for rule in self.by_tail.get(name.labels[-1], ()):
            depth = len(rule.labels)
            if depth <= len(name.labels) and all(
                    r in (b"*", t) for r, t in zip(rule.labels, name.labels[-depth:])):
                candidates.append(rule)
        if not candidates:
            return None
        exceptions = [r for r in candidates if r.exception]
        if exceptions:
            rule = max(exceptions, key=lambda r: len(r.labels))
            depth = len(rule.labels) - 1
        else:
            rule = max(candidates, key=lambda r: len(r.labels))
            depth = len(rule.labels)
        return name.ancestor_at_depth(depth)

    def registered_domain(self, name):
        m = self.match(name)
        if m is None:
            return None
        depth = len(m.labels)
        if len(name.labels) <= depth:
            return None
        return name.ancestor_at_depth(depth + 1)


RULE_LABELS = ["com", "CO", "uk", "a", "b", "*", "рф", "École", "xn--p1ai", "例"]
NAME_LABELS = ["com", "co", "uk", "a", "b", "www", "*", "xn--p1ai",
               "école".encode("idna").decode()]
rule_lines = st.builds(
    lambda bang, labels, edge, tail: bang + edge + ".".join(labels) + tail,
    st.sampled_from(["", "", "!"]),
    st.lists(st.sampled_from(RULE_LABELS), min_size=1, max_size=4),
    st.sampled_from(["", "", "."]),
    st.sampled_from(["", "", ".", "  // note", "\tx"]),
)
psl_lines = st.one_of(
    rule_lines, rule_lines, rule_lines,
    st.sampled_from(["// ===BEGIN PRIVATE DOMAINS===", "// ===END PRIVATE DOMAINS===",
                     "// comment", "", "   ", "!", ".", "..", "!*"]),
)
psl_names = st.lists(st.sampled_from(NAME_LABELS), max_size=5).map(
    lambda labels: DomainName(label.encode() for label in labels))


@settings(max_examples=800, deadline=None)
@given(st.lists(psl_lines, max_size=14), st.lists(psl_names, min_size=1, max_size=8))
def test_psl_match_matches_reference(lines, names_to_match):
    text = "\n".join(lines)
    # a rule set listed twice, the second time in the private section
    for text in (text, f"{text}\n// ===BEGIN PRIVATE DOMAINS===\n{text}"):
        psl, reference = PublicSuffixList.parse(text), ReferencePsl(text)
        for name in names_to_match:
            m = psl.match(name)
            assert m == reference.match(name)
            assert registered(name, m) == reference.registered_domain(name)


def test_psl_inner_wildcard_and_repeated_rule():
    psl = PublicSuffixList.parse("a.*.com\n// ===BEGIN PRIVATE DOMAINS===\na.*.com\n"
                                 "b.com\n// ===END PRIVATE DOMAINS===\n*.com\n")
    assert str(psl.match(N("x.a.y.com"))) == "a.y.com"
    assert str(psl.match(N("x.b.com"))) == "b.com"


# -- operator rules ----------------------------------------------------------

REGEX_PIECES = ["(", ")", "[", "]", "{", "}", "{2,1}", "{99999999999}", "?", "*", "+", "|",
                "\\", "\\d", "^", "$", ".", "(?P<n>", "(?P=n)", "(?i)", "(?L)", "\\1", "a",
                "ns", "-", "#"]
rule_patterns = st.lists(st.sampled_from(REGEX_PIECES), min_size=1, max_size=8).map("".join)
operator_rule_lines = st.one_of(
    st.builds(lambda pattern, label: pattern + label, rule_patterns,
              st.sampled_from(["", " op", "\tbig co", " op # note"])),
    st.sampled_from(["", "   ", "# note"]),
    st.text(max_size=20),
)


@settings(max_examples=800, deadline=None)
@given(st.lists(operator_rule_lines, max_size=6), line_ends)
@example(["a{99999999999} op"], "\n")
@example(["(" * 1200 + ")" * 1200 + " op"], "\n")
@example(["[[a] op"], "\n")  # re warns: "Possible nested set"
def test_operator_rules_of_any_text_parse_or_raise_a_value_error(lines, end):
    text = end.join(lines)
    try:
        rules = parse_operator_rules(text)
    except ValueError:
        return
    lines = [line for line in (raw.split("#", 1)[0].strip() for raw in text.splitlines())
             if line]
    assert len(rules) == len(lines)
    for rule, line in zip(rules, lines):
        pattern, label = line.split(None, 1)
        assert isinstance(rule.pattern, re.Pattern) and rule.pattern.pattern == pattern
        assert rule.label == label.strip() != ""


def test_a_pattern_re_warns_about_is_a_value_error_whatever_the_warning_filters():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match=r"bad operator rule pattern '\[\[a\]': Possible nested"):
            parse_operator_rules("[[a] op\n")
        assert warnings.filters[0][0] == "ignore"  # the caller's filters are back
