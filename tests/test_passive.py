import gzip
import io
import json
import sys

import careful_parser
import jacobi
import pytest
from hypothesis import example, given, settings, strategies as st
from universes import N, passive_res, passive_verdicts
from v6ready.passive import (
    IngestStats,
    ResolutionTable,
    classify_zones,
    fixed_point,
    ingest,
    ingest_tuples,
    iter_tuples,
    open_tuple_stream,
    snapshot_stats,
    write_verdicts,
)
from v6ready.records import RRType, V4, V6


def T(rrname, rrtype, bailiwick, rdata, count=1, t0=1600000000, t1=1600000000):
    return careful_parser.tuple_from_fields(count, t0, t1, rrname, rrtype, bailiwick, rdata)


def checked_fixed_point(record_sets):
    """``fixed_point``, held equal to the Jacobi reference loop."""
    table = fixed_point(record_sets)
    jacobi.assert_same_table(table, jacobi.jacobi_fixed_point(record_sets))
    return table


def test_single_ns_tuple_builds_parent_view():
    result = ingest_tuples([T("example.com", "NS", "com", ["ns1.example.com"])])
    zone = result.record_sets[N("example.com")]
    assert zone.parent_ns == frozenset({N("ns1.example.com")})
    assert zone.child_ns is None


def test_parent_and_child_views_both_retained():
    result = ingest_tuples([
        T("example.com", "NS", "com", ["ns1.example.com"]),
        T("example.com", "NS", "example.com", ["ns2.example.com"]),
    ])
    zone = result.record_sets[N("example.com")]
    assert zone.parent_ns == frozenset({N("ns1.example.com")})
    assert zone.child_ns == frozenset({N("ns2.example.com")})


def test_orphan_address_retained():
    result = ingest_tuples([
        T("example.com", "NS", "com", ["ns1.example.com"]),
        T("stray.example.net", "A", "example.net", ["192.0.2.9"]),
    ])
    assert result.orphan_addresses == 1


def test_cname_tuples_skipped_and_counted():
    stats = IngestStats()
    result = ingest_tuples([
        T("example.com", "NS", "com", ["ns1.example.com"]),
        T("ns1.example.com", "CNAME", "example.com", ["other.example.com"]),
    ], stats)
    assert stats.cname_skipped == 1
    zone = result.record_sets[N("example.com")]
    assert N("ns1.example.com") not in zone.ns_with_addrs[V4]


def test_malformed_tuples_counted_never_abort():
    stats = IngestStats()
    lines = [
        "not\ta\tvalid\tline",  # wrong field count
        "1\t5\t2\texample.com\tNS\tcom\tns1.example.com",  # time_first > time_last
        "x\t1\t2\texample.com\tNS\tcom\tns1.example.com",  # non-numeric count
        "1\t1\t2\tcafé.fr\tNS\tfr\tns1.cafe.fr",  # non-ASCII name
        "1\t1600000000\t1600000000\texample.com\tNS\tcom\tns1.example.com",
    ]
    tuples = list(iter_tuples(lines, stats))
    assert stats.malformed == 4
    assert len(tuples) == 1 and stats.tuples == 1


def test_non_ascii_ns_rdata_counted_as_malformed():
    stats = IngestStats()
    result = ingest_tuples([
        T("example.com", "NS", "com", ["ns1.例え.jp"]),
        T("example.org", "NS", "org", ["ns1.example.org"]),
    ], stats)
    assert stats.malformed == 1
    assert set(result.record_sets) == {N("example.org")}


def test_json_rdata_that_is_not_a_list_is_malformed():
    stats = IngestStats()
    base = {"count": 1, "time_first": 1600000000, "time_last": 1600000000,
            "rrname": "example.com", "rrtype": "NS", "bailiwick": "com"}
    lines = [json.dumps({**base, "rdata": "ns.x"}),
             json.dumps({**base, "rdata": ["ns.x"]})]
    tuples = list(iter_tuples(lines, stats))
    assert stats.malformed == 1
    assert [t.rdata for t in tuples] == [("ns.x",)]


def test_json_names_that_are_not_text_are_malformed():
    stats = IngestStats()
    base = {"count": 1, "time_first": 1600000000, "time_last": 1600000000,
            "rrtype": "NS", "rdata": ["ns.x"]}
    lines = [json.dumps({**base, "rrname": 5, "bailiwick": "com"}),
             json.dumps({**base, "rrname": ["a"], "bailiwick": "com"}),
             json.dumps({**base, "rrname": "a.com", "bailiwick": None}),
             json.dumps({**base, "rrname": "a.com", "bailiwick": "com"})]
    tuples = list(iter_tuples(lines, stats))
    assert stats.malformed == 3
    assert [str(t.rrname) for t in tuples] == ["a.com"]


def test_tsv_and_jsonl_and_gzip_roundtrip(tmp_path):
    tsv = tmp_path / "tuples.tsv"
    tsv.write_text(
        "1\t1600000000\t1600000000\texample.com\tNS\tcom\tns1.example.com\n"
        "1\t1600000000\t1600000000\tns1.example.com\tA\tcom\t192.0.2.1\n"
    )
    jl = tmp_path / "tuples.jsonl"
    jl.write_text("\n".join([
        json.dumps({"count": 1, "time_first": 1600000000, "time_last": 1600000000,
                    "rrname": "example.com", "rrtype": "NS", "bailiwick": "com",
                    "rdata": ["ns1.example.com"]}),
        json.dumps({"count": 1, "time_first": 1600000000, "time_last": 1600000000,
                    "rrname": "ns1.example.com", "rrtype": "A", "bailiwick": "com",
                    "rdata": ["192.0.2.1"]}),
    ]) + "\n")
    gz = tmp_path / "tuples.jsonl.gz"
    gz.write_bytes(gzip.compress(jl.read_bytes()))

    parsed = []
    for path in (tsv, jl, gz):
        with open_tuple_stream(path) as stream:
            parsed.append(list(iter_tuples(stream)))
    assert parsed[0] == parsed[1] == parsed[2]
    assert parsed[0][0].rrtype == RRType.NS


@pytest.mark.parametrize("name", ["tuples.tsv", "tuples.tsv.gz"])
def test_closing_a_tuple_stream_closes_its_file(tmp_path, name):
    data = b"1\t1600000000\t1600000000\texample.com\tNS\tcom\tns1.example.com\n"
    path = tmp_path / name
    path.write_bytes(gzip.compress(data) if name.endswith(".gz") else data)
    stream = open_tuple_stream(path)
    raw = getattr(stream.buffer, "fileobj", stream.buffer)  # under the gzip stream, if any
    assert stream.read() == data.decode() and not raw.closed
    stream.close()
    assert raw.closed


def test_rrtype_from_text_gives_the_shared_constants():
    for name in ("A", "NS", "CNAME", "SOA", "MX", "TXT", "AAAA", "OPT"):
        assert RRType.from_text(name.lower()) is getattr(RRType, name)
        assert str(getattr(RRType, name)) == name
    assert RRType.from_text(" ns ") is RRType.NS
    assert RRType.from_text("TYPE28") is RRType.AAAA
    assert RRType.from_text("TYPE999") == RRType(999)
    assert T("example.com", "A", "com", ["192.0.2.1"]).rrtype is RRType.A


def test_type_numbers_are_ascii_digits_up_to_65535():
    # Other scripts' digits, numbers past 16 bits and numbers past int()'s
    # conversion limit make the line malformed, in either form; a TYPE1
    # line would file its address as glue.
    assert RRType.from_text("TYPE65535") == RRType(65535)
    bad = ["TYPE\u0661", "TYPE\u00b2", "TYPE70000", "TYPE" + "1" * 5000]
    for rrtype in bad:
        with pytest.raises(ValueError):
            RRType.from_text(rrtype)
    fields = ["1", "1", "2", "ns.a.com", None, "com", "192.0.2.1"]
    tsv = ["\t".join(fields[:4] + [t] + fields[5:]) + "\n" for t in bad]
    jsonl = [json.dumps(dict(zip(("count", "time_first", "time_last", "rrname",
                                  "rrtype", "bailiwick"), (1, 1, 2, "ns.a.com", t, "com")),
                             rdata=["192.0.2.1"])) + "\n" for t in bad]
    for lines in (tsv, jsonl):
        stats = IngestStats()
        result = ingest([lines], stats)
        assert (stats.tuples, stats.malformed) == (0, len(bad))
        assert not result.orphan_addresses


def test_invalid_address_values_are_malformed():
    stats = IngestStats()
    ingest_tuples([T("ns1.example.com", "A", "com", ["not-an-ip"])], stats)
    assert stats.malformed == 1


def test_address_with_a_nul_byte_is_malformed():
    stats = IngestStats()
    lines = ["1\t1\t2\tns.a.com\tA\tcom\t1.2.3.4\x00\n",
             "1\t1\t2\tns.a.com\tAAAA\tcom\t2001:db8::1\x00\n"]
    result = ingest([lines], stats)
    assert (stats.tuples, stats.malformed) == (0, 2)
    assert not result.orphan_addresses


def test_json_numbers_that_do_not_fit_are_malformed():
    stats = IngestStats()
    base = {"count": 1, "time_first": 1600000000, "time_last": 1600000000,
            "rrname": "example.com", "rrtype": "NS", "bailiwick": "com",
            "rdata": ["ns.x"]}
    lines = [json.dumps(base).replace(f'"{field}": {value}', f'"{field}": {big}')
             for field, value in (("count", 1), ("time_first", 1600000000),
                                  ("time_last", 1600000000))
             for big in ("1e400", "-1e400")]
    lines.append(json.dumps(base))
    tuples = list(iter_tuples(lines, stats))
    assert (stats.tuples, stats.malformed) == (1, 6)
    assert [t.rdata for t in tuples] == [("ns.x",)]


_JSON_BASE = {"count": 1, "time_first": 1600000000, "time_last": 1600000000,
              "rrname": "example.com", "rrtype": "NS", "bailiwick": "com",
              "rdata": ["ns.x"]}


@pytest.mark.parametrize("field, value", [
    ("count", True), ("time_first", 1.9), ("time_last", "1600000000"), ("count", "2"),
    ("count", 1.0),
])
def test_json_number_that_is_not_a_json_integer_is_malformed(field, value):
    stats = IngestStats()
    lines = [json.dumps({**_JSON_BASE, field: value}), json.dumps(_JSON_BASE)]
    tuples = list(iter_tuples(lines, stats))
    assert (stats.tuples, stats.malformed) == (1, 1)
    assert tuples[0].count == 1


def test_json_number_with_more_digits_than_int_converts_is_malformed():
    stats = IngestStats()
    huge = json.dumps(_JSON_BASE).replace('"count": 1', '"count": ' + "9" * 5000)
    tuples = list(iter_tuples([huge, json.dumps(_JSON_BASE)], stats))
    assert (stats.tuples, stats.malformed) == (1, 1)
    assert tuples[0].count == 1


@pytest.mark.parametrize("number", ["١", "1_0", "+1", " 2 ", "-1", "²",
                                    pytest.param("9" * 5000, id="5000-digits")])
@pytest.mark.parametrize("column", [0, 1, 2])
def test_tsv_number_that_is_not_ascii_digits_is_malformed(column, number):
    stats = IngestStats()
    fields = ["1", "1", "20", "example.com", "NS", "com", "ns.x"]
    good = "\t".join(fields)
    fields[column] = number
    tuples = list(iter_tuples(["\t".join(fields), good], stats))
    assert (stats.tuples, stats.malformed) == (1, 1)
    assert (tuples[0].count, tuples[0].time_first, tuples[0].time_last) == (1, 1, 20)


def test_json_rdata_values_that_are_not_text_are_malformed():
    stats = IngestStats()
    base = {"count": 1, "time_first": 1600000000, "time_last": 1600000000,
            "rrname": "example.com", "rrtype": "NS", "bailiwick": "com"}
    lines = [json.dumps({**base, "rdata": rdata})
             for rdata in ([1], [{"x": 1}], ["ns.x", None], [["ns.x"]], [True])]
    lines.append(json.dumps({**base, "rdata": ["ns.x"]}))
    tuples = list(iter_tuples(lines, stats))
    assert (stats.tuples, stats.malformed) == (1, 5)
    assert [t.rdata for t in tuples] == [("ns.x",)]


def test_json_nested_deeper_than_the_decoder_recurses_is_malformed():
    deep = '{"rdata": ' + "[" * 100_000
    lines = [json.dumps(_JSON_BASE), deep, json.dumps(_JSON_BASE)]
    stats = IngestStats()
    assert len(list(iter_tuples(lines, stats))) == 2
    assert (stats.tuples, stats.malformed) == (2, 1)
    stats = IngestStats()
    ingest([lines], stats)
    assert (stats.tuples, stats.malformed) == (2, 1)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
_name_texts = st.sampled_from(["com", "a.com", "ns.a.com", "ns.a.com.", ".", "",
                               "a..com", "ns\x00.a.com", "例え.jp"]) | st.text()
_rdata_texts = _name_texts | st.sampled_from(
    ["192.0.2.1", "2001:db8::1", "1.2.3.4\x00", "::ffff:1.2.3.4", "1.2.3", "fe80::1%eth0"])
_fields = {
    "count": st.sampled_from([1, 2, 0, -1, 1e400, "1", 1.5]) | _json_values,
    "time_first": st.sampled_from([1, 2, 1e400, -1e400, "x"]) | _json_values,
    "time_last": st.sampled_from([2, 1, 1e400]) | _json_values,
    "rrname": _name_texts | _json_values,
    "rrtype": st.sampled_from(["NS", "A", "AAAA", "CNAME", "TXT", "TYPE2", "TYPE99999"])
    | _json_values,
    "bailiwick": _name_texts | _json_values,
    "rdata": st.lists(_rdata_texts | _json_values, max_size=3) | _json_values,
}
_json_lines = st.builds(
    lambda obj, drop, extra: json.dumps({k: v for k, v in obj.items() if k not in drop}
                                        | extra).replace("Infinity", "1e400"),
    st.fixed_dictionaries(_fields),
    st.sets(st.sampled_from(sorted(_fields)), max_size=2),
    st.dictionaries(st.text(max_size=5), _json_values, max_size=2),
)
_tsv_lines = st.builds(
    lambda parts: "\t".join(parts) + "\n",
    st.tuples(*(st.sampled_from(["1", "2", "0", "-1", "1e400", "x"]) | st.text(),) * 3,
              _name_texts, st.sampled_from(["NS", "A", "AAAA", "CNAME", "MX"]) | st.text(),
              _name_texts,
              st.lists(_rdata_texts, max_size=3).map(",".join))
    | st.lists(st.text(), max_size=9).map(tuple),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_json_lines | _tsv_lines | st.text(), max_size=6))
def test_every_line_is_counted_once_and_ingest_never_raises(lines):
    non_blank = sum(1 for line in lines if line.strip())
    stats = IngestStats()
    tuples = list(iter_tuples(lines, stats))
    assert stats.tuples == len(tuples)
    assert stats.tuples + stats.malformed == non_blank
    stats = IngestStats()
    ingest([lines], stats)
    assert stats.tuples + stats.malformed == non_blank


# Tuple lines over a few valid names, all but one put in the names memo by
# a first line of NS targets, so that most later lines find their names
# there; each line has at most one flaw of those the reference parser in
# ``careful_parser`` rejects or the filing rules count as malformed.
TUPLE_FIELDS = ("count", "time_first", "time_last", "rrname", "rrtype", "bailiwick")
_SEEDED = ["com", "a.com", "A.COM.", "ns.a.com", "ns\\046x.a.com"]
_VALID = {
    "count": [1, 2, 20], "time_first": [1, 2], "time_last": [2, 20],
    "rrname": [*_SEEDED, "b.com"],
    "rrtype": ["NS", "A", "AAAA", "CNAME", "TXT", "NS", "A", "ns", "TYPE99"],
}
_VALID["bailiwick"] = _VALID["rrname"]
_VALUES = ["ns.a.com", "NS.A.COM", "a.com", "192.0.2.1", "2001:db8::1", "::ffff:1.2.3.4"]
_HUGE = 10 ** 30  # written as a number of 5,000 digits
_NUMBER_FLAWS = {
    "tsv": ["0", "007", "-1", "+1", "", "١", "1_0", " 2", "30", _HUGE],
    "json": [0, -1, 30, True, False, 1.0, 2.5, "1", None, _HUGE],
}
_FLAWS = {
    "rrname": ["a..com", "é.com", "x" * 64 + ".com", "", 5, ["a.com"], None],
    "rrtype": ["BOGUS", " NS", "TYPE99999", "", 2, None],
    "bailiwick": ["a..com", "é.com", ".", 5, ["com"]],
    "rdata": [[], [""], ["a.com", ""], ["ns..a.com"], ["1.2.3"], ["é"], "ns.a.com",
              ["a.com", 5], [None], None],
}


def _flaws(form: str) -> list:
    """(field, value) pairs, None for no flaw."""
    pairs = [(key, value) for key in ("count", "time_first", "time_last")
             for value in _NUMBER_FLAWS[form]]
    pairs += [(key, value) for key, values in _FLAWS.items() for value in values]
    return [None] * (len(pairs) // 3) + pairs


def _render(record: dict, form: str) -> str:
    if form == "tsv":
        rdata = record["rdata"]
        fields = [*(str(record[key]) for key in TUPLE_FIELDS),
                  ",".join(map(str, rdata)) if isinstance(rdata, list) else str(rdata)]
        line = "\t".join(fields)
    else:
        line = json.dumps(record)
    return line.replace(str(_HUGE), "9" * 5000)


@st.composite
def _tuple_line(draw, form: str) -> str:
    record = {key: draw(st.sampled_from(pool)) for key, pool in _VALID.items()}
    record["rdata"] = draw(st.lists(st.sampled_from(_VALUES), min_size=1, max_size=3))
    flaw = draw(st.sampled_from(_flaws(form)))
    if flaw is not None:
        record[flaw[0]] = flaw[1]
    if form == "tsv":
        return _render(record, form) + draw(st.sampled_from(["\n", "", "\r\n", "\tx\n"]))
    if draw(st.integers(0, 9)) == 0:
        del record[draw(st.sampled_from(sorted(record)))]
    return _render(record, form)


@st.composite
def _tuple_file(draw) -> list[str]:
    """A first line that puts valid names in the memo, then lines of the
    same form, a few of the other and a few that are blank or not a record
    at all, some of them repeated."""
    form = draw(st.sampled_from(["tsv", "json"]))
    other = "json" if form == "tsv" else "tsv"
    line = st.one_of(_tuple_line(form), _tuple_line(form), _tuple_line(form),
                     _tuple_line(other) | st.sampled_from(["", "  \n", "{", "x", "[1]"]))
    lines = draw(st.lists(line, min_size=1, max_size=10))
    lines += draw(st.lists(st.sampled_from(lines), max_size=10))
    seed = dict(zip(TUPLE_FIELDS, (1, 1, 1, "com", "NS", ".")), rdata=_SEEDED)
    return [_render(seed, form), *draw(st.permutations(lines))]


def _every_flaw(form: str) -> list[str]:
    """The first line, one valid line, and one line for each flaw."""
    valid = dict(zip(TUPLE_FIELDS, (1, 1, 2, "a.com", "NS", "com")), rdata=["ns.a.com"])
    seed = dict(zip(TUPLE_FIELDS, (1, 1, 1, "com", "NS", ".")), rdata=_SEEDED)
    return [_render(seed, form), _render(valid, form),
            *(_render({**valid, key: value}, form)
              for key, value in filter(None, _flaws(form)))]


def _record_set_order(result):
    """Everything in a result, in its dicts' order: each zone's views, then
    the address table its record sets share."""
    shared = next(iter(result.record_sets.values()), None)
    return ([(zone, rs[:5]) for zone, rs in result.record_sets.items()],
            [] if shared is None else [list(shared.addrs.items()), shared.ns_with_addrs],
            result.orphan_addresses)


@settings(max_examples=300, deadline=None)
@given(st.lists(_tuple_file(), min_size=1, max_size=3))
@example([_every_flaw("tsv"), _every_flaw("json")])
def test_filing_lines_equals_filing_the_careful_parsers_tuples(files):
    stats = IngestStats()
    result = ingest(files, stats)
    parsed, careful = IngestStats(), IngestStats()
    expected = ingest_tuples(
        [t for lines in files for t in careful_parser.iter_tuples(lines, parsed)], careful)
    assert _record_set_order(result) == _record_set_order(expected)
    assert stats == IngestStats(careful.tuples, parsed.malformed + careful.malformed,
                                careful.cname_skipped)


@pytest.mark.parametrize("form", ["tsv", "json"])
def test_numbers_are_read_up_to_the_int_conversion_limit(form):
    # no cap of the reader's own: a count of as many digits as int()
    # converts is a tuple, one more digit makes the line malformed
    limit = sys.get_int_max_str_digits()
    line = _render(dict(zip(TUPLE_FIELDS, (7, 1, 2, "a.com", "NS", "com")),
                        rdata=["ns.a.com"]), form)
    lines = [line.replace("7", "9" * limit), line.replace("7", "9" * (limit + 1))]
    stats = IngestStats()
    assert [t.count for t in iter_tuples(lines, stats)] == [10 ** limit - 1]
    assert (stats.tuples, stats.malformed) == (1, 1)
    stats = IngestStats()
    result = ingest([lines], stats)
    assert (stats.tuples, stats.malformed) == (1, 1)
    assert set(result.record_sets) == {N("a.com")}


# -- fixed point -------------------------------------------------------------


def com_with_root_glue(v6=True):
    tuples = [
        T("com", "NS", ".", ["ns.com"]),
        T("ns.com", "A", ".", ["192.0.2.1"]),
    ]
    if v6:
        tuples.append(T("ns.com", "AAAA", ".", ["2001:db8::1"]))
    return tuples


def test_single_link_resolves_in_first_sweep():
    result = ingest_tuples(com_with_root_glue())
    table = checked_fixed_point(result.record_sets)
    assert passive_res(result.record_sets, table, N("com")) == {V4: True, V6: True}
    assert table.sweeps == {V4: 2, V6: 2}  # one productive sweep plus confirmation


def test_mutual_cycle_unresolvable_terminates_in_two_sweeps():
    tuples = [
        T("a", "NS", ".", ["ns.b"]),
        T("b", "NS", ".", ["ns.a"]),
        T("a", "NS", "a", ["ns.b"]),
        T("b", "NS", "b", ["ns.a"]),
    ]
    result = ingest_tuples(tuples)
    table = checked_fixed_point(result.record_sets)
    assert passive_res(result.record_sets, table, N("a")) == {V4: False, V6: False}
    assert passive_res(result.record_sets, table, N("b")) == {V4: False, V6: False}
    assert table.sweeps[V4] == 2
    # brute-force oracle on the 2-node graph: no address records exist at
    # all, so no delegation path can terminate; both stay unresolvable.


def test_dependency_chain_resolves_in_three_sweeps():
    tuples = [
        # c: self-contained with glue under the root bailiwick
        T("c", "NS", ".", ["ns.c"]),
        T("ns.c", "A", ".", ["192.0.2.3"]),
        T("ns.c", "A", "c", ["192.0.2.3"]),
        # b: served by a name inside c
        T("b", "NS", ".", ["ns1.c"]),
        T("ns1.c", "A", "c", ["192.0.2.4"]),
        # a: served by a name inside b
        T("a", "NS", ".", ["ns1.b"]),
        T("ns1.b", "A", "b", ["192.0.2.5"]),
    ]
    result = ingest_tuples(tuples)
    table = checked_fixed_point(result.record_sets)
    for z in ("a", "b", "c"):
        assert table.resolvable(N(z), V4) is True
    assert table.sweeps[V4] == 4  # three productive sweeps plus confirmation


def test_monotone_convergence_and_pass_bound():
    from v6ready.mocknet import fixture_tuples, random_universe

    for seed in (1, 2, 3):
        u, _ = random_universe(seed, 60)
        result = ingest_tuples(fixture_tuples(u))
        table = checked_fixed_point(result.record_sets)
        zone_count = len(result.record_sets) - 1  # root excluded
        for proto in (V4, V6):
            assert table.sweeps[proto] <= zone_count + 1


def test_protocol_independence_dropping_aaaa_keeps_v4():
    from v6ready.mocknet import fixture_tuples, random_universe

    u, _ = random_universe(4, 40)
    tuples = fixture_tuples(u)
    with_v6 = passive_verdicts(tuples)[1]
    without_v6 = passive_verdicts(
        [t for t in tuples if t.rrtype != RRType.AAAA])[1]
    assert with_v6.resolved[V4] == without_v6.resolved[V4]


def test_fixed_point_idempotent():
    result = ingest_tuples(com_with_root_glue())
    t1 = checked_fixed_point(result.record_sets)
    t2 = checked_fixed_point(result.record_sets)
    assert t1.resolved == t2.resolved
    assert t1.sweeps == t2.sweeps


def test_iteration_cap_turns_bugs_into_errors(monkeypatch):
    # The cap belongs to the reference sweep loop; the propagation in
    # fixed_point resolves each zone at most once and needs none.
    calls = {"n": 0}

    def flapping_view_flags(rs, contexts, proto):
        calls["n"] += 1
        return (calls["n"] % 2 == 0, True)

    monkeypatch.setattr(jacobi, "view_flags", flapping_view_flags)
    # one zone cap = 2 sweeps; flapping output prevents stabilization only
    # if resolution kept toggling, which monotone bookkeeping prevents; use
    # several zones pointing at the root to create enough churn
    tuples = com_with_root_glue()
    for i in range(3):
        tuples += [T(f"z{i}", "NS", ".", [f"ns.z{i}"]),
                   T(f"ns.z{i}", "A", ".", [f"192.0.2.{10 + i}"])]
    result = ingest_tuples(tuples)
    try:
        jacobi.jacobi_fixed_point(result.record_sets)
    except jacobi.IterationCapExceeded:
        pass  # acceptable: the cap fired loudly
    # if no exception, the monotone accounting absorbed the flapping; both
    # behaviors keep the cap property: sweeps never exceed zones + 1
    assert calls["n"] > 0


def test_unknown_parent_zones_excluded_and_counted():
    tuples = [
        # child-view only: delegation chain never observed
        T("onlychild.example", "NS", "onlychild.example", ["ns.onlychild.example"]),
        # delegating bailiwick itself never seen as a zone
        T("deep.unseen.zz", "NS", "unseen.zz", ["ns.deep.unseen.zz"]),
        # healthy reference zone
        *com_with_root_glue(),
    ]
    result = ingest_tuples(tuples)
    table = checked_fixed_point(result.record_sets)
    assert N("onlychild.example") in table.unknown_parent
    assert N("deep.unseen.zz") in table.unknown_parent
    assert N("com") not in table.unknown_parent
    statuses = classify_zones(result.record_sets, table)
    assert N("onlychild.example") not in statuses
    stats = snapshot_stats(table, statuses)
    assert stats.unknown_parent == 2
    assert stats.total == len(statuses)


def test_snapshot_stats_arithmetic():
    from v6ready.classify import ResolutionStatus

    statuses = {}
    for i in range(5):
        statuses[N(f"d{i}.x")] = ResolutionStatus(True, True, True)
    for i in range(2):
        statuses[N(f"v{i}.x")] = ResolutionStatus(True, False, False)
    statuses[N("n.x")] = ResolutionStatus(False, False, False)
    table = ResolutionTable({}, frozenset(), {V4: 1, V6: 1}, {})
    stats = snapshot_stats(table, statuses)
    assert stats.total == 8
    assert stats.state_percentage("dual") == 62.5
    assert stats.state_percentage("v4-only") == 25.0
    assert stats.state_percentage("none") == 12.5
    assert stats.states == {"dual": 5, "v4-only": 2, "v6-only": 0, "none": 1}
    assert sum(stats.states.values()) == stats.total


def test_snapshot_stats_empty_no_division_error():
    table = ResolutionTable({}, frozenset(), {V4: 1, V6: 1}, {})
    stats = snapshot_stats(table, {})
    assert stats.total == 0
    assert stats.state_percentage("dual") == 0.0
    assert stats.breakdown.percentage("missing-glue") == 0.0


def test_half_of_intent_zones_broken_in_two_scenario_derived_fixture():
    # Four zones: one dual with intent, one broken-with-intent (glue case),
    # two broken without any AAAA evidence. Half the intent zones fail.
    from v6ready.classify import FailureCause, ResolutionStatus

    statuses = {
        N("a.x"): ResolutionStatus(True, True, True),
        N("b.x"): ResolutionStatus(
            True, False, True, frozenset({FailureCause("missing-glue", ("ns.b.x",))})),
        N("c.x"): ResolutionStatus(
            True, False, False, frozenset({FailureCause("no-aaaa-for-ns", ("ns.c.x",))})),
        N("d.x"): ResolutionStatus(
            True, False, False, frozenset({FailureCause("no-aaaa-for-ns", ("ns.d.x",))})),
    }
    table = ResolutionTable({}, frozenset(), {V4: 1, V6: 1}, {})
    stats = snapshot_stats(table, statuses)
    assert stats.intent_v6_total == 2
    assert stats.breakdown.population == 1


def test_two_scenario_tuples_give_two_v4_only_zones_with_distinct_causes():
    from universes import combined_two_scenario_universe
    from v6ready.mocknet import fixture_tuples

    u = combined_two_scenario_universe()
    _rs, _table, statuses = passive_verdicts(fixture_tuples(u))
    left = statuses[N("example.org")]
    right = statuses[N("sub.example.org")]
    assert left.state == "v4-only" and right.state == "v4-only"
    assert "no-aaaa-for-ns" in left.causes
    assert "missing-glue" in right.causes


def test_write_verdicts_versioned_jsonl():
    result = ingest_tuples(com_with_root_glue())
    table = checked_fixed_point(result.record_sets)
    statuses = classify_zones(result.record_sets, table)
    out = io.StringIO()
    write_verdicts(out, result.record_sets, statuses)
    lines = out.getvalue().splitlines()
    header = json.loads(lines[0])
    assert header == {"format": "zone-verdicts", "version": 1}
    doc = json.loads(lines[1])
    assert doc["zone"] == "com"
    assert doc["state"] == "dual"


def test_classify_zones_agrees_with_table_flags():
    # classify() recomputes the kernel from the table's contexts and the
    # parent's status; at the fixed point it must land exactly on the
    # status classify_zones derives from the table's flags.
    from kernel import ROOT_STATUS, NsContext, classify
    from v6ready.mocknet import fixture_tuples, random_universe
    from v6ready.names import ROOT

    for seed in (31, 32, 33, 34):
        u, _ = random_universe(seed, 50)
        result = ingest_tuples(fixture_tuples(u))
        table = checked_fixed_point(result.record_sets)
        statuses = classify_zones(result.record_sets, table)
        for zone, status in statuses.items():
            assert status.v4 == table.resolvable(zone, V4), str(zone)
            assert status.v6 == table.resolvable(zone, V6), str(zone)
            rs = result.record_sets[zone]
            parent = rs.delegating_zone
            parent_status = ROOT_STATUS if parent == ROOT else statuses[parent]
            contexts = {
                ns: NsContext(table.ns_zone[ns], table.resolvable(table.ns_zone[ns], V4),
                              table.resolvable(table.ns_zone[ns], V6))
                for ns in rs.all_ns
            }
            assert classify(rs, parent_status, contexts) == status, str(zone)


def test_fixed_point_matches_jacobi_reference_on_oracle_seeds():
    # the universes of test_oracle_equivalence
    from v6ready.mocknet import fixture_tuples, random_universe

    rate_profiles = [
        None,
        {"ns-no-v6": 0.4, "drop-aaaa-glue": 0.2},
        {"oob-ns": 0.5, "drop-aaaa-apex": 0.2, "wrong-ns-set-child": 0.2},
        {"ns-no-v4": 0.15, "ns-no-v6": 0.1},
    ]
    for seed in range(200):
        size = 5 + (seed * 13) % 96
        u, _truth = random_universe(seed, size, rate_profiles[seed % len(rate_profiles)])
        record_sets = ingest_tuples(fixture_tuples(u)).record_sets
        jacobi.assert_same_table(fixed_point(record_sets),
                                 jacobi.jacobi_fixed_point(record_sets), seed)
