import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from v6ready.names import (
    DnsNameError,
    DomainName,
    EmptyLabel,
    LabelTooLong,
    NameTooLong,
    ROOT,
    enclosing_zones,
    normalize,
)


def test_normalize_lowercases_and_strips_trailing_dot():
    assert normalize("Example.ORG.").labels == (b"example", b"org")


def test_root_identity():
    assert normalize(".") is ROOT or normalize(".") == ROOT
    assert normalize(".").labels == ()
    assert str(ROOT) == "."


def test_empty_label_rejected():
    with pytest.raises(EmptyLabel):
        normalize("a..b")
    with pytest.raises(EmptyLabel):
        normalize(".a")


def test_label_too_long():
    with pytest.raises(LabelTooLong):
        normalize("a" * 64 + ".com")


def test_name_too_long():
    name = ".".join(["a" * 63] * 4) + ".toolong"
    with pytest.raises(NameTooLong):
        normalize(name)


def test_escapes_round_trip():
    n = normalize(r"a\.b.c")
    assert n.labels == (b"a.b", b"c")
    assert normalize(str(n)) == n


def test_bailiwick_in_zone_and_below():
    assert normalize("ns3.sub.example.org").is_within(normalize("sub.example.org"))
    assert not normalize("ns1.example.net").is_within(normalize("example.org"))
    assert normalize("example.org").is_within(normalize("example.org"))


@pytest.mark.parametrize("name", ["例え.jp", "café.fr", b"caf\xc3\xa9.fr", b"\xff"])
def test_non_ascii_name_raises_dns_name_error(name):
    with pytest.raises(DnsNameError):
        normalize(name)


def test_enclosing_zones_label_peeling():
    got = [str(z) for z in enclosing_zones(normalize("a.b.com"))]
    assert got == [".", "com", "b.com", "a.b.com"]
    assert [str(z) for z in enclosing_zones(ROOT)] == ["."]
    assert len(enclosing_zones(normalize("www.example.co.uk"))) == 5


def test_parent_of_root_is_error():
    with pytest.raises(ValueError):
        ROOT.parent()


labels = st.binary(min_size=1, max_size=12)
names = st.lists(labels, min_size=0, max_size=5).map(DomainName)


@given(names, names)
def test_bailiwick_iff_enclosing_membership(name, zone):
    assert name.is_within(zone) == (zone in enclosing_zones(name))


@given(names)
def test_normalize_idempotent_through_presentation(name):
    assert normalize(str(name)) == name


@given(names, labels)
def test_parent_of_child_is_identity(zone, label):
    child = zone.child(label)
    assert child.parent() == zone


# -- the tuple type against a leftmost-first reference -------------------------

# labels as DomainName stores them: lowercase, leftmost first in the reference
written = st.lists(st.binary(min_size=1, max_size=12).map(bytes.lower),
                   max_size=5).map(tuple)


def ref_within(name, zone):
    return len(zone) <= len(name) and name[len(name) - len(zone):] == zone


@given(st.lists(written, max_size=8))
def test_sorted_names_follow_the_reversed_label_order(refs):
    got = [name.labels for name in sorted(DomainName(r) for r in refs)]
    assert got == sorted(refs, key=lambda r: r[::-1])


@given(written, written)
def test_equality_and_hash_follow_the_labels(a, b):
    x, y = DomainName(a), DomainName(b)
    assert (x == y) == (a == b) and (x != y) == (a != b)
    assert (x < y) == (a[::-1] < b[::-1])
    if a == b:
        assert hash(x) == hash(y)
    # a name is the tuple of its labels, root side first
    assert x == a[::-1] and hash(x) == hash(a[::-1])


@settings(max_examples=150)
@given(written, written, st.integers(min_value=0, max_value=6), labels)
def test_structure_matches_the_leftmost_first_reference(a, b, depth, label):
    name, zone = DomainName(a), DomainName(b)
    assert name.labels == a and DomainName(name) is name
    assert name.is_within(zone) == ref_within(a, b)
    if depth <= len(a):
        ancestor = name.ancestor_at_depth(depth)
        assert type(ancestor) is DomainName and ancestor.labels == a[len(a) - depth:]
    else:
        with pytest.raises(DnsNameError):
            name.ancestor_at_depth(depth)
    if a:
        assert type(name.parent()) is DomainName and name.parent().labels == a[1:]
    child = name.child(label)
    assert type(child) is DomainName and child.labels == (label.lower(),) + a
    assert [z.labels for z in enclosing_zones(name)] == [
        a[len(a) - d:] for d in range(len(a) + 1)]
    assert str(name) == reference_present(a)
    assert name.is_root == (a == ())


@given(written)
def test_copy_and_pickle_keep_the_name(a):
    name = DomainName(a)
    copies = [copy.copy(name), copy.deepcopy(name)]
    copies += [pickle.loads(pickle.dumps(name, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for got in copies:
        assert type(got) is DomainName and got == name and got.labels == a


# -- the parser against the per-character reference ---------------------------


def reference_labels(labels):
    """The label checks of DomainName, one label at a time."""
    lab = tuple(bytes(l).lower() for l in labels)
    wire_len = 1
    for l in lab:
        if not l:
            raise EmptyLabel("empty label")
        if len(l) > 63:
            raise LabelTooLong(f"label exceeds 63 bytes: {l[:16]!r}...")
        wire_len += len(l) + 1
    if wire_len > 255:
        raise NameTooLong(f"name wire length {wire_len} exceeds 255")
    return lab


def reference_normalize(name):
    """The per-character parser every input once went through."""
    text = name.decode("latin-1") if isinstance(name, bytes) else name
    if not text.isascii():
        raise DnsNameError(f"non-ASCII character in {text!r}")
    if text in (".", ""):
        return ()
    labels = []
    current = bytearray()
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\\":
            i += 1
            if i >= n:
                raise DnsNameError("dangling escape")
            if text[i].isdigit():
                if i + 3 > n or not text[i : i + 3].isdigit():
                    raise DnsNameError("bad \\DDD escape")
                code = int(text[i : i + 3])
                if code > 255:
                    raise DnsNameError("\\DDD escape out of range")
                current.append(code)
                i += 3
            else:
                current.append(ord(text[i]))
                i += 1
        elif ch == ".":
            if not current:
                raise EmptyLabel(f"empty label in {text!r}")
            labels.append(bytes(current))
            current = bytearray()
            i += 1
        else:
            current.append(ord(ch))
            i += 1
    if current:
        labels.append(bytes(current))
    elif not text.endswith("."):
        raise EmptyLabel(f"empty label in {text!r}")
    return reference_labels(labels)


def reference_present(labels):
    out = []
    for label in labels:
        for b in label:
            c = chr(b)
            if c in ".\\":
                out.append("\\" + c)
            elif 0x21 <= b <= 0x7E:
                out.append(c)
            else:
                out.append("\\%03d" % b)
        out.append(".")
    return "".join(out)[:-1] or "."


def outcome(fn, arg):
    try:
        return ("ok", fn(arg))
    except Exception as exc:  # the class and message are what is compared
        return ("error", type(exc), str(exc))


FRAGMENTS = [".", "..", "\\.", "\\", "\\\\", "\\065", "\\256", "\\1", "\\0a",
             "a", "Z", "-", "_", "0", " ", "\t", "é", "例", "\x7f",
             "x" * 61, "y" * 62, "z" * 63, "w" * 64, ("v" * 62 + ".") * 3]
presentations = st.one_of(
    st.text(max_size=40),
    st.text(alphabet="aZ09.\\-", max_size=40),
    st.lists(st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=4)),
             max_size=12).map("".join),
)


@st.composite
def near_wire_limit(draw):
    """Escape-free names of 4 to 6 labels whose wire length is 250 to 260."""
    count = draw(st.integers(min_value=4, max_value=6))
    chars = draw(st.integers(min_value=248, max_value=258)) - (count - 1)
    sizes = [chars // count + (i < chars % count) for i in range(count)]
    return ".".join("a" * k for k in sizes) + draw(st.sampled_from(["", "."]))


raw_names = st.one_of(
    presentations,
    near_wire_limit(),
    st.binary(max_size=40),
    presentations.map(lambda t: t.encode("utf-8")),
)


@settings(max_examples=600)
@given(raw_names)
def test_normalize_matches_per_character_reference(name):
    got = outcome(lambda n: normalize(n).labels, name)
    assert got == outcome(reference_normalize, name)
    if got[0] == "ok":
        assert str(normalize(name)) == reference_present(got[1])


label_lists = st.one_of(
    st.lists(st.binary(max_size=70), max_size=6),
    st.lists(st.sampled_from([b"a" * 61, b"B" * 62, b"c" * 63, b"d" * 64, b"", b"e"]),
             max_size=6),
)


@settings(max_examples=600)
@given(label_lists)
def test_domain_name_checks_match_reference(labels):
    got = outcome(lambda ls: DomainName(ls).labels, labels)
    assert got == outcome(reference_labels, labels)
    if got[0] == "ok":
        assert str(DomainName(labels)) == reference_present(got[1])


def test_normalize_rejects_non_text():
    with pytest.raises(TypeError):
        normalize(5)
