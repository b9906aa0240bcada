import pytest
from hypothesis import given, strategies as st

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
