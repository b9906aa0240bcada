"""Domain name normalization and bailiwick arithmetic.

Names are tuples of lowercase ASCII label byte-strings, root side first;
the root is the empty tuple. IDN labels are passed through as opaque
punycode bytes; nothing here is Unicode-aware because wire fidelity is
what matters.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence, TypeVar

MAX_LABEL = 63
MAX_WIRE = 255
# the label bytes that present as themselves
_PLAIN = bytes(b for b in range(0x21, 0x7F) if b not in b".\\")
_V = TypeVar("_V")


class DnsNameError(ValueError):
    """Base class for malformed domain names."""


class EmptyLabel(DnsNameError):
    pass


class LabelTooLong(DnsNameError):
    pass


class NameTooLong(DnsNameError):
    pass


class DomainName(tuple):
    """An immutable, normalized DNS name: a tuple of its labels, root side
    first, so ``www.example.org`` is ``(b"org", b"example", b"www")`` and
    the root is ``()``.

    Tuple order is the hierarchical order (siblings group under their
    parent), and an ancestor is a prefix. Hashing, equality and ordering
    are the tuple's own, so a name equals a plain tuple with the same
    items. ``DomainName(labels)`` and ``labels`` take and give the labels
    leftmost first, as written; ``DomainName(name)`` is ``name``.
    """

    __slots__ = ()

    def __new__(cls, labels: Iterable[bytes]):
        if isinstance(labels, DomainName):  # its items run root side first
            return labels
        lab = tuple(bytes(l).lower() for l in labels)
        if b"" in lab or (lab and max(map(len, lab)) > MAX_LABEL) \
                or sum(map(len, lab)) + len(lab) + 1 > MAX_WIRE:
            _raise_label_error(lab)
        return tuple.__new__(cls, lab[::-1])

    # -- identity ---------------------------------------------------------

    # named in the class so that wrapping them from outside finds them
    __hash__ = tuple.__hash__
    __eq__ = tuple.__eq__
    __lt__ = tuple.__lt__

    def __getnewargs__(self) -> tuple[tuple[bytes, ...]]:
        # copy and pickle call ``__new__``, which takes labels leftmost first
        return (self.labels,)

    def __repr__(self) -> str:
        return f"DomainName({str(self)!r})"

    def __str__(self) -> str:
        if not self:
            return "."
        if not b"".join(self).translate(None, _PLAIN):  # nothing to escape
            return b".".join(reversed(self)).decode("ascii")
        return ".".join(_present_label(l) for l in reversed(self))

    # -- structure --------------------------------------------------------

    @property
    def labels(self) -> tuple[bytes, ...]:
        """The labels leftmost first, as written."""
        return self[::-1]

    @property
    def is_root(self) -> bool:
        return not self

    def parent(self) -> "DomainName":
        """Drop the leftmost label. Undefined for the root."""
        if not self:
            raise DnsNameError("the root has no parent")
        return tuple.__new__(DomainName, self[:-1])

    def child(self, label: bytes | str) -> "DomainName":
        if isinstance(label, str):
            label = label.encode("ascii")
        return DomainName((label, *reversed(self)))

    def is_within(self, zone: "DomainName") -> bool:
        """True iff self equals ``zone`` or is a descendant of it."""
        return self[:len(zone)] == zone

    def ancestor_at_depth(self, depth: int) -> "DomainName":
        """The enclosing name with ``depth`` labels (0 = root)."""
        if depth > len(self):
            raise DnsNameError("depth exceeds label count")
        return tuple.__new__(DomainName, self[:depth])


def _raise_label_error(lab: tuple[bytes, ...]) -> None:
    """Raise the error of the first label, in order, that breaks a limit."""
    wire_len = 1
    for l in lab:
        if not l:
            raise EmptyLabel("empty label")
        if len(l) > MAX_LABEL:
            raise LabelTooLong(f"label exceeds {MAX_LABEL} bytes: {l[:16]!r}...")
        wire_len += len(l) + 1
    raise NameTooLong(f"name wire length {wire_len} exceeds {MAX_WIRE}")


def _checked_name(lab: Sequence[bytes]) -> DomainName:
    """The DomainName of the labels ``lab``, leftmost first, trusted to be
    lowercase and within every limit that ``DomainName(labels)`` checks."""
    return tuple.__new__(DomainName, lab[::-1])


ROOT = DomainName(())


def normalize(name: str | bytes | DomainName) -> DomainName:
    """Parse a dot-separated presentation-format name into a DomainName.

    Accepts an optional trailing dot; RFC 1035 master-file escapes
    (``\\.`` and ``\\DDD``) are honored. Raises EmptyLabel, LabelTooLong
    or NameTooLong on malformed input, and DnsNameError on any non-ASCII
    character (IDNs must arrive in their ``xn--`` form).
    """
    if isinstance(name, DomainName):
        return name
    if isinstance(name, bytes):
        # latin-1 maps every byte to one character, so non-ASCII bytes fail
        # the same check as non-ASCII text
        text = name.decode("latin-1")
    elif isinstance(name, str):
        text = name
    else:
        raise TypeError(f"a name must be text, not {type(name).__name__}")
    if not text.isascii():
        raise DnsNameError(f"non-ASCII character in {text!r}")
    if text in (".", ""):
        # A lone dot is the root; the empty string is tolerated as root too,
        # matching common passive-data conventions.
        return ROOT
    if "\\" not in text:
        # no escapes: every dot ends a label, and the wire form is one
        # length byte per label plus the root's, two more than the text
        raw = (text[:-1] if text[-1] == "." else text).lower().encode("ascii")
        lab = raw.split(b".")
        if b"" in lab:
            raise EmptyLabel(f"empty label in {text!r}")
        if len(raw) + 2 > MAX_WIRE or max(map(len, lab)) > MAX_LABEL:
            _raise_label_error(lab)
        return _checked_name(lab)
    labels: list[bytes] = []
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
    elif text.endswith("."):
        pass  # trailing dot already consumed the final label
    else:
        raise EmptyLabel(f"empty label in {text!r}")
    return DomainName(labels)


def _present_label(label: bytes) -> str:
    out = []
    for b in label:
        c = chr(b)
        if c in ".\\":
            out.append("\\" + c)
        elif 0x21 <= b <= 0x7E:
            out.append(c)
        else:
            out.append("\\%03d" % b)
    return "".join(out)


def enclosing_zones(name: DomainName) -> list[DomainName]:
    """All label-boundary names from the root down to ``name`` inclusive."""
    return [tuple.__new__(DomainName, name[:d]) for d in range(len(name) + 1)]


def deepest_known(name: DomainName, known: Mapping[DomainName, _V]) -> _V | None:
    """The value ``known`` holds for the deepest name enclosing ``name``
    that is one of its keys: the longest of its prefixes, down to the root,
    that is a key. None if none is."""
    for depth in range(len(name), -1, -1):
        value = known.get(name[:depth])
        if value is not None:
            return value
    return None
