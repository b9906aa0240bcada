"""Tools for checking DNS zone resolvability in an IPv6-only world."""

__version__ = "0.1.0"

# Every input file is read as UTF-8. "utf-8-sig" also drops one byte-order
# mark at the very start, which some editors and exporters write, and
# leaves a U+FEFF anywhere else as data.
INPUT_ENCODING = "utf-8-sig"
