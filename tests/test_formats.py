"""docs/formats.md names each structured output with its ``format`` and
``version``; each documented version must be the one the code writes, and
every format the code writes must be documented."""

import io
import json
import re
from collections import Counter
from pathlib import Path

from v6ready.classify import STATES, FailureBreakdown, ResolutionStatus
from v6ready.mocknet import dump_fixtures
from v6ready.names import normalize
from v6ready.passive import VERDICT_FORMAT, SnapshotStats
from v6ready.resolver import ChainResult

FORMATS = Path(__file__).resolve().parent.parent / "docs" / "formats.md"
# `format: "chain-result", version: 4` and {"format": "zone-verdicts", "version": 1}
DOCUMENTED = re.compile(r'format"?: "([a-z-]+)",\s*"?version"?: (\d+)')


def written_versions() -> dict[str, int]:
    chain = ChainResult(normalize("example.com"), "both", [],
                        ResolutionStatus(False, False, False)).to_json_dict()
    stats = SnapshotStats(None, dict.fromkeys(STATES, 0), 0, 0,
                          FailureBreakdown(0, Counter())).to_json()
    out = io.StringIO()
    dump_fixtures(out, [])
    fixtures = json.loads(out.getvalue())
    return {doc["format"]: doc["version"]
            for doc in (chain, VERDICT_FORMAT, stats, fixtures)}


def test_documented_format_versions_are_the_versions_written():
    documented: dict[str, int] = {}
    for name, version in DOCUMENTED.findall(FORMATS.read_text(encoding="utf-8")):
        assert documented.setdefault(name, int(version)) == int(version), name
    assert documented == written_versions()
