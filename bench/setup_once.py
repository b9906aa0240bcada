"""Time one set-up of a workload in a fresh interpreter.

    python3 bench/setup_once.py <workload> <inputs dir> <src dir>

Imports ``v6ready`` from ``<src dir>`` and runs the workload's set-up
(``workloads.<Workload>.setup``), then prints one JSON object: the CPU
seconds of import plus set-up, and the mean time of the reference loop
around them. ``run.py`` calls it several times and reports the median.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import workloads


def main() -> None:
    name, inputs, src = sys.argv[1], Path(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, src)
    manifest = json.loads((inputs / "manifest.json").read_text(encoding="utf-8"))
    probe = workloads.SpeedProbe()
    wl = workloads.WORKLOADS[name](inputs, manifest, inputs, probe)
    for _ in range(3):
        probe.sample()
    start = time.process_time()
    wl.setup(workloads.import_v6ready())
    cpu = time.process_time() - start
    for _ in range(3):
        probe.sample()
    print(json.dumps({"cpu_s": cpu, "reference_s": statistics.mean(probe.samples)}))


if __name__ == "__main__":
    main()
