"""Reference figures for the scan-warm inputs at ``--concurrency`` 1 and 2.

    python3 bench/concurrency.py --seed 1 --repeats 3

Prints, per run, the CPU seconds of the ``scan`` call, the Universe
exchanges per domain and a digest of the rows written. These are the
figures behind leaving ``--concurrency 2`` out of the timed workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys

import run
import workloads


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    inputs, manifest = run.inputs_for("scan-warm", args.seed)
    work = run.WORK / "out" / "concurrency"
    work.mkdir(parents=True, exist_ok=True)
    probe = workloads.SpeedProbe(float("inf"))
    wl = workloads.ScanWarm(inputs, manifest, work, probe)
    v6 = run.import_checked()
    wl.setup(v6)
    try:
        for concurrency in (1, 2):
            for _ in range(args.repeats):
                wl.output.unlink(missing_ok=True)
                wl.fresh_log(v6)
                argv = ["scan", str(inputs / manifest["list"]), "--output", str(wl.output),
                        "--concurrency", str(concurrency),
                        "--roots", str(inputs / manifest["roots"]), *workloads.FAST]
                _rc, _out, cpu = workloads.quiet_main(v6["cli"], argv, probe, wl.transport)
                rows = wl.output.read_bytes()
                net = wl.fresh_log(v6)
                print(json.dumps({"concurrency": concurrency, "cpu_s": round(cpu, 3),
                                  "exchanges_per_domain": round(
                                      net["exchanges"] / len(manifest["truth"]), 2),
                                  "rows_sha1": hashlib.sha1(rows).hexdigest()[:12]}))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
