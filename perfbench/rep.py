"""One world of one workload, in the fresh interpreter it needs.

    python3 perfbench/rep.py WORKLOAD SEED WORKDIR plain|trace [SPANS]

A fresh process per world keeps ``ru_maxrss``, the heap and the
garbage collector's state from carrying over.  Results go to
``WORKDIR/result.json``: the end-to-end figures, the outputs the check
compares and, for ``trace``, this world's per-layer totals and which
wrappers fired.  A traced world also writes its spans to ``SPANS``.
An untraced world's times are scaled to the reference host speed
(``pace.py``); a traced world's are clock seconds.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from pace import Pace  # noqa: E402
from probes import Probes  # noqa: E402
from tracer import Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv) -> int:
    workload = WORKLOADS[argv[0]]
    seed = int(argv[1])
    workdir = Path(argv[2])
    traced = argv[3] == "trace"
    recorder = Recorder() if traced else None
    probes = Probes(recorder)
    probes.install()

    result: dict = {}
    if recorder is not None:
        recorder.open_root()
        with recorder:
            raw = workload.run(seed, workdir, probes)
            wall = recorder.close_root()
        fold = recorder.fold()
        result["layers"] = probes.layer_totals(fold)
        fired = probes.fired(fold)
        result["fired"] = {key: fired.get(key, 0) for key in
                           sorted(workload.must_fire | workload.must_not_fire)}
        if len(argv) > 4:
            recorder.write(Path(argv[4]))
        result.update(wall_s=wall, setup_s=probes.setup_s,
                      analyze_s=probes.analyze_s, wall_clock_s=wall)
    else:
        with Pace() as pace:
            started = time.perf_counter()
            raw = workload.run(seed, workdir, probes)
            ended = time.perf_counter()
        result.update(
            wall_s=pace.scaled(started, ended),
            setup_s=sum(pace.scaled(*span) for span in probes.setup_windows),
            analyze_s=sum(pace.scaled(*span)
                          for span in probes.analyze_windows),
            wall_clock_s=ended - started)
    # read before the outputs are computed: they call wrapped functions
    result.update(
        campaigns=probes.campaigns,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    result["outputs"] = workload.outputs(raw)
    with (workdir / "result.json").open("w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
