"""The names the benchmark wraps still exist, and every per-layer metric reads.

``perfbench/worker.py`` times each layer by wrapping the names the program
calls it through.  A renamed name, or a call whose arguments a counter can
no longer read, would leave a metric missing from the benchmark's traced
summary; this test runs one traced analysis the way the worker does and
checks that every per-layer name in ``BENCHMARK.json`` gets a finite value.
"""

import contextlib
import io
import json
import math
import sys
import tracemalloc
from pathlib import Path

from causalsurv import cli

ROOT = Path(__file__).resolve().parent.parent
# added by perfbench/run.py, not by the worker's traced pass
RUN_ONLY = {"cli.import_s", "trace.overhead_ratio"}


def test_traced_analysis_reads_every_per_layer_metric(tmp_path):
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs
    import spans
    import worker

    # paper_small's first input: a simulated n = 200 cohort, --t-max 1825 --svg
    argv = inputs.generate("paper_small", 3, tmp_path / "inputs")["argv"][0]
    argv = [*argv, "--out", str(tmp_path / "out")]
    tracer, memory = spans.Tracer(), spans.Tracer()
    worker.install_spans(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    finally:
        tracer.unwrap()
    worker.install_peaks(memory)
    memory.spans.append({"name": "analysis"})
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    finally:
        tracemalloc.stop()
        memory.unwrap()
    assert tracer.missing == [] and memory.missing == []
    [layers] = worker.layer_values(tracer, [1.0])
    [peaks] = worker.peak_values(memory)
    values = {**layers, **peaks}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {metric["name"] for metric in benchmark["per_layer"]} - RUN_ONLY
    assert len(names) == len(benchmark["per_layer"]) - len(RUN_ONLY)
    for name in sorted(names):
        assert isinstance(values.get(name), (int, float)), name
        assert math.isfinite(values[name]), (name, values[name])
