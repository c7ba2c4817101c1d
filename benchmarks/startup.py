"""Time the CLI's cold start: ``import causalsurv.cli`` in fresh interpreters.

    python3 benchmarks/startup.py

Run from the root of a source checkout.  The script copies
``src/causalsurv`` into two temporary directories and compiles one of them
with ``compileall``, so one copy starts from source and one from
bytecode; nothing is written under ``src/``.  Interpreters run with
``-B`` so the source copy stays without bytecode.  For each copy it
starts 21 fresh interpreters, alternating between the copies, with BLAS
on one thread, and times ``import causalsurv.cli`` after ``import numpy``
(numpy's own import is not timed).  Each interpreter also times the two
halves of ``perfbench/refblocks.IMPORT_MODULES``, one just before and one
just after that import, as ``perfbench/run.py`` does for ``setup_s``;
the corrected time is the raw one scaled by the ``import`` value of
``perfbench/nominal.json`` over that reference time.

After the import timing, each interpreter runs ``cli.main(["analyze",
..., "--svg"])`` on one n = 200 cohort from ``causalsurv simulate --seed
7`` and the paper graph (``perfbench/inputs.PAPER_GRAPH``), with stdout
sent to ``os.devnull``.  It times the first call, which builds the
parser, and the median of the next 10; both are corrected as the import
is.  The script writes the raw and corrected median and quartiles of
each copy, in milliseconds, and the modules the import adds to
``sys.modules`` to ``BENCH_startup.json`` in the current directory.
"""

import ast
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "causalsurv"
RUNS = 21
LATER_CALLS = 10
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
NOMINAL_IMPORT_S = json.loads((ROOT / "perfbench" / "nominal.json").read_text())["import"]
sys.path.insert(0, str(ROOT / "perfbench"))
from inputs import PAPER_GRAPH  # noqa: E402
from refblocks import IMPORT_MODULES  # noqa: E402

# Prints the seconds the reference imports took and the seconds the import
# of causalsurv.cli took, then the modules that import added, then the
# seconds of each analyze call (the argv follows the script).
PROBE = f"""
import contextlib, os, sys, time
import numpy
t0 = time.perf_counter()
import {", ".join(IMPORT_MODULES[0])}
before = set(sys.modules)
t1 = time.perf_counter()
import causalsurv.cli
t2 = time.perf_counter()
added = sorted(set(sys.modules) - before)
t3 = time.perf_counter()
import {", ".join(IMPORT_MODULES[1])}
t4 = time.perf_counter()
calls = []
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    for _ in range({1 + LATER_CALLS}):
        start = time.perf_counter()
        code = causalsurv.cli.main(sys.argv[1:])
        calls.append(time.perf_counter() - start)
        if code != 0:
            sys.exit(f"analyze exited {{code}}")
print(repr(t1 - t0 + t4 - t3), repr(t2 - t1))
print(added)
print(calls)
"""


def probe(root, argv):
    """Reference and ``causalsurv.cli`` import seconds from ``root``, the
    modules added, and the seconds of each ``main(argv)`` call."""
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(root)}
    done = subprocess.run(
        [sys.executable, "-B", "-c", PROBE, *argv], env=env, cwd=root,
        capture_output=True, text=True, timeout=60, check=True,
    )
    times, added, calls = done.stdout.splitlines()
    ref_s, own_s = map(float, times.split())
    return ref_s, own_s, ast.literal_eval(added), ast.literal_eval(calls)


def summary(samples, prefix=""):
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {f"{prefix}median_ms": median * 1e3, f"{prefix}q1_ms": q1 * 1e3,
            f"{prefix}q3_ms": q3 * 1e3}


def main():
    names = ("source", "bytecode")
    parts = ("import", "first", "later")  # the later calls give one median per run
    raw, corrected = ({name: {part: [] for part in parts} for name in names} for _ in range(2))
    ref = {name: [] for name in names}
    with tempfile.TemporaryDirectory() as directory:
        roots = {name: Path(directory) / name for name in names}
        for root in roots.values():
            shutil.copytree(SOURCE, root / "causalsurv",
                            ignore=shutil.ignore_patterns("__pycache__"))
        compileall.compile_dir(roots["bytecode"], quiet=1)
        data, graph = Path(directory) / "cohort.csv", Path(directory) / "graph.json"
        subprocess.run(
            [sys.executable, "-B", "-m", "causalsurv.cli", "simulate", "--seed", "7",
             "--out", str(data)],
            env={**os.environ, **BLAS_ENV, "PYTHONPATH": str(roots["source"])},
            capture_output=True, timeout=60, check=True,
        )
        graph.write_text(json.dumps(PAPER_GRAPH), encoding="utf-8")
        argv = ["analyze", "--data", str(data), "--graph", str(graph),
                "--treatment", "treatment", "--time", "time", "--event", "event",
                "--covariates", "z", "--svg", "--out", str(Path(directory) / "out")]
        added = {}
        for _ in range(RUNS):
            for name, root in roots.items():
                ref_s, own_s, added[name], calls = probe(root, argv)
                ref[name].append(ref_s)
                for part, seconds in zip(parts, (own_s, calls[0], statistics.median(calls[1:]))):
                    raw[name][part].append(seconds)
                    corrected[name][part].append(seconds * NOMINAL_IMPORT_S / ref_s)
    bench = {
        "benchmark": "startup",
        "measure": "seconds to import causalsurv.cli after numpy, one fresh interpreter per "
        "run; then, in the same interpreter, seconds of the first cli.main(['analyze', ..., "
        "'--svg']) call on the n = 200 cohort of 'causalsurv simulate --seed 7' and the "
        f"paper graph, and the median of the next {LATER_CALLS} calls, stdout to os.devnull",
        "correction": "corrected = raw x nominal / reference, for the import and the calls "
        "alike, the reference being the two "
        "halves of perfbench/refblocks.IMPORT_MODULES timed around the import in the same "
        f"interpreter and nominal the 'import' value of perfbench/nominal.json ({NOMINAL_IMPORT_S} s)",
        "statistic": f"median and quartiles of {RUNS} runs per copy, the copies alternating",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "results": {
            name: {**summary(raw[name]["import"]),
                   **summary(corrected[name]["import"], "corrected_"),
                   "reference_median_ms": statistics.median(ref[name]) * 1e3,
                   "runs": RUNS, "modules_added": added[name],
                   **{f"{part}_call": {**summary(raw[name][part]),
                                       **summary(corrected[name][part], "corrected_")}
                      for part in parts[1:]}}
            for name in names
        },
    }
    Path("BENCH_startup.json").write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    for name, r in bench["results"].items():
        print(f"{name:<9} import causalsurv.cli raw {r['median_ms']:6.2f} ms "
              f"(quartiles {r['q1_ms']:.2f}-{r['q3_ms']:.2f}), corrected "
              f"{r['corrected_median_ms']:6.2f} ms "
              f"(quartiles {r['corrected_q1_ms']:.2f}-{r['corrected_q3_ms']:.2f}), "
              f"{len(r['modules_added'])} modules added")
        for part in parts[1:]:
            c = r[f"{part}_call"]
            print(f"{name:<9} {part} analyze call raw {c['median_ms']:6.2f} ms "
                  f"(quartiles {c['q1_ms']:.2f}-{c['q3_ms']:.2f}), corrected "
                  f"{c['corrected_median_ms']:6.2f} ms "
                  f"(quartiles {c['corrected_q1_ms']:.2f}-{c['corrected_q3_ms']:.2f})")


if __name__ == "__main__":
    main()
