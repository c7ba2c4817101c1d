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
``perfbench/nominal.json`` over that reference time.  It writes the raw
and corrected median and quartiles of each copy, in milliseconds, and
the modules the import adds to ``sys.modules`` to ``BENCH_startup.json``
in the current directory.
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
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
NOMINAL_IMPORT_S = json.loads((ROOT / "perfbench" / "nominal.json").read_text())["import"]
sys.path.insert(0, str(ROOT / "perfbench"))
from refblocks import IMPORT_MODULES  # noqa: E402

# Prints the seconds the reference imports took and the seconds the import
# of causalsurv.cli took, then the modules that import added.
PROBE = f"""
import sys, time
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
print(repr(t1 - t0 + t4 - t3), repr(t2 - t1))
print(added)
"""


def probe(root):
    """Reference and ``causalsurv.cli`` import seconds from ``root``, and the modules added."""
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(root)}
    done = subprocess.run(
        [sys.executable, "-B", "-c", PROBE], env=env, cwd=root,
        capture_output=True, text=True, timeout=60, check=True,
    )
    times, added = done.stdout.splitlines()
    ref_s, own_s = map(float, times.split())
    return ref_s, own_s, ast.literal_eval(added)


def summary(samples, prefix=""):
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {f"{prefix}median_ms": median * 1e3, f"{prefix}q1_ms": q1 * 1e3,
            f"{prefix}q3_ms": q3 * 1e3}


def main():
    names = ("source", "bytecode")
    raw, corrected, ref = ({name: [] for name in names} for _ in range(3))
    with tempfile.TemporaryDirectory() as directory:
        roots = {name: Path(directory) / name for name in names}
        for root in roots.values():
            shutil.copytree(SOURCE, root / "causalsurv",
                            ignore=shutil.ignore_patterns("__pycache__"))
        compileall.compile_dir(roots["bytecode"], quiet=1)
        added = {}
        for _ in range(RUNS):
            for name, root in roots.items():
                ref_s, own_s, added[name] = probe(root)
                raw[name].append(own_s)
                ref[name].append(ref_s)
                corrected[name].append(own_s * NOMINAL_IMPORT_S / ref_s)
    bench = {
        "benchmark": "startup",
        "measure": "seconds to import causalsurv.cli after numpy, one fresh interpreter per run",
        "correction": "corrected = raw x nominal / reference, the reference being the two "
        "halves of perfbench/refblocks.IMPORT_MODULES timed around the import in the same "
        f"interpreter and nominal the 'import' value of perfbench/nominal.json ({NOMINAL_IMPORT_S} s)",
        "statistic": f"median and quartiles of {RUNS} runs per copy, the copies alternating",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "results": {
            name: {**summary(raw[name]), **summary(corrected[name], "corrected_"),
                   "reference_median_ms": statistics.median(ref[name]) * 1e3,
                   "runs": RUNS, "modules_added": added[name]}
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


if __name__ == "__main__":
    main()
