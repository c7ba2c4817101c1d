"""Time the CLI's cold start: ``import causalsurv.cli`` in fresh interpreters.

    python3 benchmarks/startup.py

Run from the root of a source checkout.  The script copies
``src/causalsurv`` into two temporary directories and compiles one of them
with ``compileall``, so one copy starts from source and one from
bytecode; nothing is written under ``src/``.  Interpreters run with
``-B`` so the source copy stays without bytecode.  For each copy it
starts 21 fresh interpreters, alternating between the copies, with BLAS
on one thread, and times ``import causalsurv.cli`` after ``import numpy``
(numpy's own import is not timed).  It writes the median and quartiles
of each copy, in milliseconds, and the modules the import adds to
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

SOURCE = Path(__file__).resolve().parent.parent / "src" / "causalsurv"
RUNS = 21
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Prints the seconds the import took, then the modules it added.
PROBE = """
import sys, time
import numpy
before = set(sys.modules)
t0 = time.perf_counter()
import causalsurv.cli
t1 = time.perf_counter()
print(repr(t1 - t0))
print(sorted(set(sys.modules) - before))
"""


def probe(root):
    """Seconds to import ``causalsurv.cli`` from ``root``, and the modules it added."""
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(root)}
    done = subprocess.run(
        [sys.executable, "-B", "-c", PROBE], env=env, cwd=root,
        capture_output=True, text=True, timeout=60, check=True,
    )
    seconds, added = done.stdout.splitlines()
    return float(seconds), ast.literal_eval(added)


def summary(samples):
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median_ms": median * 1e3, "q1_ms": q1 * 1e3, "q3_ms": q3 * 1e3, "runs": len(samples)}


def main():
    samples = {"source": [], "bytecode": []}
    with tempfile.TemporaryDirectory() as directory:
        roots = {name: Path(directory) / name for name in samples}
        for root in roots.values():
            shutil.copytree(SOURCE, root / "causalsurv",
                            ignore=shutil.ignore_patterns("__pycache__"))
        compileall.compile_dir(roots["bytecode"], quiet=1)
        added = {}
        for _ in range(RUNS):
            for name, root in roots.items():
                seconds, added[name] = probe(root)
                samples[name].append(seconds)
    bench = {
        "benchmark": "startup",
        "measure": "seconds to import causalsurv.cli after numpy, one fresh interpreter per run",
        "statistic": f"median and quartiles of {RUNS} runs per copy, the copies alternating",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "results": {name: {**summary(s), "modules_added": added[name]}
                    for name, s in samples.items()},
    }
    Path("BENCH_startup.json").write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    for name, r in bench["results"].items():
        print(f"{name:<9} import causalsurv.cli {r['median_ms']:7.2f} ms "
              f"(quartiles {r['q1_ms']:.2f}-{r['q3_ms']:.2f}), "
              f"{len(r['modules_added'])} modules added")


if __name__ == "__main__":
    main()
