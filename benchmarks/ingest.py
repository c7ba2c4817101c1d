"""Time ingest and the daily-trials table on registry cohorts and on wide_extract.

    PYTHONPATH=src python3 benchmarks/ingest.py

Run from the root of a source checkout.  For each n, the cohort is
``perfbench/inputs.registry_cohort_csv(2, n)`` read with covariates z and
w, and the table is stratified by {w, z}.  wide_extract is
``perfbench/inputs.generate("wide_extract", 3, ...)`` read as its
``analyze`` command reads it: every covariate mapped, ``--id`` checked,
the automatic adjustment set kept, then ``--t-max`` applied before the
table is built.  The script records the median wall time of
``load_cohort`` and of ``to_daily_trials``, with the rows, distinct days
and strata.  BLAS runs on one thread.  It writes ``BENCH_ingest.json``
in the current directory.
"""

import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

# one BLAS thread, as perfbench's worker runs: set before numpy loads BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from inputs import generate, registry_cohort_csv  # noqa: E402

from causalsurv import __version__  # noqa: E402
from causalsurv.cli import build_parser  # noqa: E402
from causalsurv.cohort import load_cohort, truncate_followup  # noqa: E402
from causalsurv.graph import load_graph, minimal_backdoor_sets  # noqa: E402
from causalsurv.trials import to_daily_trials  # noqa: E402

SIZES = (10**4, 10**5, 10**6)
SEED = 2
WIDE_SEED = 3
COLUMNS = {"treatment": "treatment", "time": "time", "event": "event", "covariates": ["z", "w"]}


def _median_s(call, repeats):
    call()  # warm-up
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(path, column_map, keep, t_max, repeats):
    """Median seconds of the load and of the table, and the sizes they saw."""
    cohort = load_cohort(path, column_map, keep)
    if t_max is not None:
        cohort = truncate_followup(cohort, t_max)
    trials = to_daily_trials(cohort, keep)
    return {
        "rows": cohort.n,
        "days": len(trials.days),
        "strata": int(trials.counts.shape[1]),
        "load_cohort_s": _median_s(lambda: load_cohort(path, column_map, keep), repeats),
        "to_daily_trials_s": _median_s(lambda: to_daily_trials(cohort, keep), repeats),
    }


def wide_extract(directory):
    """wide_extract's file, column map, automatic set and horizon, from its analyze command."""
    argv = generate("wide_extract", WIDE_SEED, Path(directory) / "wide")["argv"][0]
    args = build_parser().parse_args([*argv, "--out", str(directory)])
    covariates = args.covariates.split(",")
    column_map = {"treatment": args.treatment, "time": args.time, "event": args.event,
                  "covariates": covariates, "id": args.id_col}
    keep = minimal_backdoor_sets(load_graph(args.graph), args.treatment, args.time)[0].variables
    return args.data, column_map, tuple(sorted(keep)), args.t_max


def main():
    results = {}
    with tempfile.TemporaryDirectory() as directory:
        for n in SIZES:
            path = Path(directory) / f"registry_{n}.csv"
            path.write_text(registry_cohort_csv(SEED, n), encoding="utf-8")
            repeats = 9 if n == 10**6 else 41
            results[f"registry_{n}"] = measure(path, COLUMNS, ("w", "z"), None, repeats)
        results["wide_extract"] = measure(*wide_extract(directory), 41)
    bench = {
        "benchmark": "ingest",
        "cohorts": {
            "registry_N": f"perfbench/inputs.registry_cohort_csv({SEED}, N), covariates z and w, "
            "table by {w, z}",
            "wide_extract": f"perfbench/inputs.generate('wide_extract', {WIDE_SEED}): every "
            "covariate mapped, --id checked, the automatic set kept, --t-max applied before the table",
        },
        "statistic": "median wall seconds: 9 runs at 10^6, 41 otherwise, after one warm-up",
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "results": results,
    }
    Path("BENCH_ingest.json").write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    for name, r in results.items():
        print(f"{name:<16} load_cohort {r['load_cohort_s'] * 1e3:8.2f} ms  "
              f"to_daily_trials {r['to_daily_trials_s'] * 1e3:7.2f} ms  days {r['days']}")


if __name__ == "__main__":
    main()
