"""Time the three Cox fits of an analysis on registry cohorts of 10^4 to 10^6 subjects.

    PYTHONPATH=src python3 benchmarks/cox_ties.py

Run from the root of a source checkout.  For each n, the cohort is
``perfbench/inputs.registry_cohort_csv(2, n)`` (covariates z and w, day
times over five years, so ties of hundreds to thousands of weighted
failures), and the three fits are the ones ``analyze`` runs: crude on the
pooled daily trials, traditional on the trials stratified by {w, z}, and
adjusted on the pseudo-cohort, all under Efron ties.  For each fit the
script records the median wall time of one ``_prepare`` of the table's
cells (its checks, and the merge when the rows are not already distinct
and in order), of one ``cox_eval`` at beta = 0 and of one whole
``cox_fit`` (preparation, layout and Newton included), with the rows,
failure times, weighted failures and largest tie it fitted.  BLAS runs on
one thread.  It writes ``BENCH_cox_ties.json`` in the current directory.
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
from inputs import registry_cohort_csv  # noqa: E402

from causalsurv import __version__  # noqa: E402
from causalsurv._cox_kernels import cox_eval, cox_layout  # noqa: E402
from causalsurv.adjust import adjust_curve  # noqa: E402
from causalsurv.cohort import load_cohort  # noqa: E402
from causalsurv.estimators import _prepare, cox_fit  # noqa: E402
from causalsurv.graph import AdjustmentSet  # noqa: E402
from causalsurv.trials import from_adjusted_counts, to_daily_trials  # noqa: E402

SIZES = (10**4, 10**5, 10**6)
SEED = 2
EVAL_REPEATS = 41
FIT_REPEATS = 9
COLUMNS = {"treatment": "treatment", "time": "time", "event": "event", "covariates": ["z", "w"]}


def _median_s(call, repeats):
    call()  # warm-up
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _fits(path):
    cohort = load_cohort(path, COLUMNS)
    trials = to_daily_trials(cohort, ("w", "z"))
    adjset = AdjustmentSet(frozenset({"w", "z"}), True, "treatment", "time")
    pseudo = from_adjusted_counts(adjust_curve(cohort, trials, adjset))
    return {"crude": trials.pooled(), "traditional": trials, "adjusted": pseudo}


def measure(n, directory):
    path = Path(directory) / f"registry_{n}.csv"
    path.write_text(registry_cohort_csv(SEED, n), encoding="utf-8")
    out = {}
    for name, table in _fits(path).items():
        arm, stratum, day, event, count = table.cells()
        x = np.column_stack([arm, *table.dummies(stratum)]).astype(np.float64)
        rows, t, d, counts = _prepare(x, day, event, count)
        layout = cox_layout(rows, t, d, counts, True)
        beta = np.zeros(rows.shape[1])
        m = layout.m
        fit = cox_fit(x, day, event, counts=count)
        out[name] = {
            "p": int(rows.shape[1]),
            "rows": int(rows.shape[0]),
            "failure_times": int(m.size),
            "weighted_failures": int(m.sum()),
            "largest_tie": int(m.max()),
            "iterations": int(fit.iterations),
            "prepare_s": _median_s(lambda: _prepare(x, day, event, count), EVAL_REPEATS),
            "cox_eval_s": _median_s(lambda: cox_eval(layout, beta), EVAL_REPEATS),
            "cox_fit_s": _median_s(lambda: cox_fit(x, day, event, counts=count), FIT_REPEATS),
        }
    return out


def main():
    with tempfile.TemporaryDirectory() as directory:
        results = {str(n): measure(n, directory) for n in SIZES}
    bench = {
        "benchmark": "cox_ties",
        "cohort": f"perfbench/inputs.registry_cohort_csv({SEED}, n), covariates z and w",
        "ties": "efron",
        "statistic": (
            f"median wall seconds: _prepare and cox_eval of {EVAL_REPEATS}, cox_fit of {FIT_REPEATS}"
        ),
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "results": results,
    }
    Path("BENCH_cox_ties.json").write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    for n, fits in results.items():
        for name, r in fits.items():
            print(f"n={n:>7} {name:<11} prepare {r['prepare_s'] * 1e3:8.3f} ms  "
                  f"eval {r['cox_eval_s'] * 1e3:8.3f} ms  "
                  f"fit {r['cox_fit_s'] * 1e3:8.2f} ms  largest tie {r['largest_tie']}")


if __name__ == "__main__":
    main()
