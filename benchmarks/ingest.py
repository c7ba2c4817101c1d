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
and strata.  What a quote costs: the 10^6 registry file and wide_extract
are also read with only their first header name in double quotes, and
the 10^6 file with every ``z`` cell in double quotes; for the last and
the plain 10^6 file the script records the ``tracemalloc`` peak of one
load and the peak RSS (``VmHWM``) of one ``causalsurv analyze
--covariates z,w --t-max 1825 --svg`` run in a fresh process.  BLAS runs
on one thread.  A column of 2-byte cells: the 10^6 file is also read
with ``z`` written as ``10``, ``11`` and ``12``.  It writes
``BENCH_ingest.json`` in the current directory.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

# one BLAS thread, as perfbench's worker runs: set before numpy loads BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from inputs import REGISTRY_GRAPH, generate, registry_cohort_csv  # noqa: E402

from causalsurv import __version__  # noqa: E402
from causalsurv.cli import build_parser  # noqa: E402
from causalsurv.cohort import load_cohort, truncate_followup  # noqa: E402
from causalsurv.graph import load_graph, minimal_backdoor_sets  # noqa: E402
from causalsurv.trials import to_daily_trials  # noqa: E402

SIZES = (10**4, 10**5, 10**6)
SEED = 2
WIDE_SEED = 3
COLUMNS = {"treatment": "treatment", "time": "time", "event": "event", "covariates": ["z", "w"]}
# One analyze run; prints the process's peak RSS in KiB as its last line.
CLI_PEAK = """
import sys
from causalsurv.cli import main
code = main(sys.argv[1:])
status = open("/proc/self/status").read()
print(code, next(line.split()[1] for line in status.splitlines() if line.startswith("VmHWM")))
"""


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


def memory(path, graph, out):
    """The tracemalloc peak of one load and the peak RSS of one CLI run, in MiB."""
    tracemalloc.start()
    try:
        load_cohort(path, COLUMNS, ("w", "z"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    argv = ["analyze", "--data", str(path), "--graph", str(graph), "--treatment", "treatment",
            "--time", "time", "--event", "event", "--covariates", "z,w", "--t-max", "1825",
            "--svg", "--out", str(out)]
    done = subprocess.run([sys.executable, "-c", CLI_PEAK, *argv], env=os.environ,
                          capture_output=True, text=True, timeout=600, check=True)
    code, kib = done.stdout.split()[-2:]
    if code != "0":
        raise RuntimeError(f"analyze exited {code}: {done.stdout}")
    return {"load_cohort_peak_mib": peak / 2**20, "cli_peak_rss_mib": int(kib) / 1024}


def rewrite_z(text, form):
    """Registry CSV text with every z cell (the fourth field) written as ``form % cell``."""
    lines = text.splitlines()
    cells = (line.split(",") for line in lines[1:])
    return "\n".join([lines[0], *(",".join([*c[:3], form % c[3], *c[4:]]) for c in cells)]) + "\n"


def first_name_quoted(source, target):
    """Write the CSV at ``source`` to ``target`` with only its first header name in double quotes."""
    name, rest = Path(source).read_bytes().split(b",", 1)
    Path(target).write_bytes(b'"' + name + b'",' + rest)
    return target


def wide_extract(directory):
    """wide_extract's file, column map, automatic set and horizon, from its analyze command."""
    argv = generate("wide_extract", WIDE_SEED, Path(directory) / "wide")["argv"][0]
    args = build_parser().parse_args([*argv, "--out", str(directory)])
    column_map = {"treatment": args.treatment_col, "time": args.time_col, "event": args.event_col,
                  "covariates": list(args.covariate_cols), "id": args.id_col}
    dag = load_graph(args.graph)
    keep = minimal_backdoor_sets(dag, args.treatment_col, args.time_col)[0].variables
    return args.data, column_map, tuple(sorted(keep)), args.t_max


def main():
    results = {}
    with tempfile.TemporaryDirectory() as directory:
        for n in SIZES:
            path = Path(directory) / f"registry_{n}.csv"
            path.write_text(registry_cohort_csv(SEED, n), encoding="utf-8")
            repeats = 9 if n == 10**6 else 41
            results[f"registry_{n}"] = measure(path, COLUMNS, ("w", "z"), None, repeats)
            if n == 10**6:
                graph = Path(directory) / "graph.json"
                graph.write_text(json.dumps(REGISTRY_GRAPH), encoding="utf-8")
                quoted = Path(directory) / "registry_quoted.csv"
                text = path.read_text(encoding="utf-8")
                quoted.write_text(rewrite_z(text, '"%s"'), encoding="utf-8")
                name = f"registry_{n}_quoted"
                results[name] = measure(quoted, COLUMNS, ("w", "z"), None, repeats)
                two_digit = Path(directory) / "registry_two_digit_z.csv"
                two_digit.write_text(rewrite_z(text, "1%s"), encoding="utf-8")  # 10, 11, 12
                results[f"registry_{n}_two_digit_z"] = measure(
                    two_digit, COLUMNS, ("w", "z"), None, repeats
                )
                header = first_name_quoted(path, Path(directory) / "registry_header_quoted.csv")
                results[f"registry_{n}_header_quoted"] = measure(
                    header, COLUMNS, ("w", "z"), None, repeats
                )
                for key, source in ((f"registry_{n}", path), (name, quoted)):
                    results[key].update(memory(source, graph, Path(directory) / "out"))
        data, *wide = wide_extract(directory)
        results["wide_extract"] = measure(data, *wide, 41)
        header = first_name_quoted(data, Path(directory) / "wide_header_quoted.csv")
        results["wide_extract_header_quoted"] = measure(header, *wide, 41)
    bench = {
        "benchmark": "ingest",
        "cohorts": {
            "registry_N": f"perfbench/inputs.registry_cohort_csv({SEED}, N), covariates z and w, "
            "table by {w, z}",
            "registry_1000000_quoted": "registry_1000000 with every z cell in double quotes",
            "registry_1000000_two_digit_z": "registry_1000000 with every z cell written as 10, "
            "11 or 12",
            "registry_1000000_header_quoted": "registry_1000000 with only its first header name "
            "(treatment) in double quotes",
            "wide_extract": f"perfbench/inputs.generate('wide_extract', {WIDE_SEED}): every "
            "covariate mapped, --id checked, the automatic set kept, --t-max applied before the table",
            "wide_extract_header_quoted": "wide_extract with only its first header name (id) in "
            "double quotes",
        },
        "statistic": "median wall seconds: 9 runs at 10^6, 41 otherwise, after one warm-up; "
        "memory at 10^6: the tracemalloc peak of one load_cohort, and VmHWM at the end of one "
        "analyze --covariates z,w --t-max 1825 --svg in a fresh process",
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "results": results,
    }
    Path("BENCH_ingest.json").write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    for name, r in results.items():
        peaks = (f"  load peak {r['load_cohort_peak_mib']:.1f} MiB  CLI peak RSS "
                 f"{r['cli_peak_rss_mib']:.1f} MiB" if "cli_peak_rss_mib" in r else "")
        print(f"{name:<30} load_cohort {r['load_cohort_s'] * 1e3:8.2f} ms  "
              f"to_daily_trials {r['to_daily_trials_s'] * 1e3:7.2f} ms  days {r['days']}{peaks}")


if __name__ == "__main__":
    main()
