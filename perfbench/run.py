"""Pipeline benchmark for ``causalsurv analyze``.

    python3 perfbench/run.py --workload paper_small --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The benchmark

1. generates the workload's inputs from ``--seed`` (``inputs.py``) in this
   process and records the sha256 of every file;
2. times the cold start a CLI user pays, ``import causalsurv.cli`` in a
   fresh interpreter, several times, each corrected by a reference import
   timed in the same interpreter (``setup_s``);
3. starts ``worker.py`` in a process of its own, with BLAS pinned to one
   thread, which runs ``analyze`` in-process as a closed loop for
   ``--seconds`` seconds and checks every output (``--trace 0``), or runs
   the traced per-layer pass (``--trace 1``);
4. prints every metric by name with its unit and sample count, the
   output-check verdict and the provenance, writes the full result and
   the spans under ``.perfbench/results/``, and prints as its last line
   the JSON summary ``{"correct", "attempted", "failed", "metrics"}``.

Every timing is speed-corrected: raw x nominal / measured, where measured
is the reference block timed just before and just after (``refblocks.py``)
and nominal is frozen in ``nominal.json``.  Raw seconds and reference
times are kept beside each corrected value in the result file.

An analysis fails the output check unless it exits 0, writes strict
RFC 8259 JSON, has all three fits present and converged with finite
hazard ratios inside their intervals, and repeats byte-identically on the
same input.  Failures count in ``failed`` and keep their timing; nothing
is retried.  ``compare.py`` compares two result files.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from inputs import WORKLOADS, generate  # noqa: E402
from refblocks import IMPORT_MODULES  # noqa: E402

NOMINAL = json.loads((HERE / "nominal.json").read_text(encoding="utf-8"))
# The reference mix each workload is corrected by.
REFERENCE = {"paper_small": "small", "registry_ties": "large", "wide_extract": "mixed"}
SETUP_PROBES = 9
# paper_small analyses take about 25 ms each (plus an untimed repeat), so
# this many cohorts per measured second is more than a run can use.
PAPER_COHORTS_PER_S = 40
WORKER_TIMEOUT_S = 150
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# Prints: reference import seconds, numpy import seconds, and the seconds
# to import causalsurv.cli once numpy is loaded.
PROBE = f"""
import time
t0 = time.perf_counter()
import {", ".join(IMPORT_MODULES[0])}
t1 = time.perf_counter()
import numpy
t2 = time.perf_counter()
import causalsurv.cli
t3 = time.perf_counter()
import {", ".join(IMPORT_MODULES[1])}
t4 = time.perf_counter()
print(repr(t1 - t0 + t4 - t3), repr(t2 - t1), repr(t3 - t2))
"""

COUNT_UNITS = {"bytes": "B", "report_bytes": "B", "peak_mib": "MiB"}


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(BLAS_ENV)
    return env


def probe_setup(env):
    """Corrected cold-import times of ``causalsurv.cli``, one per fresh interpreter."""
    samples = []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, "-c", PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        ref_s, numpy_s, own_s = map(float, done.stdout.split())
        if i:  # the first probe only fills the bytecode caches
            factor = NOMINAL["import"] / ref_s
            samples.append({"raw_s": numpy_s + own_s, "ref_s": ref_s, "own_raw_s": own_s,
                            "corrected_s": (numpy_s + own_s) * factor,
                            "own_corrected_s": own_s * factor})
    return samples


def p90(values):
    """The 90th percentile, or None unless ten samples lie beyond it."""
    ordered = sorted(values)
    index = int(0.9 * len(ordered))
    return ordered[index] if len(ordered) - 1 - index >= 10 else None


def timed_metrics(result, nominal):
    analyses = result["analyses"]
    for a in analyses:
        a["factor"] = nominal / statistics.fmean(a["ref_s"])
        a["corrected_s"] = a["raw_s"] * a["factor"]
    corrected = [a["corrected_s"] for a in analyses]
    n = len(corrected)
    metrics = {
        "analysis_s_p50": (statistics.median(corrected), "s", n),
        "analyses_per_s": (n / sum(corrected), "1/s", n),
        "peak_rss_mib": (result["peak_rss_kib"] / 1024, "MiB", 1),
    }
    extra = {"failed_frac": (sum(1 for a in analyses if a["reasons"]) / n, "fraction", n)}
    if p90(corrected) is not None:
        extra["analysis_s_p90"] = (p90(corrected), "s", n)
    return metrics, extra


def layer_metrics(trace, setup, analysis_p50):
    layers = trace["layers"]
    keys = {k for m in layers for k in m if not k.startswith("_")} - {"cli.main_s"}
    metrics = {k: statistics.median(m[k] for m in layers if k in m) for k in keys}
    for key in {k for p in trace["peaks"] for k in p}:
        metrics[key] = statistics.median(p[key] for p in trace["peaks"] if key in p)
    metrics["cli.import_s"] = statistics.median(s["own_corrected_s"] for s in setup)
    traced = statistics.median(m["cli.main_s"] for m in layers)
    metrics["trace.overhead_ratio"] = traced / analysis_p50
    return dict(sorted(metrics.items()))


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("_ratio"):
        return "ratio"
    return COUNT_UNITS.get(name.rsplit(".", 1)[-1], "count")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "causalsurv" / "__init__.py").is_file():
        print(f"no causalsurv sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    nominal = NOMINAL[REFERENCE[args.workload]]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench" / f"work-{tag}-{os.getpid()}"
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        cohorts = max(1, int(args.seconds * PAPER_COHORTS_PER_S))
        plan = generate(args.workload, args.seed, work / "inputs", cohorts=cohorts)
        env = child_env()
        setup = probe_setup(env)
        plan.update(
            trace=bool(args.trace),
            seconds=args.seconds,
            reference=REFERENCE[args.workload],
            nominal=nominal,
            out_dir=str(work / "out"),
            spans_path=str(results / f"{tag}.spans.json"),
        )
        (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work / "plan.json"),
             str(work / "result.json")],
            env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S, check=True,
        )
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    provenance = {
        **result["provenance"],
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "blas_env": BLAS_ENV,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "reference": REFERENCE[args.workload],
        "nominal": {"analysis": nominal, "import": NOMINAL["import"]},
        "input_digests": plan["digests"],
    }
    print(f"workload {args.workload}  seed {args.seed}  backend {provenance['backend']}  "
          f"python {provenance['python']}  numpy {provenance['numpy']}  "
          f"nproc {provenance['nproc']}  BLAS threads 1  inputs {len(plan['digests'])} files")
    metrics, extra = timed_metrics(result, nominal)
    metrics["setup_s"] = (statistics.median(s["corrected_s"] for s in setup), "s", len(setup))
    analyses = result["analyses"]
    attempted = len(analyses)
    failed = sum(1 for a in analyses if a["reasons"])
    print(f"{'metric':<16} {'value':>12} {'unit':<9} {'samples':>7}")
    for name, (value, unit, n) in {**metrics, **extra}.items():
        print(f"{name:<16} {value:>12.6g} {unit:<9} {n:>7}")
    print(f"raw: analysis p50 {statistics.median(a['raw_s'] for a in analyses):.6g} s, "
          f"setup p50 {statistics.median(s['raw_s'] for s in setup):.6g} s; median "
          f"correction factor {statistics.median(a['factor'] for a in analyses):.4f}")
    verdict = f"FAIL ({failed} of {attempted} analyses)" if failed else "PASS"
    print(f"output check: {verdict}")
    reasons = {}
    for a in analyses:
        for r in a["reasons"]:
            reasons[r] = reasons.get(r, 0) + 1
    for r, n in sorted(reasons.items()):
        print(f"  {n} x {r}")
    out = {name: {"value": value, "unit": unit} for name, (value, unit, _n) in metrics.items()}
    if args.trace:
        trace = result["trace"]
        layers = layer_metrics(trace, setup, metrics["analysis_s_p50"][0])
        print(f"per-layer metrics: medians over {len(trace['layers'])} traced analyses")
        for name, value in layers.items():
            print(f"  {name:<44} {value:>14.6g} {unit_of(name)}")
        for name in trace["missing"]:
            print(f"  {name:<44} {'missing':>14}")
        for i, m in enumerate(trace["layers"]):
            for f in m["_failed_fits"]:
                print(f"  traced analysis {i}: {f['fit']} fit failed "
                      f"({f['error'] or 'not converged'}, {f['iterations']} iterations)")
        out = {name: {"value": value, "unit": unit_of(name)} for name, value in layers.items()}
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}
    record = {"provenance": provenance, **summary, "setup": setup, "detail": result}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(summary))
    return 0

if __name__ == "__main__":
    sys.exit(main())
