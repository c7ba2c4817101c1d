"""Run ``causalsurv analyze`` in-process and record timings and checks.

Started by ``run.py`` in a process of its own, with BLAS pinned to one
thread and ``src`` on ``PYTHONPATH``:

    python3 perfbench/worker.py PLAN.json RESULT.json

The plan names the workload's inputs (from ``inputs.generate``), the
measuring time and whether to trace.  The worker first runs a closed loop
(one client, one thread) for the measuring time: each analysis is
bracketed by the workload's reference block, checked, and compared with a
run on the same input to check that the outputs are byte-identical.
``ru_maxrss`` after the loop is the workload's peak RSS.  When tracing, it
then runs the per-layer pass: the first inputs again with every layer
wrapped by ``spans``, then once more in a ``tracemalloc`` pass of its own
for the per-call memory peaks.

A failed check is recorded with its reasons and never stops the loop.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from refblocks import ReferenceBlock  # noqa: E402
from spans import Tracer  # noqa: E402

import causalsurv  # noqa: E402
from causalsurv import analysis, cli, estimators, graph  # noqa: E402

FITS = ("crude", "traditional", "adjusted")
TRACE_ANALYSES = 20


def _reject_constant(token):
    raise ValueError(f"non-RFC 8259 token {token}")


def check_report(text):
    """Reasons the report fails the output check, and each fit's Newton state."""
    try:
        report = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"report.json is not strict JSON: {exc}"], {}
    reasons, fits = [], {}
    for name in FITS:
        entry = report.get(name)
        if not isinstance(entry, dict):
            reasons.append(f"{name}: missing")
            continue
        if "error" in entry:
            reasons.append(f"{name}: {entry['error']}")
            continue
        fits[name] = {"converged": entry.get("converged"), "iterations": entry.get("iterations")}
        if entry.get("converged") is not True:
            reasons.append(f"{name}: not converged after {entry.get('iterations')} iterations")
        hr, ci = entry.get("hr"), entry.get("ci")
        values = [hr, *(ci or [])]
        if len(values) != 3 or not all(isinstance(v, float) and math.isfinite(v) for v in values):
            reasons.append(f"{name}: hazard ratio or interval not finite ({hr}, {ci})")
        elif not ci[0] <= hr <= ci[1]:
            reasons.append(f"{name}: hr {hr} outside [{ci[0]}, {ci[1]}]")
    return reasons, fits


class Analyzer:
    """Calls ``cli.main`` on one output directory and reads back the outputs."""

    def __init__(self, out_dir: Path):
        self.out = out_dir
        self.names = ("report.json", "curves.csv", "curves.svg")

    def __call__(self, argv):
        for name in self.names:
            (self.out / name).unlink(missing_ok=True)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            try:
                code = cli.main([*argv, "--out", str(self.out)])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception as exc:  # a traceback breaks the CLI contract
                traceback.print_exc()
                code = f"uncaught {type(exc).__name__}"
            raw = time.perf_counter() - start
        report = self.out / "report.json"
        curves = self.out / "curves.csv"
        text = report.read_text(encoding="utf-8") if report.exists() else None
        digest = hashlib.sha256()
        for path in (report, curves):
            digest.update(path.read_bytes() if path.exists() else b"<missing>")
        return code, raw, text, digest.hexdigest()


def _checked(code, text, digest, first_digest):
    reasons, fits = [], {}
    if code != 0:
        reasons.append(f"exit code {code}")
    if text is None:
        reasons.append("no report.json")
    else:
        more, fits = check_report(text)
        reasons += more
    if digest != first_digest:
        reasons.append("outputs differ from a repeat on the same input")
    return reasons, fits


def timed_loop(plan, ref, analyze, seconds):
    inputs = plan["argv"]
    single = len(inputs) == 1
    _, _, _, first_digest = analyze(inputs[0])  # warm-up, untimed
    records = []
    deadline = time.perf_counter() + seconds
    last = 0.0
    while len(records) < 2 or time.perf_counter() + last <= deadline:
        k = len(records)
        if not single and k >= len(inputs):
            break
        begin = time.perf_counter()
        argv = inputs[0] if single else inputs[k]
        r0 = ref.time()
        code, raw, text, digest = analyze(argv)
        r1 = ref.time()
        if not single:
            _, _, _, first_digest = analyze(argv)  # untimed repeat
        reasons, fits = _checked(code, text, digest, first_digest)
        records.append(
            {"input": 0 if single else k, "raw_s": raw, "ref_s": [r0, r1],
             "reasons": reasons, "fits": fits}
        )
        last = time.perf_counter() - begin
    return records


# --- traced pass ------------------------------------------------------------

def _cohort_counts(args, kwargs, result):
    return {"rows": result.n, "bytes": os.path.getsize(args[0])}


def _backdoor_counts(args, kwargs, result):
    dag, treatment, outcome = args[:3]
    banned = graph.descendants(dag, treatment) | {treatment, outcome}
    candidates = sum(1 for v in dag.observed_nodes() if v not in banned)
    return {"candidates": candidates, "minimal_sets": len(result)}


def _strata_counts(args, kwargs, result):
    cohort, _matrix, z = args[:3]
    return {"strata": math.prod(len(cohort.covariate_levels[c]) for c in z.variables)}


def _pseudo_counts(args, kwargs, result):
    return {"grid_days": int(len(args[0].grid)), "pseudo_rows": int(result.n)}


def _km_counts(args, kwargs, result):
    return {"event_times": sum(int(g.times.size) for g in result.groups.values())}


def _cox_counts(args, kwargs, result):
    x = np.asarray(args[0], dtype=np.float64).reshape(len(args[1]), -1)
    rows = np.column_stack((x, np.asarray(args[1]), np.asarray(args[2])))
    distinct = int(np.unique(rows, axis=0).shape[0])
    return {
        "rows": int(rows.shape[0]),
        "distinct_rows": distinct,
        "iterations": int(result.iterations),
        "converged": int(bool(result.converged)),
    }


def _report_counts(args, kwargs, result):
    return {"report_bytes": os.path.getsize(result["report"])}


def install_spans(tracer):
    """Wrap each layer at the name the program calls it through, in call order."""
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "run_analysis", "analysis.run_analysis")
    tracer.wrap(analysis, "load_cohort", "cohort.load_cohort", _cohort_counts)
    tracer.wrap(analysis, "truncate_followup", "cohort.truncate_followup")
    tracer.wrap(analysis, "drop_early_censored", "cohort.drop_early_censored")
    tracer.wrap(analysis, "load_graph", "graph.load_graph")
    tracer.wrap(analysis, "minimal_backdoor_sets", "graph.minimal_backdoor_sets", _backdoor_counts)
    tracer.wrap(analysis, "satisfies_backdoor", "graph.satisfies_backdoor")
    tracer.wrap(graph, "satisfies_backdoor", "graph.satisfies_backdoor")
    tracer.wrap(analysis, "find_open_backdoor_path", "graph.find_open_backdoor_path")
    tracer.wrap(analysis, "format_path", "graph.format_path")
    tracer.wrap(analysis, "to_daily_trials", "trials.to_daily_trials")
    tracer.wrap(analysis, "adjust_curve", "adjust.adjust_curve", _strata_counts)
    tracer.wrap(analysis, "from_adjusted_counts", "trials.from_adjusted_counts", _pseudo_counts)
    tracer.wrap(analysis, "km_fit", "estimators.km_fit", _km_counts)
    tracer.wrap(analysis, "cox_fit", "estimators.cox_fit", _cox_counts)
    tracer.wrap(estimators, "cox_eval", "cox_kernels.cox_eval")
    tracer.wrap(cli, "write_outputs", "analysis.write_outputs", _report_counts)
    tracer.wrap(analysis, "emit_svg", "svg.emit_svg")


def install_peaks(tracer):
    tracer.wrap_peak(analysis, "load_cohort", "cohort.load_cohort")
    tracer.wrap_peak(analysis, "from_adjusted_counts", "trials.from_adjusted_counts")
    tracer.wrap_peak(analysis, "cox_fit", "estimators.cox_fit")


def layer_values(tracer, factors):
    """Per-layer metrics of each traced analysis; times are speed-corrected."""
    durations = tracer.durations()
    per_analysis = []
    current = None
    for i, span in enumerate(tracer.spans):
        if span["parent"] is None:
            current = {"_fit_spans": [], "_factor": factors[len(per_analysis)]}
            per_analysis.append(current)
        name = span["name"]
        current.setdefault(f"_spans.{name}", []).append(i)
        if name == "estimators.cox_fit":
            current["_fit_spans"].append(i)
    out = []
    for values in per_analysis:
        factor = values["_factor"]

        def spans_of(name):
            return values.get(f"_spans.{name}", [])

        def total(name, index=0):
            if name in tracer.missing:
                return None
            return sum(durations[i][index] for i in spans_of(name)) * factor

        def count(name, key):
            if name in tracer.missing:
                return None
            return sum(tracer.spans[i]["counts"].get(key, 0) for i in spans_of(name))

        def calls(name):
            return None if name in tracer.missing else len(spans_of(name))

        m = {
            "cli.main.self_s": total("cli.main", 1),
            "cli.main_s": total("cli.main"),
            "cohort.load_cohort_s": total("cohort.load_cohort"),
            "cohort.truncate_followup_s": total("cohort.truncate_followup"),
            "cohort.rows": count("cohort.load_cohort", "rows"),
            "cohort.bytes": count("cohort.load_cohort", "bytes"),
            "graph.load_graph_s": total("graph.load_graph"),
            "graph.minimal_backdoor_sets_s": total("graph.minimal_backdoor_sets"),
            "graph.candidates": count("graph.minimal_backdoor_sets", "candidates"),
            "graph.satisfies_backdoor.calls": calls("graph.satisfies_backdoor"),
            "graph.minimal_sets": count("graph.minimal_backdoor_sets", "minimal_sets"),
            "trials.to_daily_trials_s": total("trials.to_daily_trials"),
            "trials.from_adjusted_counts_s": total("trials.from_adjusted_counts"),
            "trials.grid_days": count("trials.from_adjusted_counts", "grid_days"),
            "trials.pseudo_rows": count("trials.from_adjusted_counts", "pseudo_rows"),
            "adjust.adjust_curve_s": total("adjust.adjust_curve"),
            "adjust.strata": count("adjust.adjust_curve", "strata"),
            "estimators.km_fit_s": total("estimators.km_fit"),
            "estimators.km_fit.event_times": count("estimators.km_fit", "event_times"),
            "analysis.run_analysis.self_s": total("analysis.run_analysis", 1),
            "analysis.write_outputs_s": total("analysis.write_outputs"),
            "analysis.report_bytes": count("analysis.write_outputs", "report_bytes"),
            "svg.emit_svg_s": total("svg.emit_svg"),
        }
        checks = m["graph.satisfies_backdoor.calls"]
        if checks is not None and m["graph.minimal_sets"] is not None:
            m["graph.useful_frac"] = m["graph.minimal_sets"] / checks if checks else 0.0
        failed = []
        for fit, i in zip(FITS, values["_fit_spans"]):
            span = tracer.spans[i]
            counts = span["counts"]
            prefix = f"estimators.cox_fit.{fit}"
            m[f"{prefix}_s"] = durations[i][0] * factor
            for key in ("iterations", "rows", "distinct_rows", "converged"):
                if key in counts:
                    m[f"{prefix}.{key}"] = counts[key]
            if counts.get("rows"):
                m[f"{prefix}.distinct_frac"] = counts["distinct_rows"] / counts["rows"]
            if "cox_kernels.cox_eval" not in tracer.missing:
                evals = [j for j in spans_of("cox_kernels.cox_eval")
                         if tracer.spans[j]["parent"] == i]
                m[f"cox_kernels.cox_eval.{fit}.calls"] = len(evals)
                m[f"cox_kernels.cox_eval.{fit}_s"] = sum(durations[j][0] for j in evals) * factor
            if "error" in span or not counts.get("converged"):
                failed.append(
                    {"fit": fit, "error": span.get("error"),
                     "iterations": counts.get("iterations")}
                )
        m = {k: v for k, v in m.items() if v is not None}
        m["_failed_fits"] = failed
        out.append(m)
    return out


def peak_values(tracer):
    out = []
    for span in tracer.spans:
        if span["name"] == "analysis":
            out.append({})
            fits = iter(FITS)
            continue
        mib = span["peak_bytes"] / 2**20
        if span["name"] == "estimators.cox_fit":
            fit = next(fits, None)
            if fit is not None:
                out[-1][f"estimators.cox_fit.{fit}.peak_mib"] = mib
        else:
            key = f"{span['name']}.peak_mib"
            out[-1][key] = max(out[-1].get(key, 0.0), mib)
    return out


def trace_pass(plan, ref, analyze):
    """Traced analyses of the first inputs, then a ``tracemalloc`` pass."""
    inputs = plan["argv"][:TRACE_ANALYSES]
    tracer = Tracer()
    install_spans(tracer)
    factors = []
    try:
        for argv in inputs:
            r0 = ref.time()
            analyze(argv)
            r1 = ref.time()
            factors.append(plan["nominal"] / ((r0 + r1) / 2))
    finally:
        tracer.unwrap()
    memory = Tracer()
    install_peaks(memory)
    tracemalloc.start()
    try:
        for argv in inputs:
            memory.spans.append({"name": "analysis"})
            analyze(argv)
    finally:
        tracemalloc.stop()
        memory.unwrap()
    return {
        "layers": layer_values(tracer, factors),
        "peaks": peak_values(memory),
        "missing": sorted(set(tracer.missing) | set(memory.missing)),
    }, tracer.spans


def main(plan_path, result_path):
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    out_dir = Path(plan["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    ref = ReferenceBlock(plan["reference"])
    analyze = Analyzer(out_dir)
    try:
        from causalsurv import _cox_kernels
    except ImportError:
        _cox_kernels = None
    result = {
        "provenance": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "causalsurv": getattr(causalsurv, "__version__", None),
            "backend": getattr(_cox_kernels, "BACKEND", None),
        },
    }
    result["analyses"] = timed_loop(plan, ref, analyze, plan["seconds"])
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if plan["trace"]:
        result["trace"], spans = trace_pass(plan, ref, analyze)
        Path(plan["spans_path"]).write_text(json.dumps(spans), encoding="utf-8")
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
