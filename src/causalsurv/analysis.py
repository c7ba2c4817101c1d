"""End-to-end analysis pipeline and report emission.

Runs: load cohort -> validate graph -> pick/validate the adjustment set ->
daily trials -> backdoor-adjusted curve -> pseudo-cohort -> Kaplan-Meier
curves -> three Cox fits:

* crude        — treatment only, original cohort (the biased estimate);
* traditional  — treatment plus adjustment covariates, original cohort;
* adjusted     — treatment only, on the reconstructed pseudo-cohort.

Outputs are a versioned report.json, a curves.csv of both Kaplan-Meier
step curves, and optionally an SVG plot.  Fixed inputs must produce
byte-identical outputs: floats are serialized with Python's
shortest-roundtrip repr and every collection is emitted in a fixed order.
Warnings are data, not logs; they live inside report.json.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

import numpy as np

from .adjust import adjust_curve
from .cohort import (
    CohortDataset,
    drop_early_censored,
    load_cohort,
    truncate_followup,
)
from .errors import (
    EstimationError,
    InvalidAdjustmentSet,
    NotIdentifiable,
    UnknownCovariate,
)
from .estimators import Z_95, cox_fit, km_fit
from .graph import (
    find_open_backdoor_path,
    format_path,
    load_graph,
    minimal_backdoor_sets,
    satisfies_backdoor,
)
from .svg import CurveSeries, emit_svg
from .trials import from_adjusted_counts, to_daily_trials

__all__ = ["AnalysisOptions", "AnalysisReport", "run_analysis", "write_outputs"]

REPORT_SCHEMA = "1"


@dataclass(frozen=True)
class AnalysisOptions:
    treatment_col: str
    time_col: str
    event_col: str
    covariate_cols: tuple[str, ...] = ()
    id_col: str | None = None
    adjustment: str = "auto"  # "auto" or comma-separated covariate names
    ties: str = "efron"
    alpha: float = 0.05
    t_max: int | None = None
    strict_censoring: bool = False


@dataclass
class FitEntry:
    hr: float | None = None
    ci: tuple[float, float] | None = None
    beta: float | None = None
    se: float | None = None
    converged: bool | None = None
    iterations: int | None = None
    error: str | None = None

    def to_dict(self):
        if self.error is not None:
            return {"error": self.error}
        return {
            "hr": self.hr,
            "ci": [self.ci[0], self.ci[1]],
            "beta": self.beta,
            "se": self.se,
            "converged": self.converged,
            "iterations": self.iterations,
        }


@dataclass
class AnalysisReport:
    n: int
    t_max: int
    arms: dict[int, int]
    adjustment_set: tuple[str, ...]
    alpha: float
    ties: str
    crude: FitEntry = field(default_factory=FitEntry)
    traditional: FitEntry = field(default_factory=FitEntry)
    adjusted: FitEntry = field(default_factory=FitEntry)
    warnings: list[str] = field(default_factory=list)

    def to_dict(self):
        return {
            "schema": REPORT_SCHEMA,
            "n": self.n,
            "t_max": self.t_max,
            "arms": {"0": self.arms[0], "1": self.arms[1]},
            "adjustment_set": list(self.adjustment_set),
            "alpha": self.alpha,
            "ties": self.ties,
            "crude": self.crude.to_dict(),
            "traditional": self.traditional.to_dict(),
            "adjusted": self.adjusted.to_dict(),
            "warnings": list(self.warnings),
        }


def _z_for(alpha: float) -> float:
    if alpha == 0.05:
        return Z_95
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


def _dummy_columns(cohort: CohortDataset, names):
    """One-hot column blocks (first level dropped) for categorical covariates."""
    blocks = []
    for name in sorted(names):
        levels = np.arange(1, len(cohort.covariate_levels[name]))
        blocks.append((cohort.codes[name][:, None] == levels).astype(np.float64))
    return blocks


def _fit_entry(fit_callable, z_alpha) -> FitEntry:
    entry = FitEntry()
    try:
        fit = fit_callable()
    except EstimationError as exc:
        entry.error = f"{type(exc).__name__}: {exc}"
        return entry
    beta = float(fit.beta[0])
    se = float(fit.se[0])
    entry.hr = float(np.exp(beta))
    entry.ci = (float(np.exp(beta - z_alpha * se)), float(np.exp(beta + z_alpha * se)))
    entry.beta = beta
    entry.se = se
    entry.converged = bool(fit.converged)
    entry.iterations = int(fit.iterations)
    return entry


def _select_adjustment(dag, options, cohort):
    treatment_node = options.treatment_col
    outcome_node = options.time_col
    warnings = []
    if options.adjustment == "auto":
        sets = minimal_backdoor_sets(dag, treatment_node, outcome_node)
        if not sets:
            path = find_open_backdoor_path(dag, treatment_node, outcome_node)
            detail = (
                f"; open backdoor path: {format_path(dag, path)}" if path else ""
            )
            raise NotIdentifiable(
                "no observed set satisfies the backdoor criterion for "
                f"({treatment_node!r}, {outcome_node!r}){detail}",
                open_path=path,
            )
        if len(sets) > 1:
            listed = ", ".join(
                "{" + ", ".join(s.sorted_members()) + "}" for s in sets
            )
            warnings.append(
                f"multiple minimal backdoor sets ({listed}); using the first"
            )
        chosen = sets[0]
    else:
        members = [m for m in options.adjustment.split(",") if m.strip()]
        chosen = satisfies_backdoor(
            dag, frozenset(m.strip() for m in members), treatment_node, outcome_node
        )
        if not chosen.valid:
            raise InvalidAdjustmentSet(
                f"user-supplied set {sorted(chosen.variables)!r} does not satisfy "
                f"the backdoor criterion for ({treatment_node!r}, {outcome_node!r})"
            )
    for member in chosen.sorted_members():
        if member not in cohort.covariate_levels:
            raise UnknownCovariate(
                f"adjustment set member {member!r} is not a mapped covariate column"
            )
    return chosen, warnings


def run_analysis(data_path, graph_path, options: AnalysisOptions):
    """Run the full pipeline; returns (report, artifacts).

    Artifacts carry the Kaplan-Meier step curves for serialization:
    ``curves`` is a list of (variant, arm, days, survival, counts).
    """
    cohort = load_cohort(
        data_path,
        {
            "treatment": options.treatment_col,
            "time": options.time_col,
            "event": options.event_col,
            "covariates": list(options.covariate_cols),
            **({"id": options.id_col} if options.id_col else {}),
        },
    )
    warnings: list[str] = []
    if options.t_max is not None:
        truncated = truncate_followup(cohort, options.t_max)
        if truncated is not cohort:
            warnings.append(f"follow-up truncated at day {options.t_max}")
        cohort = truncated
    if options.strict_censoring:
        cohort, dropped = drop_early_censored(cohort)
        if dropped:
            warnings.append(
                f"strict censoring mode dropped {dropped} subjects censored "
                "before the horizon"
            )
    elif bool(np.any(cohort.event == 0)):
        warnings.append(
            "censored subjects count as alive on every day in the transform; "
            "survival may be overstated under heavy censoring "
            "(--strict-censoring drops them instead)"
        )

    dag = load_graph(graph_path)
    adjset, select_warnings = _select_adjustment(dag, options, cohort)
    warnings.extend(select_warnings)

    matrix = to_daily_trials(cohort)
    curve = adjust_curve(cohort, matrix, adjset)
    pseudo = from_adjusted_counts(curve, cohort.arm_sizes())

    km_unadj = km_fit(cohort.time, cohort.event, cohort.treatment)
    km_adj = km_fit(pseudo.survival_time, pseudo.event, pseudo.treatment)

    z_alpha = _z_for(options.alpha)
    treatment = cohort.treatment.astype(np.float64)
    report = AnalysisReport(
        n=cohort.n,
        t_max=cohort.t_max,
        arms=cohort.arm_sizes(),
        adjustment_set=adjset.sorted_members(),
        alpha=options.alpha,
        ties=options.ties,
    )
    report.crude = _fit_entry(
        lambda: cox_fit(
            treatment[:, None], cohort.time, cohort.event, ties=options.ties
        ),
        z_alpha,
    )
    trad_cols = [treatment] + _dummy_columns(cohort, adjset.variables)
    report.traditional = _fit_entry(
        lambda: cox_fit(
            np.column_stack(trad_cols), cohort.time, cohort.event, ties=options.ties
        ),
        z_alpha,
    )
    report.adjusted = _fit_entry(
        lambda: cox_fit(
            pseudo.treatment.astype(np.float64)[:, None],
            pseudo.survival_time,
            pseudo.event,
            ties=options.ties,
        ),
        z_alpha,
    )
    for name, entry in (
        ("crude", report.crude),
        ("traditional", report.traditional),
        ("adjusted", report.adjusted),
    ):
        if entry.error is not None:
            warnings.append(f"{name} fit failed: {entry.error}")
        elif entry.converged is False:
            warnings.append(f"{name} fit did not converge")
    report.warnings = warnings

    curves = []
    for variant, km, source_times in (
        ("unadjusted", km_unadj, cohort.time),
        ("adjusted", km_adj, pseudo.survival_time),
    ):
        for arm in (0, 1):
            group = km.groups[arm]
            days = np.unique(
                np.concatenate((group.times, [0, cohort.t_max]))
            ).astype(np.int64)
            survival = np.asarray(group.survival_at(days), dtype=np.float64)
            counts = survival * cohort.arm_sizes()[arm]
            curves.append((variant, arm, days, survival, counts))
    artifacts = {
        "curves": curves,
        "adjusted_curve": curve,
        "pseudo": pseudo,
        "cohort": cohort,
    }
    return report, artifacts


def write_outputs(report, artifacts, out_dir, svg: bool = False) -> dict[str, Path]:
    """Write report.json, curves.csv, and optionally curves.svg."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}

    report_path = out / "report.json"
    report_path.write_text(
        json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8"
    )
    paths["report"] = report_path

    lines = ["variant,arm,day,survival,count"]
    for variant, arm, days, survival, counts in artifacts["curves"]:
        for day, s, c in zip(days.tolist(), survival.tolist(), counts.tolist()):
            lines.append(f"{variant},{arm},{day},{s!r},{c!r}")
    curves_path = out / "curves.csv"
    curves_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    paths["curves"] = curves_path

    if svg:
        series = [
            CurveSeries(
                series_id=f"{variant}-arm{arm}",
                label=f"{variant} x={arm}",
                days=days,
                survival=survival,
            )
            for variant, arm, days, survival, _counts in artifacts["curves"]
        ]
        svg_path = out / "curves.svg"
        svg_path.write_text(emit_svg(series), encoding="utf-8")
        paths["svg"] = svg_path
    return paths
