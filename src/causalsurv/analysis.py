"""End-to-end analysis pipeline and report emission.

Runs: validate graph -> pick/validate the adjustment set -> load cohort ->
daily trials -> backdoor-adjusted curve -> pseudo-cohort -> Kaplan-Meier
curves -> three Cox fits:

* crude        — treatment only, original cohort (the biased estimate);
* traditional  — treatment plus adjustment covariates, original cohort;
* adjusted     — treatment only, on the reconstructed pseudo-cohort.

Identification comes first, so ingest keys only the adjustment set and
only checks every other mapped covariate, like the id.  Its errors wait
until the cohort has loaded and been filtered: cohort errors come first.

After identification no stage looks at single subjects.  The daily trials
and the pseudo-cohort are both (arm, stratum, day, event) count tables,
:class:`~causalsurv.trials.DailyTrials`, and every estimate is one call
on a table: Kaplan-Meier on the pooled trials and on the pseudo-cohort,
and the crude, traditional and adjusted fits on the pooled trials, the
stratified trials and the pseudo-cohort.  Each reads its table's occupied
cells as count rows, which fit exactly as the subjects they stand for
would.

Outputs are a versioned report.json, a curves.csv of both Kaplan-Meier
step curves, and optionally an SVG plot.  Fixed inputs must produce
byte-identical outputs: floats are serialized with Python's
shortest-roundtrip repr and every collection is emitted in a fixed order.
Warnings are data, not logs; they live inside report.json.
"""

import json
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .adjust import adjust_curve, spanning
from .cohort import drop_early_censored, load_cohort, truncate_followup
from .errors import (
    CausalSurvError,
    EstimationError,
    InvalidAdjustmentSet,
    NotIdentifiable,
    UnknownCovariate,
)
from .estimators import Z_95, _hazard_ratio, cox_fit, km_fit
from .graph import (
    find_open_backdoor_path,
    format_path,
    load_graph,
    minimal_backdoor_sets,
    satisfies_backdoor,
)
from .svg import CurveSeries, emit_svg
from .trials import from_adjusted_counts, require_strata_at_most, to_daily_trials

__all__ = ["AnalysisOptions", "AnalysisReport", "run_analysis", "write_outputs"]

REPORT_SCHEMA = "1"
FITS = ("crude", "traditional", "adjusted")


class AnalysisOptions(NamedTuple):
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


class FitEntry(NamedTuple):
    hr: float | None = None
    ci: tuple[float, float] | None = None
    beta: float | None = None
    se: float | None = None
    converged: bool | None = None
    iterations: int | None = None
    error: str | None = None

    def to_dict(self):
        """The report entry: every field but ``error``, or only ``error`` if set."""
        if self.error is not None:
            return {"error": self.error}
        return {k: v for k, v in self._asdict().items() if k != "error"}


class AnalysisReport(NamedTuple):
    n: int
    t_max: int
    arms: dict[int, int]
    adjustment_set: tuple[str, ...]
    alpha: float
    ties: str
    crude: FitEntry = FitEntry()
    traditional: FitEntry = FitEntry()
    adjusted: FitEntry = FitEntry()
    warnings: tuple[str, ...] = ()

    def to_dict(self):
        """What report.json holds: the schema, then the fields in order."""
        report = self._asdict()
        for name in FITS:
            report[name] = report[name].to_dict()
        return {"schema": REPORT_SCHEMA, **report}


def _z_for(alpha: float) -> float:
    if alpha == 0.05:
        return Z_95
    from statistics import NormalDist  # only a non-default alpha needs it

    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


def _fit_entry(table, ties, z_alpha) -> FitEntry:
    """Cox fit of treatment plus the table's stratum dummies, read from its cells."""
    arm, stratum, day, event, count = table.cells()
    x = np.column_stack([arm, *table.dummies(stratum)]).astype(np.float64)
    try:
        fit = cox_fit(x, day, event, counts=count, ties=ties)
        beta, se = float(fit.beta[0]), float(fit.se[0])
        hr, lo, hi = _hazard_ratio(beta, se, z_alpha)
    except EstimationError as exc:
        return FitEntry(error=f"{type(exc).__name__}: {exc}")
    return FitEntry(hr, (lo, hi), beta, se, bool(fit.converged), int(fit.iterations))


def not_identifiable(dag, treatment, outcome) -> NotIdentifiable:
    """The error for a pair no observed set adjusts, naming an open backdoor path."""
    path = find_open_backdoor_path(dag, treatment, outcome)
    detail = f"; open backdoor path: {format_path(dag, path)}" if path else ""
    return NotIdentifiable(
        "no observed set satisfies the backdoor criterion for "
        f"({treatment!r}, {outcome!r}){detail}",
        open_path=path,
    )


def _select_adjustment(dag, options):
    treatment_node = options.treatment_col
    outcome_node = options.time_col
    warnings = []
    if options.adjustment == "auto":
        sets = minimal_backdoor_sets(dag, treatment_node, outcome_node)
        if not sets:
            raise not_identifiable(dag, treatment_node, outcome_node)
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
        if member not in options.covariate_cols:
            raise UnknownCovariate(
                f"adjustment set member {member!r} is not a mapped covariate column"
            )
    return chosen, warnings


def run_analysis(data_path, graph_path, options: AnalysisOptions):
    """Run the full pipeline; returns (report, artifacts).

    Artifacts carry the Kaplan-Meier step curves for serialization:
    ``curves`` is a list of (variant, arm, days, survival, counts).
    """
    adjset = held = None
    try:
        adjset, select_warnings = _select_adjustment(load_graph(graph_path), options)
    except (CausalSurvError, OSError) as exc:  # raised once the cohort has passed
        held = exc
    cohort = load_cohort(
        data_path,
        {
            "treatment": options.treatment_col,
            "time": options.time_col,
            "event": options.event_col,
            "covariates": list(options.covariate_cols),
            **({"id": options.id_col} if options.id_col else {}),
        },
        keep=() if adjset is None else adjset.variables,
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
    elif bool((cohort.event == 0).any()):
        warnings.append(
            "censored subjects count as alive on every day in the transform; "
            "survival may be overstated under heavy censoring "
            "(--strict-censoring drops them instead)"
        )

    if held is not None:
        raise held
    warnings.extend(select_warnings)

    # an arm with fewer subjects than strata is refused before any table is filled
    require_strata_at_most(cohort, adjset.variables, min(cohort.arm_sizes().values()))
    trials = to_daily_trials(cohort, adjset.variables)
    curve = adjust_curve(cohort, trials, adjset)
    pseudo = from_adjusted_counts(curve)
    pooled = trials.pooled()

    curves = []
    for variant, table in (("unadjusted", pooled), ("adjusted", pseudo)):
        arms, _, day, event, count = table.cells()
        km = km_fit(day, event, arms, counts=count)
        for arm in (0, 1):
            group = km.groups[arm]
            days = spanning(group.times, cohort.t_max)
            survival = group.survival_at(days)
            counts = survival * curve.arm_sizes[arm]
            curves.append((variant, arm, days, survival, counts))

    z_alpha = _z_for(options.alpha)
    fits = {}
    for name, table in zip(FITS, (pooled, trials, pseudo)):
        entry = fits[name] = _fit_entry(table, options.ties, z_alpha)
        if entry.error is not None:
            warnings.append(f"{name} fit failed: {entry.error}")
        elif entry.converged is False:
            warnings.append(f"{name} fit did not converge")
    report = AnalysisReport(
        n=cohort.n,
        t_max=cohort.t_max,
        arms=curve.arm_sizes,
        adjustment_set=adjset.sorted_members(),
        alpha=options.alpha,
        ties=options.ties,
        warnings=tuple(warnings),
        **fits,
    )
    artifacts = {
        "curves": curves,
        "adjusted_curve": curve,
        "pseudo": pseudo,
    }
    return report, artifacts


def write_outputs(report, artifacts, out_dir, svg: bool = False) -> dict[str, Path]:
    """Write report.json, curves.csv, and optionally curves.svg."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}

    report_path = out / "report.json"
    report_path.write_text(
        json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n", encoding="utf-8"
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
