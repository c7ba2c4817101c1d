"""Confounding-adjusted survival analysis for observational cohorts.

Given a cohort, a causal graph, and a study horizon, the pipeline finds a
minimal backdoor adjustment set, reweights per-day survival into the
distribution an equivalent randomized trial would have produced, rebuilds
an individual-level pseudo-cohort from the adjusted counts, and fits a
proportional-hazards model to report the treatment hazard ratio.
"""

from .adjust import AdjustedCurve, adjust_curve, unadjusted_curve
from .analysis import AnalysisOptions, AnalysisReport, run_analysis, write_outputs
from .cohort import (
    CohortDataset,
    drop_early_censored,
    load_cohort,
    save_cohort,
    truncate_followup,
)
from .estimators import CoxFit, KmCurve, cox_fit, hr_report, km_fit
from .graph import (
    AdjustmentSet,
    CausalDag,
    d_separated,
    descendants,
    load_graph,
    minimal_backdoor_sets,
    satisfies_backdoor,
    validate_dag,
)
from .simulate import SimConfig, generate_cohort
from .svg import CurveSeries, emit_svg
from .trials import (
    AdjustedCohort,
    DailyTrials,
    from_adjusted_counts,
    to_daily_trials,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "AdjustedCohort",
    "AdjustedCurve",
    "AdjustmentSet",
    "AnalysisOptions",
    "AnalysisReport",
    "CausalDag",
    "CohortDataset",
    "CoxFit",
    "CurveSeries",
    "DailyTrials",
    "KmCurve",
    "SimConfig",
    "adjust_curve",
    "cox_fit",
    "d_separated",
    "descendants",
    "drop_early_censored",
    "emit_svg",
    "errors",
    "from_adjusted_counts",
    "generate_cohort",
    "hr_report",
    "km_fit",
    "load_cohort",
    "load_graph",
    "minimal_backdoor_sets",
    "run_analysis",
    "satisfies_backdoor",
    "save_cohort",
    "to_daily_trials",
    "truncate_followup",
    "unadjusted_curve",
    "validate_dag",
    "write_outputs",
]
