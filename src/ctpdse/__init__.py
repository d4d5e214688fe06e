"""Design-space exploration over binary coding-tool profiles.

Greedy search over which optional coding tools an encoder may use,
scoring each profile with Bjontegaard-Delta bit-rate and decoding-energy
metrics against a fixed anchor, then extracting the Pareto front and
named trade-off profiles.
"""

__version__ = "0.1.0"

from .curves import BdReport, RdeCurve, RdePoint, aggregate_reports, bd_delta, bd_report
from .engine import (
    DseConfig,
    DseResult,
    FlipPolicy,
    Objective,
    QualityAxis,
    TerminationReason,
    parse_strategy,
    run_dse,
    score,
)
from .errors import ConfigError, CtpDseError, EvaluationError, MeasurementMissError
from .evaluators import (
    CachedTableEvaluator,
    EvaluationRequest,
    ExternalCommandEvaluator,
    SyntheticModelEvaluator,
    SyntheticModelParams,
    ingest_measurements,
)
from .pareto import ProfilePoint, SelectionCriteria, pareto_front, select_profiles
from .profiles import (
    Ctp,
    ToolDescriptor,
    ToolRegistry,
    default_ctp,
    default_registry,
    flip_tool,
    load_registry,
    parse_ctp,
    serialize_ctp,
)
from .stats import MeasurementSeries, Verdict, ci_check

__all__ = [
    "BdReport",
    "CachedTableEvaluator",
    "ConfigError",
    "Ctp",
    "CtpDseError",
    "DseConfig",
    "DseResult",
    "EvaluationError",
    "EvaluationRequest",
    "ExternalCommandEvaluator",
    "FlipPolicy",
    "MeasurementMissError",
    "MeasurementSeries",
    "Objective",
    "ProfilePoint",
    "QualityAxis",
    "RdeCurve",
    "RdePoint",
    "SelectionCriteria",
    "SyntheticModelEvaluator",
    "SyntheticModelParams",
    "TerminationReason",
    "ToolDescriptor",
    "ToolRegistry",
    "Verdict",
    "aggregate_reports",
    "bd_delta",
    "bd_report",
    "ci_check",
    "default_ctp",
    "default_registry",
    "flip_tool",
    "ingest_measurements",
    "load_registry",
    "parse_ctp",
    "parse_strategy",
    "pareto_front",
    "run_dse",
    "score",
    "select_profiles",
    "serialize_ctp",
]
