"""Experiment drivers (S11): one entry per paper table/figure + ablations."""

from .ablations import (AblationPoint, AblationResult, isp_aware_tracker,
                        latency_pressure, policy_comparison,
                        popularity_sweep, top_peer_caching)
from .base import (DEFAULT_BANK, SCALE_PARAMS, Scale, ScaleParams,
                   WorkloadBank, WorkloadKey, build_config)
from .contribution_figs import ContributionFigure, contribution_figure
from .fig06 import Figure6, campaign_config, figure6
from .locality_figs import LocalityFigure, locality_figure
from .registry import (ALL_EXPERIMENT_IDS, EXPERIMENT_DESCRIPTIONS,
                       run_experiment)
from .response_figs import (ResponseFigure, Table1, build_table1,
                            response_figure, table1_row)
from .rtt_figs import RttFigure, rtt_figure
from .scorecard import Scorecard, Statistic, append_trend, build_scorecard

__all__ = [
    "Scale", "ScaleParams", "SCALE_PARAMS", "WorkloadBank", "WorkloadKey",
    "DEFAULT_BANK", "build_config",
    "LocalityFigure", "locality_figure",
    "ResponseFigure", "response_figure", "Table1", "build_table1",
    "table1_row",
    "ContributionFigure", "contribution_figure",
    "RttFigure", "rtt_figure",
    "Figure6", "figure6", "campaign_config",
    "run_experiment", "ALL_EXPERIMENT_IDS", "EXPERIMENT_DESCRIPTIONS",
    "AblationResult", "AblationPoint", "policy_comparison",
    "latency_pressure", "popularity_sweep", "top_peer_caching",
    "isp_aware_tracker",
    "Scorecard", "Statistic", "build_scorecard", "append_trend",
]
