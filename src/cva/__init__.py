"""Counterfactual voting adjustment for helpfulness-vote trajectories.

Reconstructs the context each vote was cast in, fits a logistic voting
model with per-answer quality and community-level herding and position
coefficients, and produces debiased quality estimates, bias profiles,
what-if vote-probability curves, and ranking evaluations against
ground-truth labels. A simulator with known true qualities validates the
whole pipeline end to end.
"""

from .bias import BiasProfile, herding_degree, map_coordinates, \
    profile_community
from .counterfactual import ContextPopulation, CurveResult, PowerLawFit, \
    build_population, counterfactual_curve, estimate_quality, fit_power_law
from .evaluation import EvaluationReport, evaluate_rankers, kendall_tau, \
    paired_significance, rank_answers, rank_zscores, residual_to_diagonal, \
    winrates
from .ingest import FilterReport, ParsedQuestion, QualityLabel, RejectLog, \
    apply_filters, load_labels, parse_dump
from .model import CommunityModel, load_model, model_from_json, \
    model_to_json, save_model
from .simulate import SimConfig, estimate_crp_alpha, generate, \
    parse_sim_config, scale_truth, toy_scenario
from .trainer import FitConfig, fit, fit_prefixes, parse_fit_config, \
    toy_quality_curves, training_events
from .trajectory import Answer, Community, MalformedTrajectoryError, \
    QuestionTrajectory, read_trajectories, reconstruct_contexts, \
    replay_community, write_trajectories

__version__ = "0.1.0"

__all__ = [
    "Answer", "BiasProfile", "Community", "CommunityModel",
    "ContextPopulation", "CurveResult", "EvaluationReport", "FilterReport",
    "FitConfig", "MalformedTrajectoryError", "ParsedQuestion",
    "PowerLawFit", "QualityLabel", "QuestionTrajectory",
    "RejectLog", "SimConfig", "apply_filters", "build_population",
    "counterfactual_curve", "estimate_crp_alpha", "estimate_quality",
    "evaluate_rankers", "fit", "fit_power_law", "fit_prefixes",
    "generate", "herding_degree", "kendall_tau", "load_labels",
    "load_model", "map_coordinates", "model_from_json", "model_to_json",
    "paired_significance", "parse_dump", "parse_fit_config",
    "parse_sim_config", "profile_community", "rank_answers",
    "rank_zscores", "read_trajectories",
    "reconstruct_contexts", "replay_community", "residual_to_diagonal",
    "save_model", "scale_truth", "toy_quality_curves", "toy_scenario",
    "training_events", "winrates", "write_trajectories",
]
