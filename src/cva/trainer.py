"""Deterministic fitting of community models.

The regularized objective is smooth and convex, so a quasi-Newton solver
from a fixed zero start is enough: identical inputs and config give
bit-identical models. Quality-over-time curves come from independent
refits on chronological event prefixes rather than from warm starts, so
the curves stay comparable across ticks.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import minimize

from .configio import InputError, finite_float, parse_typed
from .model import (CommunityModel, EncodedEvents, EventColumns,
                    ParameterIndex, curvature_bound_product,
                    objective_and_grad)
from .simulate import toy_scenario
from .trajectory import Community, replay_community

log = logging.getLogger(__name__)


class NoTrainingEventsError(ValueError):
    """No vote is left to fit, e.g. every one was a dropped first vote."""


@dataclass(frozen=True)
class FitConfig:
    l2_weight: float = 1.0
    tol: float = 1e-6            # max-norm gradient target
    max_iters: int = 10_000
    drop_first_votes: bool = True
    use_length: bool = True      # include per-question length coefficients
    freeze_beta: Optional[float] = None


_FIT_CONFIG_TYPES = {
    "l2_weight": finite_float,
    "tol": finite_float,
    "max_iters": int,
    "drop_first_votes": bool,
    "use_length": bool,
    "freeze_beta": finite_float,
}


def parse_fit_config(path) -> FitConfig:
    # "seed" is accepted for old config files and ignored: the fit is
    # seedless.
    kwargs = parse_typed(path, {**_FIT_CONFIG_TYPES, "seed": str})
    kwargs.pop("seed", None)
    config = FitConfig(**kwargs)
    for key, bound, ok in (("l2_weight", ">= 0", config.l2_weight >= 0),
                           ("tol", "> 0", config.tol > 0),
                           ("max_iters", ">= 1", config.max_iters >= 1)):
        if not ok:
            raise InputError(path, f"{key} must be {bound}")
    return config


def _polish(fun, data: EncodedEvents, x: np.ndarray, config: FitConfig,
            total_iters: int, on_step) -> tuple[np.ndarray, int]:
    """Fixed-step gradient descent until the gradient target or budget.

    The step is the inverse of a power-iteration estimate of the global
    curvature bound, so every step decreases the objective; no line
    search means no dependence on objective-value resolution.
    """
    v = np.full(x.shape, 1.0 / np.sqrt(len(x)))
    spectral = 0.0
    for _ in range(60):
        hv = curvature_bound_product(v, data, config.l2_weight)
        spectral = math.sqrt(float(np.sum(hv * hv)))
        if spectral == 0.0:
            break
        v = hv / spectral
    step = 1.0 / max(1.05 * spectral, config.l2_weight, 1e-12)
    while total_iters < config.max_iters:
        _, grad = fun(x)
        if float(np.max(np.abs(grad))) < config.tol:
            break
        x = x - step * grad
        total_iters += 1
        on_step(x)
    return x, total_iters


def _select_events(community: Community, drop_first: bool,
                   tick: Optional[int] = None) -> EventColumns:
    """The community's votes up to time index `tick` (all without one),
    each answer's first vote dropped if `drop_first`, in row order."""
    keep = np.ones(len(community.sign), dtype=bool) if tick is None \
        else community.time_index <= tick
    if drop_first:
        keep &= ~community.first_vote
    return EventColumns(community, np.flatnonzero(keep))


def training_events(community: Community,
                    drop_first: bool = True) -> EventColumns:
    """The community's votes to train on, in row order."""
    return _select_events(community, drop_first)


def fit_events(events: EventColumns, config: FitConfig,
               callback: Optional[Callable[[int, float], None]] = None
               ) -> CommunityModel:
    """Fit a CommunityModel to pre-extracted training events."""
    if not events:
        raise NoTrainingEventsError("zero training events")
    nu_keys = events.question_ids if config.use_length else []
    index = ParameterIndex(events.q_keys, nu_keys,
                           freeze_beta=config.freeze_beta)
    data = EncodedEvents(index, events)

    def fun(theta):
        return objective_and_grad(theta, data, config.l2_weight)

    iteration = {"n": 0}

    def on_step(theta):
        iteration["n"] += 1
        if callback is not None:
            callback(iteration["n"], fun(theta)[0])

    # L-BFGS-B can stall short of the gradient target when its curvature
    # memory goes bad on flat ridges, or when the line search runs into
    # float64 resolution of the objective value; restart with cleared
    # memory while restarts keep making steps.
    x = np.zeros(index.size)
    total_iters = 0
    while True:
        res = minimize(fun, x, jac=True, method="L-BFGS-B",
                       callback=on_step,
                       options={"maxiter": config.max_iters - total_iters,
                                "ftol": 1e-18, "gtol": config.tol,
                                "maxfun": 20 * config.max_iters,
                                "maxcor": 20})
        x = res.x
        total_iters += res.nit
        grad_norm = float(np.max(np.abs(res.jac))) if res.jac.size else 0.0
        if grad_norm < config.tol or total_iters >= config.max_iters \
                or res.nit == 0:
            break
    if not np.max(np.abs(fun(x)[1])) < config.tol:
        # line-search-free polish: fixed-step descent needs only the
        # gradient, which stays accurate long after objective differences
        # drop below float64 resolution
        x, total_iters = _polish(fun, data, x, config, total_iters,
                                 on_step)
    objective, grad = fun(x)
    final_grad_norm = float(np.max(np.abs(grad))) if grad.size else 0.0
    converged = final_grad_norm < config.tol
    if not converged:
        log.warning("fit did not reach gradient tolerance %.1e "
                    "(final max-norm %.3e after %d iterations)",
                    config.tol, final_grad_norm, total_iters)
    meta = {"iterations": int(total_iters),
            "final_grad_norm": final_grad_norm,
            "objective": float(objective), "converged": converged,
            "n_events": len(events)}
    return index.unpack(x, config.l2_weight, fit_meta=meta)


def fit(community: Community, config: FitConfig,
        callback: Optional[Callable[[int, float], None]] = None
        ) -> CommunityModel:
    """Fit a community, dropping first votes per the config."""
    events = training_events(community, drop_first=config.drop_first_votes)
    return fit_events(events, config, callback=callback)


def fit_prefixes(community: Community, config: FitConfig,
                 prefix_ticks: Sequence[int]
                 ) -> list[tuple[int, CommunityModel]]:
    """One independent fit per prefix tick.

    Each fit sees only events with time_index <= tick and starts from
    zero; no warm starts, so per-tick qualities are comparable.
    """
    if list(prefix_ticks) != sorted(prefix_ticks):
        raise ValueError("prefix_ticks must be ascending")
    out = []
    for tick in prefix_ticks:
        # time indices ascend within a question, so an answer's first
        # vote in the prefix is its first vote overall
        events = _select_events(community, config.drop_first_votes, tick)
        if not events:
            log.warning("prefix tick %d has no training events; skipped",
                        tick)
            continue
        out.append((tick, fit_events(events, config)))
    return out


TOY_TICKS = (3, 4, 5, 6)


def toy_quality_curves(name: str, config: Optional[FitConfig] = None,
                       ticks: Sequence[int] = TOY_TICKS
                       ) -> list[dict]:
    """Per-tick learned qualities for a toy scenario.

    Scenarios with one answer per question (s2) are fitted question by
    question, each with its own herding and position coefficients; the
    two-answer scenarios are fitted jointly. Toys carry no length signal,
    so the length coefficient is left out.

    Returns rows {"tick", "question_id", "answer_id", "quality"}.
    """
    if config is None:
        config = FitConfig(use_length=False)
    community = toy_scenario(name)
    groups = [replay_community([t]) for t in community] \
        if all(len(a) == 1 for a in community.answers) else [community]
    rows = []
    for group in groups:
        for tick, model in fit_prefixes(group, config, ticks):
            for qid, by_answer in sorted(model.q.items()):
                for aid, quality in sorted(by_answer.items()):
                    rows.append({"tick": tick, "question_id": qid,
                                 "answer_id": aid, "quality": quality})
    rows.sort(key=lambda r: (r["tick"], r["question_id"], r["answer_id"]))
    return rows
