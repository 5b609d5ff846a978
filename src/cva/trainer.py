"""Deterministic fitting of community models.

The regularized objective is smooth and convex, and its Hessian is
block-diagonal per question, bordered by the community-wide coefficients.
So damped Newton steps solved by block elimination reach the gradient
target in a handful of iterations from a fixed zero start. Every sum has
a fixed order: identical inputs and config give bit-identical models.
Quality-over-time curves come from independent refits on chronological
event prefixes rather than from warm starts, so the curves stay
comparable across ticks.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .configio import InputError, finite_float, parse_typed
from .model import (BlockHessian, CommunityModel, EncodedEvents,
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


# No fit calls `_polish` or `model.curvature_bound_product`: the tracer's
# TRACED table in bench/tracing.py names `trainer._polish`, so both stay
# until ROADMAP item 1 deletes them with that entry.
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


def training_events(community: Community, drop_first: bool = True,
                    tick: Optional[int] = None) -> np.ndarray:
    """The rows of the community's votes to train on, in row order: those
    up to time index `tick` (all without one), each answer's first vote
    dropped if `drop_first`."""
    keep = np.ones(len(community.sign), dtype=bool) if tick is None \
        else community.time_index <= tick
    if drop_first:
        keep &= ~community.first_vote
    return np.flatnonzero(keep)


# Armijo's sufficient-decrease share and the step halvings tried before
# the damping is raised
ARMIJO = 1e-4
MAX_HALVINGS = 10
# the first damping, relative to the largest diagonal Hessian entry, and
# the multiple of it past which steps are too short to count
DAMPING_FLOOR = 1e-8
DAMPING_CAP = 1e24
# objective changes within this share of the objective are rounding
RESOLUTION = 16 * np.finfo(float).eps


def _max_norm(grad: np.ndarray) -> float:
    return float(np.max(np.abs(grad))) if grad.size else 0.0


def _backtrack(data: EncodedEvents, w: float, x: np.ndarray, f: float,
               g: np.ndarray, g_norm: float, step: np.ndarray):
    """The first of x + step, x + step/2, ... that the line search takes,
    with its objective, gradient and gradient max-norm; None if none."""
    slope = float(np.sum(g * step))
    if not slope < 0.0:
        return None
    t = 1.0
    for _ in range(MAX_HALVINGS):
        x_new = x + t * step
        f_new, g_new = objective_and_grad(x_new, data, w)
        g_new_norm = _max_norm(g_new)
        if f_new <= f + ARMIJO * t * slope or (
                abs(f_new - f) <= RESOLUTION * abs(f)
                and g_new_norm < g_norm):
            return x_new, f_new, g_new, g_new_norm
        t *= 0.5
    return None


def minimize(data: EncodedEvents, config: FitConfig,
             on_step: Callable[[int, float], None]
             ) -> tuple[np.ndarray, float, np.ndarray, int]:
    """Damped Newton iterations from zero to the gradient target.

    Each iteration solves (H + mu I) step = -grad with the block
    elimination of `BlockHessian` and backtracks along the step until the
    objective shows Armijo decrease. Close to the optimum the objective
    change drops below float64 resolution while the gradient still
    shrinks, so there a step that lowers the gradient's max-norm without
    moving the objective beyond rounding is taken too. A step that does
    neither ends the iterations short of the target: the gradient has
    reached its rounding floor, below a `tol` set that low. The damping mu
    starts at 0 and is raised tenfold when a pivot is not positive (a
    singular Hessian, as without an l2 penalty) or the backtracking
    fails, and drops back after a taken step.

    Returns theta, its objective and gradient, and the iteration count.
    """
    w = config.l2_weight
    x = np.zeros(data.index.size)
    f, g = objective_and_grad(x, data, w)
    g_norm = _max_norm(g)
    iters = 0
    damping = 0.0
    while g_norm >= config.tol and iters < config.max_iters:
        hess = BlockHessian(x, data, w)
        floor = DAMPING_FLOOR * (hess.max_diagonal() or 1.0)
        while True:
            step = hess.solve(-g, damping)
            taken = None if step is None \
                else _backtrack(data, w, x, f, g, g_norm, step)
            if taken is not None:
                break
            if damping > DAMPING_CAP * floor:
                return x, f, g, iters
            damping = max(10.0 * damping, floor)
        if f - taken[1] <= RESOLUTION * abs(f) and taken[3] >= g_norm:
            return x, f, g, iters  # at the rounding floor
        x, f, g, g_norm = taken
        iters += 1
        damping = damping / 10.0 if damping > floor else 0.0
        on_step(iters, f)
    return x, f, g, iters


def fit_events(community: Community, rows: np.ndarray, config: FitConfig,
               callback: Optional[Callable[[int, float], None]] = None
               ) -> CommunityModel:
    """Fit a CommunityModel to the community's training rows `rows`."""
    if not len(rows):
        raise NoTrainingEventsError("zero training events")
    index = ParameterIndex(community, rows, config.use_length,
                           config.freeze_beta)
    data = EncodedEvents(index, rows)
    x, objective, grad, iters = minimize(
        data, config, callback or (lambda iteration, objective: None))
    final_grad_norm = _max_norm(grad)
    converged = final_grad_norm < config.tol
    if not converged:
        log.warning("fit did not reach gradient tolerance %.1e "
                    "(final max-norm %.3e after %d iterations)",
                    config.tol, final_grad_norm, iters)
    meta = {"iterations": int(iters),
            "final_grad_norm": final_grad_norm,
            "objective": float(objective), "converged": converged,
            "n_events": len(rows)}
    return index.unpack(x, config.l2_weight, fit_meta=meta)


def fit(community: Community, config: FitConfig,
        callback: Optional[Callable[[int, float], None]] = None
        ) -> CommunityModel:
    """Fit a community, dropping first votes per the config."""
    rows = training_events(community, config.drop_first_votes)
    return fit_events(community, rows, config, callback=callback)


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
        rows = training_events(community, config.drop_first_votes, tick)
        if not len(rows):
            log.warning("prefix tick %d has no training events; skipped",
                        tick)
            continue
        out.append((tick, fit_events(community, rows, config)))
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
