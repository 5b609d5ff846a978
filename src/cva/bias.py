"""Community-level bias measurements.

Position sensitivity is the fitted rank coefficient itself. The herding
degree is a geometric mean, over the scored votes, of the odds that the
model assigns to agreeing with the visible majority at that instant;
votes under a negative majority flip the sign of the exponent. A degree
of 1 means prior votes carry no pull either way.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .model import CommunityModel, vote_probs
from .trajectory import QuestionTrajectory, drop_first_votes, \
    with_contexts


@dataclass
class BiasProfile:
    community: str
    position_sensitivity: float
    herding_degree: float
    n_events: int
    median_flags: Optional[tuple[bool, bool]] = None  # (herding, position)


def _scored_events(trajectories: Iterable[QuestionTrajectory],
                   drop_first: bool):
    for traj in map(with_contexts, trajectories):
        if drop_first:
            traj = drop_first_votes(traj)
        for ev in traj.events:
            yield traj.question_id, \
                traj.answers[ev.answer_index].answer_id, ev.context


def _herding(model: CommunityModel,
             trajectories: Iterable[QuestionTrajectory],
             drop_first: bool) -> tuple[float, int]:
    """(herding degree, number of scored votes) from one walk."""
    rows = [(model.quality(qid, aid), model.nu_for(qid), ctx.pos_ratio,
             ctx.rel_length, ctx.rank,
             1.0 if ctx.prior_pos >= ctx.prior_neg else -1.0)
            for qid, aid, ctx in _scored_events(trajectories, drop_first)]
    if not rows:
        raise ValueError("no events to score")
    q, nu, ratio, length, rank, h = np.array(rows, dtype=float).T
    p = vote_probs(q, model.lam, ratio, nu, length, model.beta, rank)
    log_sum = float(np.sum(h * np.log(p / (1.0 - p))))
    return math.exp(log_sum / len(rows)), len(rows)


def herding_degree(model: CommunityModel,
                   trajectories: Iterable[QuestionTrajectory],
                   drop_first: bool = True) -> float:
    """Geometric-mean majority-agreement odds over the scored votes.

    Accumulates in log domain; a literal product over thousands of odds
    would under- or overflow.
    """
    return _herding(model, trajectories, drop_first)[0]


def profile_community(model: CommunityModel,
                      trajectories: Sequence[QuestionTrajectory],
                      community: str = "community") -> BiasProfile:
    degree, n = _herding(model, trajectories, drop_first=True)
    return BiasProfile(community=community,
                       position_sensitivity=model.beta,
                       herding_degree=degree, n_events=n)


def map_coordinates(profiles: Sequence[BiasProfile]
                    ) -> tuple[list[dict], tuple[float, float]]:
    """Bias-map rows plus the per-axis medians.

    Sets each profile's quadrant flags in place; a value equal to the
    median does not count as above it.
    """
    if not profiles:
        raise ValueError("need at least one profile")
    herding_median = float(np.median([p.herding_degree for p in profiles]))
    position_median = float(np.median([p.position_sensitivity
                                       for p in profiles]))
    rows = []
    for p in profiles:
        p.median_flags = (p.herding_degree > herding_median,
                          p.position_sensitivity > position_median)
        rows.append({"community": p.community,
                     "herding_degree": p.herding_degree,
                     "position_sensitivity": p.position_sensitivity,
                     "above_median_herding": p.median_flags[0],
                     "above_median_position": p.median_flags[1]})
    return rows, (herding_median, position_median)


def profile_to_json(profile: BiasProfile) -> dict:
    return {
        "community": profile.community,
        "position_sensitivity": profile.position_sensitivity,
        "herding_degree": profile.herding_degree,
        "n_events": profile.n_events,
        "median_flags": list(profile.median_flags)
        if profile.median_flags is not None else None,
    }


def profile_from_json(obj: dict) -> BiasProfile:
    flags = obj.get("median_flags")
    return BiasProfile(
        community=obj["community"],
        position_sensitivity=obj["position_sensitivity"],
        herding_degree=obj["herding_degree"],
        n_events=obj["n_events"],
        median_flags=tuple(flags) if flags is not None else None,
    )


def save_profile(profile: BiasProfile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(profile_to_json(profile), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_profile(path) -> BiasProfile:
    with open(path, "r", encoding="utf-8") as fh:
        return profile_from_json(json.load(fh))
