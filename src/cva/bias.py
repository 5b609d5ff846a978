"""Community-level bias measurements.

Position sensitivity is the fitted rank coefficient itself. The herding
degree is a geometric mean, over the scored votes, of the odds that the
model assigns to agreeing with the visible majority at that instant;
votes under a negative majority flip the sign of the exponent. A degree
of 1 means prior votes carry no pull either way.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .configio import check_json_object, is_number, read_json, write_json
from .model import CommunityModel, vote_probs
from .trajectory import Community

log = logging.getLogger(__name__)


class NoEventsToScoreError(ValueError):
    """No vote is left to score: the community has none, none is left
    after the first votes are dropped, or none is on an answer the model
    has."""


@dataclass
class BiasProfile:
    community: str
    position_sensitivity: float
    herding_degree: float
    n_events: int
    median_flags: Optional[tuple[bool, bool]] = None  # (herding, position)


def _herding(model: CommunityModel, c: Community,
             drop_first: bool) -> tuple[float, int]:
    """(herding degree, number of scored votes) from one walk.

    Votes on answers the model lacks are skipped, as `estimate_quality`
    skips those answers, with one warning that counts them.
    """
    rows = np.flatnonzero(~c.first_vote) if drop_first \
        else np.arange(len(c.sign))
    modelled, slot_q, slot_nu = model.by_slot(c)
    slots = c.answer_slot[rows]
    keep = modelled[slots]
    if not keep.all():
        skipped = np.unique(slots[~keep])
        if keep.any():
            log.warning("%d answers not in model, their %d votes skipped "
                        "(first: %s/%s)", len(skipped),
                        len(rows) - keep.sum(), *c.answer_keys[skipped[0]])
        rows, slots = rows[keep], slots[keep]
    if not len(rows):
        raise NoEventsToScoreError("no events to score")
    h = np.where(c.prior_pos[rows] >= c.prior_neg[rows], 1.0, -1.0)
    p = vote_probs(slot_q[slots], model.lam, c.pos_ratio[rows],
                   slot_nu[slots], c.rel_length[rows],
                   model.beta, c.rank[rows].astype(float))
    log_sum = float(np.sum(h * np.log(p / (1.0 - p))))
    return math.exp(log_sum / len(rows)), len(rows)


def herding_degree(model: CommunityModel, c: Community,
                   drop_first: bool = True) -> float:
    """Geometric-mean majority-agreement odds over the scored votes.

    Accumulates in log domain; a literal product over thousands of odds
    would under- or overflow.
    """
    return _herding(model, c, drop_first)[0]


def profile_community(model: CommunityModel, c: Community,
                      community: str = "community") -> BiasProfile:
    degree, n = _herding(model, c, drop_first=True)
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
    return asdict(profile)  # JSON writes the flags tuple as a list


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
    write_json(path, profile_to_json(profile))


_PROFILE_KEYS = {
    "community": (lambda v: isinstance(v, str), "a string"),
    "position_sensitivity": (is_number, "a finite number"),
    "herding_degree": (is_number, "a finite number"),
    "n_events": (is_number, "a finite number"),
}


def load_profile(path) -> BiasProfile:
    """Read a profile file; InputError for one that is not a profile."""
    obj = read_json(path)
    check_json_object(path, obj, _PROFILE_KEYS, {"median_flags": (
        lambda v: v is None or (isinstance(v, list) and len(v) == 2
                                and all(isinstance(b, bool) for b in v)),
        "null or an array of two booleans")})
    return profile_from_json(obj)
