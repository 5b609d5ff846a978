"""Debiased quality estimates and what-if vote-probability queries.

The debiased quality of an answer averages its positive-vote probability
over the community's population of (vote ratio, rank) contexts instead of
the contexts it actually experienced, holding the answer's own relative
length fixed. Rank/mood sweeps answer "what if this answer sat at rank r
with a positive, neutral or negative prior-vote climate", and a two
parameter power law summarizes how fast the probability decays with rank.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import CommunityModel, vote_probs
from .trajectory import QuestionTrajectory, final_rel_lengths, \
    with_contexts

log = logging.getLogger(__name__)

SUBSAMPLE_THRESHOLD = 100_000
SUBSAMPLE_SIZE = 10_000
SUBSAMPLE_SEED = 0
TIME_SLICE_MIN = 30  # per-time populations thinner than this fall back


@dataclass
class ContextPopulation:
    """Empirical (ratio, rank, rel_length) population of vote contexts;
    its global sample and per-time slices are built once, in order."""

    ratios: np.ndarray
    ranks: np.ndarray
    lengths: np.ndarray
    times: np.ndarray            # time_index per sample

    def __post_init__(self):
        if len(self.ratios) == 0:
            raise ValueError("population must be non-empty")
        if np.any((self.ratios < 0) | (self.ratios > 1)):
            raise ValueError("ratios must lie in [0, 1]")
        if np.any(self.ranks < 1):
            raise ValueError("ranks must be >= 1")
        pick = slice(None)
        if len(self) > SUBSAMPLE_THRESHOLD:
            rng = np.random.default_rng(SUBSAMPLE_SEED)
            pick = np.sort(rng.choice(len(self), size=SUBSAMPLE_SIZE,
                                      replace=False))
        self._global = self.ratios[pick], self.ranks[pick], self.lengths[pick]
        order = np.argsort(self.times, kind="stable")
        ts, starts = np.unique(self.times[order], return_index=True)
        self._slices = {
            int(t): (self.ratios[idx], self.ranks[idx], self.lengths[idx])
            for t, idx in zip(ts, np.split(order, starts[1:]))
            if len(idx) >= TIME_SLICE_MIN}

    def __len__(self) -> int:
        return len(self.ratios)

    def global_samples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ratios, ranks, lengths), subsampled with a fixed seed when the
        population is large."""
        return self._global

    def time_slice(self, t: int) -> tuple[np.ndarray, np.ndarray,
                                          np.ndarray]:
        """Samples at relative time t; global fallback when too thin."""
        return self._slices.get(t, self._global)


def build_population(trajectories: Iterable[QuestionTrajectory]
                     ) -> ContextPopulation:
    """Collect every vote context in the community into a population."""
    ratios, ranks, lengths, times = [], [], [], []
    for traj in map(with_contexts, trajectories):
        for ev in traj.events:
            ratios.append(ev.context.pos_ratio)
            ranks.append(ev.context.rank)
            lengths.append(ev.context.rel_length)
            times.append(ev.time_index)
    return ContextPopulation(ratios=np.asarray(ratios, dtype=float),
                             ranks=np.asarray(ranks, dtype=float),
                             lengths=np.asarray(lengths, dtype=float),
                             times=np.asarray(times, dtype=int))


def _mean_prob(q: float, nu: float, rel_length, model: CommunityModel,
               ratios: np.ndarray, ranks: np.ndarray) -> float:
    return float(np.mean(vote_probs(q, model.lam, ratios, nu, rel_length,
                                    model.beta, ranks)))


def estimate_quality(model: CommunityModel,
                     trajectories: Iterable[QuestionTrajectory],
                     population: ContextPopulation,
                     aggregate: str = "mean",
                     integrate_length: bool = False
                     ) -> dict[tuple[str, str], float]:
    """Debiased quality per (question_id, answer_id).

    "mean" averages the vote probability over the population once per
    answer; "per_time_sum" sums the per-relative-time averages over the
    answer's observed voting span, so it scales with vote count. With
    integrate_length the population's relative lengths are averaged over
    instead of holding the answer's own final relative length fixed.
    """
    if aggregate not in ("mean", "per_time_sum"):
        raise ValueError(f"unknown aggregate {aggregate!r}")
    out: dict[tuple[str, str], float] = {}
    for traj in trajectories:
        rel_len = final_rel_lengths(traj)
        votes_per_answer = {a.answer_id: 0 for a in traj.answers}
        for ev in traj.events:
            votes_per_answer[traj.answers[ev.answer_index].answer_id] += 1
        nu = model.nu_for(traj.question_id)
        for answer in traj.answers:
            if not model.has_answer(traj.question_id, answer.answer_id):
                log.warning("answer %s/%s not in model; skipped",
                            traj.question_id, answer.answer_id)
                continue
            q = model.quality(traj.question_id, answer.answer_id)
            if aggregate == "mean":
                ratios, ranks, lengths = population.global_samples()
                length_term = lengths if integrate_length \
                    else rel_len[answer.answer_id]
                value = _mean_prob(q, nu, length_term, model, ratios, ranks)
            else:
                value = 0.0
                for t in range(1, votes_per_answer[answer.answer_id] + 1):
                    ratios, ranks, lengths = population.time_slice(t)
                    length_term = lengths if integrate_length \
                        else rel_len[answer.answer_id]
                    value += _mean_prob(q, nu, length_term, model,
                                        ratios, ranks)
            out[(traj.question_id, answer.answer_id)] = value
    return out


MOODS = ("pos", "neutral", "neg")


@dataclass(frozen=True)
class CurveResult:
    mood: str
    points: tuple[tuple[int, float], ...]  # (rank, mean positive-vote prob)
    n_answers: int

    @property
    def empty(self) -> bool:
        return self.n_answers == 0


def counterfactual_curve(model: CommunityModel,
                         trajectories: Sequence[QuestionTrajectory],
                         ranks: int, mood: str) -> CurveResult:
    """Mean positive-vote probability at each rank 1..ranks for one mood.

    neutral forces an even prior-vote climate (ratio 0.5); pos/neg use
    each answer's mean observed ratio over its majority-positive
    (resp. majority-negative) vote contexts, skipping answers that never
    experienced that mood.
    """
    if ranks < 2:
        raise ValueError("need at least 2 ranks")
    if mood not in MOODS:
        raise ValueError(f"unknown mood {mood!r}")
    rank_grid = np.arange(1, ranks + 1, dtype=float)
    total = np.zeros(ranks)
    n_answers = 0
    for traj in map(with_contexts, trajectories):
        rel_len = final_rel_lengths(traj)
        nu = model.nu_for(traj.question_id)
        ratios_by_answer: dict[str, list[float]] = {}
        for ev in traj.events:
            aid = traj.answers[ev.answer_index].answer_id
            r = ev.context.pos_ratio
            if (mood == "pos" and r > 0.5) or (mood == "neg" and r < 0.5):
                ratios_by_answer.setdefault(aid, []).append(r)
        for answer in traj.answers:
            aid = answer.answer_id
            if not model.has_answer(traj.question_id, aid):
                continue
            if mood == "neutral":
                ratio = 0.5
            elif aid in ratios_by_answer:
                ratio = float(np.mean(ratios_by_answer[aid]))
            else:
                continue
            q = model.quality(traj.question_id, aid)
            total += vote_probs(q, model.lam, ratio, nu, rel_len[aid],
                                model.beta, rank_grid)
            n_answers += 1
    if n_answers == 0:
        log.warning("no qualifying answers for mood %r", mood)
        return CurveResult(mood=mood, points=(), n_answers=0)
    points = tuple((int(r), float(p))
                   for r, p in zip(rank_grid, total / n_answers))
    return CurveResult(mood=mood, points=points, n_answers=n_answers)


@dataclass(frozen=True)
class PowerLawFit:
    """p(rank) = 1/(rank^b + 1) + c with the residual sum at the fit."""

    b: float
    c: float
    sse: float


B_GRID_MAX = 5.0
B_GRID_STEP = 1e-3
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _power_law_sse(b: float, ranks: np.ndarray, probs: np.ndarray
                   ) -> tuple[float, float]:
    base = 1.0 / (ranks ** b + 1.0)
    c = float(np.mean(probs - base))  # optimal offset for fixed b
    resid = probs - base - c
    return float(resid @ resid), c


def fit_power_law(curve: Sequence[tuple[int, float]]) -> PowerLawFit:
    """Deterministic least-squares fit of the rank decay exponent.

    Grid search over the exponent followed by golden-section refinement;
    the offset is profiled out in closed form. A constant curve has no
    decay and maps to exponent 0.
    """
    if len(curve) < 3:
        raise ValueError("need at least 3 curve points")
    ranks = np.asarray([r for r, _ in curve], dtype=float)
    probs = np.asarray([p for _, p in curve], dtype=float)

    if np.allclose(probs, probs[0], rtol=0.0, atol=1e-15):
        sse, c = _power_law_sse(0.0, ranks, probs)
        return PowerLawFit(b=0.0, c=c, sse=sse)

    grid = np.arange(0.0, B_GRID_MAX + B_GRID_STEP / 2, B_GRID_STEP)
    sses = np.array([_power_law_sse(b, ranks, probs)[0] for b in grid])
    k = int(np.argmin(sses))

    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1 = _power_law_sse(x1, ranks, probs)[0]
    f2 = _power_law_sse(x2, ranks, probs)[0]
    for _ in range(80):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = _power_law_sse(x1, ranks, probs)[0]
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = _power_law_sse(x2, ranks, probs)[0]
    b = 0.5 * (lo + hi)
    sse, c = _power_law_sse(b, ranks, probs)
    return PowerLawFit(b=b, c=c, sse=sse)
