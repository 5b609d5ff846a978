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
from typing import Optional, Sequence

import numpy as np

from .model import CommunityModel, vote_probs
from .trajectory import Community

log = logging.getLogger(__name__)

SUBSAMPLE_THRESHOLD = 100_000
SUBSAMPLE_SIZE = 10_000
SUBSAMPLE_SEED = 0
TIME_SLICE_MIN = 30  # per-time populations thinner than this fall back


@dataclass
class ContextPopulation:
    """Empirical (ratio, rank, rel_length) population of vote contexts;
    its global sample and per-time slices, and their distinct (ratio,
    rank) pairs, are built once, in order."""

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
        self._distinct_global = _distinct_rows(*self._global[:2])
        # distinct (time, ratio, rank) rows: each time's pairs are one run
        times, ratios, ranks, counts = _distinct_rows(self.times,
                                                      self.ratios, self.ranks)
        ts, starts = np.unique(times, return_index=True)
        ends = np.append(starts[1:], len(times))
        self._distinct_slices = {
            int(t): (ratios[a:b], ranks[a:b], counts[a:b])
            for t, a, b in zip(ts, starts, ends) if int(t) in self._slices}

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

    def has_time_slice(self, t: int) -> bool:
        """Whether relative time t has its own slice (no fallback)."""
        return t in self._slices

    def distinct(self, t: Optional[int] = None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ratios, ranks, counts) of the distinct (ratio, rank) pairs of
        the global sample, or of `time_slice(t)` when t is given."""
        if t is None:
            return self._distinct_global
        return self._distinct_slices.get(t, self._distinct_global)


def _distinct_rows(*columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """The distinct rows of `columns`, sorted with the first column most
    significant, then how often each occurs."""
    order = np.lexsort(columns[::-1])
    columns = [c[order] for c in columns]
    new = np.zeros(len(order), dtype=bool)
    new[0] = True
    for c in columns:
        new[1:] |= c[1:] != c[:-1]
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, len(order))).astype(float)
    return (*(c[starts] for c in columns), counts)


def build_population(c: Community) -> ContextPopulation:
    """Collect every vote context in the community into a population."""
    return ContextPopulation(ratios=c.pos_ratio,
                             ranks=c.rank.astype(float),
                             lengths=c.rel_length, times=c.time_index)


_BLOCK = 1 << 16  # matrix entries (answers x samples) per array expression


def _mean_probs(model: CommunityModel, q: np.ndarray, nu: np.ndarray,
                rel_len: np.ndarray, ratios: np.ndarray, ranks: np.ndarray,
                lengths: Optional[np.ndarray] = None,
                counts: Optional[np.ndarray] = None) -> np.ndarray:
    """Mean vote probability of each answer (q, nu, rel_len) over the
    samples (ratios, ranks). `lengths` puts the samples' own relative
    lengths in place of the answers'; `counts` weights each sample."""
    out = np.empty(len(q))
    step = max(1, _BLOCK // len(ratios))
    for lo in range(0, len(q), step):
        rows = slice(lo, lo + step)
        length = rel_len[rows, None] if lengths is None else lengths
        p = vote_probs(q[rows, None], model.lam, ratios, nu[rows, None],
                       length, model.beta, ranks)
        out[rows] = np.mean(p, axis=1) if counts is None \
            else np.sum(p * counts, axis=1) / np.sum(counts)
    return out


def estimate_quality(model: CommunityModel, c: Community,
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
    Without it the averages run over the distinct (ratio, rank) pairs,
    weighted by their counts.
    """
    if aggregate not in ("mean", "per_time_sum"):
        raise ValueError(f"unknown aggregate {aggregate!r}")
    votes = np.bincount(c.answer_slot, minlength=c.n_answers).tolist()
    keys, q, nu, rel_len, n_votes = [], [], [], [], []
    unmodeled = []
    for key, length, n in zip(c.answer_keys, c.final_rel_lengths(), votes):
        if not model.has_answer(*key):
            unmodeled.append(key)
            continue
        keys.append(key)
        q.append(model.quality(*key))
        nu.append(model.nu_for(key[0]))
        rel_len.append(length)
        n_votes.append(n)
    if unmodeled:
        log.warning("%d answers not in model, skipped (first: %s/%s)",
                    len(unmodeled), *unmodeled[0])
    if not keys:
        return {}
    q, nu, rel_len, n_votes = map(np.asarray, (q, nu, rel_len, n_votes))

    def means(t: Optional[int], rows=slice(None)) -> np.ndarray:
        if integrate_length:
            ratios, ranks, lengths = population.global_samples() \
                if t is None else population.time_slice(t)
            counts = None
        else:
            ratios, ranks, counts = population.distinct(t)
            lengths = None
        return _mean_probs(model, q[rows], nu[rows], rel_len[rows], ratios,
                           ranks, lengths, counts)

    if aggregate == "mean":
        return dict(zip(keys, means(None).tolist()))
    # Answers by descending vote count: time index t adds to a prefix.
    order = np.argsort(-n_votes, kind="stable")
    q, nu, rel_len, n_votes = (a[order] for a in (q, nu, rel_len, n_votes))
    n_at_least = np.cumsum(np.bincount(n_votes)[::-1])[::-1]
    values = np.zeros(len(keys))
    fallback = None
    for t in range(1, int(n_votes[0]) + 1):
        rows = slice(0, int(n_at_least[t]))
        if population.has_time_slice(t):
            values[rows] += means(t, rows)
        else:
            if fallback is None:  # later fallbacks need fewer rows
                fallback = means(None, rows)
            values[rows] += fallback[rows]
    out = np.empty(len(keys))
    out[order] = values
    return dict(zip(keys, out.tolist()))


MOODS = ("pos", "neutral", "neg")


@dataclass(frozen=True)
class CurveResult:
    mood: str
    points: tuple[tuple[int, float], ...]  # (rank, mean positive-vote prob)
    n_answers: int

    @property
    def empty(self) -> bool:
        return self.n_answers == 0


def counterfactual_curve(model: CommunityModel, c: Community,
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
    slots = [s for s, key in enumerate(c.answer_keys)
             if model.has_answer(*key)]
    if mood == "neutral":
        ratio = np.full(len(slots), 0.5)
    else:
        # each answer's mean ratio over its votes cast in this mood
        voted = c.pos_ratio > 0.5 if mood == "pos" else c.pos_ratio < 0.5
        order = np.argsort(c.answer_slot[voted], kind="stable")
        voted_slots = c.answer_slot[voted][order]
        ratios = c.pos_ratio[voted][order]
        found, starts = np.unique(voted_slots, return_index=True)
        mean_ratio = dict(zip(found.tolist(), (
            float(np.mean(group)) for group in np.split(ratios, starts[1:]))))
        slots = [s for s in slots if s in mean_ratio]
        ratio = np.asarray([mean_ratio[s] for s in slots])
    keys = [c.answer_keys[s] for s in slots]
    q = np.asarray([model.quality(*key) for key in keys])
    nu = np.asarray([model.nu_for(qid) for qid, _ in keys])
    final_rel_length = c.final_rel_lengths()
    rel_len = np.asarray([final_rel_length[s] for s in slots])
    rank_grid = np.arange(1, ranks + 1, dtype=float)
    total = np.zeros(ranks)
    n_answers = len(slots)
    step = max(1, _BLOCK // ranks)
    for lo in range(0, n_answers, step):
        rows = slice(lo, lo + step)
        # answer by answer, so the sum keeps its order
        for p in vote_probs(q[rows, None], model.lam, ratio[rows, None],
                            nu[rows, None], rel_len[rows, None], model.beta,
                            rank_grid):
            total += p
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


def _power_law_sses(bs: np.ndarray, ranks: np.ndarray, probs: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Residual sum and optimal offset for each exponent in `bs`."""
    base = 1.0 / (ranks ** bs[:, None] + 1.0)
    c = np.mean(probs - base, axis=1)  # optimal offset for fixed b
    resid = probs - base - c[:, None]
    return np.vecdot(resid, resid), c


def _power_law_sse(b: float, ranks: np.ndarray, probs: np.ndarray
                   ) -> tuple[float, float]:
    sse, c = _power_law_sses(np.array([b]), ranks, probs)
    return float(sse[0]), float(c[0])


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
    k = int(np.argmin(_power_law_sses(grid, ranks, probs)[0]))

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
