"""Semi-synthetic trajectory generation with known ground-truth quality.

Events are produced one at a time: a question is drawn from a weight
distribution, a Chinese-restaurant gate decides between writing a new
answer and voting on an existing one, voters pick answers with
probability inverse to the displayed rank, and vote signs follow the
forward voting model under chosen generating coefficients. All draws
come from a single seeded generator, so identical configs reproduce
byte-identical data.

Also houses the toy scenarios used to demonstrate position and herding
debiasing on six-vote examples.
"""

from __future__ import annotations

import bisect
import functools
import logging
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .configio import InputError, parse_typed
from .trajectory import (Answer, Community, QuestionTrajectory,
                         NEUTRAL_POS_RATIO, REL_LENGTH_CLIP,
                         read_trajectories, replay_community,
                         sequential_sum)

log = logging.getLogger(__name__)

ALPHA_LO = 1e-6
ALPHA_HI = 1e6
_P_SUM_ATOL = math.sqrt(np.finfo(float).eps)  # Generator.choice's tolerance


class LengthOverflowError(ValueError):
    """A lognormal length source drew a length that overflows a float;
    only the draw shows it (mu + sigma * z past about 709.78)."""


@dataclass(frozen=True)
class SimConfig:
    n_questions: int
    n_events: int
    crp_alpha: Union[float, str] = 5.0   # positive float or "auto"
    quality_mean: float = 0.0
    quality_sd: float = 1.0
    true_lambda: float = 0.0
    true_beta: float = 0.0
    true_nu: float = 0.0
    length_source: str = "lognormal:6.0,1.0"
    question_weight_source: str = "uniform"
    seed: int = 0

    def validate(self) -> None:
        if self.n_questions < 1:
            raise ValueError("n_questions must be >= 1")
        if self.n_events < self.n_questions:
            raise ValueError("n_events must be >= n_questions")
        for name in ("quality_mean", "true_lambda", "true_beta", "true_nu"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not 0 < self.quality_sd < math.inf:
            raise ValueError("quality_sd must be finite and > 0")
        if isinstance(self.crp_alpha, str):
            if self.crp_alpha != "auto":
                raise ValueError(f"crp_alpha must be a positive number or "
                                 f"'auto', got {self.crp_alpha!r}")
        elif not 0 < self.crp_alpha < math.inf:
            raise ValueError("crp_alpha must be finite and > 0")
        length_kind, _ = _parse_source(self.length_source,
                                       ("lognormal", "empirical"))
        weight_kind, weight_arg = _parse_source(
            self.question_weight_source, ("uniform", "zipf", "empirical"))
        if weight_kind == "zipf" and not np.isfinite(
                _zipf_weights(float(weight_arg), self.n_questions).sum()):
            raise ValueError(f"source 'zipf' weights overflow for "
                             f"{self.n_questions} questions: "
                             f"{self.question_weight_source!r}")
        kinds = {length_kind, weight_kind}
        if self.crp_alpha == "auto" and "empirical" not in kinds:
            raise ValueError("crp_alpha='auto' needs an empirical data "
                             "source")


def _alpha(text: str) -> Union[float, str]:
    return text if text == "auto" else float(text)


_SIM_CONFIG_TYPES = {
    "n_questions": int,
    "n_events": int,
    "crp_alpha": _alpha,
    "quality_mean": float,
    "quality_sd": float,
    "true_lambda": float,
    "true_beta": float,
    "true_nu": float,
    "length_source": str,
    "question_weight_source": str,
    "seed": int,
}


def parse_sim_config(path) -> SimConfig:
    values = parse_typed(path, _SIM_CONFIG_TYPES)
    missing = [k for k in ("n_questions", "n_events") if k not in values]
    if missing:
        raise InputError(path, f"missing config key: {missing[0]}")
    config = SimConfig(**values)
    try:
        config.validate()
    except ValueError as exc:
        raise InputError(path, str(exc)) from None
    return config


def _parse_source(source: str, allowed: tuple[str, ...]
                  ) -> tuple[str, str]:
    kind, _, arg = source.partition(":")
    if kind not in allowed:
        raise ValueError(f"unknown source {source!r}, expected one of "
                         f"{allowed}")
    if kind in ("lognormal", "zipf", "empirical") and not arg:
        raise ValueError(f"source {kind!r} needs an argument: "
                         f"{source!r}")
    n_numbers = {"lognormal": 2, "zipf": 1}.get(kind)
    if n_numbers is not None:
        try:
            numbers = [float(x) for x in arg.split(",")]
        except ValueError:
            numbers = []
        if len(numbers) != n_numbers:
            raise ValueError(f"source {kind!r} needs {n_numbers} "
                             f"number(s): {source!r}")
        if not all(map(math.isfinite, numbers)):
            raise ValueError(f"source {kind!r} needs finite numbers: "
                             f"{source!r}")
        if kind == "lognormal" and numbers[1] < 0:
            raise ValueError(f"source 'lognormal' needs SIGMA >= 0: "
                             f"{source!r}")
    return kind, arg


def _zipf_weights(s: float, n_questions: int) -> np.ndarray:
    """Unnormalised weights 1/k**s of questions k = 1..n_questions. A
    weight may underflow to 0; one that overflows is inf, which
    `SimConfig.validate` rejects."""
    with np.errstate(over="ignore", divide="ignore"):
        return 1.0 / np.arange(1, n_questions + 1) ** s


def _sigmoid(x: float) -> float:
    """1 / (1 + exp(-x)); 0.0 below about -709.78, where exp overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def crp_new_answer(rng: np.random.Generator, n_prior: int,
                   alpha: float) -> bool:
    """Open-a-new-answer gate: True with probability alpha/(n_prior+alpha)."""
    return rng.random() < alpha / (n_prior + alpha)


def choice_cdf(p: np.ndarray) -> tuple[float, ...]:
    """The CDF that `Generator.choice(len(p), p=p)` searches, validated as
    it validates `p`; build it once and draw from it with `draw_index`."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probabilities must be a non-empty 1-D array")
    if not np.all(p >= 0):
        raise ValueError("probabilities must be non-negative")
    if abs(float(np.sum(p)) - 1.0) > _P_SUM_ATOL:
        raise ValueError("probabilities do not sum to 1")
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return tuple(cdf.tolist())


def draw_index(rng: np.random.Generator, cdf: tuple[float, ...]) -> int:
    """The index `Generator.choice` draws for `cdf`, from the same single
    `rng.random()`, in O(log n)."""
    return bisect.bisect_right(cdf, rng.random())


@functools.lru_cache(maxsize=None)
def _inverse_rank_cdf(n_ranks: int) -> tuple[float, ...]:
    weights = 1.0 / (1.0 + np.arange(n_ranks))
    return choice_cdf(weights / weights.sum())


def pick_inverse_rank(rng: np.random.Generator, n_ranks: int) -> int:
    """Pick a display position 0..n_ranks-1 with probability ~ 1/(pos+1)."""
    return draw_index(rng, _inverse_rank_cdf(n_ranks))


class _QuestionState:
    """One question as the simulator plays it out; its votes are raw
    (answer_index, sign, timestamp) triples for the replay."""

    def __init__(self, question_id: str):
        self.question_id = question_id
        self.answers: list[Answer] = []
        self.pos: list[int] = []
        self.neg: list[int] = []
        self.votes: list[tuple[int, int, int]] = []
        self.log_len_sum = 0.0  # added left to right, as the replay adds it

    def add_answer(self, answer: Answer) -> None:
        self.answers.append(answer)
        self.pos.append(0)
        self.neg.append(0)
        self.log_len_sum += math.log(answer.text_length)

    def rel_length(self, j: int) -> float:
        rel = math.log(self.answers[j].text_length) \
            - self.log_len_sum / len(self.answers)
        return max(-REL_LENGTH_CLIP, min(REL_LENGTH_CLIP, rel))


def _length_sampler(source: str, rng: np.random.Generator, sources: dict):
    kind, arg = _parse_source(source, ("lognormal", "empirical"))
    if kind == "lognormal":
        mu, sigma = (float(x) for x in arg.split(","))

        def draw() -> int:
            length = rng.lognormal(mu, sigma)
            if math.isinf(length):
                raise LengthOverflowError(
                    f"source 'lognormal' drew an infinite text length: "
                    f"{source!r}")
            return max(1, round(length))
        return draw
    pool = np.asarray([a.text_length for answers in sources[arg].answers
                       for a in answers], dtype=int)
    if pool.size == 0:
        raise InputError(arg, "no answers found")
    return lambda: int(pool[rng.integers(pool.size)])


def _question_weights(source: str, n_questions: int,
                      rng: np.random.Generator, sources: dict) -> np.ndarray:
    kind, arg = _parse_source(source, ("uniform", "zipf", "empirical"))
    if kind == "uniform":
        weights = np.ones(n_questions)
    elif kind == "zipf":
        weights = _zipf_weights(float(arg), n_questions)
    else:
        community = sources[arg]
        counts = np.asarray([len(a) for a in community.answers],
                            dtype=float) + np.diff(community.event_starts)
        if counts.size == 0:
            raise InputError(arg, "no questions found")
        if counts.size != n_questions:
            counts = counts[rng.integers(counts.size, size=n_questions)]
        weights = counts
    return weights / weights.sum()


def _empirical_sources(config: SimConfig) -> dict[str, Community]:
    """The Community of each distinct `empirical:` path, read once."""
    sources = {}
    for source in (config.question_weight_source, config.length_source):
        kind, path = source.partition(":")[::2]
        if kind == "empirical" and path not in sources:
            sources[path] = read_trajectories(path)
    return sources


def _resolve_alpha(config: SimConfig, sources: dict) -> float:
    if config.crp_alpha != "auto":
        return float(config.crp_alpha)
    for source in (config.question_weight_source, config.length_source):
        kind, path = source.partition(":")[::2]
        if kind == "empirical":  # validate() made sure that one is
            break
    try:
        return estimate_crp_alpha(sources[path])
    except ValueError as exc:
        raise InputError(path, str(exc)) from None


def generate(config: SimConfig) -> tuple[Community, dict[str, float]]:
    """Generate a community plus the answer_id -> true quality map.

    Votes are kept as raw triples; the Community's contexts come from
    their replay, as when the written file is read, and equal the ones
    each vote was drawn with. Questions never picked are omitted.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    sources = _empirical_sources(config)
    alpha = _resolve_alpha(config, sources)
    sample_length = _length_sampler(config.length_source, rng, sources)
    weights = _question_weights(config.question_weight_source,
                                config.n_questions, rng, sources)

    question_cdf = choice_cdf(weights)

    states = [_QuestionState(f"q{i:04d}") for i in range(config.n_questions)]
    truth: dict[str, float] = {}

    for step in range(1, config.n_events + 1):
        state = states[draw_index(rng, question_cdf)]
        n_answers = len(state.answers)
        if n_answers == 0 or crp_new_answer(
                rng, n_answers + len(state.votes), alpha):
            aid = f"{state.question_id}-a{n_answers}"
            state.add_answer(Answer(aid, step, sample_length()))
            truth[aid] = float(rng.normal(config.quality_mean,
                                          config.quality_sd))
            continue
        # display order: descending vote difference, ties in creation
        # (index) order, which the stable sort keeps
        pos, neg = state.pos, state.neg
        position = pick_inverse_rank(rng, n_answers)  # rank - 1
        j = sorted(range(n_answers), key=lambda i: neg[i] - pos[i])[position]
        ratio = pos[j] / (pos[j] + neg[j]) if pos[j] + neg[j] \
            else NEUTRAL_POS_RATIO
        x = (truth[state.answers[j].answer_id] + config.true_lambda * ratio
             + config.true_nu * state.rel_length(j)
             + config.true_beta / (1.0 + (position + 1)))
        sign = +1 if rng.random() < _sigmoid(x) else -1
        state.votes.append((j, sign, step))
        (pos if sign > 0 else neg)[j] += 1

    community = replay_community(
        QuestionTrajectory(s.question_id, tuple(s.answers), tuple(s.votes))
        for s in states if s.answers)
    return community, truth


def scale_truth(truth: dict[str, float]) -> dict[str, float]:
    """Min-max scale raw qualities to [-1, 1] for label compatibility."""
    if not truth:
        return {}
    values = np.asarray(list(truth.values()))
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        return {aid: 0.0 for aid in truth}
    return {aid: 2.0 * (v - lo) / (hi - lo) - 1.0
            for aid, v in truth.items()}


def estimate_crp_alpha(community: Community) -> float:
    """Maximum-likelihood concentration from answers-vs-events counts.

    Solves sum_q J_q = sum_q sum_{k=0}^{n_q-1} alpha/(alpha+k) by
    bisection; J_q counts answers, n_q counts answers plus votes.
    """
    n_answers = [len(answers) for answers in community.answers]
    if not n_answers:
        raise ValueError("need at least one trajectory")
    n_events = (n_answers + np.diff(community.event_starts)).tolist()
    if all(n == 1 for n in n_events):
        raise ValueError("alpha is unidentifiable: every question has a "
                         "single event")
    total_answers = float(sum(n_answers))

    def expected_answers(alpha: float) -> float:
        return sequential_sum(float(np.sum(alpha / (alpha + np.arange(n))))
                              for n in n_events)

    lo, hi = ALPHA_LO, ALPHA_HI
    if expected_answers(hi) <= total_answers:
        log.warning("alpha estimate hit the upper bisection bound %g", hi)
        return hi
    if expected_answers(lo) >= total_answers:
        log.warning("alpha estimate hit the lower bisection bound %g", lo)
        return lo
    while (hi - lo) > 1e-9 * max(1.0, lo):
        mid = 0.5 * (lo + hi)
        if expected_answers(mid) < total_answers:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- toy scenarios ------------------------------------------------------


# question_id, answer ids, votes [(answer_index, sign)] per toy question
_TOYS = {
    "s1a": [("toy1a", ("A", "B"), [(0, +1)] * 3 + [(1, +1)] * 3)],
    "s1b": [("toy1b", ("A", "B"), [(1, -1)] * 3 + [(0, -1)] * 3)],
    "s2": [("toy2a", ("A",), [(0, s) for s in (+1, +1, +1, -1, -1, -1)]),
           ("toy2b", ("B",), [(0, s) for s in (+1, -1, +1, -1, +1, -1)])],
}


def toy_scenario(name: str) -> Community:
    """Six-vote demonstration scenarios.

    's1a': two answers, A above B, three positive votes each (A first).
    's1b': the negative mirror of s1a.
    's2':  A and B as separate single-answer questions, so at rank 1;
           A gets +,+,+,-,-,-  and B alternates +,-,+,-,+,-.
    Answers are created at t = 1, 2, ... with equal lengths (no length
    signal), and the votes are cast at t = 10, 20, ....
    """
    if name not in _TOYS:
        raise ValueError(f"unknown toy scenario {name!r} "
                         "(expected s1a, s1b or s2)")
    return replay_community(
        QuestionTrajectory(
            qid, tuple(Answer(aid, creation_time=k, text_length=100)
                       for k, aid in enumerate(answer_ids, start=1)),
            tuple((j, sign, 10 * t)
                  for t, (j, sign) in enumerate(votes, start=1)))
        for qid, answer_ids, votes in _TOYS[name])
