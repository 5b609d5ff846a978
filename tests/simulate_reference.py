"""The per-vote simulator loop that `cva.simulate.generate` replaced.

Each vote re-sorts its question's answers into display order, looks the
voted answer's rank up in that order, rescans every answer's log length
for the relative length and records the context it drew with. Kept as
the reference that `generate`'s JSONL, truth and columns must match bit
for bit; the seeded draws come from the same `cva.simulate` helpers, in
the same order.
"""

import math

import numpy as np
from scipy.special import expit

from cva.simulate import (_empirical_sources, _length_sampler,
                          _question_weights, _resolve_alpha, choice_cdf,
                          crp_new_answer, draw_index, pick_inverse_rank)
from cva.trajectory import (NEUTRAL_POS_RATIO, REL_LENGTH_CLIP, Answer,
                            QuestionTrajectory, sequential_sum)
from conftest import Context


class _QuestionState:
    def __init__(self, question_id):
        self.question_id = question_id
        self.answers = []
        self.true_q = []
        self.pos = []
        self.neg = []
        self.events = []
        self.contexts = []
        self.n_crp_events = 0  # answers written + votes cast

    def display_order(self):
        diffs = [p - n for p, n in zip(self.pos, self.neg)]
        return sorted(range(len(self.answers)),
                      key=lambda i: (-diffs[i],
                                     self.answers[i].creation_time))

    def rel_length(self, j):
        logs = [math.log(a.text_length) for a in self.answers]
        rel = logs[j] - sequential_sum(logs) / len(logs)
        return max(-REL_LENGTH_CLIP, min(REL_LENGTH_CLIP, rel))


def reference_generate(config):
    """(trajectories, the context each of their votes was drawn with,
    question by question, answer_id -> true quality)."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    sources = _empirical_sources(config)
    alpha = _resolve_alpha(config, sources)
    sample_length = _length_sampler(config.length_source, rng, sources)
    weights = _question_weights(config.question_weight_source,
                                config.n_questions, rng, sources)
    question_cdf = choice_cdf(weights)
    states = [_QuestionState(f"q{i:04d}") for i in range(config.n_questions)]
    truth = {}
    for step in range(1, config.n_events + 1):
        state = states[draw_index(rng, question_cdf)]
        write_answer = (state.n_crp_events == 0
                        or crp_new_answer(rng, state.n_crp_events, alpha))
        if write_answer:
            aid = f"{state.question_id}-a{len(state.answers)}"
            answer = Answer(answer_id=aid, creation_time=step,
                            text_length=sample_length())
            state.answers.append(answer)
            state.true_q.append(float(rng.normal(config.quality_mean,
                                                 config.quality_sd)))
            state.pos.append(0)
            state.neg.append(0)
            truth[aid] = state.true_q[-1]
        else:
            order = state.display_order()
            j = order[pick_inverse_rank(rng, len(order))]
            rank = order.index(j) + 1
            n_prior = state.pos[j] + state.neg[j]
            ratio = state.pos[j] / n_prior if n_prior else NEUTRAL_POS_RATIO
            rel_len = state.rel_length(j)
            x = (state.true_q[j] + config.true_lambda * ratio
                 + config.true_nu * rel_len
                 + config.true_beta / (1.0 + rank))
            positive = rng.random() < expit(x)
            state.contexts.append(Context(
                rank=rank, pos_ratio=ratio, rel_length=rel_len,
                prior_pos=state.pos[j], prior_neg=state.neg[j]))
            state.events.append((j, +1 if positive else -1, step))
            if positive:
                state.pos[j] += 1
            else:
                state.neg[j] += 1
        state.n_crp_events += 1
    played = [s for s in states if s.answers]
    trajectories = [
        QuestionTrajectory(question_id=s.question_id,
                           answers=tuple(s.answers), events=tuple(s.events))
        for s in played
    ]
    return trajectories, [s.contexts for s in played], truth
