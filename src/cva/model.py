"""Parametric voting-probability model and its regularized likelihood.

A community is described by one quality parameter per answer, a herding
coefficient shared by the community, one length coefficient per question,
and a position coefficient shared by the community. The probability that
a vote cast in context (rank D, positive ratio R, relative length L) is
positive is

    sigmoid(q + lambda * R + nu * L + beta / (1 + D))

Fitting minimizes the negative log-likelihood plus (w/2)*||theta||^2.
Gradients here are analytic and exact; the finite-difference checks live
in the test suite.
"""

from __future__ import annotations

import json
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.special import expit

from .configio import check_json_object, is_number, read_json
from .trajectory import Community, VoteContext

PROB_CLIP = 1e-12  # keeps log-likelihood terms finite

# One training observation: ((question_id, answer_id), v, context)
# with v = 1 for a positive vote and 0 for a negative one.
Event = tuple[tuple[str, str], int, VoteContext]


@dataclass
class CommunityModel:
    """Fitted parameters for one community."""

    q: dict[str, dict[str, float]] = field(default_factory=dict)
    lam: float = 0.0
    nu: dict[str, float] = field(default_factory=dict)
    beta: float = 0.0
    l2_weight: float = 1.0
    fit_meta: dict = field(default_factory=dict)

    def quality(self, question_id: str, answer_id: str) -> float:
        return self.q[question_id][answer_id]

    def has_answer(self, question_id: str, answer_id: str) -> bool:
        return answer_id in self.q.get(question_id, {})

    def nu_for(self, question_id: str) -> float:
        return self.nu.get(question_id, 0.0)


def vote_probs(q, lam, ratio, nu, rel_length, beta, rank) -> np.ndarray:
    """Clipped sigmoid(q + lam * R + nu * L + beta / (1 + D)), elementwise
    over arrays or scalars."""
    return np.clip(expit(q + lam * ratio + nu * rel_length
                         + beta / (1.0 + rank)), PROB_CLIP, 1.0 - PROB_CLIP)


def vote_prob(model: CommunityModel, q: float, ctx, nu: float = 0.0) -> float:
    """Positive-vote probability for quality `q` in context `ctx`.

    `nu` is the length coefficient of the answer's question; callers that
    have no length term pass the default 0.
    """
    return float(vote_probs(q, model.lam, ctx.pos_ratio, nu, ctx.rel_length,
                            model.beta, ctx.rank))


class ParameterIndex:
    """Canonical flat ordering of theta.

    Layout: [q entries sorted by (question_id, answer_id)] + [lambda]
    + [nu entries sorted by question_id] + [beta]. A frozen beta is held
    at a constant and excluded from the vector.
    """

    def __init__(self, q_keys: Sequence[tuple[str, str]],
                 nu_keys: Sequence[str],
                 freeze_beta: Optional[float] = None):
        self.q_keys = sorted(set(q_keys))
        self.nu_keys = sorted(set(nu_keys))
        self.freeze_beta = freeze_beta
        self._q_pos = {k: i for i, k in enumerate(self.q_keys)}
        self._nu_pos = {k: i for i, k in enumerate(self.nu_keys)}
        self.lam_pos = len(self.q_keys)
        self.nu_base = self.lam_pos + 1
        self.beta_pos = None if freeze_beta is not None \
            else self.nu_base + len(self.nu_keys)
        self.size = self.nu_base + len(self.nu_keys) \
            + (0 if freeze_beta is not None else 1)

    def q_slot(self, key: tuple[str, str]) -> int:
        return self._q_pos[key]

    def nu_slot(self, question_id: str) -> int:
        return self._nu_pos[question_id]

    def pack(self, model: CommunityModel) -> np.ndarray:
        theta = np.zeros(self.size)
        for (qid, aid), i in self._q_pos.items():
            theta[i] = model.q.get(qid, {}).get(aid, 0.0)
        theta[self.lam_pos] = model.lam
        for qid, i in self._nu_pos.items():
            theta[self.nu_base + i] = model.nu.get(qid, 0.0)
        if self.beta_pos is not None:
            theta[self.beta_pos] = model.beta
        return theta

    def unpack(self, theta: np.ndarray, l2_weight: float,
               fit_meta: Optional[dict] = None) -> CommunityModel:
        q: dict[str, dict[str, float]] = {}
        for (qid, aid), i in self._q_pos.items():
            q.setdefault(qid, {})[aid] = float(theta[i])
        nu = {qid: float(theta[self.nu_base + i])
              for qid, i in self._nu_pos.items()}
        beta = self.freeze_beta if self.beta_pos is None \
            else float(theta[self.beta_pos])
        return CommunityModel(q=q, lam=float(theta[self.lam_pos]), nu=nu,
                              beta=float(beta), l2_weight=l2_weight,
                              fit_meta=dict(fit_meta or {}))


class EventColumns(SequenceABC):
    """Training events that are rows of a Community: a read-only
    Sequence[Event] whose items are built on access, and whose columns
    EncodedEvents reads directly.

    `answer_slots` holds each row's answer slot; `q_keys` and
    `question_ids` list the distinct answers and questions the rows vote
    on.
    """

    def __init__(self, community: Community, rows: np.ndarray):
        self.community = community
        self.rows = rows
        self.answer_slots = community.answer_slot[rows]
        self.q_keys = [community.answer_keys[s]
                       for s in np.unique(self.answer_slots).tolist()]
        self.question_ids = [community.question_ids[i] for i in
                             np.unique(community.question[rows]).tolist()]

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        c, r = self.community, int(self.rows[i])
        ctx = VoteContext(int(c.rank[r]), float(c.pos_ratio[r]),
                          float(c.rel_length[r]), int(c.prior_pos[r]),
                          int(c.prior_neg[r]))
        return c.answer_keys[self.answer_slots[i]], int(c.sign[r] > 0), ctx


class EncodedEvents:
    """Training events flattened into numpy arrays for one ParameterIndex."""

    def __init__(self, index: ParameterIndex, events: Iterable[Event]):
        self.index = index
        if isinstance(events, EventColumns):
            self._encode_columns(events)
            return
        v, ratio, length, inv_rank, q_slot, nu_slot = [], [], [], [], [], []
        for (qid, aid), vote, ctx in events:
            if vote not in (0, 1):
                raise ValueError(f"vote must be 0 or 1, got {vote}")
            v.append(vote)
            ratio.append(ctx.pos_ratio)
            length.append(ctx.rel_length)
            inv_rank.append(1.0 / (1.0 + ctx.rank))
            q_slot.append(index.q_slot((qid, aid)))
            nu_slot.append(index.nu_slot(qid) if qid in index._nu_pos else -1)
        self.v = np.asarray(v, dtype=float)
        self.ratio = np.asarray(ratio, dtype=float)
        self.length = np.asarray(length, dtype=float)
        self.inv_rank = np.asarray(inv_rank, dtype=float)
        self.q_slot = np.asarray(q_slot, dtype=int)
        self.nu_slot = np.asarray(nu_slot, dtype=int)

    def _encode_columns(self, events: EventColumns) -> None:
        """The arrays the loop above builds, gathered from the rows."""
        index, c, rows = self.index, events.community, events.rows
        self.v = (c.sign[rows] > 0).astype(float)
        self.ratio = c.pos_ratio[rows]
        self.length = c.rel_length[rows]
        self.inv_rank = 1.0 / (1.0 + c.rank[rows])
        slot_q = np.zeros(c.n_answers, dtype=int)
        used = np.unique(events.answer_slots)
        slot_q[used] = [index.q_slot(c.answer_keys[s]) for s in used.tolist()]
        self.q_slot = slot_q[events.answer_slots]
        question_nu = np.asarray(
            [index.nu_slot(qid) if qid in index._nu_pos else -1
             for qid in c.question_ids], dtype=int)
        self.nu_slot = question_nu[c.question[rows]]

    def __len__(self) -> int:
        return len(self.v)


def objective_and_grad(theta: np.ndarray, data: EncodedEvents,
                       l2_weight: float) -> tuple[float, np.ndarray]:
    """Regularized NLL and its exact gradient at `theta`.

    An empty event set leaves only the regularizer. Accumulation order is
    fixed (single bincount per block; np.sum, not BLAS, for the dot
    products, since OpenBLAS splits long dot products across its
    threads), so evaluations are bit-identical whatever the thread count.
    """
    idx = data.index
    w = l2_weight
    if len(data) == 0:
        obj = 0.5 * w * (float(np.sum(theta * theta))
                         + (idx.freeze_beta or 0.0) ** 2)
        return obj, w * theta

    q = theta[data.q_slot]
    lam = theta[idx.lam_pos]
    nu = np.where(data.nu_slot >= 0, theta[idx.nu_base + data.nu_slot], 0.0)
    beta = idx.freeze_beta if idx.beta_pos is None else theta[idx.beta_pos]

    x = q + lam * data.ratio + nu * data.length + beta * data.inv_rank
    p = expit(x)
    p_safe = np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)
    nll = -float(np.sum(data.v * np.log(p_safe)
                        + (1.0 - data.v) * np.log(1.0 - p_safe)))
    reg = 0.5 * w * (float(np.sum(theta * theta))
                     + ((idx.freeze_beta or 0.0) ** 2
                        if idx.beta_pos is None else 0.0))

    r = p - data.v
    grad = w * theta.copy()
    n_q = len(idx.q_keys)
    grad[:n_q] += np.bincount(data.q_slot, weights=r, minlength=n_q)
    grad[idx.lam_pos] += float(np.sum(r * data.ratio))
    if idx.nu_keys:
        mask = data.nu_slot >= 0
        grad[idx.nu_base:idx.nu_base + len(idx.nu_keys)] += np.bincount(
            data.nu_slot[mask], weights=(r * data.length)[mask],
            minlength=len(idx.nu_keys))
    if idx.beta_pos is not None:
        grad[idx.beta_pos] += float(np.sum(r * data.inv_rank))
    return nll + reg, grad


def curvature_bound_product(v: np.ndarray, data: EncodedEvents,
                            l2_weight: float) -> np.ndarray:
    """Product with a global upper bound on the objective's Hessian.

    The Hessian is the design matrix sandwiching p(1-p) weights plus the
    l2 term; p(1-p) never exceeds 1/4, so (1/4) A^T A + w I dominates it
    everywhere. Used to pick safe fixed step sizes.
    """
    idx = data.index
    s = v[data.q_slot] + v[idx.lam_pos] * data.ratio \
        + np.where(data.nu_slot >= 0,
                   v[idx.nu_base + data.nu_slot], 0.0) * data.length
    if idx.beta_pos is not None:
        s = s + v[idx.beta_pos] * data.inv_rank
    u = 0.25 * s
    out = l2_weight * v.copy()
    n_q = len(idx.q_keys)
    out[:n_q] += np.bincount(data.q_slot, weights=u, minlength=n_q)
    out[idx.lam_pos] += float(np.sum(u * data.ratio))
    if idx.nu_keys:
        mask = data.nu_slot >= 0
        out[idx.nu_base:idx.nu_base + len(idx.nu_keys)] += np.bincount(
            data.nu_slot[mask], weights=(u * data.length)[mask],
            minlength=len(idx.nu_keys))
    if idx.beta_pos is not None:
        out[idx.beta_pos] += float(np.sum(u * data.inv_rank))
    return out


# --- serialization -----------------------------------------------------


def model_to_json(model: CommunityModel) -> dict:
    return {
        "lambda": model.lam,
        "beta": model.beta,
        "l2_weight": model.l2_weight,
        "nu": dict(model.nu),
        "q": {qid: dict(by_a) for qid, by_a in model.q.items()},
        "fit_meta": dict(model.fit_meta),
    }


def model_from_json(obj: dict) -> CommunityModel:
    return CommunityModel(
        q={qid: dict(by_a) for qid, by_a in obj["q"].items()},
        lam=obj["lambda"],
        nu=dict(obj["nu"]),
        beta=obj["beta"],
        l2_weight=obj["l2_weight"],
        fit_meta=dict(obj.get("fit_meta", {})),
    )


def save_model(model: CommunityModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _numbers(value) -> bool:
    return isinstance(value, dict) and all(map(is_number, value.values()))


_MODEL_KEYS = {
    "q": (lambda v: isinstance(v, dict) and all(map(_numbers, v.values())),
          "an object of objects of numbers"),
    "lambda": (is_number, "a number"),
    "nu": (_numbers, "an object of numbers"),
    "beta": (is_number, "a number"),
    "l2_weight": (is_number, "a number"),
}


def load_model(path) -> CommunityModel:
    """Read a model file; InputError for one that is not a model."""
    obj = read_json(path)
    check_json_object(path, obj, _MODEL_KEYS,
                      {"fit_meta": (lambda v: isinstance(v, dict),
                                    "an object")})
    return model_from_json(obj)
