"""Parametric voting-probability model and its regularized likelihood.

A community is described by one quality parameter per answer, a herding
coefficient shared by the community, one length coefficient per question,
and a position coefficient shared by the community. The probability that
a vote cast in context (rank D, positive ratio R, relative length L) is
positive is

    sigmoid(q + lambda * R + nu * L + beta / (1 + D))

Fitting minimizes the negative log-likelihood plus (w/2)*||theta||^2.
Gradients and Hessians here are analytic and exact; the finite-difference
checks live in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .configio import check_json_object, is_number, read_json, write_json
from .trajectory import Community

PROB_CLIP = 1e-12  # keeps log-likelihood terms finite


def _sigmoid(x):
    """1 / (1 + exp(-x)), elementwise; exp overflows to inf below about
    -709.78, which gives the exact limit 0.0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


@dataclass
class CommunityModel:
    """Fitted parameters for one community."""

    q: dict[str, dict[str, float]] = field(default_factory=dict)
    lam: float = 0.0
    nu: dict[str, float] = field(default_factory=dict)
    beta: float = 0.0
    l2_weight: float = 1.0
    fit_meta: dict = field(default_factory=dict)

    def by_slot(self, c: Community
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(modelled, q, nu), one entry per answer slot of `c`: whether
        the model has the answer, its quality (0.0 if not) and its
        question's length coefficient (0.0 without one)."""
        found = []
        for qid, answers in zip(c.question_ids, c.answers):
            by_answer = self.q.get(qid, {})
            found += [by_answer.get(a.answer_id) for a in answers]
        modelled = np.array([v is not None for v in found], dtype=bool)
        q = np.array([0.0 if v is None else v for v in found], dtype=float)
        question_nu = np.array([self.nu.get(qid, 0.0)
                                for qid in c.question_ids], dtype=float)
        return modelled, q, question_nu[c.answer_question]


def vote_probs(q, lam, ratio, nu, rel_length, beta, rank) -> np.ndarray:
    """Clipped sigmoid(q + lam * R + nu * L + beta / (1 + D)), elementwise
    over arrays or scalars."""
    return np.clip(_sigmoid(q + lam * ratio + nu * rel_length
                            + beta / (1.0 + rank)), PROB_CLIP, 1.0 - PROB_CLIP)


class ParameterIndex:
    """The flat layout of theta for training rows of a community.

    Layout: [q of each answer slot the rows vote on, ascending] + [lambda]
    + [nu of each question they vote in, by ascending question index;
    none without `use_length`] + [beta]. A frozen beta is held at a
    constant and excluded from the vector.
    """

    def __init__(self, community: Community, rows: np.ndarray,
                 use_length: bool = True,
                 freeze_beta: Optional[float] = None):
        self.community = community
        self.answer_slots = np.unique(community.answer_slot[rows])
        self.questions = np.unique(community.question[rows]) if use_length \
            else np.zeros(0, dtype=np.int64)
        self.freeze_beta = freeze_beta
        self.lam_pos = len(self.answer_slots)
        self.nu_base = self.lam_pos + 1
        self.beta_pos = None if freeze_beta is not None \
            else self.nu_base + len(self.questions)
        self.size = self.nu_base + len(self.questions) \
            + (0 if freeze_beta is not None else 1)

    def nu_positions(self, questions: np.ndarray) -> np.ndarray:
        """Each of `questions`' position among the nu entries, -1 without
        length coefficients."""
        if not len(self.questions):
            return np.full(len(questions), -1)
        return np.searchsorted(self.questions, questions)

    def pack(self, model: CommunityModel) -> np.ndarray:
        c = self.community
        _, q, _ = model.by_slot(c)
        theta = np.zeros(self.size)
        theta[:self.lam_pos] = q[self.answer_slots]
        theta[self.lam_pos] = model.lam
        theta[self.nu_base:self.nu_base + len(self.questions)] = [
            model.nu.get(c.question_ids[i], 0.0)
            for i in self.questions.tolist()]
        if self.beta_pos is not None:
            theta[self.beta_pos] = model.beta
        return theta

    def unpack(self, theta: np.ndarray, l2_weight: float,
               fit_meta: Optional[dict] = None) -> CommunityModel:
        c = self.community
        q: dict[str, dict[str, float]] = {}
        for slot, value in zip(self.answer_slots.tolist(),
                               theta[:self.lam_pos].tolist()):
            qid, aid = c.answer_keys[slot]
            q.setdefault(qid, {})[aid] = value
        nu_values = theta[self.nu_base:self.nu_base + len(self.questions)]
        nu = {c.question_ids[i]: value for i, value in
              zip(self.questions.tolist(), nu_values.tolist())}
        beta = self.freeze_beta if self.beta_pos is None \
            else float(theta[self.beta_pos])
        return CommunityModel(q=q, lam=float(theta[self.lam_pos]), nu=nu,
                              beta=float(beta), l2_weight=l2_weight,
                              fit_meta=dict(fit_meta or {}))


class EncodedEvents:
    """Training rows of the index's community gathered into numpy arrays:
    v (1.0 for a positive vote, 0.0 for a negative one), ratio, length,
    inv_rank = 1/(1 + rank), q_slot and nu_slot (-1 without a length
    term), each row's positions in theta's layout. The rows vote only on
    answers the index lays out."""

    def __init__(self, index: ParameterIndex, rows: np.ndarray):
        self.index = index
        c = index.community
        self.v = (c.sign[rows] > 0).astype(float)
        self.ratio = c.pos_ratio[rows]
        self.length = c.rel_length[rows]
        self.inv_rank = 1.0 / (1.0 + c.rank[rows])
        self.q_slot = np.searchsorted(index.answer_slots, c.answer_slot[rows])
        self.nu_slot = index.nu_positions(c.question[rows])
        # each q slot's nu slot (-1 without one)
        self.answer_nu = index.nu_positions(
            c.answer_question[index.answer_slots])
        # the free globals: (theta position, covariate column)
        self.border = [(index.lam_pos, self.ratio)]
        if index.beta_pos is not None:
            self.border.append((index.beta_pos, self.inv_rank))

    def __len__(self) -> int:
        return len(self.v)


def _predictor(theta: np.ndarray, data: EncodedEvents) -> np.ndarray:
    """Each event's logit q + lambda * R + nu * L + beta / (1 + D)."""
    idx = data.index
    q = theta[data.q_slot]
    lam = theta[idx.lam_pos]
    nu = np.where(data.nu_slot >= 0, theta[idx.nu_base + data.nu_slot], 0.0)
    beta = idx.freeze_beta if idx.beta_pos is None else theta[idx.beta_pos]
    return q + lam * data.ratio + nu * data.length + beta * data.inv_rank


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

    p = _sigmoid(_predictor(theta, data))
    p_safe = np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)
    nll = -float(np.sum(data.v * np.log(p_safe)
                        + (1.0 - data.v) * np.log(1.0 - p_safe)))
    reg = 0.5 * w * (float(np.sum(theta * theta))
                     + ((idx.freeze_beta or 0.0) ** 2
                        if idx.beta_pos is None else 0.0))

    r = p - data.v
    grad = w * theta.copy()
    n_q = len(idx.answer_slots)
    grad[:n_q] += np.bincount(data.q_slot, weights=r, minlength=n_q)
    grad[idx.lam_pos] += float(np.sum(r * data.ratio))
    if len(idx.questions):
        mask = data.nu_slot >= 0
        grad[idx.nu_base:idx.nu_base + len(idx.questions)] += np.bincount(
            data.nu_slot[mask], weights=(r * data.length)[mask],
            minlength=len(idx.questions))
    if idx.beta_pos is not None:
        grad[idx.beta_pos] += float(np.sum(r * data.inv_rank))
    return nll + reg, grad


# A pivot below this share of the diagonal entry it was reduced from has
# lost its digits to cancellation: the damped Hessian is singular to
# working precision.
PIVOT_TOL = 1e-12


class BlockHessian:
    """The objective's Hessian at one theta, and damped Newton solves.

    Without the free globals (lambda, and beta unless frozen) the Hessian
    is block-diagonal per question: a question's q entries are diagonal
    among themselves and couple only to the question's nu, an arrowhead.
    The globals border every block. A solve eliminates the arrowheads
    with bincounts, solves the globals' (at most 2x2) Schur complement in
    Python floats and back-substitutes, so it costs O(events). Every sum
    has a fixed order (bincount, np.sum), so solves are bit-identical
    whatever the BLAS thread count.
    """

    def __init__(self, theta: np.ndarray, data: EncodedEvents,
                 l2_weight: float):
        idx = data.index
        w = l2_weight
        self.data = data
        n_q, n_nu = len(idx.answer_slots), len(idx.questions)
        p = _sigmoid(_predictor(theta, data))
        h = p * (1.0 - p)
        mask = data.nu_slot >= 0
        nu_rows = data.nu_slot[mask]
        hl = h * data.length
        self.q_diag = np.bincount(data.q_slot, weights=h, minlength=n_q) + w
        self.q_nu = np.bincount(data.q_slot, weights=np.where(mask, hl, 0.0),
                                minlength=n_q)
        self.nu_diag = np.bincount(nu_rows, weights=(hl * data.length)[mask],
                                   minlength=n_nu) + w
        self.border = [pos for pos, _ in data.border]
        self.q_border, self.nu_border = [], []
        n_g = len(data.border)
        self.glob = [[0.0] * n_g for _ in range(n_g)]
        for j, (_, z) in enumerate(data.border):
            hz = h * z
            self.q_border.append(np.bincount(data.q_slot, weights=hz,
                                             minlength=n_q))
            self.nu_border.append(np.bincount(
                nu_rows, weights=(hz * data.length)[mask], minlength=n_nu))
            for k in range(j, n_g):
                self.glob[j][k] = self.glob[k][j] = \
                    float(np.sum(hz * data.border[k][1])) \
                    + (w if k == j else 0.0)

    def max_diagonal(self) -> float:
        return max([float(np.max(a)) for a in (self.q_diag, self.nu_diag)
                    if a.size] + [self.glob[j][j] for j in
                                  range(len(self.border))])

    def solve(self, rhs: np.ndarray, damping: float
              ) -> Optional[np.ndarray]:
        """x with (H + damping * I) x = rhs; None if a pivot is not
        positive."""
        idx = self.data.index
        n_q, n_nu = len(self.q_diag), len(self.nu_diag)
        nu_end = idx.nu_base + n_nu
        d = self.q_diag + damping
        if not np.all(d > 0.0):
            return None
        e = self.nu_diag + damping
        has = self.data.answer_nu >= 0
        nu_of = self.data.answer_nu[has]
        c = self.q_nu[has]
        c_d = c / d[has]
        pivot = e - np.bincount(nu_of, weights=c * c_d, minlength=n_nu)
        if not np.all(pivot > PIVOT_TOL * e):
            return None

        def local(r_q, r_nu):
            """Solve with the arrowheads: nu first, then each q."""
            x_q = r_q / d
            x_nu = (r_nu - np.bincount(nu_of, weights=c * x_q[has],
                                       minlength=n_nu)) / pivot
            x_q[has] -= c_d * x_nu[nu_of]
            return x_q, x_nu

        def border_dot(j, x_q, x_nu):
            return float(np.sum(self.q_border[j] * x_q)) \
                + float(np.sum(self.nu_border[j] * x_nu))

        x_q, x_nu = local(rhs[:n_q], rhs[idx.nu_base:nu_end])
        cols = [local(b_q, b_nu)
                for b_q, b_nu in zip(self.q_border, self.nu_border)]
        n_g = len(self.border)
        schur = [[0.0] * n_g for _ in range(n_g)]
        for j in range(n_g):
            for k in range(j, n_g):
                schur[j][k] = schur[k][j] = self.glob[j][k] \
                    - border_dot(j, *cols[k]) + (damping if k == j else 0.0)
        t = [float(rhs[pos]) - border_dot(j, x_q, x_nu)
             for j, pos in enumerate(self.border)]
        # Gaussian elimination of the Schur complement, then back
        # substitution
        for j in range(n_g):
            if not schur[j][j] > PIVOT_TOL * (self.glob[j][j] + damping):
                return None
            for k in range(j + 1, n_g):
                f = schur[k][j] / schur[j][j]
                for m in range(j, n_g):
                    schur[k][m] -= f * schur[j][m]
                t[k] -= f * t[j]
        delta = [0.0] * n_g
        for j in reversed(range(n_g)):
            acc = t[j]
            for m in range(j + 1, n_g):
                acc -= schur[j][m] * delta[m]
            delta[j] = acc / schur[j][j]
        out = np.empty(idx.size)
        for (c_q, c_nu), value in zip(cols, delta):
            x_q -= value * c_q
            x_nu -= value * c_nu
        out[:n_q] = x_q
        out[idx.nu_base:nu_end] = x_nu
        for pos, value in zip(self.border, delta):
            out[pos] = value
        return out


# Only the unused `trainer._polish` calls this; see the note there.
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
    n_q = len(idx.answer_slots)
    out[:n_q] += np.bincount(data.q_slot, weights=u, minlength=n_q)
    out[idx.lam_pos] += float(np.sum(u * data.ratio))
    if len(idx.questions):
        mask = data.nu_slot >= 0
        out[idx.nu_base:idx.nu_base + len(idx.questions)] += np.bincount(
            data.nu_slot[mask], weights=(u * data.length)[mask],
            minlength=len(idx.questions))
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
    write_json(path, model_to_json(model))


def _numbers(value) -> bool:
    return isinstance(value, dict) and all(map(is_number, value.values()))


_MODEL_KEYS = {
    "q": (lambda v: isinstance(v, dict) and all(map(_numbers, v.values())),
          "an object of objects of finite numbers"),
    "lambda": (is_number, "a finite number"),
    "nu": (_numbers, "an object of finite numbers"),
    "beta": (is_number, "a finite number"),
    "l2_weight": (is_number, "a finite number"),
}


def load_model(path) -> CommunityModel:
    """Read a model file; InputError for one that is not a model."""
    obj = read_json(path)
    check_json_object(path, obj, _MODEL_KEYS,
                      {"fit_meta": (lambda v: isinstance(v, dict),
                                    "an object")})
    return model_from_json(obj)
