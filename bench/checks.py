"""Output checks computed apart from the program.

Nothing here imports `cva`: trajectories are re-read from the JSONL with
`json`, vote contexts are replayed with a counting formulation of the
display rank, and every statistic the pipeline reports is recomputed with
plain numpy. A check returns a list of failure messages; an empty list
means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from collections import Counter
from pathlib import Path

import numpy as np

REL_LENGTH_CLIP = 3.0
PROB_CLIP = 1e-12
# Summation-order slack when recomputing a gradient the solver drove just
# under its tolerance: the program and this file add the same terms in a
# different order, which moves the sum by ~1e-15, far below 1e-10.
GRAD_SLACK = 1e-10
VALUE_TOL = 1e-9

# Documented thresholds (see bench/README.md, "Checks").
MIN_Q_CORRELATION = 0.50      # Pearson(fitted q, planted q), community
MIN_SPEARMAN_BETA = 0.60      # bias map, fitted vs planted beta
MIN_SPEARMAN_LAMBDA = 0.60    # bias map, fitted vs planted lambda


def sigmoid(x):
    return np.exp(-np.logaddexp(0.0, -x))


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


class Replay:
    """Per-vote contexts of one trajectory file, as numpy columns.

    The rank of the voted answer is one plus the number of displayed
    answers ahead of it (larger vote difference, or equal difference and
    earlier creation); the accepted answer leaves the display after its
    acceptance unless it is the one being voted on.
    """

    def __init__(self, path):
        self.questions = read_jsonl(path)
        cols = {k: [] for k in ("question", "answer", "v", "ratio", "rank",
                                "rel", "prior_pos", "prior_neg", "first")}
        self.answer_keys = []        # (qid, aid) in file order
        self.final_rel = []          # end-of-trajectory relative length
        self.n_votes = []            # votes per answer
        self.final_diff = []         # positive minus negative votes
        self.question_answers = []   # per question: answer codes
        for qi, q in enumerate(self.questions):
            answers = q["answers"]
            base = len(self.answer_keys)
            codes = list(range(base, base + len(answers)))
            self.question_answers.append(codes)
            logl = [math.log(a["text_length"]) for a in answers]
            mean_all = sum(logl) / len(logl)
            created = [a["creation_time"] for a in answers]
            acc = next((i for i, a in enumerate(answers) if a["accepted"]),
                       None)
            acc_time = answers[acc]["acceptance_time"] if acc is not None \
                else None
            pos = [0] * len(answers)
            neg = [0] * len(answers)
            for ev in q["events"]:
                j, ts = ev["answer_index"], ev["timestamp"]
                live = [i for i in range(len(answers)) if created[i] < ts]
                dj = pos[j] - neg[j]
                ahead = 0
                for i in live:
                    if i == j or (i == acc and ts > acc_time):
                        continue
                    di = pos[i] - neg[i]
                    if di > dj or (di == dj and (created[i], i)
                                   < (created[j], j)):
                        ahead += 1
                prior = pos[j] + neg[j]
                rel = logl[j] - sum(logl[i] for i in live) / len(live)
                cols["question"].append(qi)
                cols["answer"].append(base + j)
                cols["v"].append(1.0 if ev["sign"] > 0 else 0.0)
                cols["ratio"].append(pos[j] / prior if prior else 0.5)
                cols["rank"].append(1 + ahead)
                cols["rel"].append(max(-REL_LENGTH_CLIP,
                                       min(REL_LENGTH_CLIP, rel)))
                cols["prior_pos"].append(pos[j])
                cols["prior_neg"].append(neg[j])
                cols["first"].append(prior == 0)
                if ev["sign"] > 0:
                    pos[j] += 1
                else:
                    neg[j] += 1
            for i, a in enumerate(answers):
                self.answer_keys.append((q["question_id"], a["answer_id"]))
                self.final_rel.append(max(-REL_LENGTH_CLIP, min(
                    REL_LENGTH_CLIP, logl[i] - mean_all)))
                self.n_votes.append(pos[i] + neg[i])
                self.final_diff.append(pos[i] - neg[i])
        for key, values in cols.items():
            setattr(self, key, np.asarray(values))
        self.final_rel = np.asarray(self.final_rel)
        self.n_votes = np.asarray(self.n_votes)
        self.code = {key: c for c, key in enumerate(self.answer_keys)}
        self.question_ids = [q["question_id"] for q in self.questions]

    @property
    def votes(self) -> int:
        return len(self.v)


def model_columns(replay: Replay, model: dict):
    """(q, nu) per answer code; NaN where the model has no parameter."""
    q = np.full(len(replay.answer_keys), np.nan)
    nu = np.zeros(len(replay.answer_keys))
    for c, (qid, aid) in enumerate(replay.answer_keys):
        q[c] = model["q"].get(qid, {}).get(aid, np.nan)
        nu[c] = model["nu"].get(qid, 0.0)
    return q, nu


def gradient_maxnorm(replay: Replay, model: dict, l2: float,
                     freeze_beta=None) -> float:
    """Max-norm of the regularized NLL gradient at a written model, with
    each answer's first vote dropped as the default fit config does."""
    keep = ~replay.first
    q, nu = model_columns(replay, model)
    ans = replay.answer[keep]
    if np.isnan(q[ans]).any():
        return math.inf
    ratio, rel = replay.ratio[keep], replay.rel[keep]
    inv_rank = 1.0 / (1.0 + replay.rank[keep])
    lam, beta = model["lambda"], model["beta"]
    x = q[ans] + lam * ratio + nu[ans] * rel + beta * inv_rank
    r = sigmoid(x) - replay.v[keep]
    grads = []
    by_answer = np.bincount(ans, weights=r, minlength=len(q))
    by_question = np.bincount(replay.question[keep], weights=r * rel,
                              minlength=len(replay.questions))
    for c, (qid, aid) in enumerate(replay.answer_keys):
        if aid in model["q"].get(qid, {}):
            grads.append(by_answer[c] + l2 * q[c])
    for qi, qid in enumerate(replay.question_ids):
        if qid in model["nu"]:
            grads.append(by_question[qi] + l2 * model["nu"][qid])
    grads.append(float(r @ ratio) + l2 * lam)
    if freeze_beta is None:
        grads.append(float(r @ inv_rank) + l2 * beta)
    return float(np.max(np.abs(grads)))


def check_fit(replay: Replay, model_path, fit_cfg: dict,
              freeze_beta=None) -> list[str]:
    model = read_json(model_path)
    norm = gradient_maxnorm(replay, model, fit_cfg["l2_weight"],
                            freeze_beta)
    out = []
    if not norm < fit_cfg["tol"] + GRAD_SLACK:
        out.append(f"{Path(model_path).name}: recomputed gradient max-norm "
                   f"{norm:.3e} not below tol {fit_cfg['tol']:.1e}")
    if freeze_beta is not None and model["beta"] != freeze_beta:
        out.append(f"{Path(model_path).name}: beta {model['beta']!r} is not "
                   f"the frozen {freeze_beta!r}")
    return out


def pearson(a, b) -> float:
    a = np.asarray(a, float) - np.mean(a)
    b = np.asarray(b, float) - np.mean(b)
    return float(a @ b / math.sqrt(float(a @ a) * float(b @ b)))


def spearman(a, b) -> float:
    def ranks(x):
        x = np.asarray(x, float)
        order = np.argsort(x, kind="stable")
        r = np.empty(len(x))
        i = 0
        while i < len(x):
            j = i
            while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
                j += 1
            r[order[i:j + 1]] = 0.5 * (i + j) + 1.0
            i = j + 1
        return r
    return pearson(ranks(a), ranks(b))


def read_truth(path) -> dict[str, float]:
    return {row["answer_id"]: float(row["score"]) for row in read_csv(path)}


def check_recovery(model_path, truth_path) -> list[str]:
    model = read_json(model_path)
    truth = read_truth(truth_path)
    fitted, planted = [], []
    for by_answer in model["q"].values():
        for aid, value in by_answer.items():
            fitted.append(value)
            planted.append(truth[aid])
    out = []
    if not model["lambda"] > 0:
        out.append(f"fitted lambda {model['lambda']:.4f} not > 0")
    if not model["beta"] > 0:
        out.append(f"fitted beta {model['beta']:.4f} not > 0")
    corr = pearson(fitted, planted)
    if not corr > MIN_Q_CORRELATION:
        out.append(f"corr(fitted q, true q) {corr:.3f} not > "
                   f"{MIN_Q_CORRELATION}")
    return out


def population_mean_quality(replay: Replay, model: dict) -> np.ndarray:
    """Debiased quality (mean mode) per answer code: the vote probability
    averaged over every vote context in the community, with the answer's
    own final relative length. NaN for answers without a parameter."""
    if replay.votes > 100_000:
        raise ValueError("population above the program's subsample "
                         "threshold; the check assumes the full population")
    pairs = Counter(zip(replay.ratio.tolist(), replay.rank.tolist()))
    ratio = np.array([p[0] for p in pairs])
    inv_rank = 1.0 / (1.0 + np.array([p[1] for p in pairs], float))
    weight = np.array(list(pairs.values()), float) / replay.votes
    q, nu = model_columns(replay, model)
    fitted = ~np.isnan(q)
    base = (q + nu * replay.final_rel)[fitted]
    x = base[:, None] + model["lambda"] * ratio[None, :] \
        + model["beta"] * inv_rank[None, :]
    p = np.clip(sigmoid(x), PROB_CLIP, 1.0 - PROB_CLIP)
    out = np.full(len(q), np.nan)
    out[fitted] = p @ weight
    return out


def read_quality(path) -> dict[tuple[str, str], tuple[float, float]]:
    return {(r["question_id"], r["answer_id"]): (float(r["q"]),
                                                float(r["Q_hat"]))
            for r in read_csv(path)}


def check_quality_mean(replay: Replay, model_path, quality_path
                       ) -> list[str]:
    model = read_json(model_path)
    rows = read_quality(quality_path)
    expected = population_mean_quality(replay, model)
    out = []
    model_keys = {(qid, aid) for qid, by_a in model["q"].items()
                  for aid in by_a}
    if set(rows) != model_keys:
        out.append(f"quality rows cover {len(rows)} answers, the model "
                   f"{len(model_keys)}")
    worst = 0.0
    for key, (q, q_hat) in rows.items():
        if key not in replay.code or key not in model_keys:
            out.append(f"quality row {key} names no fitted answer")
            continue
        if q != model["q"][key[0]][key[1]]:
            out.append(f"{key}: q column {q!r} differs from the model")
        worst = max(worst, abs(q_hat - expected[replay.code[key]]))
    if not worst <= VALUE_TOL:
        out.append(f"mean-mode Q_hat differs from the population average "
                   f"by {worst:.3e} (> {VALUE_TOL:.0e})")
    return out


def check_quality_per_time(replay: Replay, quality_path) -> list[str]:
    out = []
    for key, (_, q_hat) in read_quality(quality_path).items():
        n = replay.n_votes[replay.code[key]] if key in replay.code else 0
        if not 0.0 < q_hat <= n:
            out.append(f"{key}: per-time-sum Q_hat {q_hat!r} outside "
                       f"(0, {n}]")
    return out


def herding_degree(replay: Replay, model: dict) -> tuple[float, int]:
    keep = ~replay.first
    q, nu = model_columns(replay, model)
    ans = replay.answer[keep]
    x = q[ans] + model["lambda"] * replay.ratio[keep] \
        + nu[ans] * replay.rel[keep] \
        + model["beta"] / (1.0 + replay.rank[keep])
    p = np.clip(sigmoid(x), PROB_CLIP, 1.0 - PROB_CLIP)
    h = np.where(replay.prior_pos[keep] >= replay.prior_neg[keep], 1.0, -1.0)
    return math.exp(float(np.mean(h * np.log(p / (1.0 - p))))), \
        int(keep.sum())


def check_profile(replay: Replay, model_path, profile_path) -> list[str]:
    model = read_json(model_path)
    prof = read_json(profile_path)
    degree, n = herding_degree(replay, model)
    out = []
    if not abs(prof["herding_degree"] - degree) <= VALUE_TOL * degree:
        out.append(f"herding_degree {prof['herding_degree']!r} vs "
                   f"recomputed {degree!r}")
    if prof["position_sensitivity"] != model["beta"]:
        out.append(f"position_sensitivity {prof['position_sensitivity']!r} "
                   f"is not the model's beta {model['beta']!r}")
    if prof["n_events"] != n:
        out.append(f"profile scored {prof['n_events']} events, "
                   f"expected {n}")
    return out


def check_counterfactual(curves_path, n_ranks: int) -> list[str]:
    curves: dict[str, dict[int, float]] = {}
    for row in read_csv(curves_path):
        curves.setdefault(row["mood"], {})[int(row["rank"])] = \
            float(row["p"])
    out = []
    if sorted(curves) != ["neg", "neutral", "pos"]:
        return [f"curve moods {sorted(curves)}"]
    for mood, by_rank in curves.items():
        if sorted(by_rank) != list(range(1, n_ranks + 1)):
            out.append(f"{mood}: ranks {sorted(by_rank)}")
            continue
        ps = [by_rank[r] for r in range(1, n_ranks + 1)]
        if any(b > a for a, b in zip(ps, ps[1:])):
            out.append(f"{mood} curve increases with rank")
    for r in range(1, n_ranks + 1):
        pos, neu, neg = (curves[m].get(r, math.nan)
                         for m in ("pos", "neutral", "neg"))
        if not pos >= neu >= neg:
            out.append(f"rank {r}: pos {pos:.6f} >= neutral {neu:.6f} "
                       f">= neg {neg:.6f} fails")
    return out


def _ranks_desc(scores) -> list[int]:
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    ranks = [0] * len(scores)
    for position, i in enumerate(order, start=1):
        ranks[i] = position
    return ranks


def _tau_b(a, b) -> float:
    conc = disc = ties_a = ties_b = 0
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            da, db = a[i] - a[j], b[i] - b[j]
            if da == 0 and db == 0:
                continue
            if da == 0:
                ties_a += 1
            elif db == 0:
                ties_b += 1
            elif (da > 0) == (db > 0):
                conc += 1
            else:
                disc += 1
    denom = math.sqrt((conc + disc + ties_a) * (conc + disc + ties_b))
    return (conc - disc) / denom if denom else math.nan


def check_evaluate(replay: Replay, model_path, ablation_path, truth_path,
                   report_path) -> list[str]:
    """Mean Kendall tau-b per ranker from independently recomputed scores,
    and the paper's claim that the debiased ranker beats vote difference."""
    truth = read_truth(truth_path)
    scores = {"cva": population_mean_quality(replay, read_json(model_path)),
              "no_position": population_mean_quality(
                  replay, read_json(ablation_path)),
              "vote_diff": np.asarray(replay.final_diff, float)}
    taus = {name: [] for name in scores}
    for qi, codes in enumerate(replay.question_answers):
        usable = [c for c in codes
                  if replay.answer_keys[c][1] in truth
                  and not any(np.isnan(s[c]) for s in scores.values())]
        if len(usable) < 2:
            continue
        truth_ranks = _ranks_desc([truth[replay.answer_keys[c][1]]
                                   for c in usable])
        per = {name: _tau_b(_ranks_desc([s[c] for c in usable]),
                            truth_ranks) for name, s in scores.items()}
        if any(math.isnan(t) for t in per.values()):
            continue
        for name, t in per.items():
            taus[name].append(t)
    report = read_json(report_path)
    out = []
    if report["n_questions"] != len(taus["cva"]):
        out.append(f"report evaluates {report['n_questions']} questions, "
                   f"recomputed {len(taus['cva'])}")
    for name, values in taus.items():
        mean = statistics.fmean(values)
        got = report["mean_tau"][name]
        if not abs(got - mean) <= VALUE_TOL:
            out.append(f"mean_tau[{name}] {got!r} vs recomputed {mean!r}")
    if not report["mean_tau"]["cva"] > report["mean_tau"]["vote_diff"]:
        out.append("mean_tau[cva] does not beat mean_tau[vote_diff]")
    return out


def check_map(map_path, profile_paths, models, planted) -> list[str]:
    """Medians and quadrant flags from the profiles; Spearman correlation
    of fitted against planted coefficients.

    `models` and `planted` are per-community lists aligned with
    `profile_paths`: model JSON paths and (lambda, beta) pairs."""
    profiles = [read_json(p) for p in profile_paths]
    rows = read_csv(map_path)
    out = []
    h_med = statistics.median(p["herding_degree"] for p in profiles)
    p_med = statistics.median(p["position_sensitivity"] for p in profiles)
    if len(rows) != len(profiles) + 1 or rows[-1]["community"] != "MEDIAN":
        return [f"map has {len(rows)} rows for {len(profiles)} profiles"]
    if float(rows[-1]["herding_degree"]) != h_med \
            or float(rows[-1]["position_sensitivity"]) != p_med:
        out.append("MEDIAN row differs from the recomputed medians")
    for row, prof in zip(rows, profiles):
        want = (str(prof["herding_degree"] > h_med),
                str(prof["position_sensitivity"] > p_med))
        got = (row["above_median_herding"], row["above_median_position"])
        if row["community"] != prof["community"] or got != want:
            out.append(f"{row['community']}: flags {got}, expected {want}")
    fitted_beta = [float(r["position_sensitivity"]) for r in rows[:-1]]
    fitted_lam = [read_json(m)["lambda"] for m in models]
    rho_b = spearman(fitted_beta, [b for _, b in planted])
    rho_l = spearman(fitted_lam, [lam for lam, _ in planted])
    if not rho_b > MIN_SPEARMAN_BETA:
        out.append(f"Spearman(fitted beta, planted) {rho_b:.3f} not > "
                   f"{MIN_SPEARMAN_BETA}")
    if not rho_l > MIN_SPEARMAN_LAMBDA:
        out.append(f"Spearman(fitted lambda, planted) {rho_l:.3f} not > "
                   f"{MIN_SPEARMAN_LAMBDA}")
    return out


def check_simulated(replay: Replay, truth_path, n_events: int
                    ) -> list[str]:
    """Every simulator step writes one answer or casts one vote; the
    truth file labels every answer, min-max scaled to [-1, 1]."""
    truth = read_truth(truth_path)
    out = []
    if len(replay.answer_keys) + replay.votes != n_events:
        out.append(f"{len(replay.answer_keys)} answers + {replay.votes} "
                   f"votes != {n_events} events")
    if set(truth) != {aid for _, aid in replay.answer_keys}:
        out.append("truth labels do not cover exactly the answers")
    elif min(truth.values()) != -1.0 or max(truth.values()) != 1.0:
        out.append("truth scores are not scaled to [-1, 1]")
    return out
