import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cva
from cva.model import (PROB_CLIP, BlockHessian, CommunityModel,
                       EncodedEvents, ParameterIndex, model_from_json,
                       model_to_json, objective_and_grad, load_model,
                       save_model, vote_probs)
from cva.trajectory import (Answer, MalformedTrajectoryError,
                            QuestionTrajectory, replay_community)
from conftest import (Context, event_columns, event_prob, nll_and_grad,
                      vote_prob)


def ctx(rank=1, ratio=0.5, length=0.0, pos=0, neg=0):
    return Context(rank=rank, pos_ratio=ratio, rel_length=length,
                   prior_pos=pos, prior_neg=neg)


def random_instance(rng, n_questions=3, n_answers=8, n_events=20,
                    l2_weight=1.0, freeze_beta=None, use_length=True):
    """Random events plus a matching index and parameter vector."""
    keys, events = random_events(rng, n_questions, n_answers, n_events)
    index = ParameterIndex(keys, [q for q, _ in keys] if use_length else [],
                           freeze_beta=freeze_beta)
    theta = rng.normal(0, 1, size=index.size)
    return index, EncodedEvents(index, events), theta


def random_events(rng, n_questions, n_answers, n_events):
    """Answer keys and random training events on them."""
    keys = []
    for a in range(n_answers):
        qid = f"q{a % n_questions}"
        keys.append((qid, f"a{a}"))
    events = []
    for _ in range(n_events):
        qid, aid = keys[rng.integers(len(keys))]
        c = ctx(rank=int(rng.integers(1, 7)), ratio=float(rng.random()),
                length=float(rng.uniform(-3, 3)))
        events.append(((qid, aid), int(rng.integers(0, 2)), c))
    return keys, event_columns(events)


def fd_gradient(theta, data, w, h=1e-6):
    grad = np.zeros_like(theta)
    for i in range(len(theta)):
        up = theta.copy()
        up[i] += h
        down = theta.copy()
        down[i] -= h
        f_up, _ = objective_and_grad(up, data, w)
        f_down, _ = objective_and_grad(down, data, w)
        grad[i] = (f_up - f_down) / (2 * h)
    return grad


class TestVoteProb:
    def test_all_zero_parameters_give_half(self):
        m = CommunityModel()
        assert vote_prob(m, 0.0, ctx(rank=3, ratio=0.9)) == 0.5

    def test_closed_form_value(self):
        m = CommunityModel(lam=1.0, beta=1.0)
        p = vote_prob(m, 0.0, ctx(rank=1, ratio=0.5))
        assert p == pytest.approx(0.731059, abs=1e-6)

    def test_monotone_in_quality(self):
        m = CommunityModel(lam=0.5, beta=1.0)
        probs = [vote_prob(m, q, ctx()) for q in np.linspace(-4, 4, 30)]
        assert all(a < b for a, b in zip(probs, probs[1:]))

    def test_monotone_in_ratio_when_lambda_positive(self):
        m = CommunityModel(lam=2.0)
        probs = [vote_prob(m, 0.0, ctx(ratio=r))
                 for r in np.linspace(0, 1, 20)]
        assert all(a < b for a, b in zip(probs, probs[1:]))

    def test_decreasing_in_rank_when_beta_positive(self):
        m = CommunityModel(beta=2.0)
        probs = [vote_prob(m, 0.0, ctx(rank=d)) for d in range(1, 30)]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    @pytest.mark.filterwarnings("error")
    def test_clipping_keeps_probability_loggable(self):
        # exp overflows a float past a logit of about -709.78: the sigmoid
        # takes its limit there, with no warning
        m = CommunityModel()
        hi = vote_prob(m, 800.0, ctx())
        lo = vote_prob(m, -800.0, ctx())
        assert hi == 1.0 - 1e-12
        assert lo == 1e-12
        assert math.isfinite(math.log(hi)) and math.isfinite(math.log(lo))
        logits = np.array([-1000.0, 1000.0])
        p = vote_probs(logits, 0.0, 0.5, 0.0, 0.0, 0.0, 1)
        assert p.tolist() == [PROB_CLIP, 1.0 - PROB_CLIP]

    def test_event_prob_uses_model_lookups(self):
        m = CommunityModel(q={"q1": {"a1": 0.3}}, nu={"q1": 0.5}, lam=1.0,
                           beta=0.5)
        direct = vote_prob(m, 0.3, ctx(length=2.0), nu=0.5)
        assert event_prob(m, "q1", "a1", ctx(length=2.0)) == direct


class TestObjective:
    def test_single_event_hand_value(self):
        m = CommunityModel(q={"q1": {"a1": 0.0}}, nu={"q1": 0.0},
                           l2_weight=0.0)
        events = event_columns([(("q1", "a1"), 1, ctx(rank=1, ratio=0.5))])
        obj, grad = nll_and_grad(m, events)
        assert obj == pytest.approx(math.log(2), abs=1e-12)
        index = ParameterIndex([("q1", "a1")], ["q1"])
        assert grad[index.q_slot(("q1", "a1"))] == pytest.approx(-0.5)

    def test_zero_theta_regularizer_contributes_nothing(self):
        m = CommunityModel(q={"q1": {"a1": 0.0}}, nu={"q1": 0.0},
                           l2_weight=1.0)
        events = event_columns([(("q1", "a1"), 1, ctx())])
        obj_w1, grad_w1 = nll_and_grad(m, events)
        m0 = CommunityModel(q={"q1": {"a1": 0.0}}, nu={"q1": 0.0},
                            l2_weight=0.0)
        obj_w0, grad_w0 = nll_and_grad(m0, events)
        assert obj_w1 == obj_w0
        assert np.array_equal(grad_w1, grad_w0)

    def test_empty_events_only_regularizer(self, rng):
        index, _, theta = random_instance(rng, n_events=1)
        data = EncodedEvents(index, event_columns([]))
        obj, grad = objective_and_grad(theta, data, 2.0)
        assert obj == pytest.approx(float(theta @ theta))
        assert np.allclose(grad, 2.0 * theta)

    def test_invalid_vote_value_rejected(self):
        # a vote is +1 or -1 when replayed, and encoded as 1 or 0
        answers = (Answer("a1", 0, 100),)
        with pytest.raises(MalformedTrajectoryError, match="sign 2"):
            replay_community([QuestionTrajectory("q1", answers,
                                                 ((0, 2, 10),))])
        index = ParameterIndex([("q1", "a1")], ["q1"])
        events = event_columns([(("q1", "a1"), 1, ctx()),
                                (("q1", "a1"), 0, ctx())])
        assert EncodedEvents(index, events).v.tolist() == [1.0, 0.0]

    @pytest.mark.filterwarnings("error")
    def test_extreme_logits_finite(self):
        # each answer gets one negative and one positive vote
        keys = [("q", "lo"), ("q", "hi")]
        events = event_columns([(key, v, ctx()) for key in keys
                                for v in (0, 1)])
        index = ParameterIndex(keys, ["q"])
        data = EncodedEvents(index, events)
        theta = np.zeros(index.size)
        theta[index.q_slot(("q", "lo"))] = -1000.0
        theta[index.q_slot(("q", "hi"))] = 800.0
        obj, grad = objective_and_grad(theta, data, 1.0)
        assert np.all(np.isfinite(grad))
        # the vote against each sign costs -log(PROB_CLIP)
        assert obj == pytest.approx(
            2 * -math.log(PROB_CLIP) + 0.5 * (1000.0 ** 2 + 800.0 ** 2))
        hess = BlockHessian(theta, data, 1.0)
        assert hess.q_diag.tolist() == [1.0, 1.0]  # p(1 - p) is 0 at both

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(20):
            w = float(rng.choice([0.0, 0.5, 1.0]))
            freeze = 0.0 if rng.random() < 0.3 else None
            index, data, theta = random_instance(rng, l2_weight=w,
                                                 freeze_beta=freeze)
            _, analytic = objective_and_grad(theta, data, w)
            numeric = fd_gradient(theta, data, w)
            rel = np.linalg.norm(analytic - numeric) / \
                (np.linalg.norm(numeric) + 1e-8)
            assert rel < 1e-5

    def test_midpoint_convexity(self, rng):
        for _ in range(20):
            index, data, theta_a = random_instance(rng)
            theta_b = np.random.default_rng(1).normal(0, 1, theta_a.shape)
            mid = 0.5 * (theta_a + theta_b)
            f = lambda t: objective_and_grad(t, data, 1.0)[0]
            assert f(mid) <= 0.5 * f(theta_a) + 0.5 * f(theta_b) + 1e-10

    def test_gradient_alignment_layout(self):
        # layout: q entries sorted, then lambda, then nu sorted, then beta
        index = ParameterIndex([("q2", "a1"), ("q1", "a9"), ("q1", "a2")],
                               ["q2", "q1"])
        assert index.q_keys == [("q1", "a2"), ("q1", "a9"), ("q2", "a1")]
        assert index.lam_pos == 3
        assert index.nu_keys == ["q1", "q2"]
        assert index.beta_pos == 6
        assert index.size == 7

    def test_frozen_beta_excluded_from_vector(self):
        index = ParameterIndex([("q1", "a1")], ["q1"], freeze_beta=0.0)
        assert index.beta_pos is None
        assert index.size == 3
        model = index.unpack(np.array([0.5, 0.1, -0.2]), 1.0)
        assert model.beta == 0.0

    def test_bit_identical_across_blas_thread_counts(self):
        # OpenBLAS splits dot products longer than 10,000 across threads,
        # which changes their rounding; the objective must not use them
        script = (
            "import hashlib, numpy as np\n"
            "from cva.model import curvature_bound_product, "
            "objective_and_grad\n"
            "from cva.trainer import FitConfig, fit_events\n"
            "from test_model import random_events, random_instance\n"
            "rng = np.random.default_rng(3)\n"
            "index, data, theta = random_instance(rng, n_questions=300, "
            "n_answers=900, n_events=12_000)\n"
            "obj, grad = objective_and_grad(theta, data, 1.0)\n"
            "hv = curvature_bound_product(theta, data, 1.0)\n"
            "_, events = random_events(np.random.default_rng(3), 300, 900, "
            "12_000)\n"
            "model = fit_events(events, FitConfig())\n"
            "fitted = index.pack(model)\n"
            "print(obj.hex(), hashlib.sha256(grad.tobytes() + "
            "hv.tobytes() + fitted.tobytes() + "
            "repr(model.fit_meta).encode()).hexdigest())\n")
        paths = [str(Path(cva.__file__).parents[1]),
                 str(Path(__file__).parent)]
        procs = [subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                     PYTHONPATH=os.pathsep.join(paths)))
            for threads in ("1", "2")]
        outputs = [proc.communicate(timeout=120)[0] for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0]
        assert outputs[0] == outputs[1]


def dense_hessian(hess, index):
    """The full matrix of a BlockHessian, entry by entry."""
    n_q = len(index.q_keys)
    nu = [index.nu_base + k for k in range(len(index.nu_keys))]
    out = np.zeros((index.size, index.size))
    for a in range(n_q):
        out[a, a] = hess.q_diag[a]
        k = hess.data.answer_nu[a]
        if k >= 0:
            out[a, nu[k]] = out[nu[k], a] = hess.q_nu[a]
    for k, pos in enumerate(nu):
        out[pos, pos] = hess.nu_diag[k]
    for j, pos in enumerate(hess.border):
        out[pos, :n_q] = out[:n_q, pos] = hess.q_border[j]
        out[pos, nu] = hess.nu_border[j]
        out[nu, pos] = hess.nu_border[j]
        for k, other in enumerate(hess.border):
            out[pos, other] = hess.glob[j][k]
    return out


class TestBlockHessian:
    """The Newton system against dense oracles: the Hessian against
    central differences of the gradient, the eliminated solve against a
    dense solve."""

    CASES = [(use_length, freeze) for use_length in (True, False)
             for freeze in (None, 0.5)]

    @pytest.mark.parametrize("use_length,freeze_beta", CASES)
    def test_matches_finite_differences(self, rng, use_length,
                                        freeze_beta):
        for _ in range(5):
            w = float(rng.choice([0.0, 1.0]))
            index, data, theta = random_instance(
                rng, n_events=40, l2_weight=w, freeze_beta=freeze_beta,
                use_length=use_length)
            dense = dense_hessian(BlockHessian(theta, data, w), index)
            h = 1e-6
            numeric = np.zeros_like(dense)
            for i in range(index.size):
                step = np.zeros(index.size)
                step[i] = h
                up = objective_and_grad(theta + step, data, w)[1]
                down = objective_and_grad(theta - step, data, w)[1]
                numeric[:, i] = (up - down) / (2 * h)
            assert np.allclose(dense, dense.T, rtol=0, atol=1e-12)
            assert np.max(np.abs(dense - numeric)) < 1e-6 * max(
                1.0, np.max(np.abs(numeric)))

    @pytest.mark.parametrize("use_length,freeze_beta", CASES)
    def test_solve_matches_dense_solve(self, rng, use_length, freeze_beta):
        for damping in (0.0, 0.3):
            index, data, theta = random_instance(
                rng, n_events=40, freeze_beta=freeze_beta,
                use_length=use_length)
            hess = BlockHessian(theta, data, 1.0)
            grad = objective_and_grad(theta, data, 1.0)[1]
            step = hess.solve(-grad, damping)
            want = np.linalg.solve(
                dense_hessian(hess, index) + damping * np.eye(index.size),
                -grad)
            assert np.linalg.norm(step - want) <= \
                1e-9 * np.linalg.norm(want)

    def test_singular_pivot_refused_then_damped(self):
        # one answer whose votes all see R = 1 and rank 1: the q, R and
        # 1/(1+D) columns are collinear, so without a penalty the Hessian
        # is singular and only a damped solve has positive pivots
        keys = [("q", "a")]
        events = event_columns([(("q", "a"), 1, ctx(rank=1, ratio=1.0))
                                for _ in range(4)])
        index = ParameterIndex(keys, [])
        data = EncodedEvents(index, events)
        theta = np.zeros(index.size)
        hess = BlockHessian(theta, data, 0.0)
        grad = objective_and_grad(theta, data, 0.0)[1]
        assert hess.solve(-grad, 0.0) is None
        step = hess.solve(-grad, 1e-3)
        assert np.all(np.isfinite(step))
        assert float(np.sum(grad * step)) < 0.0


class TestSerialization:
    def test_round_trip(self, tmp_path, rng):
        m = CommunityModel(q={"q1": {"a1": 0.25, "a2": -1.5}},
                           lam=0.7, nu={"q1": -0.1}, beta=1.9,
                           l2_weight=0.5,
                           fit_meta={"iterations": 12,
                                     "final_grad_norm": 1e-7,
                                     "objective": 3.25,
                                     "converged": True})
        path = tmp_path / "model.json"
        save_model(m, path)
        back = load_model(path)
        assert model_to_json(back) == model_to_json(m)
        # the layout that json.dump writes, in one piece
        assert path.read_text() == json.dumps(
            model_to_json(m), indent=2, sort_keys=True) + "\n"

    def test_json_field_names(self):
        obj = model_to_json(CommunityModel(q={"q1": {"a1": 0.0}},
                                           nu={"q1": 0.0}))
        assert set(obj) == {"lambda", "beta", "l2_weight", "nu", "q",
                            "fit_meta"}
        assert model_from_json(obj).lam == 0.0


class TestBySlot:
    """`CommunityModel.by_slot` against one dict lookup per answer."""

    @staticmethod
    def lookups(model, community):
        keys = community.answer_keys
        return ([aid in model.q.get(qid, {}) for qid, aid in keys],
                [model.q.get(qid, {}).get(aid, 0.0) for qid, aid in keys],
                [model.nu.get(qid, 0.0) for qid, _ in keys])

    def test_matches_dict_lookups(self):
        # "a1" answers two questions; the model lacks q1/a2, q2/a1 and
        # q3/x and the nu of q2 and q3, and holds q1/zz and all of q9
        community = replay_community([
            QuestionTrajectory("q1", (Answer("a1", 1, 10),
                                      Answer("a2", 2, 20)), ()),
            QuestionTrajectory("q2", (Answer("a1", 1, 10), Answer("b", 2, 5),
                                      Answer("c", 3, 7)), ()),
            QuestionTrajectory("q3", (Answer("x", 1, 3),), ())])
        model = CommunityModel(q={"q1": {"a1": 0.5, "zz": 9.0},
                                  "q2": {"b": -1.25, "c": 2.0},
                                  "q9": {"x": 4.0}},
                               nu={"q1": 0.3, "q9": -2.0})
        modelled, q, nu = model.by_slot(community)
        assert (modelled.dtype, q.dtype, nu.dtype) == (bool, float, float)
        assert (modelled.tolist(), q.tolist(), nu.tolist()) == \
            self.lookups(model, community)
        assert modelled.tolist() == [True, False, False, True, True, False]

    def test_empty_community(self):
        model = CommunityModel(q={"q1": {"a1": 0.5}}, nu={"q1": 0.3})
        modelled, q, nu = model.by_slot(replay_community([]))
        assert modelled.shape == q.shape == nu.shape == (0,)
        assert (modelled.dtype, q.dtype, nu.dtype) == (bool, float, float)
