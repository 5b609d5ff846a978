import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cva
from cva.model import (CommunityModel, EncodedEvents, ParameterIndex,
                       model_from_json, model_to_json, objective_and_grad,
                       load_model, save_model, vote_prob)
from cva.trajectory import VoteContext
from conftest import event_prob, nll_and_grad


def ctx(rank=1, ratio=0.5, length=0.0, pos=0, neg=0):
    return VoteContext(rank=rank, pos_ratio=ratio, rel_length=length,
                       prior_pos=pos, prior_neg=neg)


def random_instance(rng, n_questions=3, n_answers=8, n_events=20,
                    l2_weight=1.0, freeze_beta=None):
    """Random events plus a matching index and parameter vector."""
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
    index = ParameterIndex(keys, [q for q, _ in keys],
                           freeze_beta=freeze_beta)
    theta = rng.normal(0, 1, size=index.size)
    return index, EncodedEvents(index, events), theta


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

    def test_clipping_keeps_probability_loggable(self):
        m = CommunityModel()
        hi = vote_prob(m, 800.0, ctx())
        lo = vote_prob(m, -800.0, ctx())
        assert hi == 1.0 - 1e-12
        assert lo == 1e-12
        assert math.isfinite(math.log(hi)) and math.isfinite(math.log(lo))

    def test_event_prob_uses_model_lookups(self):
        m = CommunityModel(q={"q1": {"a1": 0.3}}, nu={"q1": 0.5}, lam=1.0,
                           beta=0.5)
        direct = vote_prob(m, 0.3, ctx(length=2.0), nu=0.5)
        assert event_prob(m, "q1", "a1", ctx(length=2.0)) == direct


class TestObjective:
    def test_single_event_hand_value(self):
        m = CommunityModel(q={"q1": {"a1": 0.0}}, nu={"q1": 0.0},
                           l2_weight=0.0)
        events = [(("q1", "a1"), 1, ctx(rank=1, ratio=0.5))]
        obj, grad = nll_and_grad(m, events)
        assert obj == pytest.approx(math.log(2), abs=1e-12)
        index = ParameterIndex([("q1", "a1")], ["q1"])
        assert grad[index.q_slot(("q1", "a1"))] == pytest.approx(-0.5)

    def test_zero_theta_regularizer_contributes_nothing(self):
        m = CommunityModel(q={"q1": {"a1": 0.0}}, nu={"q1": 0.0},
                           l2_weight=1.0)
        events = [(("q1", "a1"), 1, ctx())]
        obj_w1, grad_w1 = nll_and_grad(m, events)
        m0 = CommunityModel(q={"q1": {"a1": 0.0}}, nu={"q1": 0.0},
                            l2_weight=0.0)
        obj_w0, grad_w0 = nll_and_grad(m0, events)
        assert obj_w1 == obj_w0
        assert np.array_equal(grad_w1, grad_w0)

    def test_empty_events_only_regularizer(self, rng):
        index, _, theta = random_instance(rng, n_events=1)
        data = EncodedEvents(index, [])
        obj, grad = objective_and_grad(theta, data, 2.0)
        assert obj == pytest.approx(float(theta @ theta))
        assert np.allclose(grad, 2.0 * theta)

    def test_invalid_vote_value_rejected(self):
        index = ParameterIndex([("q1", "a1")], ["q1"])
        with pytest.raises(ValueError):
            EncodedEvents(index, [(("q1", "a1"), 2, ctx())])

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
            "from test_model import random_instance\n"
            "rng = np.random.default_rng(3)\n"
            "index, data, theta = random_instance(rng, n_questions=300, "
            "n_answers=900, n_events=12_000)\n"
            "obj, grad = objective_and_grad(theta, data, 1.0)\n"
            "hv = curvature_bound_product(theta, data, 1.0)\n"
            "print(obj.hex(), hashlib.sha256(grad.tobytes() + "
            "hv.tobytes()).hexdigest())\n")
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

    def test_json_field_names(self):
        obj = model_to_json(CommunityModel(q={"q1": {"a1": 0.0}},
                                           nu={"q1": 0.0}))
        assert set(obj) == {"lambda", "beta", "l2_weight", "nu", "q",
                            "fit_meta"}
        assert model_from_json(obj).lam == 0.0
