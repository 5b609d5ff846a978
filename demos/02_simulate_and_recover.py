"""Generate a community with known biases, then recover them by fitting.

The generator plays out a whole community vote by vote: questions are
picked from a weight distribution, a Chinese-restaurant gate decides
between writing a new answer and voting, voters reach answers with
probability inverse to the displayed rank, and vote signs follow the
logistic voting model under chosen true coefficients. Because the true
quality of every answer is on record, we can check how well a fit on the
biased vote stream recovers it.
"""

import numpy as np

from cva.simulate import SimConfig, estimate_crp_alpha, generate
from cva.trainer import FitConfig, fit

config = SimConfig(n_questions=200, n_events=8000, crp_alpha=0.1,
                   true_lambda=1.0, true_beta=2.0, true_nu=0.0,
                   length_source="lognormal:6.0,0.0",
                   question_weight_source="uniform", seed=63)
print("generating:", config)
community, truth = generate(config)
print(f"-> {len(community)} questions, {len(truth)} answers, "
      f"{len(community.sign)} votes")

alpha_hat = estimate_crp_alpha(community)
print(f"\nanswer-arrival concentration estimated from the data: "
      f"{alpha_hat:.4f} (generator used {config.crp_alpha})")

model = fit(community, FitConfig())
print(f"\nfit: {model.fit_meta['iterations']} iterations, "
      f"gradient max-norm {model.fit_meta['final_grad_norm']:.2e}")
print(f"herding coefficient:  fitted {model.lam:+.4f}  "
      f"(true {config.true_lambda:+.1f})")
print(f"position coefficient: fitted {model.beta:+.4f}  "
      f"(true {config.true_beta:+.1f})")

fitted, true_q = [], []
for qid, by_answer in model.q.items():
    for aid, value in by_answer.items():
        fitted.append(value)
        true_q.append(truth[aid])
corr = np.corrcoef(fitted, true_q)[0, 1]
print(f"\nPearson correlation between fitted and true quality over "
      f"{len(fitted)} answers: {corr:.3f}")
print("(answers whose only vote was their uninformative first one never "
      "enter the fit)")
