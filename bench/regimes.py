"""Recovery of the planted herding and position coefficients by regime.

    python3 bench/regimes.py

Simulates one community per (crp_alpha, scale, l2_weight) cell with
true_lambda = 1, true_beta = 2 and seed 1, fits it with the default fit
config except l2_weight (and an iteration cap of 3,000, so that a solver
that stalls costs minutes, not hours), and prints a markdown table of fitted
against planted coefficients. A reference table, not a gated metric.
"""

from __future__ import annotations

import logging
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
MAX_ITERS = 3_000

SCALES = {"S": (200, 8_000), "M": (600, 24_000)}
ALPHAS = (0.1, 0.5, 2.0)
L2_WEIGHTS = (0.1, 1.0)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from cva import FitConfig, SimConfig, fit, generate

    logging.basicConfig(level=logging.ERROR)
    print("| crp_alpha | scale | l2_weight | training votes | lambda (1.0) "
          "| beta (2.0) | iterations | converged | fit s |")
    print("|---|---|---|---|---|---|---|---|---|")
    for alpha in ALPHAS:
        for scale, (n_questions, n_events) in SCALES.items():
            trajs, _ = generate(SimConfig(
                n_questions=n_questions, n_events=n_events, crp_alpha=alpha,
                true_lambda=1.0, true_beta=2.0, seed=SEED))
            for l2 in L2_WEIGHTS:
                start = time.perf_counter()
                model = fit(trajs, FitConfig(l2_weight=l2,
                                             max_iters=MAX_ITERS))
                elapsed = time.perf_counter() - start
                meta = model.fit_meta
                print(f"| {alpha} | {scale} {n_questions}q/{n_events} | {l2} "
                      f"| {meta['n_events']} | {model.lam:.3f} "
                      f"| {model.beta:.3f} | {meta['iterations']} "
                      f"| {meta['converged']} | {elapsed:.1f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
