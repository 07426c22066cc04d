"""Sweeping the decay exponent and per-scale dimension.

The disentangled kernel multiplies position p by (p+1)**-t, separating the
decay speed t from the per-scale parameter count d.  This runs the two
standard sweeps (vary t at fixed d, vary d at fixed t) on a synthetic
recall task and prints the accuracy table.

Note the direction of the effect depends on the task: recalling position 0
needs kernel mass at long range, so on this task strong decay suppresses
exactly the signal positions.  On tasks dominated by nearby context the
same sweep rewards decay instead.
"""

import time

import numpy as np

from sgconv import TaskSpec, TrainConfig
from sgconv.model import ablate_decay

spec = TaskSpec(kind="first_token_recall", seq_len=128, num_classes=8)
tcfg = TrainConfig(steps=150, batch_size=32, lr=2e-2, eval_every=150, eval_samples=256)

grid = [(t, 8) for t in (0.0, 0.5, 1.0, 2.0)] + [(1.0, d) for d in (1, 8, 64)]
print(f"grid: t-sweep {[g for g in grid[:4]]} + d-sweep {[g for g in grid[4:]]}")
t0 = time.time()
rows = ablate_decay(spec, grid, tcfg, channels=32, seeds=(0,))
print(f"({time.time() - t0:.0f}s)\n")

print(f"{'t':>5} {'d':>4} {'accuracy':>9}")
for row in rows:
    print(f"{row['t']:>5g} {row['d']:>4d} {row['accuracy']:>9.3f}")
