"""The benchmark's workloads, their operations and the output checks.

Everything here reaches sgconv through its public calls only:
``model.train``, ``model.init_model``, ``model.classifier_forward``,
``tasks.gen_batch``, ``make_plan`` and the config classes.

Each workload has a pool of operation inputs, indexed by a pool id, whose
outputs were recorded once into ``refs/<workload>.json``.  A run draws its
sequence of pool ids from ``--seed``, so the same seed gives the same
inputs, and every output is compared against its recorded reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from sgconv import make_plan, model, tasks

REFS_DIR = Path(__file__).resolve().parent / "refs"

# Shared wiring: the criterion-7 kernel and optimizer settings.
NUM_CLASSES = 8
SCALE_DIM = 8
DECAY_ALPHA = 0.5
LR = 3e-2

# Seeds of the fixed model weights and of the request and eval inputs; a
# pool id is mixed in so that each pool entry has its own inputs.
MODEL_SEED = 1234
REQUEST_SEED = 5678
EVAL_SEED = 9012

# The gradient check of the train workloads: a short momentum-SGD run,
# untimed.  Adam divides each gradient by its own running magnitude, so the
# timed operations cannot see a gradient that is wrong by a constant factor
# (a lost FFT normalisation, say); SGD's update is proportional to it.
GRAD_CHECK = dict(steps=2, batch_size=4, lr=LR, optimizer="sgd", seed=4321, eval_samples=4)

# Forward outputs must match their reference to roundoff.  Training losses
# pass through a few Adam steps, which divide each gradient by its own
# running magnitude, so they get a looser tolerance; it is still far below
# what a wrong gradient moves them (README.md, "Output check").
LOGIT_RTOL = 1e-9
LOSS_RTOL = 1e-8


@dataclass(frozen=True)
class Workload:
    """Geometry and operation shape of one workload.

    A train operation is one ``model.train`` call of ``steps`` steps at
    ``batch`` samples, with a one-sample held-out set (the smallest
    ``model.train`` accepts); its model init and held-out evals are a few
    percent of it.  An infer operation is one single-sample
    request, counted as one step.  An eval pass is one batched
    ``classifier_forward`` over ``eval_samples`` held-out samples with fixed
    weights.
    """

    name: str
    train: bool
    task: str
    seq_len: int
    channels: int
    n_blocks: int
    batch: int
    steps: int
    eval_samples: int
    pool: int
    eval_pool: int


WORKLOADS = {
    w.name: w
    for w in (
        # The criterion-7 geometry.  GELU and the channel mix dominate the
        # step, and it is the only workload with the token-embedding scatter.
        Workload("train_recall_L1024", True, "first_token_recall", 1024, 32, 1, 32, 4, 256, 16, 2),
        # FFT size 16384 and 11 kernel scales: transforms, the conv adjoint and
        # the kernel-parameter pullback weigh more.  Real-valued inputs, so the
        # embed scatter is bypassed.  256 eval samples would take 3 GB here.
        Workload("train_adding_L8192", True, "adding_problem", 8192, 16, 2, 8, 4, 16, 16, 2),
        # Forward-only serving: the per-request kernel materialize and kernel
        # rfft are fixed costs; no adjoint runs and no block cache is kept.
        Workload("infer_majority_L4096", False, "sparse_majority", 4096, 32, 2, 1, 1, 16, 64, 2),
    )
}


class Session:
    """Configs, fixed weights, plan and the held-out set of one run."""

    def __init__(self, wl: Workload, eval_id: int):
        self.wl = wl
        self.spec = tasks.TaskSpec(kind=wl.task, seq_len=wl.seq_len, num_classes=NUM_CLASSES)
        self.cfg = model.ModelConfig.for_task(
            self.spec,
            channels=wl.channels,
            n_blocks=wl.n_blocks,
            scale_dim=SCALE_DIM,
            mode="concat",
            decay_alpha=DECAY_ALPHA,
        )
        self.state = model.init_model(self.cfg, np.random.default_rng(MODEL_SEED))
        self.plan = make_plan(wl.seq_len)
        self.eval_inputs, _ = tasks.gen_batch(
            self.spec, wl.eval_samples, np.random.default_rng([EVAL_SEED, eval_id])
        )

    def op(self, pool_id: int) -> np.ndarray:
        """Run one operation; returns the values its reference holds."""
        wl = self.wl
        if wl.train:
            tcfg = model.TrainConfig(
                steps=wl.steps,
                batch_size=wl.batch,
                lr=LR,
                optimizer="adam",
                seed=pool_id,
                eval_samples=1,
            )
            result = model.train(self.spec, self.cfg, tcfg)
            return np.array([entry["loss"] for entry in result.log])
        inputs, _ = tasks.gen_batch(self.spec, 1, np.random.default_rng([REQUEST_SEED, pool_id]))
        return model.classifier_forward(inputs, self.state, self.cfg, self.plan)

    def eval_pass(self) -> np.ndarray:
        return model.classifier_forward(self.eval_inputs, self.state, self.cfg, self.plan)

    def grad_check(self) -> np.ndarray:
        """Held-out losses before and after a short SGD run."""
        result = model.train(self.spec, self.cfg, model.TrainConfig(**GRAD_CHECK))
        return np.array([entry["loss"] for entry in result.log])


def matches(out, ref, rtol: float) -> bool:
    """Finite and equal to the reference within rtol of its largest entry."""
    out = np.asarray(out, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if out.shape != ref.shape or not np.all(np.isfinite(out)):
        return False
    scale = max(1.0, float(np.abs(ref).max()))
    return bool(np.all(np.abs(out - ref) <= rtol * scale))


def op_rtol(wl: Workload) -> float:
    return LOSS_RTOL if wl.train else LOGIT_RTOL


def record(wl: Workload) -> dict:
    """Run every pooled operation, eval set and check once; keep the outputs."""
    ops = [Session(wl, 0).op(j).tolist() for j in range(wl.pool)]
    evals = [Session(wl, e).eval_pass().tolist() for e in range(wl.eval_pool)]
    refs = {"workload": wl.name, "ops": ops, "eval": evals}
    if wl.train:
        refs["grad_check"] = Session(wl, 0).grad_check().tolist()
    return refs


def load_refs(wl: Workload) -> dict:
    refs = json.loads((REFS_DIR / f"{wl.name}.json").read_text())
    if len(refs["ops"]) != wl.pool or len(refs["eval"]) != wl.eval_pool:
        raise ValueError(f"reference file for {wl.name} does not match its pool sizes")
    return refs

