"""Closed-loop measurement of one workload with one caller.

A run sets up several times (``setup_s`` is the median), primes BLAS and the
FFT, warms until consecutive operations agree, runs the gradient check of
the train workloads, and then times operations with eval passes
interleaved.  End-to-end metrics come from untraced operations only.  With
tracing on, traced and untraced operations alternate, the traced ones give
the per-layer figures, and the ratio within neighbouring pairs gives the
tracing overhead.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import sgconv
from sgconv import model, tasks

import workloads
from tracing import FFT_LAYERS, SELF_TIMED, Hook, Tracer, layer_names

SETUP_REPEATS = 9
EVAL_SHARE = 1.0 / 3.0
MIN_OPS = 5
MIN_PASSES = 3  # eval passes, or traced operations with tracing on
# Warm-up ends once consecutive operations agree within WARM_AGREE and at
# least WARM_MIN_S has passed, or at WARM_MAX_S: a fresh process can run
# BLAS calls 20x slower for about its first second.
WARM_AGREE = 0.10
WARM_MIN_S = 1.5
WARM_MAX_S = 8.0

# Hooked only so that model init inside a train operation stays out of the
# step figures; it has no metric of its own.
INIT_LAYER = "model.init"

END_TO_END_UNITS = {
    "setup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "tokens_per_s": "tokens/s",
    "eval_pass_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


def hooks(wl: workloads.Workload) -> list[Hook]:
    """Module attributes through which each layer is called.

    A train operation also builds the model and evaluates a one-sample
    held-out set before and after its steps.  That is operation overhead,
    not step work: the init and every call at another batch size than the
    step's are excluded from the per-step layer figures.
    """
    held_out_gen = held_out_arg = None
    if wl.train:
        held_out_gen = lambda a, k: k.get("batch", a[1] if len(a) > 1 else None) != wl.batch
        held_out_arg = lambda a, k: len(a[0]) != wl.batch
    return [
        Hook("tasks.gen_batch", model, "gen_batch", held_out_gen),
        Hook("tasks.gen_batch", tasks, "gen_batch", held_out_gen),
        Hook(INIT_LAYER, model, "init_model", lambda a, k: True),
        Hook("model.embed", model, "_embed_inputs"),
        Hook("kernel.materialize", model, "materialize"),
        Hook("conv.fwd", model, "depthwise_conv_batch"),
        Hook("model.act", model, "_act"),
        Hook("model.act_grad", model, "_act_grad"),
        Hook("model.block_forward", model, "block_forward"),
        Hook("model.block_backward", model, "block_backward"),
        Hook("grad.conv_adjoint", model, "depthwise_conv_adjoint_batch"),
        Hook("grad.kernel_param_grad", model, "kernel_param_grad"),
        Hook("model.classifier_forward", model, "classifier_forward", held_out_arg),
        Hook("model.classifier_backward", model, "classifier_backward"),
        Hook("model.loss", model, "cross_entropy", held_out_arg),
        Hook("model.loss", model, "squared_error", held_out_arg),
        Hook("model.optimizer", model._Optimizer, "step"),
        Hook("fft.rfft", np.fft, "rfft"),
        Hook("fft.irfft", np.fft, "irfft"),
    ]


def per_layer_unit(name: str) -> str:
    if name == "trace.overhead_pct":
        return "%"
    return "ms" if name.endswith("ms") else "count"


def prime(session: workloads.Session, batch: int) -> None:
    """Run BLAS matmul, einsum and the FFT a few times at these sizes."""
    wl = session.wl
    m = session.plan.fft_size
    x = np.ones((batch, wl.channels, wl.seq_len))
    w = np.ones((wl.channels, wl.channels))
    for _ in range(3):
        np.fft.irfft(np.fft.rfft(x, n=m), n=m)
        np.matmul(w, x)
        np.einsum("ij,bjl->bil", w, x)


# Run in a fresh interpreter: numpy is loaded before the clock starts, so
# interpreter start-up and numpy's own import stay out of the figure.
IMPORT_TIMER = (
    "import time, numpy\n"
    "t0 = time.perf_counter()\n"
    "import sgconv\n"
    "print(time.perf_counter() - t0)\n"
)


def fresh_import_s() -> float:
    """Seconds that ``import sgconv`` takes in a fresh interpreter."""
    src = str(Path(sgconv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER], env=env, check=True, capture_output=True, text=True
    )
    return float(out.stdout)


class Run:
    """One workload's measurement: counts operations and checks outputs."""

    def __init__(self, wl: workloads.Workload, refs: dict, seed: int):
        self.wl = wl
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        rng = np.random.default_rng(seed)
        self.order = rng.permutation(wl.pool)
        self.eval_id = int(rng.integers(wl.eval_pool))
        self.next_op = 0
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.session = workloads.Session(wl, self.eval_id)
            elapsed = time.perf_counter() - t0
            setup_times.append(elapsed + fresh_import_s())
        self.setup_s = statistics.median(setup_times)

    def _checked(self, fn, ref, rtol) -> float:
        """Run fn once, check its output, return its wall seconds."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            out = None
        elapsed = time.perf_counter() - t0
        if out is None or not workloads.matches(out, ref, rtol):
            self.failed += 1
        return elapsed

    def op(self) -> float:
        """One operation; returns wall seconds per step."""
        pool_id = int(self.order[self.next_op % len(self.order)])
        self.next_op += 1
        ref = self.refs["ops"][pool_id]
        elapsed = self._checked(
            lambda: self.session.op(pool_id), ref, workloads.op_rtol(self.wl)
        )
        return elapsed / self.wl.steps

    def eval_pass(self) -> float:
        ref = self.refs["eval"][self.eval_id]
        return self._checked(self.session.eval_pass, ref, workloads.LOGIT_RTOL)

    def grad_check(self) -> None:
        """Check gradient magnitudes once, outside any timing (train only)."""
        if self.wl.train:
            ref = self.refs["grad_check"]
            self._checked(self.session.grad_check, ref, workloads.LOSS_RTOL)

    def warm(self) -> int:
        """Prime, then run operations until consecutive ones agree."""
        prime(self.session, self.wl.batch)
        t0 = time.perf_counter()
        times = [self.op()]
        while time.perf_counter() - t0 < WARM_MAX_S:
            times.append(self.op())
            agree = abs(times[-1] - times[-2]) <= WARM_AGREE * times[-2]
            if agree and time.perf_counter() - t0 >= WARM_MIN_S:
                break
        return len(times)

    def timed(self, seconds: float, tracer: Tracer | None = None):
        """Run for `seconds` in one closed loop.

        Untraced, eval passes are interleaved with the operations so that they
        take EVAL_SHARE of the time and both see the same machine conditions.
        With a tracer, traced and untraced operations alternate instead.
        Returns the untraced per-step seconds, the eval-pass seconds, and per
        traced operation its per-step seconds and layer figures; with a
        tracer, ``plain[i]`` ran just before ``traced[i]``.
        """
        plain, evals, traced = [], [], []
        start = time.perf_counter()
        while (
            time.perf_counter() - start < seconds
            or len(plain) < MIN_OPS
            or len(evals if tracer is None else traced) < MIN_PASSES
        ):
            if tracer is not None and len(traced) < len(plain):
                tracer.reset()
                with tracer:
                    step_s = self.op()
                traced.append((step_s, layer_figures(tracer, self.wl.steps)))
            elif tracer is None and sum(evals) < EVAL_SHARE * (time.perf_counter() - start):
                evals.append(self.eval_pass())
            else:
                plain.append(self.op())
        return plain, evals, traced


def layer_figures(tracer: Tracer, steps: int) -> dict:
    """Per-step figures of one traced operation."""
    figures = {}
    for layer in layer_names(tracer.hooks):
        if layer == INIT_LAYER:
            continue
        if layer not in FFT_LAYERS:
            kind = "self_ms" if layer in SELF_TIMED else "ms"
            figures[f"{layer}.{kind}"] = tracer.layer_ms(layer) / steps
        figures[f"{layer}.calls"] = tracer.calls(layer) / steps
    figures["fft.ms"] = sum(tracer.layer_ms(f) for f in FFT_LAYERS) / steps
    figures["fft.points"] = tracer.fft_points / steps
    return figures


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sgconv": sgconv.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def measure(wl, refs, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, run record)."""
    run = Run(wl, refs, seed)
    warmup_ops = run.warm()
    # The warm-up operations have reached the operations' memory peak; the
    # gradient check and the eval passes allocate at other sizes, so the
    # peak is read before they run.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.grad_check()
    record = {"workload": wl.name, "env": environment(seed), "warmup_ops": warmup_ops}
    if trace:
        tracer = Tracer(hooks(wl))
        plain, _, traced = run.timed(seconds, tracer)
        metrics = {
            name: statistics.median(fig[name] for _, fig in traced)
            for name in traced[0][1]
        }
        # Neighbouring operations see the same machine conditions, so the
        # per-pair ratio is steadier than a ratio of two medians.
        pair_ratios = [t / p for p, (t, _) in zip(plain, traced)]
        metrics["trace.overhead_pct"] = 100.0 * (statistics.median(pair_ratios) - 1.0)
        metrics["trace.unhooked"] = len(tracer.unhooked)
        record["unhooked"] = tracer.unhooked
        units = {name: per_layer_unit(name) for name in metrics}
        record["ops"] = len(plain) + len(traced)
    else:
        prime(run.session, wl.eval_samples)
        plain, evals, _ = run.timed(seconds)
        metrics = {
            "setup_s": run.setup_s,
            "step_ms_p50": 1e3 * statistics.median(plain),
            "step_ms_p90": 1e3 * float(np.percentile(plain, 90)),
            "tokens_per_s": wl.batch * wl.seq_len * len(plain) / sum(plain),
            "eval_pass_ms_p50": 1e3 * statistics.median(evals),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        record["ops"] = len(plain)
        record["eval_passes"] = len(evals)
    record["failed_op_ratio"] = run.failed / run.attempted
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, record
