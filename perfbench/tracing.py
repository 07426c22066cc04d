"""Per-layer spans recorded from outside the package.

Each layer is hooked by replacing a module attribute through which
``sgconv.model`` (or the benchmark itself) calls it, so ``src/`` stays
untouched.  A hook whose attribute no longer exists is reported as unhooked
and its time stays in the enclosing span's self time; tracing never fails
the run.

Spans live in memory only.  A span's self time is its duration minus the
durations of the spans opened directly inside it.  Calls that belong to an
operation but not to its steps (a hook's ``excluded_if`` says which) are
left out together with everything beneath them, so per-step figures count
step work only.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

# Layers whose span covers other hooked layers report self time; the rest
# report their whole duration.
SELF_TIMED = (
    "model.block_forward",
    "model.block_backward",
    "model.classifier_forward",
    "model.classifier_backward",
)
FFT_LAYERS = ("fft.rfft", "fft.irfft")


@dataclass(frozen=True)
class Hook:
    layer: str
    owner: object
    attr: str
    excluded_if: Callable[[tuple, dict], bool] | None = None


def layer_names(hooks) -> list[str]:
    """Distinct layer names in hook order."""
    return list(dict.fromkeys(h.layer for h in hooks))


def _fft_points(attr: str, args, kwargs) -> int:
    """Transform length times the number of rows transformed (0 if unreadable)."""
    try:
        a = args[0]
        axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
        n = kwargs.get("n", args[1] if len(args) > 1 else None)
        if n is None:
            n = a.shape[axis] if attr == "rfft" else 2 * (a.shape[axis] - 1)
        return int(n) * (a.size // a.shape[axis])
    except (IndexError, KeyError, TypeError, AttributeError):
        return 0


def _excluded(hook: Hook, args, kwargs) -> bool:
    """Whether a call is outside step work; an unreadable call counts as in."""
    if hook.excluded_if is None:
        return False
    try:
        return bool(hook.excluded_if(args, kwargs))
    except (IndexError, KeyError, TypeError, AttributeError):
        return False


class Tracer:
    """Installs hooks, records spans, and totals them per layer."""

    def __init__(self, hooks):
        self.hooks = list(hooks)
        self.unhooked = sorted(
            {h.layer for h in self.hooks if getattr(h.owner, h.attr, None) is None}
        )
        self._saved = []
        self._stack = []  # [start_ns, child_ns] per open span
        self._excluded = 0
        self.reset()

    def reset(self) -> None:
        self.totals = {}  # layer -> [total_ns, self_ns, calls]
        self.fft_points = 0

    def _record(self, layer: str, total_ns: int, self_ns: int) -> None:
        entry = self.totals.setdefault(layer, [0, 0, 0])
        entry[0] += total_ns
        entry[1] += self_ns
        entry[2] += 1

    def _wrap(self, hook: Hook, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._excluded or _excluded(hook, args, kwargs):
                tracer._excluded += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._excluded -= 1
            if hook.layer in FFT_LAYERS:
                tracer.fft_points += _fft_points(hook.attr, args, kwargs)
            frame = [time.perf_counter_ns(), 0]
            tracer._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                total = time.perf_counter_ns() - frame[0]
                if tracer._stack:
                    tracer._stack[-1][1] += total
                tracer._record(hook.layer, total, total - frame[1])

        return wrapper

    def __enter__(self):
        for h in self.hooks:
            fn = getattr(h.owner, h.attr, None)
            if fn is not None:
                self._saved.append((h.owner, h.attr, fn))
                setattr(h.owner, h.attr, self._wrap(h, fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        return False

    def layer_ms(self, layer: str) -> float:
        """Whole or self time of a layer in ms, as SELF_TIMED says."""
        entry = self.totals.get(layer, (0, 0, 0))
        return (entry[1] if layer in SELF_TIMED else entry[0]) / 1e6

    def calls(self, layer: str) -> int:
        return self.totals.get(layer, (0, 0, 0))[2]
