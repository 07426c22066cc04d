"""Command-line entry point: verify, bench, dump-kernel, train, ablate.

Every command is deterministic given --seed except bench timings (whose CSV
schema is still fixed).  An optional --config file supplies `key = value`
defaults for the command's own flags; explicit command-line flags always win.
"""

from __future__ import annotations

import argparse
import json
import os.path
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import model as model_mod
from . import tasks as tasks_mod
from . import verify as verify_mod
from .ioutil import atomic_write_text
from .kernel import KernelConfig, init_kernel, write_kernel_csv

# config-file keys may use the short flag spellings
KEY_ALIASES = {"len": "seq_len", "alpha": "decay_alpha", "t": "decay_t"}


class BadInput(Exception):
    """An option value, flag combination or config file a command cannot use."""


@contextmanager
def _options():
    """Report a ValueError or OSError raised while a command resolves its
    options and builds its configs as BadInput (exit 2).  Errors raised by
    the run itself are left alone."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise BadInput(str(exc)) from exc


def _check_out_path(out) -> None:
    """Reject an output path whose nearest existing ancestor is not a
    directory.  Nothing is created: the writers make missing directories
    once there is something to write."""
    ancestor = Path(out).parent
    while not ancestor.exists():
        ancestor = ancestor.parent
    if not ancestor.is_dir():
        raise ValueError(f"cannot write {out}: {ancestor} is not a directory")


def _parse_config_file(path) -> dict[str, str]:
    entries = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            entries[KEY_ALIASES.get(key, key)] = value.strip()
    return entries


def _config_defaults(command: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    """The --config file's values, each parsed as its flag parses it and
    held to its flag's choices."""
    known = vars(args).keys() - {"command", "config"}
    actions = {action.dest: action for action in command._actions}
    values = {}
    for key, raw in _parse_config_file(args.config).items():
        if key not in known:
            raise ValueError(f"{args.config}: unknown key {key!r}")
        action = actions[key]
        try:
            values[key] = action.type(raw) if action.type else raw
            if action.choices is not None and values[key] not in action.choices:
                raise ValueError
        except ValueError:
            raise ValueError(f"{args.config}: bad value for {key}: {raw!r}") from None
    return values


def _given(command: argparse.ArgumentParser, args: argparse.Namespace, argv: list[str]) -> set:
    """Destinations that the command's own flags in argv set explicitly."""
    unset = object()
    # argparse fills in a default only where the namespace lacks the attribute
    explicit = command.parse_args(argv, argparse.Namespace(**dict.fromkeys(vars(args), unset)))
    return {dest for dest, value in vars(explicit).items() if value is not unset}


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace(" ", "").split(","))


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(" ", "").split(","))


def _add_common(p: argparse.ArgumentParser, out=None, precision="f64") -> None:
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--out", type=str, default=out, help="output path")
    p.add_argument("--precision", choices=("f32", "f64"), default=precision)
    p.add_argument("--config", type=str, default=None, help="key = value defaults file")


# flags that train and ablate share, keyed by destination; each command sets
# its own seq_len, steps and lr defaults
RUN_FLAGS = {
    "task": ("--task", {"choices": ("first-token-recall", "adding-problem", "sparse-majority"),
                        "default": "first-token-recall"}),
    "seq_len": ("--len", {"type": int}),
    "classes": ("--classes", {"type": int, "default": 8}),
    "steps": ("--steps", {"type": int}),
    "batch_size": ("--batch-size", {"type": int, "default": 32}),
    "lr": ("--lr", {"type": float}),
    "channels": ("--channels", {"type": int, "default": 32}),
}
# ModelConfig fields fixed by the task flags; a resumed checkpoint must agree.
TASK_FIELDS = ("seq_len", "classes", "vocab_size", "in_channels")
# train's model flags, by destination, and the ModelConfig field each sets; a
# resumed checkpoint must agree with those that the user sets.
MODEL_FLAGS = {"channels": "channels", "blocks": "n_blocks", "scale_dim": "scale_dim",
               "mode": "mode", "decay_alpha": "decay_alpha", "decay_t": "decay_t"}


def _add_run_flags(p: argparse.ArgumentParser, *dests: str) -> None:
    for dest in dests:
        flag, kwargs = RUN_FLAGS[dest]
        p.add_argument(flag, dest=dest, **kwargs)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's subparser, keyed by name."""
    parser = argparse.ArgumentParser(
        prog="sgconv",
        description="Structured global convolution kernels: verification, "
        "benchmarks, kernel dumps, training demos, and decay ablations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the module invariant suites")
    _add_common(p)
    p.add_argument("--filter", type=str, default=None, help="only suites whose name contains this")

    p = sub.add_parser("bench", help="time conv implementations across lengths")
    _add_common(p, out="bench.csv", precision="f32")
    p.add_argument("--lengths", type=_int_list, default=bench_mod.DEFAULT_LENGTHS,
                   help="comma-separated, ascending")
    p.add_argument("--channels", type=int, default=128)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--reps", type=int, default=bench_mod.MIN_REPS)
    p.add_argument("--direct-cap", dest="direct_cap", type=int, default=bench_mod.DEFAULT_DIRECT_CAP,
                   help="skip conv_direct above this length")
    p.add_argument("--impls", type=lambda s: tuple(s.replace(" ", "").split(",")),
                   default=bench_mod.IMPLS)

    p = sub.add_parser("dump-kernel", help="materialize a kernel and dump it as CSV")
    _add_common(p, out="kernel.csv")
    p.add_argument("--len", dest="seq_len", type=int, default=4096)
    p.add_argument("--scale-dim", dest="scale_dim", type=int, default=32)
    p.add_argument("--alpha", dest="decay_alpha", type=float, default=0.5)
    p.add_argument("--t", dest="decay_t", type=float, default=1.0)
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--mode", choices=("concat", "disentangled"), default="concat")
    p.add_argument("--init", choices=("gaussian", "cosine"), default="gaussian")

    p = sub.add_parser("train", help="train the toy classifier on a synthetic task")
    _add_common(p, out="run")
    _add_run_flags(p, "task", "seq_len", "classes", "steps", "batch_size", "lr")
    p.add_argument("--optimizer", choices=("adam", "sgd"), default="adam")
    _add_run_flags(p, "channels")
    p.add_argument("--blocks", type=int, default=1)
    p.add_argument("--scale-dim", dest="scale_dim", type=int, default=8)
    p.add_argument("--mode", choices=("concat", "disentangled"), default="concat")
    p.add_argument("--alpha", dest="decay_alpha", type=float, default=0.5)
    p.add_argument("--t", dest="decay_t", type=float, default=1.0)
    p.add_argument("--eval-every", dest="eval_every", type=int, default=50)
    p.add_argument("--resume", type=str, default=None, help="checkpoint to continue from")
    p.set_defaults(seq_len=1024, steps=500, lr=3e-2)

    p = sub.add_parser("ablate", help="decay/dimension ablation sweeps")
    _add_common(p, out="ablation.csv")
    _add_run_flags(p, *RUN_FLAGS)
    p.add_argument("--seeds", type=int, default=1, help="number of seeds per grid point")
    p.add_argument("--t-sweep", dest="t_sweep", type=_float_list, default=(0.0, 0.5, 1.0, 2.0))
    p.add_argument("--d-sweep", dest="d_sweep", type=_int_list, default=(1, 8, 64))
    p.add_argument("--fixed-d", dest="fixed_d", type=int, default=8)
    p.add_argument("--fixed-t", dest="fixed_t", type=float, default=1.0)
    p.set_defaults(seq_len=256, steps=200, lr=2e-2)

    return parser, sub.choices


def cmd_verify(args) -> int:
    with _options():  # a bad filter or precision is rejected before any suite runs
        verify_mod.select_suites(args.filter, args.precision)
    results = verify_mod.run_suites(args.filter, precision=args.precision)
    all_ok = True
    lines = []
    for name, failures in results:
        if failures:
            all_ok = False
            lines.append(f"FAIL {name}: {failures[0]}")
        else:
            lines.append(f"PASS {name}")
    lines.append(f"{sum(1 for _, f in results if not f)}/{len(results)} suites passed")
    text = "\n".join(lines)
    print(text)
    if args.out:
        atomic_write_text(args.out, text + "\n")
    return 0 if all_ok else 1


def cmd_bench(args) -> int:
    dtype = np.float64 if args.precision == "f64" else np.float32
    with _options():  # run_bench checks its geometry before timing anything
        records, summary = bench_mod.run_bench(
            lengths=args.lengths,
            channels=args.channels,
            batch=args.batch,
            reps=args.reps,
            impls=args.impls,
            direct_cap=args.direct_cap,
            dtype=dtype,
            seed=args.seed,
        )
    out = args.out
    bench_mod.write_bench_csv(records, out)
    summary_path = os.path.splitext(str(out))[0] + ".json"
    bench_mod.write_bench_summary(summary, summary_path)
    for r in records:
        print(f"{r.impl:>15} L={r.seq_len:<6} median={r.median_ms:10.3f} ms "
              f"[p10 {r.p10_ms:.3f}, p90 {r.p90_ms:.3f}]")
    for impl, entry in summary["impls"].items():
        if "loglog_slope" in entry:
            print(f"{impl:>15} log-log slope: {entry['loglog_slope']:.3f}")
    print(f"wrote {out} and {summary_path}")
    return 0


def cmd_dump_kernel(args) -> int:
    with _options():
        cfg = KernelConfig(
            seq_len=args.seq_len,
            scale_dim=args.scale_dim,
            channels=args.channels,
            mode=args.mode,
            decay_alpha=args.decay_alpha,
            decay_t=args.decay_t,
            init=args.init,
        )
        if args.precision != "f64":
            raise ValueError("kernels are materialized in f64 only")
    _, kern = init_kernel(cfg, np.random.default_rng(args.seed))
    write_kernel_csv(kern, args.out)
    print(f"wrote {args.out} ({cfg.channels} channels x {cfg.seq_len} positions, "
          f"{cfg.num_scales} scales)")
    return 0


def _task_spec(args) -> tasks_mod.TaskSpec:
    return tasks_mod.TaskSpec(
        kind=args.task.replace("-", "_"), seq_len=args.seq_len, num_classes=args.classes
    )


def cmd_train(args) -> int:
    with _options():
        spec = _task_spec(args)
        model_cfg = model_mod.ModelConfig.for_task(
            spec,
            channels=args.channels,
            n_blocks=args.blocks,
            scale_dim=args.scale_dim,
            mode=args.mode,
            decay_alpha=args.decay_alpha,
            decay_t=args.decay_t,
        )
        train_cfg = model_mod.TrainConfig(
            steps=args.steps,
            batch_size=args.batch_size,
            lr=args.lr,
            optimizer=args.optimizer,
            seed=args.seed,
            eval_every=args.eval_every,
        )
        if args.precision != "f64":
            raise ValueError("training runs in f64 only")
    initial = None
    if args.resume:
        try:
            initial, saved_cfg = model_mod.load_checkpoint(args.resume)
        except (OSError, ValueError) as exc:
            raise BadInput(f"cannot resume from {args.resume}: {exc}") from exc
        clash = [
            f"{f} is {getattr(saved_cfg, f)} in the checkpoint, {getattr(model_cfg, f)} for this task"
            for f in TASK_FIELDS
            if getattr(saved_cfg, f) != getattr(model_cfg, f)
        ]
        clash += [
            f"{f} is {getattr(saved_cfg, f)} in the checkpoint, {getattr(model_cfg, f)} as given"
            for dest, f in MODEL_FLAGS.items()
            if dest in args.given and getattr(saved_cfg, f) != getattr(model_cfg, f)
        ]
        if clash:
            raise BadInput(f"cannot resume from {args.resume}: {'; '.join(clash)}")
        model_cfg = saved_cfg
    try:
        result = model_mod.train(spec, model_cfg, train_cfg, state=initial)
    except model_mod.TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 3
    log_path = f"{args.out}.jsonl"
    ckpt_path = f"{args.out}.ckpt"
    atomic_write_text(
        log_path, "\n".join(json.dumps(entry) for entry in result.log) + "\n"
    )
    model_mod.save_checkpoint(ckpt_path, result.state, result.model_cfg)
    first, last = result.log[0], result.log[-1]
    print(f"step {first['step']}: loss {first['loss']:.4f}, acc {first['acc']:.4f}")
    print(f"step {last['step']}: loss {last['loss']:.4f}, acc {last['acc']:.4f}")
    print(f"wrote {log_path} and {ckpt_path}")
    return 0


def cmd_ablate(args) -> int:
    with _options():
        spec = _task_spec(args)
        grid = [(t, args.fixed_d) for t in args.t_sweep]
        grid += [(args.fixed_t, d) for d in args.d_sweep]
        for t, d in grid:  # every grid point's model is valid before any training
            model_mod.ablation_config(spec, t, d, args.channels)
        if args.seeds < 1:
            raise ValueError(f"seeds must be >= 1, got {args.seeds}")
        train_cfg = model_mod.TrainConfig(
            steps=args.steps,
            batch_size=args.batch_size,
            lr=args.lr,
            eval_every=max(1, args.steps // 2),
            seed=args.seed,
        )
        if args.precision != "f64":
            raise ValueError("ablation runs in f64 only")
    seeds = tuple(args.seed + i for i in range(args.seeds))
    rows = model_mod.ablate_decay(
        spec, grid, train_cfg, channels=args.channels, seeds=seeds
    )
    lines = ["t,d,accuracy,seed"]
    for row in rows:
        lines.append(f"{row['t']:g},{row['d']},{row['accuracy']:.6f},{row['seed']}")
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    means: dict[tuple, list] = {}
    for row in rows:
        means.setdefault((row["t"], row["d"]), []).append(row["accuracy"])
    print("t      d    mean_acc  seeds")
    for (t, d), accs in means.items():
        print(f"{t:<6g} {d:<4d} {np.mean(accs):.4f}    {len(accs)}")
    print(f"wrote {args.out}")
    return 0


HANDLERS = {
    "verify": cmd_verify,
    "bench": cmd_bench,
    "dump-kernel": cmd_dump_kernel,
    "train": cmd_train,
    "ablate": cmd_ablate,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    command = commands[args.command]
    try:
        with _options():
            config = {}
            if args.config:
                # config values become the command's defaults; parsing again
                # lets every explicit flag win over them
                config = _config_defaults(command, args)
                command.set_defaults(**config)
                args = parser.parse_args(argv)
            if args.out is not None:  # an unusable output path fails before the run
                _check_out_path(args.out)
        # what the user set, by flag or config file, as against the defaults
        args.given = _given(command, args, argv[1:]) | config.keys()
        return HANDLERS[args.command](args)
    except BadInput as exc:
        print(f"sgconv {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
