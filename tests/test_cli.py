import json

import numpy as np
import pytest

import sgconv.model as model_mod
import sgconv.verify as verify_mod
from sgconv.cli import build_parser, main
from sgconv.conv import make_plan
from sgconv.model import classifier_forward, load_checkpoint
from sgconv.tasks import TaskSpec, gen_batch


def run_cli(*argv):
    return main(list(argv))


class TestDumpKernel:
    def test_row_count_and_header(self, tmp_path):
        out = tmp_path / "k.csv"
        assert run_cli("dump-kernel", "--len", "64", "--scale-dim", "4",
                       "--channels", "2", "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "channel,position,value"
        assert len(lines) == 1 + 2 * 64

    def test_value_format_nine_significant_digits(self, tmp_path):
        out = tmp_path / "k.csv"
        run_cli("dump-kernel", "--len", "16", "--scale-dim", "4", "--out", str(out))
        for line in out.read_text().strip().split("\n")[1:]:
            value = line.split(",")[2]
            mantissa = value.split("e")[0].replace("-", "")
            assert len(mantissa.replace(".", "")) == 9

    def test_deterministic_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["dump-kernel", "--len", "128", "--scale-dim", "8", "--seed", "7"]
        run_cli(*args, "--out", str(a))
        run_cli(*args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_f32(self, tmp_path, capsys):
        rc = run_cli("dump-kernel", "--len", "16", "--scale-dim", "4",
                     "--precision", "f32", "--out", str(tmp_path / "k.csv"))
        assert rc == 2

    def test_per_scale_peaks_shrink_statistically(self, tmp_path):
        # with identically-distributed init, mean per-scale peak magnitude
        # decreases across scales because of the alpha**i weighting
        from sgconv.kernel import KernelConfig, init_kernel, sub_kernel_len
        L, d = 256, 8
        cfg = KernelConfig(seq_len=L, scale_dim=d, decay_alpha=0.5)
        n_scales = cfg.num_scales
        peaks = np.zeros(n_scales)
        for seed in range(100):
            _, kern = init_kernel(cfg, np.random.default_rng(seed))
            offset = 0
            for i in range(n_scales):
                li = sub_kernel_len(i, d)
                seg = kern.values[0, offset : min(offset + li, L)]
                peaks[i] += np.abs(seg).max()
                offset += li
        peaks /= 100
        assert all(a > b for a, b in zip(peaks, peaks[1:]))


class TestVerify:
    def test_clean_build_passes(self, capsys):
        assert run_cli("verify") == 0
        out = capsys.readouterr().out
        lines = [l for l in out.strip().split("\n") if l.startswith("PASS")]
        assert len(lines) >= 6

    def test_filter_runs_subset(self, capsys):
        assert run_cli("verify", "--filter", "fftconv") == 0
        out = capsys.readouterr().out
        names = [l.split()[1] for l in out.strip().split("\n") if l.startswith("PASS")]
        assert names and all("fftconv" in n for n in names)

    def test_unknown_filter_rejected(self, tmp_path, capsys):
        out = tmp_path / "v.txt"
        assert run_cli("verify", "--filter", "nonexistent-suite", "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err == "sgconv verify: no suite matches filter 'nonexistent-suite'\n"
        assert captured.out == ""
        assert not out.exists()

    def test_error_inside_a_suite_is_not_bad_input(self, monkeypatch):
        def broken(precision):
            raise ValueError("raised by the suite")

        monkeypatch.setattr(verify_mod, "SUITES", (("fftconv.agreement", broken),))
        with pytest.raises(ValueError, match="raised by the suite"):
            run_cli("verify")

    def test_corrupted_suite_fails(self, monkeypatch, capsys):
        broken = (("fftconv.agreement", lambda precision: ["injected failure"]),)
        monkeypatch.setattr(verify_mod, "SUITES", broken)
        assert run_cli("verify") == 1
        assert "FAIL fftconv.agreement" in capsys.readouterr().out

    def test_output_deterministic(self, capsys):
        run_cli("verify", "--filter", "kernelgen")
        first = capsys.readouterr().out
        run_cli("verify", "--filter", "kernelgen")
        assert capsys.readouterr().out == first

    def test_f32_precision_relaxes_agreement_tolerance(self, capsys):
        assert run_cli("verify", "--filter", "fftconv.agreement", "--precision", "f32") == 0
        assert "PASS fftconv.agreement" in capsys.readouterr().out


class TestBenchCommand:
    def test_writes_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = run_cli("bench", "--lengths", "16,32", "--channels", "2", "--batch", "2",
                     "--reps", "5", "--out", str(out))
        assert rc == 0
        assert out.exists()
        summary = json.loads((tmp_path / "bench.json").read_text())
        assert set(summary["impls"]) == {"conv_direct", "conv_fft", "attn_quadratic"}

    def test_rejects_single_rep(self, tmp_path, capsys):
        rc = run_cli("bench", "--lengths", "16,32", "--channels", "2", "--batch", "2",
                     "--reps", "1", "--out", str(tmp_path / "b.csv"))
        assert rc == 2
        assert capsys.readouterr().err == "sgconv bench: reps must be >= 5, got 1\n"
        assert not (tmp_path / "b.csv").exists()


class TestTrainCommand:
    def test_writes_log_and_checkpoint(self, tmp_path, capsys):
        prefix = tmp_path / "run"
        rc = run_cli("train", "--task", "first-token-recall", "--len", "32",
                     "--classes", "4", "--steps", "6", "--batch-size", "4",
                     "--channels", "8", "--blocks", "1", "--scale-dim", "4",
                     "--eval-every", "3", "--out", str(prefix))
        assert rc == 0
        log_lines = (tmp_path / "run.jsonl").read_text().strip().split("\n")
        entries = [json.loads(l) for l in log_lines]
        assert [e["step"] for e in entries] == [0, 3, 6]
        assert all(set(e) == {"step", "loss", "acc"} for e in entries)
        state, cfg = load_checkpoint(tmp_path / "run.ckpt")
        assert cfg.seq_len == 32

    def test_zero_lr_flat_curve(self, tmp_path):
        prefix = tmp_path / "flat"
        run_cli("train", "--task", "first-token-recall", "--len", "32",
                "--classes", "4", "--steps", "6", "--batch-size", "4",
                "--channels", "8", "--blocks", "1", "--scale-dim", "4",
                "--eval-every", "2", "--lr", "0", "--out", str(prefix))
        entries = [json.loads(l) for l in (tmp_path / "flat.jsonl").read_text().strip().split("\n")]
        assert len({e["loss"] for e in entries}) == 1

    def test_resume_reproduces_logits(self, tmp_path):
        prefix = tmp_path / "base"
        args = ["train", "--task", "first-token-recall", "--len", "32", "--classes", "4",
                "--steps", "5", "--batch-size", "4", "--channels", "8", "--blocks", "1",
                "--scale-dim", "4", "--out", str(prefix)]
        run_cli(*args)
        state, cfg = load_checkpoint(tmp_path / "base.ckpt")
        spec = TaskSpec(kind="first_token_recall", seq_len=32, num_classes=4)
        inputs, _ = gen_batch(spec, 4, np.random.default_rng(0))
        logits1 = classifier_forward(inputs, state, cfg, make_plan(32))
        state2, cfg2 = load_checkpoint(tmp_path / "base.ckpt")
        logits2 = classifier_forward(inputs, state2, cfg2, make_plan(32))
        np.testing.assert_array_equal(logits1, logits2)

    def test_deterministic_outputs(self, tmp_path):
        args = ["train", "--task", "first-token-recall", "--len", "32", "--classes", "4",
                "--steps", "4", "--batch-size", "4", "--channels", "8", "--blocks", "1",
                "--scale-dim", "4", "--seed", "3"]
        run_cli(*args, "--out", str(tmp_path / "r1"))
        run_cli(*args, "--out", str(tmp_path / "r2"))
        assert (tmp_path / "r1.jsonl").read_bytes() == (tmp_path / "r2.jsonl").read_bytes()
        assert (tmp_path / "r1.ckpt").read_bytes() == (tmp_path / "r2.ckpt").read_bytes()

    def test_non_finite_gradient_exits_3(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(
            model_mod, "kernel_param_grad",
            lambda dk, params, cfg, z: np.full(params.weights.shape, np.nan),
        )
        rc = run_cli("train", "--task", "first-token-recall", "--len", "32",
                     "--classes", "4", "--steps", "3", "--batch-size", "4",
                     "--channels", "8", "--blocks", "1", "--scale-dim", "4",
                     "--out", str(tmp_path / "nan"))
        assert rc == 3
        err = capsys.readouterr().err
        assert "non-finite gradient in block0.weights at step 1" in err
        assert not (tmp_path / "nan.ckpt").exists()

    @pytest.mark.parametrize("damage", ["truncated", "trailing", "renamed", "relu"])
    def test_resume_rejects_damaged_checkpoint(self, damage, tmp_path, capsys):
        args = ["train", "--task", "first-token-recall", "--len", "32", "--classes", "4",
                "--steps", "2", "--batch-size", "4", "--channels", "8", "--blocks", "1",
                "--scale-dim", "4"]
        run_cli(*args, "--out", str(tmp_path / "base"))
        ckpt = tmp_path / "base.ckpt"
        blob = ckpt.read_bytes()
        jlen = int.from_bytes(blob[8:12], "little")
        # an older header's activation field, at a value the model no longer has
        relu = blob[12 : 12 + jlen].replace(b'{"model": {', b'{"model": {"activation": "relu", ')
        damaged, message = {
            "truncated": (blob[:-5], f"expected {len(blob)} bytes"),
            "trailing": (blob + b"\x00", f"expected {len(blob)} bytes"),
            "renamed": (blob.replace(b'"head_b"', b'"head_c"'), "unexpected tensor 'head_c'"),
            "relu": (blob[:8] + len(relu).to_bytes(4, "little") + relu + blob[12 + jlen :],
                     "checkpoint model has activation='relu'; only 'gelu' is supported"),
        }[damage]
        ckpt.write_bytes(damaged)
        capsys.readouterr()
        rc = run_cli(*args, "--resume", str(ckpt), "--out", str(tmp_path / "again"))
        assert rc == 2
        err = capsys.readouterr().err
        assert "cannot resume" in err and message in err
        assert not (tmp_path / "again.jsonl").exists()

    @pytest.mark.parametrize(
        "flags, fields",
        [
            (("--len", "128", "--classes", "8"), ["seq_len is 64 in the checkpoint, 128"]),
            (("--len", "64", "--classes", "4"),
             ["classes is 8 in the checkpoint, 4", "vocab_size is 16 in the checkpoint, 12"]),
        ],
    )
    def test_resume_rejects_another_task(self, tmp_path, capsys, flags, fields):
        common = ["train", "--task", "first-token-recall", "--steps", "2", "--batch-size", "4",
                  "--channels", "8", "--blocks", "1", "--scale-dim", "4"]
        assert run_cli(*common, "--len", "64", "--classes", "8",
                       "--out", str(tmp_path / "base")) == 0
        capsys.readouterr()
        rc = run_cli(*common, *flags, "--resume", str(tmp_path / "base.ckpt"),
                     "--out", str(tmp_path / "again"))
        assert rc == 2
        err = capsys.readouterr().err
        assert all(field in err for field in fields), err
        assert not (tmp_path / "again.jsonl").exists()

    def test_resume_accepts_matching_task(self, tmp_path):
        common = ["train", "--task", "first-token-recall", "--len", "32", "--classes", "4",
                  "--steps", "2", "--batch-size", "4", "--channels", "8", "--blocks", "1",
                  "--scale-dim", "4"]
        assert run_cli(*common, "--out", str(tmp_path / "base")) == 0
        assert run_cli(*common, "--resume", str(tmp_path / "base.ckpt"),
                       "--out", str(tmp_path / "again")) == 0

    @pytest.mark.parametrize(
        "flags, fields",
        [
            (("--channels", "16"), ["channels is 8 in the checkpoint, 16"]),
            (("--blocks", "2", "--mode", "disentangled"),
             ["n_blocks is 1 in the checkpoint, 2", "mode is concat in the checkpoint, disentangled"]),
            (("--scale-dim", "2", "--alpha", "0.25", "--t", "2"),
             ["scale_dim is 4 in the checkpoint, 2", "decay_alpha is 0.5 in the checkpoint, 0.25",
              "decay_t is 1.0 in the checkpoint, 2.0"]),
            (("--channels", "32"), ["channels is 8 in the checkpoint, 32"]),  # 32 is the default
        ],
    )
    def test_resume_rejects_model_flags_that_differ(self, tmp_path, capsys, flags, fields):
        task = ["train", "--task", "first-token-recall", "--len", "32", "--classes", "4",
                "--steps", "2", "--batch-size", "4"]
        assert run_cli(*task, "--channels", "8", "--blocks", "1", "--scale-dim", "4",
                       "--out", str(tmp_path / "base")) == 0
        capsys.readouterr()
        rc = run_cli(*task, *flags, "--resume", str(tmp_path / "base.ckpt"),
                     "--out", str(tmp_path / "again"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("sgconv train: cannot resume from ") and err.count("\n") == 1
        assert all(field in err for field in fields), err
        assert not (tmp_path / "again.jsonl").exists()

    def test_resume_rejects_a_config_model_value_that_differs(self, tmp_path, capsys):
        task = ["train", "--task", "first-token-recall", "--len", "32", "--classes", "4",
                "--steps", "2", "--batch-size", "4"]
        assert run_cli(*task, "--channels", "8", "--blocks", "1", "--scale-dim", "4",
                       "--out", str(tmp_path / "base")) == 0
        (tmp_path / "wide.cfg").write_text("channels = 16\n")
        capsys.readouterr()
        rc = run_cli(*task, "--config", str(tmp_path / "wide.cfg"),
                     "--resume", str(tmp_path / "base.ckpt"), "--out", str(tmp_path / "again"))
        assert rc == 2
        assert "channels is 8 in the checkpoint, 16" in capsys.readouterr().err

    def test_resume_leaves_model_flags_at_their_defaults_to_the_checkpoint(self, tmp_path):
        task = ["train", "--task", "first-token-recall", "--len", "32", "--classes", "4",
                "--steps", "2", "--batch-size", "4"]
        assert run_cli(*task, "--channels", "8", "--blocks", "2", "--scale-dim", "4",
                       "--mode", "disentangled", "--alpha", "0.25", "--t", "2",
                       "--out", str(tmp_path / "base")) == 0
        assert run_cli(*task, "--resume", str(tmp_path / "base.ckpt"),
                       "--out", str(tmp_path / "again")) == 0
        _, base_cfg = load_checkpoint(tmp_path / "base.ckpt")
        _, again_cfg = load_checkpoint(tmp_path / "again.ckpt")
        assert again_cfg == base_cfg
        assert (again_cfg.channels, again_cfg.n_blocks, again_cfg.mode) == (8, 2, "disentangled")


class TestAblateCommand:
    def test_tiny_grid(self, tmp_path, capsys):
        out = tmp_path / "abl.csv"
        rc = run_cli("ablate", "--task", "first-token-recall", "--len", "32",
                     "--classes", "4", "--steps", "4", "--batch-size", "4",
                     "--channels", "8", "--t-sweep", "0,1", "--d-sweep", "4",
                     "--fixed-d", "4", "--fixed-t", "1", "--out", str(out))
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,d,accuracy,seed"
        assert len(lines) == 1 + 3  # 2 t-sweep rows + 1 d-sweep row

    def test_default_grid_has_seven_points(self, tmp_path):
        # grids stay at the documented defaults; only runtime knobs shrink
        out = tmp_path / "abl.csv"
        rc = run_cli("ablate", "--task", "first-token-recall", "--len", "64",
                     "--classes", "4", "--steps", "2", "--batch-size", "2",
                     "--channels", "4", "--out", str(out))
        assert rc == 0
        lines = out.read_text().strip().split("\n")[1:]
        assert len(lines) == 7
        ts = [float(l.split(",")[0]) for l in lines]
        ds = [int(l.split(",")[1]) for l in lines]
        assert list(zip(ts, ds)) == [(0.0, 8), (0.5, 8), (1.0, 8), (2.0, 8),
                                     (1.0, 1), (1.0, 8), (1.0, 64)]

    def test_deterministic(self, tmp_path):
        args = ["ablate", "--task", "first-token-recall", "--len", "32", "--classes", "4",
                "--steps", "3", "--batch-size", "4", "--channels", "8",
                "--t-sweep", "0,1", "--d-sweep", "4", "--seed", "5"]
        run_cli(*args, "--out", str(tmp_path / "a1.csv"))
        run_cli(*args, "--out", str(tmp_path / "a2.csv"))
        assert (tmp_path / "a1.csv").read_bytes() == (tmp_path / "a2.csv").read_bytes()


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("len = 48\nscale-dim = 4\nseed = 9\n# comment\nchannels = 2\n")
        out = tmp_path / "k.csv"
        run_cli("dump-kernel", "--config", str(cfg), "--out", str(out))
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 48  # channels=2, len=48 from config
        # list values parse as their flags do: d-sweep = 4 is the 1-tuple (4,)
        cfg.write_text("len = 32\nsteps = 1\nchannels = 2\nt-sweep = 0, 1.5\nd-sweep = 4\n")
        out = tmp_path / "abl.csv"
        assert run_cli("ablate", "--config", str(cfg), "--fixed-d", "2", "--out", str(out)) == 0
        grid = [tuple(line.split(",")[:2]) for line in out.read_text().strip().split("\n")[1:]]
        assert grid == [("0", "2"), ("1.5", "2"), ("1", "4")]

    def test_cli_flags_beat_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("len = 48\nscale_dim = 4\nchannels = 2\n")
        out = tmp_path / "k.csv"
        run_cli("dump-kernel", "--config", str(cfg), "--len", "16", "--out", str(out))
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 16

    def test_flag_at_its_default_beats_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("len = 16\nscale-dim = 4\nchannels = 2\n")
        out = tmp_path / "k.csv"
        assert run_cli("dump-kernel", "--config", str(cfg), "--channels", "1", "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 1 * 16

    @pytest.mark.parametrize(
        "command, line, key",
        [
            ("dump-kernel", "bogus = 3", "bogus"),
            ("dump-kernel", "scale_dm = 4", "scale_dm"),
            ("train", "lengths = 16,32", "lengths"),
            ("ablate", "resume = base.ckpt", "resume"),
            ("verify", "config = other.cfg", "config"),
        ],
    )
    def test_unknown_key_rejected(self, tmp_path, monkeypatch, capsys, command, line, key):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(f"seed = 1\n{line}\n")
        assert run_cli(command, "--config", "run.cfg", "--out", "out") == 2
        assert capsys.readouterr().err == f"sgconv {command}: run.cfg: unknown key '{key}'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    # each command is kept small, in case the value got through
    @pytest.mark.parametrize(
        "argv, line, message",
        [
            ("bench --lengths 16 --channels 1 --batch 1", "precision = f16",
             "bad value for precision: 'f16'"),
            ("train --len 32 --steps 1 --channels 2", "optimizer = rmsprop",
             "bad value for optimizer: 'rmsprop'"),
            ("dump-kernel --len 16", "mode = mixed", "bad value for mode: 'mixed'"),
            ("ablate --len 32 --steps 1 --channels 2", "task = copying",
             "bad value for task: 'copying'"),
        ],
    )
    def test_value_outside_choices_rejected(self, tmp_path, monkeypatch, capsys, argv, line,
                                            message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(f"{line}\n")
        command = argv.split()[0]
        assert run_cli(*argv.split(), "--config", "run.cfg", "--out", "out") == 2
        assert capsys.readouterr().err == f"sgconv {command}: run.cfg: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_malformed_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this line has no equals sign\n")
        rc = run_cli("dump-kernel", "--config", str(cfg), "--out", str(tmp_path / "k.csv"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("sgconv dump-kernel: ") and "expected `key = value`" in err
        assert not (tmp_path / "k.csv").exists()


class TestBadInput:
    """Bad options exit 2 with `sgconv <command>: <message>`, never a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("train --len 1", "seq_len must be >= 2"),
            ("train --steps 0", "steps must be >= 1"),
            ("train --batch-size 0", "batch_size"),
            ("train --channels 0", "channels must be >= 1"),
            ("train --lr -1", "lr must be >= 0"),
            ("train --lr nan", "lr must be >= 0 and finite, got nan"),
            ("train --lr inf", "lr must be >= 0 and finite, got inf"),
            ("ablate --lr nan", "lr must be >= 0 and finite, got nan"),
            ("ablate --lr inf", "lr must be >= 0 and finite, got inf"),
            ("train --t nan", "decay_t must be >= 0 and finite, got nan"),
            ("train --mode disentangled --t nan", "decay_t must be >= 0 and finite, got nan"),
            ("ablate --t-sweep 0,nan", "decay_t must be >= 0 and finite, got nan"),
            ("dump-kernel --t inf", "decay_t must be >= 0 and finite, got inf"),
            ("train --classes 1", "num_classes must be >= 2"),
            ("train --task sparse-majority --len 4", "seq_len must be >= 9"),
            ("train --config noeq.cfg", "expected `key = value`"),
            ("train --config missing.cfg", "No such file"),
            ("train --config abc.cfg", "bad value for steps: 'abc'"),
            ("train --precision f32", "training runs in f64 only"),
            ("ablate --steps 0", "steps must be >= 1"),
            ("ablate --seeds 0", "seeds must be >= 1"),
            ("ablate --len 32", "scale_dim must satisfy"),  # the default d-sweep reaches 64
            ("dump-kernel --len 0", "seq_len must be positive"),
            ("bench --lengths 0,16", "lengths must be >= 1"),
            ("bench --config missing.cfg", "No such file"),
        ],
    )
    def test_exits_2_with_message(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "noeq.cfg").write_text("steps 5\n")
        (tmp_path / "abc.cfg").write_text("steps = abc\n")
        command = argv.split()[0]
        # an --out under a directory that does not exist yet: bad input leaves none behind
        rc = run_cli(*argv.split(), "--out", "newdir/out")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"sgconv {command}: ") and message in err
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["abc.cfg", "noeq.cfg"]

    @pytest.mark.parametrize(
        "argv",
        [
            "verify --filter kernelgen",
            "bench --lengths 16 --channels 1 --batch 1",
            "dump-kernel --len 16 --scale-dim 4",
            "train --len 32 --steps 1 --channels 2",
            "ablate --len 32 --steps 1 --channels 2 --t-sweep 0 --d-sweep 4",
        ],
    )
    def test_out_under_a_regular_file_exits_2_before_the_run(self, tmp_path, monkeypatch,
                                                             capsys, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("")
        command = argv.split()[0]
        assert run_cli(*argv.split(), "--out", "afile/run") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"sgconv {command}: ") and "afile" in captured.err
        assert captured.err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]
        assert (tmp_path / "afile").read_text() == ""


# Each command's defaults, written out as literals so that a moved or retyped
# default fails here; repr tells 1 from 1.0 and a tuple from a list.
DEFAULTS = {
    "verify": {"seed": 0, "precision": "f64", "filter": None, "out": None},
    "bench": {
        "seed": 0, "precision": "f32", "out": "bench.csv",
        "lengths": (256, 512, 1024, 2048, 4096, 8192, 16384), "channels": 128, "batch": 64,
        "reps": 5, "direct_cap": 8192, "impls": ("conv_direct", "conv_fft", "attn_quadratic"),
    },
    "dump-kernel": {
        "seed": 0, "precision": "f64", "out": "kernel.csv", "seq_len": 4096, "scale_dim": 32,
        "decay_alpha": 0.5, "decay_t": 1.0, "channels": 1, "mode": "concat", "init": "gaussian",
    },
    "train": {
        "seed": 0, "precision": "f64", "task": "first-token-recall", "classes": 8,
        "batch_size": 32, "channels": 32, "out": "run", "seq_len": 1024, "steps": 500,
        "lr": 3e-2, "optimizer": "adam", "blocks": 1, "scale_dim": 8, "mode": "concat",
        "decay_alpha": 0.5, "decay_t": 1.0, "eval_every": 50, "resume": None,
    },
    "ablate": {
        "seed": 0, "precision": "f64", "task": "first-token-recall", "classes": 8,
        "batch_size": 32, "channels": 32, "out": "ablation.csv", "seq_len": 256, "steps": 200,
        "lr": 2e-2, "seeds": 1, "t_sweep": (0.0, 0.5, 1.0, 2.0), "d_sweep": (1, 8, 64),
        "fixed_d": 8, "fixed_t": 1.0,
    },
}


class TestDefaults:
    @pytest.mark.parametrize("command", list(DEFAULTS))
    def test_no_flags_give_the_default_table(self, command):
        parser, _ = build_parser()
        args = vars(parser.parse_args([command]))
        expected = {**DEFAULTS[command], "command": command, "config": None}
        assert {k: repr(v) for k, v in args.items()} == {k: repr(v) for k, v in expected.items()}
