import json

import numpy as np
import pytest

import sgconv.model as model_mod
import sgconv.verify as verify_mod
from sgconv.cli import main
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
        cfg_n = KernelConfig(seq_len=L, scale_dim=d, decay_alpha=0.5)
        n_scales = cfg_n.num_scales
        peaks = np.zeros(n_scales)
        for seed in range(100):
            cfg = KernelConfig(seq_len=L, scale_dim=d, decay_alpha=0.5, seed=seed)
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

    def test_unknown_filter_rejected(self):
        with pytest.raises(ValueError):
            run_cli("verify", "--filter", "nonexistent-suite")

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
        spec = TaskSpec(kind="first_token_recall", seq_len=32, num_classes=4, seed=0)
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

    @pytest.mark.parametrize("damage", ["truncated", "trailing", "renamed"])
    def test_resume_rejects_damaged_checkpoint(self, damage, tmp_path, capsys):
        args = ["train", "--task", "first-token-recall", "--len", "32", "--classes", "4",
                "--steps", "2", "--batch-size", "4", "--channels", "8", "--blocks", "1",
                "--scale-dim", "4"]
        run_cli(*args, "--out", str(tmp_path / "base"))
        ckpt = tmp_path / "base.ckpt"
        blob = ckpt.read_bytes()
        damaged, message = {
            "truncated": (blob[:-5], f"expected {len(blob)} bytes"),
            "trailing": (blob + b"\x00", f"expected {len(blob)} bytes"),
            "renamed": (blob.replace(b'"head_b"', b'"head_c"'), "unexpected tensor 'head_c'"),
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

    def test_cli_flags_beat_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("len = 48\nscale_dim = 4\nchannels = 2\n")
        out = tmp_path / "k.csv"
        run_cli("dump-kernel", "--config", str(cfg), "--len", "16", "--out", str(out))
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 16

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
        rc = run_cli(*argv.split(), "--out", "out")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"sgconv {command}: ") and message in err
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["abc.cfg", "noeq.cfg"]
