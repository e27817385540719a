import tracemalloc

import numpy as np
import pytest

from dsltopo import (
    BenchRecord,
    DslConfig,
    LossKind,
    PersistenceDiagram,
    Reduction,
    dsl_forward,
    dsl_gradient,
    pairwise_correlation_distance,
    read_diagram,
    read_tensor,
    sublevel_persistence_0d,
    write_diagram,
    write_tensor,
)
from dsltopo import cli
from dsltopo.cli import main


@pytest.fixture
def tensor_pair(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 12))
    y = rng.normal(size=(4, 12))
    xp = tmp_path / "x.dst"
    yp = tmp_path / "y.dst"
    write_tensor(x, xp)
    write_tensor(y, yp)
    return x, y, str(xp), str(yp)


class TestDslCommand:
    def test_default_is_exact_units(self, tensor_pair, capsys):
        x, y, xp, yp = tensor_pair
        assert main(["dsl", xp, yp]) == 0
        got = float(capsys.readouterr().out.strip())
        cfg = DslConfig(match_exact_units=True, scale_by_comparisons=False,
                        reduction=Reduction.MEAN)
        assert got == dsl_forward(x, y, cfg)

    def test_scale_flag(self, tensor_pair, capsys):
        x, y, xp, yp = tensor_pair
        assert main(["dsl", xp, yp, "--scale", "--sharpness", "8"]) == 0
        got = float(capsys.readouterr().out.strip())
        cfg = DslConfig(sharpness=8.0, match_exact_units=False,
                        scale_by_comparisons=True, reduction=Reduction.MEAN)
        assert got == dsl_forward(x, y, cfg)

    def test_skip_batch_and_weights(self, tensor_pair, capsys):
        x, y, xp, yp = tensor_pair
        assert main(["dsl", xp, yp, "--skip-batch", "--weights", "3.5"]) == 0
        got = float(capsys.readouterr().out.strip())
        cfg = DslConfig(weights=(3.5,), match_exact_units=True,
                        scale_by_comparisons=False, skip_batch_axis=True,
                        reduction=Reduction.MEAN)
        assert got == dsl_forward(x, y, cfg)

    def test_grad_outputs(self, tensor_pair, tmp_path, capsys):
        x, y, xp, yp = tensor_pair
        prefix = str(tmp_path / "g")
        assert main(["dsl", xp, yp, "--grad", prefix]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("dloss_ds ")
        cfg = DslConfig(match_exact_units=True, scale_by_comparisons=False,
                        reduction=Reduction.MEAN)
        grad_y, grad_x, grad_s = dsl_gradient(x, y, cfg)
        assert np.array_equal(read_tensor(prefix + "_dX.dst"), grad_x)
        assert np.array_equal(read_tensor(prefix + "_dY.dst"), grad_y)
        assert float(lines[1].split()[1]) == grad_s

    def test_exact_sign_grad_is_usage_error(self, tensor_pair, capsys):
        _, _, xp, yp = tensor_pair
        assert main(["dsl", xp, yp, "--sign", "exact", "--grad", "p"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, tensor_pair, capsys):
        _, _, xp, _ = tensor_pair
        assert main(["dsl", xp, str(tmp_path / "absent.dst")]) == 3
        assert "error:" in capsys.readouterr().err


class TestPersistenceCommand:
    def test_out_file_matches_library(self, tmp_path, capsys):
        arr = np.array([3.0, 1.0, 4.0, 1.5, 5.0])
        tp = tmp_path / "t.dst"
        write_tensor(arr, tp)
        out = tmp_path / "diagram.csv"
        assert main(["persistence", str(tp), "--out", str(out)]) == 0
        assert read_diagram(out) == sublevel_persistence_0d(arr)

    def test_stdout_mode(self, tmp_path, capsys):
        arr = np.array([1.0, 4.0, 1.0])
        tp = tmp_path / "t.dst"
        write_tensor(arr, tp)
        assert main(["persistence", str(tp)]) == 0
        lines = capsys.readouterr().out.splitlines()
        got = sorted(tuple(map(float, ln.split(","))) for ln in lines)
        assert got == [(1.0, 4.0), (1.0, float("inf"))]


class TestWassersteinCommand:
    def test_points_against_empty(self, tmp_path, capsys):
        # each (0, 2) point maps to the diagonal at Euclidean distance sqrt(2)
        d1 = tmp_path / "d1.csv"
        d2 = tmp_path / "d2.csv"
        write_diagram(PersistenceDiagram(((0.0, 2.0), (0.0, 2.0))), d1)
        write_diagram(PersistenceDiagram(()), d2)
        assert main(["wasserstein", str(d1), str(d2)]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(2.0, abs=1e-12)
        assert main(["wasserstein", str(d1), str(d2), "--p", "1"]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)

    def test_reject_policy_on_essential_point(self, tmp_path, capsys):
        d1 = tmp_path / "d1.csv"
        d2 = tmp_path / "d2.csv"
        write_diagram(PersistenceDiagram(((0.0, float("inf")),)), d1)
        write_diagram(PersistenceDiagram(()), d2)
        assert main(["wasserstein", str(d1), str(d2), "--inf", "reject"]) == 4
        assert "error:" in capsys.readouterr().err

    def test_malformed_diagram_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.0,1.0\nplainly wrong\n")
        good = tmp_path / "good.csv"
        write_diagram(PersistenceDiagram(()), good)
        assert main(["wasserstein", str(bad), str(good)]) == 3
        err = capsys.readouterr().err
        assert "bad.csv" in err

    def test_non_ascii_diagram_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"0,1\n\xff\xfe,2\n")
        good = tmp_path / "good.csv"
        write_diagram(PersistenceDiagram(()), good)
        assert main(["wasserstein", str(bad), str(good)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "bad.csv:2:" in err and "Traceback" not in err

    def test_order_below_one_rejected(self, tmp_path, capsys):
        d = tmp_path / "d.csv"
        write_diagram(PersistenceDiagram(((0.0, 1.0),)), d)
        assert main(["wasserstein", str(d), str(d), "--p", "0.5"]) == 2

    def test_too_large_refused_without_allocating(self, tmp_path, capsys):
        # an (80000, 80000) cost matrix would need about 48 GiB
        rng = np.random.default_rng(5)
        paths = []
        for name in ("d1.csv", "d2.csv"):
            births = rng.normal(size=40_000)
            deaths = births + rng.exponential(size=40_000)
            path = tmp_path / name
            path.write_text("".join(f"{b!r},{d!r}\n" for b, d in zip(births, deaths)))
            paths.append(str(path))
        tracemalloc.start()
        try:
            code = main(["wasserstein", *paths])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert peak < 64 << 20

    def test_memory_error_exits_4(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 95.4 GiB")

        monkeypatch.setattr(cli, "wasserstein_distance", exhausted)
        d = tmp_path / "d.csv"
        write_diagram(PersistenceDiagram(((0.0, 1.0),)), d)
        assert main(["wasserstein", str(d), str(d)]) == 4
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 95.4 GiB\n"


class TestCorrdistCommand:
    def test_matches_library(self, tensor_pair, capsys):
        x, y, xp, yp = tensor_pair
        assert main(["corrdist", xp, yp, "--feature-axis", "1"]) == 0
        got = float(capsys.readouterr().out.strip())
        assert got == pairwise_correlation_distance(x, y, feature_axis=1)

    def test_scalar_locations_default(self, tmp_path, capsys):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([1.0, 3.0, 2.0, 0.0])
        xp, yp = tmp_path / "x.dst", tmp_path / "y.dst"
        write_tensor(x, xp)
        write_tensor(y, yp)
        assert main(["corrdist", str(xp), str(yp)]) == 0
        got = float(capsys.readouterr().out.strip())
        assert got == pairwise_correlation_distance(x, y)

    @pytest.mark.parametrize("x, y", [
        ([1e308, -1e308, 1e308, 0.0], [0.0, 1.0, 2.0, 3.0]),
        ([1e200, 3e200, 0.0, 5e200], [0.0, 1.0, 3.0, 2.0]),
    ])
    @pytest.mark.filterwarnings("error")
    def test_overflow_exits_4(self, tmp_path, capsys, x, y):
        xp, yp = tmp_path / "x.dst", tmp_path / "y.dst"
        write_tensor(np.array(x), xp)
        write_tensor(np.array(y), yp)
        assert main(["corrdist", str(xp), str(yp)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_degenerate_input(self, tmp_path, capsys):
        xp, yp = tmp_path / "x.dst", tmp_path / "y.dst"
        write_tensor(np.array([1.0, 1.0, 1.0]), xp)
        write_tensor(np.array([0.0, 1.0, 2.0]), yp)
        assert main(["corrdist", str(xp), str(yp)]) == 4


class TestCalibrateCommand:
    def test_happy_path_writes_log(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(3)
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        for i in range(40):
            write_tensor(rng.normal(scale=0.1, size=24), data_dir / f"ex{i:02d}.dst")
        monkeypatch.chdir(tmp_path)
        code = main(["calibrate", str(data_dir), "--ref", "mse",
                     "--max-steps", "50", "--eps", "1e-12"])
        assert code == 0
        s = float(capsys.readouterr().out.strip())
        assert s > 0.0
        log = (tmp_path / "calibration_log.csv").read_text().splitlines()
        assert log[0] == "step,sharpness,opt_loss"
        assert len(log) >= 2
        first = log[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) > 0.0

    def test_empty_directory(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["calibrate", str(empty), "--ref", "mse"]) == 3


class TestTrainDemoCommand:
    def test_walk_smoke_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train-demo", "walk", "--batches", "2", "--count", "128",
                     "--out", str(out)])
        assert code == 0
        assert (out / "checkpoint" / "manifest.txt").is_file()
        assert (out / "training_log.csv").read_text().startswith("batch,mse_term,dsl_term,total")
        eval_lines = (out / "evaluation.csv").read_text().splitlines()
        assert eval_lines[0] == "example,directional_agreement,persistence_wasserstein,correlation_distance"
        assert len(eval_lines) == 13  # 10 percent of 128, floored, held out
        stdout = capsys.readouterr().out
        assert "held_out_examples 12" in stdout
        assert "mean_directional_agreement" in stdout

    def test_count_too_small_for_batch(self, tmp_path, capsys):
        code = main(["train-demo", "walk", "--batches", "1", "--count", "60",
                     "--out", str(tmp_path / "run")])
        assert code == 2


class TestBenchCommand:
    def test_stdout_csv(self, capsys):
        assert main(["bench", "--kinds", "mse", "--sizes", "16,32", "--reps", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "loss_kind,rank,elements,wall_time_seconds,repetitions,peak_alloc_bytes"
        assert len(lines) == 3
        assert lines[1].startswith("mse,1,16,")

    def test_csv_file(self, tmp_path, capsys):
        path = tmp_path / "bench.csv"
        assert main(["bench", "--kinds", "dsl", "--sizes", "16", "--reps", "3",
                     "--csv", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_text().splitlines()[1].startswith("dsl,1,16,")

    def test_unknown_kind(self, capsys):
        assert main(["bench", "--kinds", "entropy", "--sizes", "16"]) == 2

    def test_stdout_matches_csv_file(self, tmp_path, capsys, monkeypatch):
        # fixed records stand in for one run, so both outputs see the same data
        records = [
            BenchRecord(LossKind.DSL, 1, 16, 1.25e-05, 3, 2048),
            BenchRecord(LossKind.MSE, 2, 256, 0.1, 5, None),
        ]
        monkeypatch.setattr(cli, "benchmark_losses", lambda **kw: records)
        assert main(["bench"]) == 0
        stdout = capsys.readouterr().out
        path = tmp_path / "bench.csv"
        assert main(["bench", "--csv", str(path)]) == 0
        assert stdout == path.read_text()
        assert stdout.splitlines()[2] == "mse,2,256,0.10000000000000001,5,"
