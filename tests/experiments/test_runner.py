"""Tests for the CLI runner."""

import os
import pathlib
import signal
import subprocess
import sys

import pytest

from repro.experiments.runner import main


class TestCli:
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Stencil Benchmark Suite" in out

    def test_table3_subset(self, capsys):
        assert main(["table3", "--benchmarks", "jacobi-1d"]) == 0
        out = capsys.readouterr().out
        assert "jacobi-1d" in out
        assert "Heterogeneous" in out

    def test_figure7_subset(self, capsys):
        assert main(["figure7", "--benchmarks", "jacobi-2d"]) == 0
        out = capsys.readouterr().out
        assert "Validation of Performance Model" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure9"])

    def test_simulate_tool(self, capsys):
        assert main(["simulate", "--benchmark", "jacobi-1d"]) == 0
        out = capsys.readouterr().out
        assert "Total:" in out
        assert "Breakdown:" in out

    def test_simulate_baseline_design(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--benchmark",
                    "jacobi-1d",
                    "--design",
                    "baseline",
                ]
            )
            == 0
        )
        assert "baseline" in capsys.readouterr().out

    def test_codegen_tool(self, capsys, tmp_path):
        assert (
            main(
                [
                    "codegen",
                    "--benchmark",
                    "jacobi-1d",
                    "--design",
                    "baseline",
                    "--output",
                    str(tmp_path),
                ]
            )
            == 0
        )
        assert (tmp_path / "jacobi_1d_baseline.cl").exists()
        assert (tmp_path / "jacobi_1d_baseline_host.c").exists()

    def test_calibrate_tool(self, capsys):
        assert main(["calibrate"]) == 0
        out = capsys.readouterr().out
        assert "effective bandwidth" in out
        assert "C_pipe" in out

    def test_optimize_tool(self, capsys):
        assert main(["optimize", "--benchmark", "jacobi-1d"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "hetero" in out
        assert "speedup" in out


_REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("frontend", ["threaded", "async"])
def test_serve_drains_on_sigterm_right_after_ready_line(frontend):
    """The ready line promises the signal handlers are installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments", "serve", "--port", "0",
         "--workers", "1", "--frontend", frontend],
        env=env,
        cwd=str(_REPO_ROOT),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        ready = proc.stdout.readline()
        assert "listening on http://" in ready, ready
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, err
    assert "Drained: 0 completed" in out
