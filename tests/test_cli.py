"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.system == "attache"
        assert args.benchmark == "mcf"
        assert args.seed == 2018

    def test_compare_systems(self):
        args = build_parser().parse_args(
            ["compare", "--systems", "baseline", "attache"]
        )
        assert args.systems == ["baseline", "attache"]

    def test_invalid_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--system", "warp-drive"])

    def test_unknown_figure_exits_with_the_known_names(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["figures", "--only", "fig99_nope"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "fig99_nope" in err
        assert "fig12_speedup" in err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out
        assert "RAND" in out

    def test_run_small(self, capsys):
        code = main([
            "run", "--benchmark", "STREAM", "--system", "attache",
            "--cores", "2", "--records", "300", "--warmup", "300",
            "--scale-factor", "64",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "COPR accuracy" in out
        assert "runtime" in out

    def test_compare_small(self, capsys):
        code = main([
            "compare", "--benchmark", "STREAM",
            "--systems", "baseline", "ideal",
            "--cores", "2", "--records", "300", "--warmup", "0",
            "--scale-factor", "64",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "ideal" in out

    def test_functional_both_models(self, capsys):
        code = main([
            "functional", "--benchmark", "lbm", "--mdcache", "--copr",
            "--cores", "2", "--records", "1500", "--scale-factor", "64",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "metadata hit rate" in out
        assert "COPR accuracy" in out

    def test_figures_list_on_an_empty_cache_simulates_nothing(
            self, tmp_path, capsys, monkeypatch):
        from repro.analysis import figures

        def no_orchestrator(*args, **kwargs):
            raise AssertionError("--list must not simulate")

        monkeypatch.setattr(figures, "Orchestrator", no_orchestrator)
        cache_dir, out_dir = tmp_path / "cache", tmp_path / "out"
        assert main(["figures", "--list", "--cache-dir", str(cache_dir),
                     "--out", str(out_dir)]) == 0
        rows = [fields for fields in map(
            str.split, capsys.readouterr().out.splitlines()
        ) if fields and fields[0] in figures.FIGURES]
        assert [(row[0], row[-2], row[-1]) for row in rows] == [
            ("fig12_speedup", "stale", "0/80"),
            ("fig13_energy", "stale", "0/80"),
            ("fig14_bandwidth_latency", "stale", "0/40"),
        ]
        assert not any(cache_dir.iterdir())
        assert not out_dir.exists()

    def test_profile_functional_digest_is_the_same_in_both_vector_modes(
            self, capsys):
        pytest.importorskip("numpy")
        digests = {}
        for vector in ("on", "off"):
            assert main([
                "profile", "--functional", "--cores", "2", "--records", "200",
                "--scale-factor", "64", "--vector", vector,
            ]) == 0
            out = capsys.readouterr().out
            assert ("disabled (scalar event loop" in out) == (vector == "off")
            digests[vector] = next(
                line.split()[-1] for line in out.splitlines()
                if line.startswith("result digest")
            )
        assert digests == {"on": "1fe3093f41237110", "off": "1fe3093f41237110"}

    def test_metrics_functional_prints_the_counter_table(self, capsys):
        assert main([
            "metrics", "--functional", "--benchmark", "mcf", "--cores", "2",
            "--records", "200", "--scale-factor", "64",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "mcf: functional-pass counters"
        totals = {
            fields[0]: int(fields[1]) for fields in map(str.split, lines[3:])
        }
        assert totals["demand_reads"] > 0
        assert totals["copr_predictions"] == totals["demand_reads"]
        assert totals["metadata_accesses"] == totals["demand_reads"]
        assert (totals["metadata_hits"] + totals["metadata_installs"]
                == totals["metadata_accesses"])

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            main(["run", "--benchmark", "doom", "--records", "10",
                  "--cores", "1"])

    def test_sweep_to_stdout(self, capsys):
        code = main([
            "sweep", "--benchmarks", "STREAM", "--systems", "baseline",
            "--cores", "2", "--records", "200", "--warmup", "0",
            "--scale-factor", "64", "--metrics", "ipc",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "benchmark,system,seed,ipc"
        assert "STREAM,baseline" in out

    def test_sweep_to_file(self, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--benchmarks", "STREAM", "--systems", "baseline",
            "--cores", "2", "--records", "200", "--warmup", "0",
            "--scale-factor", "64", "--output", str(target),
        ])
        assert code == 0
        assert target.exists()
        assert "STREAM" in target.read_text()

    def test_resume_keeps_the_runs_obs_config(self, tmp_path, capsys):
        """--resume rebuilds --obs from run.json: no point re-simulates."""
        import json

        run_dir = tmp_path / "run"
        code = main([
            "orchestrate", "--benchmarks", "STREAM",
            "--systems", "baseline", "ideal",
            "--cores", "2", "--records", "200", "--warmup", "0",
            "--scale-factor", "64", "--jobs", "1", "--pool", "spawn",
            "--run-dir", str(run_dir), "--obs", "--metrics", "ipc",
        ])
        assert code == 0
        assert main(["orchestrate", "--resume", str(run_dir),
                     "--jobs", "1", "--pool", "spawn"]) == 0
        summaries = [
            record for record in map(
                json.loads,
                (run_dir / "telemetry.jsonl").read_text().splitlines(),
            )
            if record.get("event") == "summary"
        ]
        assert (summaries[-1]["done"], summaries[-1]["cached"]) == (0, 2)


class TestMetricsCatalog:
    """`repro metrics list` and `repro metrics --plot` (satellites of
    the cluster PR: catalog listing + lazy-matplotlib plotting)."""

    SMALL = [
        "metrics", "--benchmark", "STREAM", "--system", "attache",
        "--cores", "2", "--records", "300", "--warmup", "0",
        "--scale-factor", "64",
    ]

    def test_metrics_list_prints_the_catalog(self, capsys):
        assert main(["metrics", "list"]) == 0
        out = capsys.readouterr().out
        assert "bytes_transferred" in out
        assert "cumulative" in out
        assert "histogram" in out
        # Templated names are listed symbolically, not expanded.
        assert "subrank<n>_beats" in out

    def test_metrics_list_runs_no_simulation(self, capsys):
        from repro.obs import METRIC_CATALOG

        assert main(["metrics", "list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # Pure catalog dump: one row per spec plus table furniture.
        assert sum(
            1 for line in lines
            if any(line.strip().startswith(spec.name)
                   for spec in METRIC_CATALOG)
        ) == len(METRIC_CATALOG)

    def test_plot_without_matplotlib_fails_cleanly(
        self, tmp_path, monkeypatch, capsys
    ):
        import sys

        # None in sys.modules makes `import matplotlib` raise
        # ImportError — exactly what an uninstalled package does.
        monkeypatch.setitem(sys.modules, "matplotlib", None)
        monkeypatch.delitem(sys.modules, "matplotlib.pyplot",
                            raising=False)
        out = tmp_path / "plot.png"
        code = main(self.SMALL + ["--plot", "--out", str(out)])
        assert code == 1
        assert "matplotlib" in capsys.readouterr().out
        assert not out.exists()

    def test_plot_writes_the_image(self, tmp_path, monkeypatch, capsys):
        self._install_fake_matplotlib(monkeypatch)
        out = tmp_path / "plot.png"
        code = main(self.SMALL + ["--plot", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "epochs" in capsys.readouterr().out

    @staticmethod
    def _install_fake_matplotlib(monkeypatch):
        """A savefig-only matplotlib double (the real one is optional)."""
        import sys
        import types

        class _Axis:
            def __getattr__(self, _name):
                return lambda *args, **kwargs: None

        class _Figure:
            def suptitle(self, *args, **kwargs):
                pass

            def tight_layout(self):
                pass

            def savefig(self, path, **kwargs):
                with open(path, "wb") as handle:
                    handle.write(b"\x89PNG fake")

        pyplot = types.ModuleType("matplotlib.pyplot")

        def subplots(nrows, ncols, **kwargs):
            axes = [_Axis() for _ in range(nrows)]
            return _Figure(), (axes if nrows > 1 else axes[0])

        pyplot.subplots = subplots
        pyplot.close = lambda figure: None
        matplotlib = types.ModuleType("matplotlib")
        matplotlib.use = lambda backend: None
        matplotlib.pyplot = pyplot
        monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
        monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
