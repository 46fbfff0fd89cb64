"""Public API surface checks for the whole package."""

import importlib

import pytest

import repro


SUBPACKAGES = ["analysis", "core", "cpu", "doe", "exec", "guard",
               "obs", "reporting", "workloads"]


class TestSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackages_importable(self, name):
        module = importlib.import_module(f"repro.{name}")
        assert module is not None

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_all_exports_resolve(self, name):
        """Every name in __all__ actually exists."""
        module = importlib.import_module(f"repro.{name}")
        for symbol in module.__all__:
            assert hasattr(module, symbol), f"repro.{name}.{symbol}"

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_all_sorted_unique(self, name):
        module = importlib.import_module(f"repro.{name}")
        assert len(set(module.__all__)) == len(module.__all__)

    def test_docstrings_everywhere(self):
        """Every public module and public callable carries a docstring."""
        import inspect

        for name in SUBPACKAGES:
            module = importlib.import_module(f"repro.{name}")
            assert module.__doc__, f"repro.{name} missing docstring"
            for symbol in module.__all__:
                obj = getattr(module, symbol)
                if inspect.isfunction(obj) or inspect.isclass(obj):
                    assert obj.__doc__, f"repro.{name}.{symbol}"

    def test_quickstart_snippet_from_docstring(self):
        """The package docstring's quick start actually runs."""
        from repro.core import PBExperiment, rank_parameters_from_result
        from repro.workloads import benchmark_suite

        traces = benchmark_suite(length=600, names=["gzip"])
        result = PBExperiment(traces).run()
        ranking = rank_parameters_from_result(result)
        assert len(ranking.significant_factors()) >= 1

    def test_obs_has_one_span_path(self):
        """Spans live only in the event stream: the observability
        package holds no in-memory tracer module beside it."""
        import pkgutil

        import repro.obs

        modules = {info.name for info in
                   pkgutil.iter_modules(repro.obs.__path__)}
        assert modules == {"clock", "export", "fleet", "manifest",
                           "metrics", "profile", "stream", "telemetry"}
        assert {"EventWriter", "span_ident", "trace_from_streams",
                "trace_json"} <= set(repro.obs.__all__)

    def test_exec_has_one_scheduler(self):
        """Every transport takes the engine's grid object and nothing
        else of its state; the dead knobs stay gone."""
        import dataclasses
        import inspect

        from repro.dist import DistOptions
        from repro.dist.broker import run_dist
        from repro.exec import RetryPolicy, engine

        def params(function):
            return list(inspect.signature(function).parameters)

        assert params(engine._run_serial) == ["grid", "pending"]
        assert params(engine._run_pool) == [
            "grid", "pending", "jobs", "timeout", "max_worker_deaths"]
        assert params(run_dist) == ["grid", "pending", "options"]
        assert "chunk_size" not in params(engine.run_grid)
        fields = {f.name for f in dataclasses.fields(DistOptions)}
        assert "lease_ttl" not in fields
        assert not hasattr(RetryPolicy, "pause")
