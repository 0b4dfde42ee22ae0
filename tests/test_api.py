"""Top-level package API, config, and error hierarchy."""

import numpy as np
import pytest

import repro
from repro import errors
from repro.config import RngBundle


class TestPublicApi:
    def test_all_exports_resolvable(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_run_and_analyze_convenience(self, sim_small, report_small):
        # The conftest fixtures exercise simulate/build/analyze; here we
        # check the convenience wrappers agree with the fixture pipeline.
        table = repro.flow_table_of(sim_small)
        report = repro.analyze_experiment(sim_small)
        assert len(table) > 0
        assert report["BW"].download.B == pytest.approx(
            report_small["BW"].download.B
        )

    def test_analyze_rehydrated_paper_scale_run(self):
        """A process-backend run is rehydrated against the campaign's
        world copy, which lacks the overflow prefixes paper-scale
        placement attached; analysis must still resolve every address
        and reproduce the campaign's own report."""
        from repro.experiments.campaign import CampaignConfig, run_campaign

        campaign = run_campaign(
            CampaignConfig(apps=("napa-scale",), duration_s=10.0),
            backend="process",
            workers=1,
        )
        run = campaign["napa-scale"]
        report = repro.analyze_experiment(run.result)
        assert not [f for f in report.flags if f.code == "metric-error"]
        assert report["AS"].download.B_prime == run.report["AS"].download.B_prime
        assert report["CC"].download.B_prime == run.report["CC"].download.B_prime

    def test_subpackage_exports(self):
        import repro.core
        import repro.experiments
        import repro.friendliness
        import repro.heuristics
        import repro.population
        import repro.report
        import repro.streaming
        import repro.topology
        import repro.trace

        for module in (
            repro.core, repro.experiments, repro.friendliness,
            repro.heuristics, repro.population, repro.report,
            repro.streaming, repro.topology, repro.trace,
        ):
            for name in module.__all__:
                assert getattr(module, name, None) is not None, (module, name)


class TestRngBundle:
    def test_named_streams(self):
        rngs = RngBundle(7)
        assert "engine" in rngs.streams
        assert isinstance(rngs["engine"], np.random.Generator)

    def test_unknown_stream(self):
        with pytest.raises(KeyError):
            RngBundle(7)["quantum"]

    def test_streams_independent(self):
        rngs = RngBundle(7)
        a = rngs["engine"].random(5)
        b = rngs["selection"].random(5)
        assert not np.allclose(a, b)

    def test_reproducible(self):
        a = RngBundle(7)["engine"].random(5)
        b = RngBundle(7)["engine"].random(5)
        assert np.allclose(a, b)

    def test_seed_changes_streams(self):
        a = RngBundle(1)["engine"].random(5)
        b = RngBundle(2)["engine"].random(5)
        assert not np.allclose(a, b)

    def test_position_independence(self):
        # A stream's values don't depend on whether other streams drew.
        bundle1 = RngBundle(9)
        bundle1["world"].random(100)
        v1 = bundle1["trace"].random(3)
        bundle2 = RngBundle(9)
        v2 = bundle2["trace"].random(3)
        assert np.allclose(v1, v2)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.ConfigurationError,
            errors.TopologyError,
            errors.AddressError,
            errors.AllocationError,
            errors.SimulationError,
            errors.TraceError,
            errors.AnalysisError,
            errors.RegistryError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_address_is_topology(self):
        assert issubclass(errors.AddressError, errors.TopologyError)

    def test_registry_is_analysis(self):
        assert issubclass(errors.RegistryError, errors.AnalysisError)

    def test_catch_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.TraceError("boom")
