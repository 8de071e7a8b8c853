"""Admission budget lifecycle: reserve exactly once, release exactly
once — on success, on shed, and on every error path.

A query that errors mid-run (or whose batch dies during context setup)
must hand its reserved state bytes back, or the controller's in-flight
total creeps up until every later query queues forever.
"""

import pytest

from repro.data.tpch import cached_tpch
from repro.service.admission import AdmissionController
from repro.service.service import QueryService


@pytest.fixture(scope="module")
def catalog():
    return cached_tpch(scale_factor=0.002)


class TestReleaseOnError:
    def test_error_during_execution_releases_budget(self, catalog,
                                                    monkeypatch):
        service = QueryService(
            catalog, aip_cache=False, result_cache=False,
            memory_budget_bytes=1e9,
        )
        import repro.service.executor as executor_module

        def explode(*args, **kwargs):
            raise RuntimeError("mid-run failure")

        monkeypatch.setattr(executor_module, "run_concurrent", explode)
        service.submit("Q1A")
        with pytest.raises(RuntimeError, match="mid-run failure"):
            service.run()
        assert service.admission.in_flight_bytes == 0.0
        assert service.admission.in_flight_queries == 0

    def test_error_during_batch_setup_releases_budget(self, catalog,
                                                      monkeypatch):
        """Regression: setup work before execution (network link
        resolution, cache hook registration) used to run outside the
        release guard, leaking the acquired bytes."""
        service = QueryService(
            catalog, aip_cache=False, result_cache=False,
            memory_budget_bytes=1e9,
        )

        def bad_link(site):
            raise RuntimeError("no route to site")

        monkeypatch.setattr(service.network, "link_to", bad_link)
        service.submit("Q1A")
        with pytest.raises(RuntimeError, match="no route to site"):
            service.run()
        assert service.admission.in_flight_bytes == 0.0
        assert service.admission.in_flight_queries == 0

    def test_shed_query_never_holds_budget(self, catalog):
        service = QueryService(
            catalog, aip_cache=False, result_cache=False,
            memory_budget_bytes=16.0,
        )
        service.submit("Q2A")
        report = service.run()
        assert len(report.shed) == 1
        assert service.admission.in_flight_bytes == 0.0
        assert service.admission.in_flight_queries == 0

    def test_service_survives_a_failed_batch(self, catalog, monkeypatch):
        """After an error the controller is clean, so the next run
        admits normally instead of queueing behind leaked bytes."""
        service = QueryService(
            catalog, aip_cache=False, result_cache=False,
            memory_budget_bytes=1e9,
        )
        import repro.service.executor as executor_module

        real = executor_module.run_concurrent
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return real(*args, **kwargs)

        monkeypatch.setattr(executor_module, "run_concurrent", flaky)
        service.submit("Q1A")
        with pytest.raises(RuntimeError):
            service.run()
        service.submit("Q1A")
        report = service.run()
        assert len(report.completed) == 1


class TestReconciliation:
    def test_ewma_moves_toward_observed_ratio(self, monkeypatch):
        monkeypatch.setattr(AdmissionController, "CORRECTION_ALPHA", 0.5)
        ctl = AdmissionController()
        assert ctl.correction == 1.0
        ctl.observe(1000.0, 250.0)  # run used a quarter of the estimate
        assert ctl.correction == pytest.approx(0.625)
        ctl.observe(1000.0, 250.0)
        assert ctl.correction == pytest.approx(0.4375)
        assert ctl.observations == 2

    def test_correction_scales_admission(self):
        ctl = AdmissionController(memory_budget_bytes=1000.0)
        # Uncorrected, 1500 sheds outright.
        assert ctl.decide(1500.0) == "shed"
        # After learning estimates run 2x high, the same query admits.
        for _ in range(20):
            ctl.observe(1000.0, 500.0)
        assert ctl.correction < 0.7
        assert ctl.decide(1500.0) == "admit"

    def test_correction_clamped(self, monkeypatch):
        monkeypatch.setattr(AdmissionController, "CORRECTION_ALPHA", 1.0)
        ctl = AdmissionController()
        ctl.observe(1.0, 1e9)
        assert ctl.correction == 20.0
        ctl.observe(1e9, 0.0)
        assert ctl.correction == 0.05

    def test_degenerate_observations_ignored(self):
        ctl = AdmissionController()
        ctl.observe(0.0, 100.0)
        ctl.observe(100.0, -1.0)
        assert ctl.correction == 1.0
        assert ctl.observations == 0

    def test_service_feeds_observed_bytes(self, catalog):
        service = QueryService(
            catalog, aip_cache=False, result_cache=False,
        )
        service.submit("Q1A")
        service.run()
        assert service.admission.observations == 1
        # Estimates are conservative overestimates, so reconciliation
        # learns a correction below 1.
        assert service.admission.correction < 1.0

    def test_governed_batch_error_rolls_residency_back(self, catalog,
                                                       monkeypatch):
        """A governed batch that dies mid-run must not leave dead
        operators' leases, spill handlers or buffer frames behind —
        the service-lifetime governor serves every later batch."""
        import repro.service.executor as executor_module

        with QueryService(
            catalog, aip_cache=False, result_cache=False,
            memory_budget=150_000,
        ) as service:
            governor = service.governor
            real = executor_module.run_concurrent
            calls = {"n": 0}

            def flaky(*args, **kwargs):
                calls["n"] += 1
                if calls["n"] == 1:
                    # Die after translation: scans' buffer frames and
                    # operator leases already exist.
                    raise RuntimeError("mid-run failure")
                return real(*args, **kwargs)

            monkeypatch.setattr(executor_module, "run_concurrent", flaky)
            service.submit("Q2A")
            with pytest.raises(RuntimeError, match="mid-run failure"):
                service.run()
            assert governor.resident_bytes == 0
            assert not governor._spillables
            assert service.admission.observations == 0  # not poisoned
            service.submit("Q2A")
            report = service.run()
            assert len(report.completed) == 1
            assert governor.peak_resident_bytes <= 2 * 150_000

    def test_governed_service_observes_governor_peak(self, catalog):
        with QueryService(
            catalog, aip_cache=False, result_cache=False,
            memory_budget=200_000,
        ) as service:
            service.submit("Q2A")
            report = service.run()
            assert len(report.completed) == 1
            assert service.admission.observations == 1
            assert service.governor.peak_resident_bytes <= 200_000
