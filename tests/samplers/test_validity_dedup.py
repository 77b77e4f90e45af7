"""The shared candidate-validity filter, pinned across engines.

"May this configuration be evaluated?" has exactly one definition —
:meth:`BaseSampler.candidate_is_valid` — and these tests pin both halves
of it:

* the *semantics*: in-domain + constraints + conditional masking via
  ``space.is_valid``, plus an optional circuit-breaker veto;
* the *routing*: monkeypatching the shared filter changes what the
  grid, random, and other driver-based samplers will evaluate, which
  fails loudly if any engine regrows a private copy of the check.
"""

import numpy as np
import pytest

from repro.faults import CircuitBreaker
from repro.faults.taxonomy import FailureKind
from repro.search import GridSampler, RandomSampler, SamplerSearch
from repro.search.samplers.base import BaseSampler

from .conformance import Bowl, conditional_space, numeric_space


class TestFilterSemantics:
    def test_accepts_feasible_config(self):
        space = numeric_space()
        assert BaseSampler.candidate_is_valid(
            space, {"x": 0.5, "y": 0.0, "n": 3}
        )

    def test_rejects_out_of_domain(self):
        space = numeric_space()
        assert not BaseSampler.candidate_is_valid(
            space, {"x": 1.5, "y": 0.0, "n": 3}
        )

    def test_rejects_unmasked_conditional(self):
        space = conditional_space()
        cfg = space.sample(np.random.default_rng(0))
        cfg["mode"] = "flat"
        bad = dict(cfg, depth=3)  # dead branch forced active
        bad["width"] = space.inactive_value("width")
        assert not BaseSampler.candidate_is_valid(space, bad)
        assert BaseSampler.candidate_is_valid(space, space.mask(bad))

    def test_breaker_vetoes_quarantined_cell(self):
        space = numeric_space()
        breaker = CircuitBreaker(space, threshold=1, resolution=2)
        cfg = {"x": 0.1, "y": -0.5, "n": 2}
        assert BaseSampler.candidate_is_valid(space, cfg, breaker)
        breaker.record(cfg, FailureKind.PERMANENT)
        assert not BaseSampler.candidate_is_valid(space, cfg, breaker)
        # No breaker: the same config is acceptable again.
        assert BaseSampler.candidate_is_valid(space, cfg)


def _veto_large_x(monkeypatch):
    """Route the shared filter through a spy that also vetoes x > 0.5."""
    calls = []
    original = BaseSampler.candidate_is_valid

    def spy(space, config, breaker=None):
        calls.append(dict(config))
        if float(config["x"]) > 0.5:
            return False
        return original(space, config, breaker)

    monkeypatch.setattr(BaseSampler, "candidate_is_valid", staticmethod(spy))
    return calls


class TestRoutingIsShared:
    """Patching the one filter changes every engine's behavior."""

    def test_random_search_routes_through_shared_filter(self, monkeypatch):
        calls = _veto_large_x(monkeypatch)
        rs = SamplerSearch(
            numeric_space(),
            Bowl(),
            RandomSampler(),
            max_evaluations=10,
            random_state=np.random.default_rng(0),
        )
        result = rs.run()
        assert calls, "random search bypassed the shared validity filter"
        assert all(rec.config["x"] <= 0.5 for rec in result.database)

    def test_grid_search_routes_through_shared_filter(self, monkeypatch):
        calls = _veto_large_x(monkeypatch)
        gs = SamplerSearch(
            numeric_space(), Bowl(), GridSampler(), max_evaluations=10
        )
        result = gs.run()
        assert calls, "grid search bypassed the shared validity filter"
        assert len(result.database) > 0
        assert all(rec.config["x"] <= 0.5 for rec in result.database)

    @pytest.mark.parametrize("engine", ["tpe", "qmc", "cma-es-lite"])
    def test_driver_samplers_route_through_shared_filter(
        self, monkeypatch, engine
    ):
        from .conformance import make_spec, run_once

        calls = _veto_large_x(monkeypatch)
        result = run_once(make_spec(engine, numeric_space(), budget=8), 0)
        assert calls, f"{engine} bypassed the shared validity filter"
        # The driver retries vetoed proposals and then falls back to
        # uniform feasible sampling (valid by construction, so exempt
        # from the filter) — the routing pin is therefore the rejected
        # proposal count, not the surviving configs.
        assert result.meta.get("invalid_proposals", 0) > 0, (
            f"{engine} never consulted the shared filter on its proposals"
        )
