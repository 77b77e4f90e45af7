"""The conformance gauntlet: every registered sampler, same invariants.

Each test class is one invariant; each is parametrized over
:data:`~tests.samplers.conformance.GAUNTLET_ENGINES` (all nine
engines) and over seeds — seed 0 always runs, the extra seeds ride in
the CI ``sampler-conformance`` job via the ``slow`` marker.
"""

import pytest

from repro.bo import EvaluationDatabase
from repro.search import SearchCampaign, SearchSpec

from .conformance import (
    GAUNTLET_ENGINES,
    Bowl,
    KillAfter,
    PoisonedLeft,
    assert_conditional_validity,
    campaign_fingerprints,
    conditional_space,
    db_fingerprint,
    gauntlet_covers_registry,
    make_spec,
    mixed_space,
    numeric_space,
    result_fingerprint,
    run_once,
    unit_square,
)

SEEDS = [0, pytest.param(1, marks=pytest.mark.slow),
         pytest.param(2, marks=pytest.mark.slow)]


def test_gauntlet_covers_every_registered_sampler():
    """A new sampler must opt into the gauntlet; none is exempt."""
    assert gauntlet_covers_registry(), (
        "registered samplers changed: update GAUNTLET_ENGINES in "
        "tests/samplers/conformance.py"
    )


@pytest.mark.parametrize("engine", GAUNTLET_ENGINES)
@pytest.mark.parametrize("seed", SEEDS)
class TestDeterminism:
    def test_same_seed_bit_identical(self, engine, seed):
        a = run_once(make_spec(engine), seed)
        b = run_once(make_spec(engine), seed)
        assert result_fingerprint(a) == result_fingerprint(b)

    def test_engine_label_matches_registry_contract(self, engine, seed):
        r = run_once(make_spec(engine), seed)
        # Result labels keep their historical names ("bo", not "gp-bo"),
        # pinning ledger/report compatibility across the refactor.
        expected = {"gp-bo": "bo"}.get(engine, engine)
        assert r.engine == expected


@pytest.mark.parametrize("engine", GAUNTLET_ENGINES)
@pytest.mark.parametrize("seed", SEEDS)
class TestKillAndResume:
    def test_resume_bit_identical_to_uninterrupted(
        self, engine, seed, tmp_path
    ):
        budget = 12
        space = numeric_space("KR")
        uninterrupted = run_once(
            make_spec(engine, space, budget=budget), seed
        )

        ck = tmp_path / "member.jsonl"
        killer = KillAfter(Bowl(), n_calls=7)
        with pytest.raises(KeyboardInterrupt):
            run_once(
                make_spec(engine, space, budget=budget, objective=killer),
                seed, checkpoint=str(ck),
            )
        persisted = EvaluationDatabase(ck)
        assert 0 < len(persisted) < budget, "kill must land mid-run"

        resumed = run_once(
            make_spec(engine, space, budget=budget), seed,
            checkpoint=str(ck),
        )
        assert resumed.database is not None
        assert len(resumed.database) == budget
        assert db_fingerprint(resumed.database) == db_fingerprint(
            uninterrupted.database
        )
        assert resumed.best_config == uninterrupted.best_config
        assert resumed.best_objective == uninterrupted.best_objective


@pytest.mark.parametrize("engine", GAUNTLET_ENGINES)
@pytest.mark.parametrize("seed", SEEDS)
class TestKillAndResumeUnderQuarantine:
    def test_resume_after_a_trip_bit_identical(self, engine, seed, tmp_path):
        """Breaker state and redraws must replay too: kill a search with
        a poisoned left edge under the breaker after 15 calls (by then
        most engines have tripped a cell), resume it from its
        checkpoint, and require the records of an uninterrupted run."""

        def spec(objective):
            return make_spec(
                engine, unit_square("KQ"), budget=30, objective=objective,
                quarantine_threshold=2, quarantine_resolution=4,
            )

        uninterrupted = run_once(spec(PoisonedLeft()), seed)
        ck = tmp_path / "member.jsonl"
        with pytest.raises(KeyboardInterrupt):
            run_once(spec(KillAfter(PoisonedLeft(), n_calls=15)), seed,
                     checkpoint=str(ck))
        assert 0 < len(EvaluationDatabase(ck)) < len(uninterrupted.database)
        resumed = run_once(spec(PoisonedLeft()), seed, checkpoint=str(ck))
        assert db_fingerprint(resumed.database) == db_fingerprint(
            uninterrupted.database
        )


@pytest.mark.parametrize("engine", GAUNTLET_ENGINES)
@pytest.mark.parametrize("seed", SEEDS)
class TestParallelEqualsSequential:
    def test_campaign_members_bit_identical(self, engine, seed):
        seq = campaign_fingerprints(engine, seed=seed, parallel=False)
        par = campaign_fingerprints(engine, seed=seed, parallel=True)
        assert seq == par


@pytest.mark.parametrize("engine", GAUNTLET_ENGINES)
@pytest.mark.parametrize("seed", SEEDS)
class TestConditionalValidity:
    def test_never_proposes_inactive_parameter(self, engine, seed):
        space = conditional_space()
        r = run_once(make_spec(engine, space, budget=10), seed)
        assert r.database is not None and len(r.database) > 0
        assert_conditional_validity(space, r.database)


@pytest.mark.parametrize("engine", GAUNTLET_ENGINES)
@pytest.mark.parametrize("seed", SEEDS)
class TestMemoizationCompatibility:
    def test_memoize_is_transparent(self, engine, seed):
        cold = run_once(make_spec(engine), seed)
        memo = run_once(make_spec(engine, memoize=True), seed)
        assert memo.best_config == cold.best_config
        assert memo.best_objective == cold.best_objective
        assert len(memo.database) == len(cold.database)
        for a, b in zip(cold.database, memo.database):
            assert a.config == b.config
            assert a.objective == b.objective
            assert a.cost == b.cost


@pytest.mark.parametrize("engine", GAUNTLET_ENGINES)
class TestTelemetry:
    def test_emits_search_span_and_eval_events(self, engine):
        from repro.telemetry import MemorySink, NullClock, Telemetry

        sink = MemorySink()
        telemetry = Telemetry([sink], clock=NullClock())
        bare = run_once(make_spec(engine), 0)
        traced = run_once(
            make_spec(engine), 0, telemetry=telemetry, scope="gauntlet"
        )
        # Pure observer: identical results with telemetry on or off.
        assert result_fingerprint(traced) == result_fingerprint(bare)
        names = [
            e.get("name") for e in sink.events if e.get("kind") == "event"
        ]
        assert "search_start" in names
        spans = [
            e for e in sink.events
            if e.get("kind") == "span" and e.get("name") == "search"
        ]
        assert spans, f"no search span among events {sorted(set(names))}"
        evals = [e for e in sink.events if e.get("kind") == "eval"]
        assert len(evals) == len(traced.database)


class TestMixedSpaceSmoke:
    """Every engine must *run* on a mixed space (fallback or native)."""

    @pytest.mark.parametrize("engine", GAUNTLET_ENGINES)
    def test_runs_on_categorical_space(self, engine):
        r = run_once(make_spec(engine, mixed_space(), budget=8), 0)
        assert len(r.database) > 0
        assert r.best_objective == r.best_objective  # not NaN


class TestWarmStartCapability:
    """Samplers declaring warm_start must actually use seeded history."""

    @pytest.mark.parametrize("engine", ["tpe", "cma-es-lite", "hillclimb", "anneal"])
    def test_seeded_history_changes_proposals(self, engine):
        # Seed enough good history at a known optimum that a model-based
        # sampler concentrates near it; the cold run cannot.
        import numpy as np

        from repro.bo import Evaluation

        space = numeric_space("WS")
        rng = np.random.default_rng(0)
        seeds = []
        for _ in range(12):
            cfg = space.sample(rng)
            cfg["x"] = float(np.clip(0.35 + 0.01 * rng.standard_normal(), 0, 1))
            seeds.append(Evaluation(config=cfg, objective=Bowl()(cfg), cost=0.1))
        warm = run_once(
            make_spec(engine, space, budget=16, warm_start=seeds), 3
        )
        cold = run_once(make_spec(engine, space, budget=16), 3)
        assert warm.meta.get("warm_seeded") == 12
        assert db_fingerprint(warm.database) != db_fingerprint(cold.database)
