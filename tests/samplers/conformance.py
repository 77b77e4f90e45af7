"""Shared conformance gauntlet for every registered sampler.

This module is the enforcement layer of the pluggable-sampler
architecture: :data:`GAUNTLET_ENGINES` lists every engine that must
honor the repo's hard invariants, and the helpers here express each
invariant once so ``test_conformance.py`` can parametrize the whole
matrix.  Adding a sampler to the registry means adding its name here
(or inheriting it via :func:`repro.search.samplers.registered_samplers`)
and passing the gauntlet — nothing else.

Everything at module level is picklable on purpose: the
parallel==sequential case round-trips member specs through a real
process pool.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.bo import EvaluationDatabase
from repro.search import SearchCampaign, SearchSpec, run_search_spec
from repro.search.samplers import registered_samplers
from repro.space import (
    Categorical,
    Condition,
    ConditionalSpace,
    Integer,
    Real,
    SearchSpace,
)

#: Engines that must pass the full gauntlet: every registered sampler.
GAUNTLET_ENGINES = (
    "gp-bo",
    "batch-bo",
    "random",
    "grid",
    "hillclimb",
    "anneal",
    "tpe",
    "cma-es-lite",
    "qmc",
)


def gauntlet_covers_registry() -> bool:
    return set(GAUNTLET_ENGINES) == set(registered_samplers())


# ----------------------------------------------------------------------
# Spaces
# ----------------------------------------------------------------------

def numeric_space(label: str = "conf") -> SearchSpace:
    """All-numeric space every sampler supports natively."""
    return SearchSpace(
        [Real("x", 0.0, 1.0), Real("y", -1.0, 2.0), Integer("n", 1, 6)],
        name=label,
    )


def unit_square(label: str = "conf-square") -> SearchSpace:
    """``x, y`` in ``[0, 1]``: the quarantine invariant's space."""
    return SearchSpace([Real("x", 0.0, 1.0), Real("y", 0.0, 1.0)], name=label)


def mixed_space(label: str = "conf-mixed") -> SearchSpace:
    """Adds a categorical axis (CMA-ES-lite falls back explicitly)."""
    return SearchSpace(
        [Real("x", 0.0, 1.0), Categorical("alg", ("a", "b", "c"))],
        name=label,
    )


def conditional_space(label: str = "conf-cond") -> ConditionalSpace:
    """Parent/child space: ``depth`` and ``width`` only exist under
    ``mode='deep'``; ``x`` is unconditional."""
    return ConditionalSpace(
        [
            Categorical("mode", ("flat", "deep")),
            Integer("depth", 1, 4),
            Integer("width", 2, 8),
            Real("x", 0.0, 1.0),
        ],
        conditions={
            "depth": Condition("mode", ("deep",)),
            "width": Condition("mode", ("deep",)),
        },
        name=label,
    )


# ----------------------------------------------------------------------
# Objectives (module-level classes: picklable for the process pool)
# ----------------------------------------------------------------------

class Bowl:
    """Deterministic mixed-type quadratic bowl, always positive."""

    def __init__(self, center: float = 0.35):
        self.center = center

    def __call__(self, cfg):
        total = 0.1
        for value in cfg.values():
            if isinstance(value, str):
                total += 0.05 * (len(value) % 3)
            else:
                total += (float(value) - self.center) ** 2
        return total


class PoisonedLeft:
    """:class:`Bowl` that raises ``ValueError`` (a PERMANENT failure) for
    ``x < 0.3``, so the breaker trips cells on the left edge."""

    def __call__(self, cfg):
        if cfg["x"] < 0.3:
            raise ValueError("poisoned region")
        return Bowl()(cfg)


class KillAfter:
    """Objective that raises ``KeyboardInterrupt`` after N calls.

    Simulates a mid-run kill for the resume invariant.  Deliberately a
    hard, un-classified interrupt: nothing in the retry/failure stack
    may swallow it.
    """

    def __init__(self, inner, n_calls: int):
        self.inner = inner
        self.n_calls = n_calls
        self.calls = 0

    def __call__(self, cfg):
        self.calls += 1
        if self.calls > self.n_calls:
            raise KeyboardInterrupt
        return self.inner(cfg)


# ----------------------------------------------------------------------
# Runner + fingerprint helpers
# ----------------------------------------------------------------------

def make_spec(engine: str, space=None, *, budget: int = 10, **kwargs) -> SearchSpec:
    return SearchSpec(
        space=space if space is not None else numeric_space(),
        objective=kwargs.pop("objective", Bowl()),
        engine=engine,
        max_evaluations=budget,
        **kwargs,
    )


def run_once(spec: SearchSpec, seed: int, **kwargs):
    """One member search under the gauntlet's warning policy.

    Capability-fallback ``UserWarning``s are expected for samplers on
    spaces they do not support natively; everything else propagates.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return run_search_spec(spec, np.random.SeedSequence(seed), **kwargs)


def db_fingerprint(database: EvaluationDatabase) -> tuple:
    """Byte-comparable identity of an evaluation database."""
    return tuple(
        (
            tuple(sorted((k, repr(v)) for k, v in rec.config.items())),
            repr(rec.objective),
            repr(rec.cost),
            str(rec.status),
        )
        for rec in database
    )


def result_fingerprint(result) -> tuple:
    fp_db = (
        db_fingerprint(result.database) if result.database is not None else None
    )
    return (
        tuple(sorted((k, repr(v)) for k, v in result.best_config.items())),
        repr(result.best_objective),
        repr(result.search_time),
        fp_db,
    )


def campaign_fingerprints(engine: str, *, seed: int, parallel: bool) -> list:
    """Fingerprints of a 2-member campaign (the parallel== sequential case).

    Member spaces carry distinct names so the stable member keys derive
    distinct seeds, exactly like a real strategy campaign.
    """
    specs = [
        make_spec(engine, numeric_space("A"), budget=8),
        make_spec(engine, numeric_space("B"), budget=8, objective=Bowl(0.6)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        result = SearchCampaign(
            specs, random_state=seed, parallel=parallel,
            n_workers=2 if parallel else None,
        ).run()
    if parallel:
        assert result.executed_parallel, (
            "pool fell back in-process; the parallel case would be vacuous"
        )
    return [result_fingerprint(s) for s in result.searches]


def assert_conditional_validity(space: ConditionalSpace, database) -> None:
    """No record may activate a dead branch or violate the space."""
    for rec in database:
        assert space.is_valid(rec.config), (
            f"invalid configuration evaluated: {rec.config}"
        )
        for name in space.names:
            if not space.is_active(name, rec.config):
                assert rec.config[name] == space.inactive_value(name), (
                    f"inactive parameter {name!r} not pinned in {rec.config}"
                )
