"""The pluggable sampler interface: capabilities, registry, base class.

Every search engine in :mod:`repro` is published through this module as a
:class:`BaseSampler` subclass with a declared :class:`SamplerCapabilities`
matrix (the Optuna feature-matrix idea: which parameter types, whether
proposals are multivariate, whether conditional spaces and warm-start
history are supported).  The campaign executor dispatches engines purely
through :func:`sampler_by_name`, so adding a sampler is: subclass,
``@register_sampler``, pass the conformance gauntlet in
``tests/samplers/``.

Two kinds of sampler live behind the one interface:

* **suggest-based samplers** (random, grid, hill climbing, annealing,
  TPE, CMA-ES-lite, QMC) implement :meth:`BaseSampler.suggest` and
  inherit the default :meth:`BaseSampler.run_search`, which drives them
  through the generic
  :class:`~repro.search.samplers.driver.SamplerSearch` loop — resume
  replay, breaker quarantine, telemetry, and per-iteration seed streams
  included;
* **engine adapters** (GP-BO, batch BO) override :meth:`run_search` to
  construct their optimizer exactly as the executor always has,
  byte-for-byte, so every GP-BO fingerprint and simulated Table-III
  ledger number is unchanged.

The candidate-validity check lives here too
(:meth:`BaseSampler.candidate_is_valid`): one definition of "this
configuration may be evaluated" that the driver applies to every
proposal — in-domain, constraint-satisfying (conditional masking
included via ``space.is_valid``), and not quarantined by the circuit
breaker.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from ...space import Categorical, ConditionalSpace, Constant, Integer, Ordinal, Real

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...bo.history import Evaluation, EvaluationDatabase
    from ...space import SearchSpace
    from ..result import SearchResult
    from ..runner import SearchSpec

__all__ = [
    "SamplerCapabilities",
    "BaseSampler",
    "register_sampler",
    "sampler_by_name",
    "registered_samplers",
    "canonical_engine_name",
    "space_features",
    "unsupported_features",
]


@dataclass(frozen=True)
class SamplerCapabilities:
    """Feature matrix declared by every sampler.

    Attributes
    ----------
    floats / integers / categorical:
        Parameter types the sampler can propose natively.  ``integers``
        covers :class:`~repro.space.Integer` and
        :class:`~repro.space.Ordinal` (both are ordered numeric grids).
    multivariate:
        Proposals model cross-parameter structure (a joint surrogate or
        covariance) rather than treating axes independently.
    conditional:
        :class:`~repro.space.ConditionalSpace` masking is honored — the
        sampler never proposes a value for an inactive parameter.
    warm_start:
        Seeded history (phase-1 observations, resumed checkpoints) is
        consumed by the proposal rule rather than ignored.
    """

    floats: bool = True
    integers: bool = True
    categorical: bool = True
    multivariate: bool = False
    conditional: bool = True
    warm_start: bool = True


def space_features(space: "SearchSpace") -> dict[str, bool]:
    """Which capability axes ``space`` actually exercises."""
    feats = {
        "floats": False, "integers": False, "categorical": False,
        "conditional": isinstance(space, ConditionalSpace) and bool(space.conditions),
    }
    for p in space.parameters:
        if isinstance(p, Real):
            feats["floats"] = True
        elif isinstance(p, (Integer, Ordinal)):
            feats["integers"] = True
        elif isinstance(p, Categorical):
            feats["categorical"] = True
        elif isinstance(p, Constant):
            continue  # contributes no search dimension to support
    return feats


def unsupported_features(
    capabilities: SamplerCapabilities, space: "SearchSpace"
) -> list[str]:
    """Features ``space`` needs that ``capabilities`` does not declare."""
    feats = space_features(space)
    return sorted(
        name for name, needed in feats.items()
        if needed and not getattr(capabilities, name)
    )


class BaseSampler(ABC):
    """Interface every search engine is published through.

    Class attributes
    ----------------
    name:
        Canonical registry name (the CLI's ``--sampler`` value and
        ``SearchSpec.engine`` string).
    aliases:
        Alternative engine names resolving to this sampler (e.g. the
        historical ``"bo"`` for ``"gp-bo"``).
    capabilities:
        Declared :class:`SamplerCapabilities` feature matrix.
    """

    name: str = ""
    aliases: Sequence[str] = ()
    capabilities: SamplerCapabilities = SamplerCapabilities()

    #: ``SearchSpec.engine_options`` keys consumed by the generic driver
    #: rather than the sampler constructor.
    _DRIVER_OPTIONS = (
        "parallelism",
        "evaluation_timeout",
        "fallback",
    )

    # ------------------------------------------------------------------
    # The suggest API
    # ------------------------------------------------------------------
    def prepare(
        self,
        space: "SearchSpace",
        seed_seq: np.random.SeedSequence,
        budget: int,
    ) -> None:
        """One-time hook before a search run (and after a resume).

        ``seed_seq`` is a run-stable stream: it depends only on the
        member's seed, never on how far the search progressed, so state
        derived here (e.g. QMC scrambling) is identical across a
        kill-and-resume boundary.  ``budget`` is the member's evaluation
        budget (grid stride, annealing schedule).  Default: no-op.
        """

    @abstractmethod
    def suggest(
        self,
        history: Sequence["Evaluation"],
        space: "SearchSpace",
        rng: np.random.Generator,
    ) -> dict[str, Any] | None:
        """Propose the next configuration, or ``None`` to end the search.

        ``history`` is the full evaluation record so far (failures
        included, in database order), ``rng`` a per-iteration generator
        derived from the evaluation index — a sampler that computes its
        proposal from ``(history, rng)`` alone is automatically
        bit-identical across kill-and-resume and parallel/sequential
        execution.  The returned configuration need not be feasible; the
        driver filters through :meth:`candidate_is_valid` and retries.
        ``None`` ends a finite design (an exhausted grid).
        """

    # ------------------------------------------------------------------
    # Shared candidate-validity filter (the deduplicated check)
    # ------------------------------------------------------------------
    @staticmethod
    def candidate_is_valid(
        space: "SearchSpace", config: Mapping[str, Any], breaker=None
    ) -> bool:
        """One shared definition of "this candidate may be evaluated".

        ``space.is_valid`` covers domains, constraints, and conditional
        masking; the optional circuit ``breaker`` vetoes quarantined
        cells.  The driver routes every proposal through here, and the
        grid sampler its enumeration, instead of re-implementing it.
        """
        if not space.is_valid(config):
            return False
        return breaker is None or breaker.allows(config)

    # ------------------------------------------------------------------
    # Execution: default = the generic driver; the BO adapters override
    # ------------------------------------------------------------------
    @classmethod
    def run_search(
        cls,
        spec: "SearchSpec",
        seed: np.random.SeedSequence,
        objective,
        database: "EvaluationDatabase | None",
        tracer=None,
    ) -> "SearchResult":
        """Execute one member search with this sampler.

        The default implementation splits ``spec.engine_options`` into
        driver options (:attr:`_DRIVER_OPTIONS`) and sampler constructor
        keywords, then drives :meth:`suggest` through
        :class:`~repro.search.samplers.driver.SamplerSearch`.
        """
        from .driver import SamplerSearch  # deferred: driver imports base

        opts = dict(spec.engine_options)
        driver_kwargs = {
            k: opts.pop(k) for k in cls._DRIVER_OPTIONS if k in opts
        }
        sampler = cls(**opts)
        search = SamplerSearch(
            spec.space,
            objective,
            sampler,
            max_evaluations=spec.budget(),
            random_state=seed,
            quarantine_threshold=spec.quarantine_threshold,
            quarantine_resolution=spec.quarantine_resolution,
            **({"database": database} if database is not None else {}),
            **({"tracer": tracer} if tracer is not None else {}),
            **driver_kwargs,
        )
        result = search.run()
        result.tuned_names = tuple(spec.space.names)
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, type[BaseSampler]] = {}
_ALIASES: dict[str, str] = {}


def register_sampler(cls: type[BaseSampler]) -> type[BaseSampler]:
    """Class decorator: publish a sampler under its name (and aliases)."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} needs a non-empty name")
    for key in (cls.name, *cls.aliases):
        existing = _ALIASES.get(key, key)
        if key in _REGISTRY or (existing in _REGISTRY and existing != cls.name):
            raise ValueError(f"sampler name {key!r} already registered")
    _REGISTRY[cls.name] = cls
    for alias in cls.aliases:
        _ALIASES[alias] = cls.name
    return cls


def canonical_engine_name(name: str) -> str:
    """Resolve an engine name or alias to its canonical registry name."""
    return _ALIASES.get(name, name)


def sampler_by_name(name: str) -> type[BaseSampler]:
    """Look up a sampler class by name or alias.

    Raises ``ValueError`` (matching the executor's historical contract)
    for unknown names.
    """
    cls = _REGISTRY.get(canonical_engine_name(name))
    if cls is None:
        raise ValueError(f"unknown engine {name!r}")
    return cls


def registered_samplers() -> dict[str, type[BaseSampler]]:
    """All registered samplers by canonical name (insertion order)."""
    return dict(_REGISTRY)
