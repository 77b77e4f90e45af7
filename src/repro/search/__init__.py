"""Search engines and campaign orchestration.

The :class:`SearchCampaign` runner executes a *set* of searches as a
strategy with the paper's parallel-wall-clock cost accounting.  Every
engine — the GP-based optimizers and the suggest-based samplers in
:mod:`repro.search.samplers` (random, grid, hill climbing, annealing,
TPE, CMA-ES-lite, QMC), which all run on the one :class:`SamplerSearch`
loop — is published through the :class:`BaseSampler` registry and
selected by ``SearchSpec.engine`` name.
"""

from .cache import MemoizingObjective, RetryingObjective, canonical_key
from .evaluate import evaluate_config, schedule_makespan
from .executor import CampaignExecutor, run_search_spec, spec_seed_sequences
from .result import CampaignResult, SearchResult
from .runner import SearchCampaign, SearchSpec
from .samplers import (
    AnnealSampler,
    BaseSampler,
    CmaEsLiteSampler,
    GridSampler,
    HillClimbSampler,
    QMCSampler,
    RandomSampler,
    SamplerCapabilities,
    SamplerSearch,
    TPESampler,
    canonical_engine_name,
    register_sampler,
    registered_samplers,
    sampler_by_name,
)
from .scalarize import Scalarization, ScalarizedObjective
from .store import EvaluationStore, StoredEvaluation, space_fingerprint

__all__ = [
    "SearchResult",
    "CampaignResult",
    "SearchCampaign",
    "SearchSpec",
    "CampaignExecutor",
    "run_search_spec",
    "spec_seed_sequences",
    "MemoizingObjective",
    "RetryingObjective",
    "canonical_key",
    "EvaluationStore",
    "StoredEvaluation",
    "space_fingerprint",
    "evaluate_config",
    "schedule_makespan",
    "BaseSampler",
    "SamplerCapabilities",
    "SamplerSearch",
    "RandomSampler",
    "GridSampler",
    "HillClimbSampler",
    "AnnealSampler",
    "TPESampler",
    "CmaEsLiteSampler",
    "QMCSampler",
    "register_sampler",
    "registered_samplers",
    "sampler_by_name",
    "canonical_engine_name",
    "Scalarization",
    "ScalarizedObjective",
]
