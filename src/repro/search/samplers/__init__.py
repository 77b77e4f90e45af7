"""Pluggable sampler architecture.

Every search engine — the paper's GP-BO, the Table-III baselines, the
local-search baselines, and the TPE / CMA-ES-lite / QMC samplers — is
published through one :class:`BaseSampler` interface with a declared
capability matrix, and the campaign executor dispatches
``SearchSpec.engine`` names purely through this registry.  All but the
two GP-based optimizers are pure ``suggest`` samplers run by the one
:class:`SamplerSearch` loop.  See ``docs/samplers.md`` for the
add-a-sampler quick start and ``tests/samplers/`` for the conformance
gauntlet every registered sampler must pass.
"""

from .adapters import BatchBOSamplerAdapter, GPBOSamplerAdapter
from .anneal import AnnealSampler
from .base import (
    BaseSampler,
    SamplerCapabilities,
    canonical_engine_name,
    register_sampler,
    registered_samplers,
    sampler_by_name,
    space_features,
    unsupported_features,
)
from .cmaes import CmaEsLiteSampler
from .driver import SamplerSearch
from .grid import GridSampler
from .hillclimb import HillClimbSampler
from .qmc import QMCSampler
from .random_sampler import RandomSampler
from .tpe import TPESampler

__all__ = [
    "BaseSampler",
    "SamplerCapabilities",
    "SamplerSearch",
    "register_sampler",
    "registered_samplers",
    "sampler_by_name",
    "canonical_engine_name",
    "space_features",
    "unsupported_features",
    "RandomSampler",
    "GridSampler",
    "HillClimbSampler",
    "AnnealSampler",
    "TPESampler",
    "CmaEsLiteSampler",
    "QMCSampler",
    "GPBOSamplerAdapter",
    "BatchBOSamplerAdapter",
]
