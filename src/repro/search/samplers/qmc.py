"""Quasi-random (QMC) sampler: scrambled low-discrepancy sequences.

Quasi-random search keeps random search's embarrassing parallelism and
its tiny Table-III "Time" column while filling the space far more evenly
— the discrepancy of the first :math:`n` points decays like
:math:`O(\\log^d n / n)` instead of the Monte-Carlo
:math:`O(1/\\sqrt{n})`.  The proposal for database record :math:`i` is
simply point :math:`i` of a scrambled sequence, which makes every
determinism invariant trivial: the sequence index *is* the database
length, so kill-and-resume continues at exactly the next point and
parallel campaigns replay identically.

Scrambling is seeded from the member's run-stable stream (via
:meth:`~repro.search.samplers.base.BaseSampler.prepare`, whose seed
depends only on the member seed — never on progress):

* the primary path scrambles **Sobol'** points with
  :class:`scipy.stats.qmc.Sobol` (Owen-style linear matrix scramble +
  digital shift, seeded);
* when SciPy's ``qmc`` module is unavailable the sampler falls back to
  an internal **Halton** sequence scrambled with seeded per-dimension
  digit permutations — pure numpy, same interface, same invariants.

Proposals travel through ``space.decode``, so conditional masking and
discrete snapping apply; configurations that land on an infeasible
point are skipped by the driver's validity filter and replaced by its
uniform feasible fallback for that single index.
"""

from __future__ import annotations

import warnings
from typing import Any, Sequence

import numpy as np

from .base import BaseSampler, SamplerCapabilities, register_sampler

try:  # scipy >= 1.7; gated so the sampler degrades rather than imports-errors
    from scipy.stats import qmc as _scipy_qmc
except ImportError:  # pragma: no cover - environment-dependent
    _scipy_qmc = None

__all__ = ["QMCSampler"]

_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)


class _ScrambledHalton:
    """Seeded-permutation scrambled Halton fallback (pure numpy).

    Dimension ``j`` uses the ``j``-th prime base ``b`` and a fixed
    random permutation of the digits ``{0, .., b-1}`` drawn once from
    the scramble seed; point ``i`` is the permuted radical inverse of
    ``i + 1``.  The permutations fix ``pi(0) = 0`` so trailing zero
    digits stay zero and the radical inverse remains convergent — the
    classic Braaten–Weller digit scrambling.
    """

    def __init__(self, dim: int, rng: np.random.Generator):
        if dim > len(_PRIMES):
            raise ValueError(
                f"Halton fallback supports up to {len(_PRIMES)} dimensions"
            )
        self.bases = _PRIMES[:dim]
        self.perms = []
        for b in self.bases:
            perm = np.concatenate(([0], 1 + rng.permutation(b - 1)))
            self.perms.append(perm)

    def point(self, index: int) -> np.ndarray:
        out = np.empty(len(self.bases))
        for j, (b, perm) in enumerate(zip(self.bases, self.perms)):
            n, denom, value = index + 1, 1.0, 0.0
            while n > 0:
                n, digit = divmod(n, b)
                denom *= b
                value += perm[digit] / denom
            out[j] = value
        return out


@register_sampler
class QMCSampler(BaseSampler):
    """Scrambled low-discrepancy sampler (Sobol', Halton fallback).

    Parameters
    ----------
    engine:
        ``"auto"`` (Sobol' when SciPy provides it, else Halton),
        ``"sobol"`` (require SciPy), or ``"halton"`` (force the internal
        fallback; useful for differential testing).
    """

    name = "qmc"
    aliases = ("sobol",)
    capabilities = SamplerCapabilities(
        floats=True,
        integers=True,
        categorical=True,
        multivariate=False,
        conditional=True,
        warm_start=False,  # the sequence ignores observed objectives
    )

    def __init__(self, engine: str = "auto"):
        if engine not in ("auto", "sobol", "halton"):
            raise ValueError("engine must be 'auto', 'sobol', or 'halton'")
        if engine == "sobol" and _scipy_qmc is None:
            raise ValueError("engine='sobol' requires scipy.stats.qmc")
        self.engine = engine
        self._sobol_seed: int | None = None
        self._halton: _ScrambledHalton | None = None
        self._dim: int | None = None
        self._sobol = None  # scrambled engine, positioned after ``_last``
        self._last: tuple[int, np.ndarray] | None = None

    # ------------------------------------------------------------------
    def prepare(self, space, seed_seq: np.random.SeedSequence, budget: int) -> None:
        """Fix the scramble from the run-stable stream (``budget`` unused:
        the sequence is open-ended).

        Called once per run *and* once per resume with the same seed
        material, so the scrambled sequence — and therefore every
        proposal — is identical across a kill-and-resume boundary.  It
        also drops the cached engine and the remembered last point, so
        nothing from before a resume (or a dimension change) survives.
        """
        rng = np.random.default_rng(seed_seq)
        self._dim = space.dimension
        self._sobol = None
        self._last = None
        use_sobol = self.engine != "halton" and _scipy_qmc is not None
        if use_sobol:
            self._sobol_seed = int(rng.integers(0, 2**63))
            self._halton = None
        else:
            self._sobol_seed = None
            self._halton = _ScrambledHalton(space.dimension, rng)

    def _point(self, index: int) -> np.ndarray:
        """Point ``index`` of the scrambled sequence, as a fresh array.

        The point is a function of the scramble seed alone: the
        cached Sobol' engine serves the next index in one step, and any
        other index rebuilds it (construct, then fast-forward), which is
        the same computation the cache stands in for.  The last point is
        remembered, so the driver's same-index re-asks after an
        infeasible proposal cost a copy, not a rebuild.
        """
        if self._last is not None and self._last[0] == index:
            return self._last[1].copy()
        if self._sobol_seed is not None:
            engine = self._sobol
            if engine is None or index != self._last[0] + 1:
                engine = _scipy_qmc.Sobol(
                    d=self._dim, scramble=True, seed=self._sobol_seed
                )
                if index:
                    engine.fast_forward(index)
            with warnings.catch_warnings():
                # One point at a time is the whole design here; silence
                # scipy's power-of-two balance advisory.
                warnings.simplefilter("ignore", UserWarning)
                point = engine.random(1)[0]
            self._sobol = engine
        else:
            assert self._halton is not None
            point = self._halton.point(index)
        self._last = (index, point)
        return point.copy()

    def suggest(
        self, history: Sequence, space, rng: np.random.Generator
    ) -> dict[str, Any]:
        if self._dim != space.dimension:
            # Driver always calls prepare(); direct users get a lazy,
            # rng-seeded scramble (still deterministic per rng stream).
            seed_seq = np.random.SeedSequence(int(rng.integers(0, 2**63)))
            self.prepare(space, seed_seq, budget=0)
        return space.decode(self._point(len(history)))
