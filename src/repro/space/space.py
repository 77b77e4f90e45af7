"""The :class:`SearchSpace` container: parameters + constraints.

A search space owns an ordered list of parameters and a list of constraints,
and provides the primitives every engine in this package builds on:

* constrained uniform sampling (rejection with a retry budget),
* encode/decode between configuration dicts and points in ``[0, 1]^d``
  (the representation the GP surrogate operates on),
* sub-space projection (``subspace``) used by the search planner when it
  splits or merges routine searches and pins dropped parameters,
* neighborhood enumeration for local acquisition refinement,
* cardinality accounting used to report the paper's Table IV space sizes.
"""

from __future__ import annotations

import math
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from .constraints import Constraint, check_all
from .parameters import Parameter, Real

__all__ = ["SearchSpace", "InfeasibleSpaceError"]


class InfeasibleSpaceError(RuntimeError):
    """Raised when rejection sampling cannot find a feasible configuration
    within the retry budget — usually a sign of over-aggressive constraints,
    which the paper warns 'could confine the search within local minima and
    create additional overhead'."""


class SearchSpace:
    """An ordered, possibly constrained collection of tuning parameters.

    Parameters
    ----------
    parameters:
        The tunable parameters, in a stable order (the order defines the
        axes of the unit-cube encoding).
    constraints:
        Validity predicates over configurations.  Only constraints whose
        referenced names all exist in this space are enforced.
    name:
        Label used in reports (e.g. ``"Group 2+3"``).
    """

    def __init__(
        self,
        parameters: Sequence[Parameter],
        constraints: Sequence[Constraint] = (),
        name: str = "space",
    ):
        params = list(parameters)
        if not params:
            raise ValueError("a search space needs at least one parameter")
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate parameter names: {dupes}")
        self.parameters: list[Parameter] = params
        self.constraints: list[Constraint] = list(constraints)
        self.name = name
        self._by_name = {p.name: p for p in params}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        """Number of tunable parameters (the ``d`` of the paper's d-dim
        searches)."""
        return len(self.parameters)

    @property
    def names(self) -> list[str]:
        return [p.name for p in self.parameters]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Parameter:
        return self._by_name[name]

    def __len__(self) -> int:
        return len(self.parameters)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SearchSpace({self.name!r}, d={self.dimension})"

    def cardinality(self) -> float:
        """Total number of raw grid configurations (``inf`` if any parameter
        is continuous).  Constraints are *not* applied — this matches how the
        paper's Table IV reports `41,943,040 x N_nstb x N_nkpb x N_nspb`
        before validity filtering."""
        total = 1.0
        for p in self.parameters:
            if isinstance(p, Real):
                return math.inf
            total *= p.cardinality  # type: ignore[attr-defined]
        return total

    # ------------------------------------------------------------------
    # Validity
    # ------------------------------------------------------------------
    def is_valid(self, config: Mapping[str, Any]) -> bool:
        """True when ``config`` assigns an in-domain value to every parameter
        and satisfies every applicable constraint."""
        for p in self.parameters:
            if p.name not in config or not p.contains(config[p.name]):
                return False
        return check_all(self.constraints, config)

    def validate(self, config: Mapping[str, Any]) -> None:
        """Raise ``ValueError`` with a precise message when invalid."""
        for p in self.parameters:
            if p.name not in config:
                raise ValueError(f"missing parameter {p.name!r}")
            if not p.contains(config[p.name]):
                raise ValueError(
                    f"value {config[p.name]!r} outside domain of parameter {p.name!r}"
                )
        check_all(self.constraints, config, strict=True)

    def _constraints_ok(self, config: Mapping[str, Any]) -> bool:
        """Constraint check hook; subclasses fold in pinned values."""
        return check_all(self.constraints, config)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def _raw_batch(
        self, n: int, rng: np.random.Generator
    ) -> Iterator[dict[str, Any]]:
        """``n`` unconstrained configurations via one vectorized draw per
        parameter (constraints not yet applied).

        The draws happen here, eagerly; each configuration dict is built
        only when the caller's iteration reaches its row, so a caller
        that stops early never pays for the rest of the chunk.
        """
        columns = [p.sample_batch(n, rng) for p in self.parameters]
        names = self.names
        return (dict(zip(names, row)) for row in zip(*columns))

    def _repair_batch(
        self, configs: list[dict[str, Any]], rng: np.random.Generator, *, rounds: int = 40
    ) -> list[dict[str, Any]]:
        """Per-constraint repair sampling.

        For each violated constraint, only that constraint's parameters
        are redrawn.  When constraints touch disjoint parameter groups
        (the typical HPC shape — e.g. one occupancy rule per kernel), the
        feasible set is a product of per-group feasible sets and this
        procedure samples it *exactly* uniformly, while whole-config
        rejection would need the product of all acceptance rates.
        Overlapping constraints are handled by iterating to a fixpoint;
        configurations still invalid after ``rounds`` are dropped.
        """
        pending = list(configs)
        for _ in range(rounds):
            broken = False
            for c in self.constraints:
                if not c.applies_to(self.names) and not isinstance(self, PinnedSubspace):
                    continue
                bad = [
                    cfg for cfg in pending
                    if not c.is_satisfied(self._completed_view(cfg))
                ]
                if not bad:
                    continue
                broken = True
                names = [n for n in c.names if n in self._by_name]
                for name in names:
                    vals = self._by_name[name].sample_batch(len(bad), rng)
                    for cfg, v in zip(bad, vals):
                        cfg[name] = v
            if not broken:
                return pending
        return [cfg for cfg in pending if self._constraints_ok(cfg)]

    def _completed_view(self, config: Mapping[str, Any]) -> Mapping[str, Any]:
        """Hook: subclasses merge pinned values before constraint checks."""
        return config

    def sample(
        self,
        rng: np.random.Generator,
        *,
        max_rejects: int = 10_000,
    ) -> dict[str, Any]:
        """Draw one feasible configuration by rejection sampling."""
        try:
            return self.sample_batch(1, rng, max_rejects=max_rejects)[0]
        except InfeasibleSpaceError:
            raise InfeasibleSpaceError(
                f"no feasible configuration found in {max_rejects} draws for "
                f"{self.name!r}"
            ) from None

    def sample_batch(
        self,
        n: int,
        rng: np.random.Generator,
        *,
        unique: bool = False,
        max_rejects: int = 10_000,
    ) -> list[dict[str, Any]]:
        """Draw ``n`` feasible configurations (vectorized rejection
        sampling: whole chunks are drawn per parameter, then filtered
        through the constraints).

        Each chunk's rows are walked once: a row's configuration is
        built when it is reached, its constraints are checked once, and
        the walk stops at ``n`` accepted.  The random draws are the whole
        chunk's either way, so where the walk stops never moves a later
        draw.  Repair sampling (:meth:`_repair_batch`) redraws the
        chunk's invalid rows only when the whole chunk yielded fewer
        valid rows than ``min(chunk, n - accepted so far)``.

        With ``unique=True`` duplicates (by parameter values) are
        filtered, falling back to returning fewer than ``n`` when the
        feasible set is smaller than requested.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        out: list[dict[str, Any]] = []
        seen: set[tuple] = set()
        names = self.names

        def accept(cfg: dict[str, Any]) -> bool:
            """Append ``cfg`` unless it repeats; True once ``out`` is full."""
            if unique:
                key = tuple(cfg[k] for k in names)
                if key in seen:
                    return False
                seen.add(key)
            out.append(cfg)
            return len(out) >= n

        attempts = 0
        chunk = max(64, 2 * n)
        while len(out) < n and attempts < max_rejects:
            take = min(chunk, max_rejects - attempts)
            attempts += take
            need = min(take, n - len(out))
            n_valid = 0
            invalid: list[dict[str, Any]] = []
            for cfg in self._raw_batch(take, rng):
                if not self._constraints_ok(cfg):
                    invalid.append(cfg)
                    continue
                n_valid += 1
                if accept(cfg):
                    break
            else:
                # Only a walk that did not fill ``out`` gets here: one
                # that stops early has seen at least ``need`` valid rows.
                if n_valid < need:
                    for cfg in self._repair_batch(invalid, rng):
                        if accept(cfg):
                            break
            chunk = min(4 * chunk, 8192)
        if not out:
            raise InfeasibleSpaceError(
                f"could not sample any configuration for {self.name!r}"
            )
        return out

    def latin_hypercube(
        self,
        n: int,
        rng: np.random.Generator,
        *,
        max_rejects: int = 200,
    ) -> list[dict[str, Any]]:
        """Space-filling initial design (LHS) with constraint repair.

        BO initialization benefits from stratified coverage; infeasible LHS
        points are replaced by rejection-sampled feasible ones so the design
        always has exactly ``n`` points.
        """
        d = self.dimension
        # Stratified unit-cube samples: one point per row-stratum per axis.
        u = (rng.permuted(np.tile(np.arange(n), (d, 1)), axis=1).T + rng.random((n, d))) / n
        out: list[dict[str, Any]] = []
        for row in u:
            cfg = self.decode(row)
            if self._constraints_ok(cfg):
                out.append(cfg)
            else:
                try:
                    out.append(self.sample(rng, max_rejects=max_rejects * 50))
                except InfeasibleSpaceError:
                    continue
        if not out:
            raise InfeasibleSpaceError(f"LHS produced no feasible points for {self.name!r}")
        return out

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self, config: Mapping[str, Any]) -> np.ndarray:
        """Map a configuration to a point in ``[0, 1]^d`` (parameter order)."""
        return np.array([p.to_unit(config[p.name]) for p in self.parameters], dtype=float)

    def decode(self, x: np.ndarray | Sequence[float]) -> dict[str, Any]:
        """Inverse of :meth:`encode`; snaps discrete axes to their grid."""
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.dimension,):
            raise ValueError(f"expected shape ({self.dimension},), got {arr.shape}")
        return {p.name: p.from_unit(float(u)) for p, u in zip(self.parameters, arr)}

    def encode_batch(self, configs: Sequence[Mapping[str, Any]]) -> np.ndarray:
        """Vectorized :meth:`encode` over many configurations -> ``(n, d)``.

        One column operation per parameter (``Parameter.to_unit_batch``)
        instead of a per-configuration Python loop; the result is bitwise
        equal to ``np.stack([self.encode(c) for c in configs])`` because
        the scalar and batch codecs share the same numpy ufuncs.  This is
        the encoding path the BO candidate pool rides every iteration.
        """
        configs = list(configs)
        if not configs:
            return np.empty((0, self.dimension))
        out = np.empty((len(configs), self.dimension))
        for j, p in enumerate(self.parameters):
            out[:, j] = p.to_unit_batch([c[p.name] for c in configs])
        return out

    def decode_batch(self, X: np.ndarray) -> list[dict[str, Any]]:
        """Vectorized :meth:`decode` over ``(n, d)`` encoded rows."""
        arr = np.atleast_2d(np.asarray(X, dtype=float))
        if arr.shape[1] != self.dimension:
            raise ValueError(
                f"expected shape (n, {self.dimension}), got {arr.shape}"
            )
        columns = [
            p.from_unit_batch(arr[:, j]) for j, p in enumerate(self.parameters)
        ]
        names = self.names
        return [dict(zip(names, row)) for row in zip(*columns)]

    # ------------------------------------------------------------------
    # Structure operations used by the planner
    # ------------------------------------------------------------------
    def subspace(
        self,
        names: Sequence[str],
        *,
        pinned: Mapping[str, Any] | None = None,
        name: str = "",
    ) -> "PinnedSubspace":
        """Project onto ``names``; everything else is pinned.

        Dropped parameters take the value from ``pinned`` when given, else
        their declared default.  Constraints that straddle kept and pinned
        parameters remain enforceable because the pinned values are folded
        into every configuration the subspace produces.
        """
        missing = [n for n in names if n not in self._by_name]
        if missing:
            raise KeyError(f"unknown parameters: {missing}")
        kept = [self._by_name[n] for n in names]
        pin: dict[str, Any] = {}
        for p in self.parameters:
            if p.name not in names:
                pin[p.name] = (pinned or {}).get(p.name, p.default)
        return PinnedSubspace(
            kept,
            self.constraints,
            pin,
            name=name or f"{self.name}[{len(kept)}d]",
        )

    def defaults(self) -> dict[str, Any]:
        """Configuration with every parameter at its default value."""
        return {p.name: p.default for p in self.parameters}

    def neighbors(self, config: Mapping[str, Any]) -> list[dict[str, Any]]:
        """All feasible one-parameter moves away from ``config``."""
        out = []
        for p in self.parameters:
            for v in p.neighbors(config[p.name]):
                cand = dict(config)
                cand[p.name] = v
                if self.is_valid(cand):
                    out.append(cand)
        return out


class PinnedSubspace(SearchSpace):
    """A :class:`SearchSpace` over a subset of parameters with the rest
    pinned to fixed values.

    All sampling/encoding operates on the kept parameters only; the pinned
    assignments are merged into every configuration via :meth:`complete` so
    objective functions expecting the full parameter set keep working.  This
    is the mechanism behind the paper's "assigning default tuning values to
    the discarded variables".
    """

    def __init__(
        self,
        parameters: Sequence[Parameter],
        constraints: Sequence[Constraint],
        pinned: Mapping[str, Any],
        name: str = "subspace",
    ):
        super().__init__(parameters, constraints, name)
        self.pinned: dict[str, Any] = dict(pinned)
        overlap = set(self.pinned) & set(self.names)
        if overlap:
            raise ValueError(f"parameters both kept and pinned: {sorted(overlap)}")

    def _constraints_ok(self, config: Mapping[str, Any]) -> bool:
        return check_all(self.constraints, self.complete(config))

    def _completed_view(self, config: Mapping[str, Any]) -> Mapping[str, Any]:
        return self.complete(config)

    def complete(self, config: Mapping[str, Any]) -> dict[str, Any]:
        """Merge kept values with the pinned assignments -> full config."""
        full = dict(self.pinned)
        full.update(config)
        return full

    def is_valid(self, config: Mapping[str, Any]) -> bool:
        for p in self.parameters:
            if p.name not in config or not p.contains(config[p.name]):
                return False
        return check_all(self.constraints, self.complete(config))

    def validate(self, config: Mapping[str, Any]) -> None:
        for p in self.parameters:
            if p.name not in config:
                raise ValueError(f"missing parameter {p.name!r}")
            if not p.contains(config[p.name]):
                raise ValueError(
                    f"value {config[p.name]!r} outside domain of parameter {p.name!r}"
                )
        check_all(self.constraints, self.complete(config), strict=True)
