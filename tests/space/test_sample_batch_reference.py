"""``SearchSpace.sample_batch`` against a frozen copy of its two-pass form.

The one-pass ``sample_batch`` builds each candidate only when its row is
reached, checks its constraints once and stops at ``n`` accepted.  It
must still make exactly the draws the two-pass version made — one
``Parameter.sample_batch`` per parameter per chunk, plus the same repair
redraws — so every proposal, job fingerprint and trace downstream stays
byte-identical.  The reference below is that two-pass version, kept
verbatim: it builds and constraint-checks the whole chunk, then
re-checks every rejected candidate before repairing.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import pytest

from repro.space import (
    Categorical,
    Condition,
    ConditionalSpace,
    ExpressionConstraint,
    InfeasibleSpaceError,
    Integer,
    Real,
    SearchSpace,
)
from repro.synthetic import SyntheticFunction

from .test_space import make_space


def reference_raw_batch(space, n: int, rng: np.random.Generator) -> list[dict[str, Any]]:
    columns = [p.sample_batch(n, rng) for p in space.parameters]
    names = space.names
    raw = [dict(zip(names, row)) for row in zip(*columns)]
    if isinstance(space, ConditionalSpace):
        raw = [space.mask(cfg) for cfg in raw]
    return raw


def reference_sample_batch(
    space,
    n: int,
    rng: np.random.Generator,
    *,
    unique: bool = False,
    max_rejects: int = 10_000,
) -> list[dict[str, Any]]:
    if n < 1:
        raise ValueError("n must be >= 1")
    out: list[dict[str, Any]] = []
    seen: set[tuple] = set()
    attempts = 0
    chunk = max(64, 2 * n)
    while len(out) < n and attempts < max_rejects:
        take = min(chunk, max_rejects - attempts)
        attempts += take
        raw = reference_raw_batch(space, take, rng)
        valid = [cfg for cfg in raw if space._constraints_ok(cfg)]
        if len(valid) < min(take, n - len(out)):
            invalid = [cfg for cfg in raw if not space._constraints_ok(cfg)]
            valid.extend(space._repair_batch(invalid, rng))
        for cfg in valid:
            if unique:
                key = tuple(cfg[k] for k in space.names)
                if key in seen:
                    continue
                seen.add(key)
            out.append(cfg)
            if len(out) >= n:
                break
        chunk = min(4 * chunk, 8192)
    if not out:
        raise InfeasibleSpaceError(
            f"could not sample any configuration for {space.name!r}"
        )
    return out


def conditional_space() -> ConditionalSpace:
    """A switch gating ``tb``, with a constraint across the gated axis."""
    return ConditionalSpace(
        [
            Categorical("mode", ["blocked", "flat", "fused"]),
            Integer("tb", 32, 1024, default=64),
            Integer("tb_sm", 1, 32, default=4),
            Real("x", -50.0, 50.0),
        ],
        [ExpressionConstraint("tb * tb_sm <= 2048")],
        conditions={"tb": Condition("mode", ["blocked", "fused"])},
        name="cond",
    )


SPACES = {
    "synthetic-20d": lambda: SyntheticFunction(case=1).search_space(),
    "make_space": make_space,
    # tb_sm pinned at 32 leaves tb <= 64 feasible (~3% of draws), so
    # most chunks fall short and go through _repair_batch.
    "pinned": lambda: make_space().subspace(["tb", "x", "u"], pinned={"tb_sm": 32}),
    "conditional": conditional_space,
}


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except InfeasibleSpaceError as exc:
        return ("InfeasibleSpaceError", str(exc))


@pytest.mark.parametrize("unique", [False, True])
@pytest.mark.parametrize("n", [1, 3, 50, 300])
@pytest.mark.parametrize("space_name", sorted(SPACES))
def test_same_draws_and_configurations(space_name, n, unique):
    space = SPACES[space_name]()
    for seed in range(50):
        rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        got = space.sample_batch(n, rng, unique=unique)
        want = reference_sample_batch(space, n, ref_rng, unique=unique)
        assert got == want, (space_name, seed, n, unique)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize(
    "space_name,n,max_rejects",
    [("make_space", 50, 3), ("pinned", 20, 5), ("conditional", 10, 2)],
)
def test_tiny_reject_budget_matches(space_name, n, max_rejects):
    space = SPACES[space_name]()
    for seed in range(50):
        rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        got = outcome(space.sample_batch, n, rng, max_rejects=max_rejects)
        want = outcome(
            reference_sample_batch, space, n, ref_rng, max_rejects=max_rejects
        )
        assert got == want
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_infeasible_space_raises_after_the_same_draws():
    space = SearchSpace(
        [Integer("x", 0, 4), Real("y", 0.0, 1.0)],
        [ExpressionConstraint("x > 100")],
        name="never",
    )
    for max_rejects in (1, 7, 200):
        rng = np.random.default_rng(max_rejects)
        ref_rng = np.random.default_rng(max_rejects)
        got = outcome(space.sample_batch, 4, rng, max_rejects=max_rejects)
        want = outcome(
            reference_sample_batch, space, 4, ref_rng, max_rejects=max_rejects
        )
        assert got == want and got[0] == "InfeasibleSpaceError"
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("space_name", sorted(SPACES))
def test_sample_goes_through_sample_batch(space_name, monkeypatch):
    """The service benchmark times ``space.sample_batch`` and counts its
    candidates by wrapping ``SearchSpace.sample_batch``; ``sample()``
    must keep routing through it."""
    calls = []
    original = SearchSpace.sample_batch

    def wrapped(self, n, rng, **kwargs):
        calls.append(n)
        return original(self, n, rng, **kwargs)

    monkeypatch.setattr(SearchSpace, "sample_batch", wrapped)
    space = SPACES[space_name]()
    rng = np.random.default_rng(0)
    ref_rng = np.random.default_rng(0)
    for _ in range(5):
        assert space.sample(rng) == reference_sample_batch(space, 1, ref_rng)[0]
    assert calls == [1] * 5
