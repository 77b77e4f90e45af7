"""Ablation — acquisition function choice for the BO engine.

Runs the merged Group 3+4 search of synthetic Case 4 (N = 100) under each
acquisition function (EI, PI, LCB, Thompson sampling) and compares the
minima found.  Shape: all acquisitions land in the same ballpark and every
one of them beats random search with the same budget — the methodology's
conclusions do not hinge on a specific acquisition.
"""

import numpy as np

from repro.bo import BayesianOptimizer
from repro.search import RandomSampler, SamplerSearch
from repro.synthetic import GROUP_VARIABLES, SyntheticFunction

from _helpers import budget, format_table, once, reps, write_result

ACQS = ("ei", "pi", "lcb", "ts")


def g34_problem(seed: int):
    f = SyntheticFunction(4, random_state=seed)
    sp = f.search_space()
    sub = sp.subspace(
        list(GROUP_VARIABLES["Group 3"] + GROUP_VARIABLES["Group 4"]),
        name="G3+4",
    )
    obj = lambda c: (  # noqa: E731
        f.group_objectives(c)["Group 3"] + f.group_objectives(c)["Group 4"]
    )
    return sub, obj


def sweep():
    out = {a: [] for a in ACQS}
    out["random"] = []
    for rep in range(max(2, reps())):
        sub, obj = g34_problem(seed=rep)
        for acq in ACQS:
            r = BayesianOptimizer(
                sub, obj, max_evaluations=budget(100), acquisition=acq,
                random_state=rep,
            ).run()
            out[acq].append(r.best_objective)
        rs = SamplerSearch(
            sub, obj, RandomSampler(), max_evaluations=budget(100), random_state=rep
        ).run()
        out["random"].append(rs.best_objective)
    return {k: float(np.mean(v)) for k, v in out.items()}


def test_ablation_acquisition(benchmark):
    out = once(benchmark, sweep)
    rows = [[name, f"{out[name]:.2f}"] for name in (*ACQS, "random")]
    write_result(
        "ablation_acquisition",
        format_table(["acquisition", "G3+4 minimum (case 4)"], rows),
    )

    # Every model-based acquisition beats random search.
    for acq in ACQS:
        assert out[acq] < out["random"]
    # And they agree within a modest band (no acquisition cliff).
    vals = [out[a] for a in ACQS]
    assert max(vals) - min(vals) < 0.5 * abs(np.mean(vals))
