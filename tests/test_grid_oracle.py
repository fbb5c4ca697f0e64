"""The bounded float grid search against the grid oracle, which scores every
cell through the chain's head, and its tail where the gate holds: the same
cells, keys and evaluation counts bit for bit, and the same search results."""

import random
from collections import Counter

import grid_oracle
import pytest

from stabcert import optimize, published
from stabcert.config import RunConfig

FIXED_PER_N = 48  # seeded fixed delta0 in (0.05, 3) at each n


def bits(found):
    """``(cells, used)`` with every float as its hex, which tells -0.0 from 0.0."""
    cells, used = found
    as_bits = [(tuple(x.hex() if type(x) is float else x for x in key), q.hex(), r.hex()) for key, q, r in cells]
    return as_bits, used


def counted_grid(monkeypatch, n, fixed):
    """``_best_cells(n, fixed)`` with the number of cells its float head_at and head see."""
    calls = Counter()
    stages = optimize._stages

    def counting_stages(dim, num):
        head_at, head, *rest = stages(dim, num)

        def counting_at(*row):
            calls["head_at"] += 1
            return head_at(*row)

        def counting_head(a, terms):
            calls["head"] += 1
            return head(a, terms)

        return (counting_at, counting_head, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(optimize, "_stages", counting_stages)
        found = optimize._best_cells(n, fixed)
    return found, calls


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_grid_matches_the_oracle(monkeypatch, n):
    # without a fixed delta0, at the three built-in delta0 and at seeded fixed
    # delta0; the bounds pass over whole columns before head_at and single
    # cells before the head
    rng = random.Random(3300 + n)
    fixed_delta0 = [None, *(float(x) for x in published.DELTA0.values())]
    fixed_delta0 += [rng.uniform(0.05, 3.0) for _ in range(FIXED_PER_N)]
    total = Counter()
    for fixed in fixed_delta0:
        found, calls = counted_grid(monkeypatch, n, fixed)
        assert bits(found) == bits(grid_oracle.best_cells(n, fixed)), (n, fixed)
        total.update(calls, used=found[1])
    assert total["head"] < total["head_at"] < total["used"], total


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_default_searches_match_the_oracle(monkeypatch, n):
    def searches():
        found = [optimize.minimize_delta0(n, RunConfig())]
        if n in published.DELTA0:
            found.append(optimize.maximize_epsilon(n, RunConfig(), published.DELTA0[n]))
        return found

    bounded = searches()
    monkeypatch.setattr(optimize, "_best_cells", grid_oracle.best_cells)
    assert searches() == bounded
