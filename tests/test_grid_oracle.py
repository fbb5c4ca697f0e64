"""The bounded float grid search against the grid oracle, which scores every
cell through the chain's head, and its tail where the gate holds: the same
cells, keys and evaluation counts bit for bit, and the same search results,
also where cells tie the key of the sparse pass ahead of the coarse grid."""

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


def sparse_cells(n):
    """The cells of the coarse grid's sparse subgrid inside the band, each of
    which the sparse pass ahead of the coarse grid scores at most once."""
    step, cells = optimize._SPARSE, optimize._COARSE
    sparse = range(step // 2, cells, step)
    q = [(i + 0.5) * (4.0 / cells) for i in sparse]
    return sum(4 * (n - 3) / ((n - 2) * (4 - x)) < (n - 1) / (n - 2) for x in q) * len(sparse)


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
    # cells before the head, and the sparse pass scores up to sparse_cells(n)
    # cells that evaluations_used does not count
    rng = random.Random(3300 + n)
    fixed_delta0 = [None, *(float(x) for x in published.DELTA0.values())]
    fixed_delta0 += [rng.uniform(0.05, 3.0) for _ in range(FIXED_PER_N)]
    total = Counter()
    for fixed in fixed_delta0:
        found, calls = counted_grid(monkeypatch, n, fixed)
        assert bits(found) == bits(grid_oracle.best_cells(n, fixed)), (n, fixed)
        total.update(calls, used=found[1], sparse=sparse_cells(n))
    assert total["head"] < total["head_at"] < total["used"] + total["sparse"], total


@pytest.mark.parametrize("n", [5, 6])
def test_an_infeasible_sparse_best_bounds_the_coarse_level(monkeypatch, n):
    # no sparse cell is feasible at n = 5 or 6; the coarse level keeps the
    # gate bound of the sparse best's key, so head_at, which the sparse pass
    # also calls, sees fewer cells than the grids count (more without it)
    found, calls = counted_grid(monkeypatch, n, None)
    assert calls["head_at"] < found[1], (calls, found[1])


@pytest.mark.parametrize("fixed", [0.75, 2.0, 2.5])
def test_a_cell_that_ties_the_sparse_best_is_not_passed_over(fixed):
    # at n = 3 F(1) = 1 - q/4 is free of r for r >= 1, so where F(1) decides
    # epsilon, cells tie: here the coarse level's best is the first of several
    # cells with the sparse pass's best key, ahead of it in the same column (at
    # 0.75 in an earlier one).  A bound that passed over F(1) at the sparse
    # best's epsilon, not only below it, would pass over every one of them,
    # the sparse cell too, and leave the coarse level with no best
    found = optimize._best_cells(3, fixed)
    assert bits(found) == bits(grid_oracle.best_cells(3, fixed))
    key, q_best, r_best = found[0][-1]  # the coarse level's best
    head_at, head, tail, *_ = optimize._stages(3, float)
    ties = []
    for i in range(optimize._SPARSE // 2, optimize._COARSE, optimize._SPARSE):
        for j in range(optimize._SPARSE // 2, optimize._COARSE, optimize._SPARSE):
            q, r = (i + 0.5) * (4.0 / optimize._COARSE), (j + 0.5) * (1.0 / optimize._COARSE) * 2.0
            terms = head_at(q, r, 1.0)
            margins, values = tail(head(fixed * q, terms), terms)
            if min(margins) > optimize._NOISE and (1, margins[optimize._EPSILON]) == key:
                assert margins[optimize._EPSILON] == values[2]  # epsilon is F(1)
                ties.append((q, r))
    assert ties and (q_best, r_best) not in ties


def lowered_constant(shift):
    """``optimize._stages`` with F's constant term c lowered by ``shift``, which
    lowers F(0) = c + Q and F(1) alike and leaves every other margin as it is:
    epsilon = min(F(0), F(1)) is still at most both, as the bounds require."""
    stages = optimize._stages

    def shifted_stages(n, num):
        head_at, head, tail, coefficients, f_at_1, diagonal = stages(n, num)

        def shifted_at(*row):
            terms = head_at(*row)
            f_at_1(terms)  # fills c in
            terms[8] -= shift
            terms[9] = None  # F(1), recomputed from the lowered c
            return terms

        return shifted_at, head, tail, coefficients, f_at_1, diagonal

    return shifted_stages


def test_a_cell_that_ties_an_infeasible_sparse_best_is_not_passed_over(monkeypatch):
    # c lowered by 2 at n = 3 makes F(1) = -1 - q/4 for r >= 1 and no cell
    # feasible.  At delta0 = 2 the sparse best, in column 2 and row 18, has
    # every margin defined and F(1) its worst; the coarse cell two rows before
    # it in the column ties it and comes first, so it is the coarse level's best.  A floor at
    # the sparse best's worst margin, not the float below it, would pass over
    # both cells, and every cell that ties them
    monkeypatch.setattr(optimize, "_stages", lowered_constant(2.0))
    found = optimize._best_cells(3, 2.0)
    assert bits(found) == bits(grid_oracle.best_cells(3, 2.0))
    head_at, head, tail, *_ = optimize._stages(3, float)
    q = (2 + 0.5) * (4.0 / optimize._COARSE)
    keys = []
    for j in (16, 18):  # the coarse best's row, then the sparse best's
        r = (j + 0.5) * (1.0 / optimize._COARSE) * 2.0
        terms = head_at(q, r, 1.0)
        margins, values = tail(head(2.0 * q, terms), terms)
        assert optimize._BIG_NEGATIVE < min(margins) == values[2] == -1 - q / 4  # F(1), every margin defined
        keys.append(((0, 0, min(margins)), q, r))
    assert found[0][-1] == keys[0] and keys[0][0] == keys[1][0]


@pytest.mark.parametrize("n", [27, 50])
@pytest.mark.parametrize("fixed", [None, 1.0])
def test_a_sparse_pass_that_scores_no_cell_sets_no_bound(n, fixed):
    # the band is q < 8/(n - 1), and the first sparse column, q = 0.3125, lies past it
    assert sparse_cells(n) == 0
    assert bits(optimize._best_cells(n, fixed)) == bits(grid_oracle.best_cells(n, fixed))


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
