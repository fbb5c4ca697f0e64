"""The float grid search against the version it replaced, which scored every
cell with the whole chain and bisected each feasible cell's delta0 in 30
float steps; the closed-form delta0 against that bisection and its
coefficients against the head; the two equivalences that let the search
evaluate the chain's head alone, and the bounds that let it pass over a cell
before its head; and the head, split at a, against the one function it
replaced."""

import math
import random
from fractions import Fraction

import pytest
from strict_number import Strict

from stabcert import optimize, published
from stabcert.rational import Unreduced

NOISE = optimize._NOISE
BISECTIONS = 30  # the float delta0 bisection steps the grid took for a feasible cell before the closed form


def bisected_delta0(n, d, q, r):
    """The former float step: the final (lo, d] bracket of BISECTIONS bisection
    steps below d, a delta0 at which the cell passes, by ``float_margins``."""
    lo = 0.0
    for _ in range(BISECTIONS):
        mid = (lo + d) / 2
        if passes(n, mid, q, r):
            d = mid
        else:
            lo = mid
    return lo, d


def scored_grid(n, fixed):
    """The former grid search: ``float_margins`` for every cell and every bisection
    step, nothing skipped.  Returns its levels and the number of cells it scored."""
    scored = 0
    d = 1.0 if fixed is None else fixed

    def score(q, r):
        nonlocal scored, d
        scored += 1
        margins = optimize.float_margins(n, d, q, r, 1.0)
        worst = min(margins)
        if worst <= NOISE:
            undefined = margins.count(optimize._BIG_NEGATIVE)
            return 0, -undefined, min(m for m in margins if m != optimize._BIG_NEGATIVE) if undefined else worst
        if fixed is not None:
            return 1, margins[optimize._EPSILON]
        d = bisected_delta0(n, d, q, r)[1]
        return 1, -d

    best = None
    levels = []
    ricci = (n - 1) / (n - 2)
    q_lo, q_hi, s_lo, s_hi, cells = 0.0, 4.0, 0.0, 1.0, optimize._COARSE
    for _ in range(optimize._ZOOMS + 1):
        dq, ds = (q_hi - q_lo) / cells, (s_hi - s_lo) / cells
        for i in range(cells):
            q = q_lo + (i + 0.5) * dq
            spectral = 4 * (n - 3) / ((n - 2) * (4 - q))
            if spectral >= ricci:
                continue
            for j in range(cells):
                s = s_lo + (j + 0.5) * ds
                key = score(q, r := spectral + s * (ricci - spectral))
                if best is None or key > best[0]:
                    best = key, q, r, s
        levels.append(best[:3])
        _, q, _, s = best
        q_lo, q_hi, s_lo, s_hi = max(q - dq, 0.0), min(q + dq, 4.0), max(s - ds, 0.0), min(s + ds, 1.0)
        cells = optimize._ZOOM
    return list(dict.fromkeys(reversed(levels))), scored


GRID_CASES = [(n, fixed) for n in (3, 4, 5, 6) for fixed in (None, 0.25, 0.5, 1.0, 2.0)]
GRID_CASES += [(n, float(delta0)) for n, delta0 in published.DELTA0.items()]


@pytest.mark.parametrize("n, fixed", GRID_CASES)
def test_grid_matches_the_full_chain_search(n, fixed):
    cells, used = optimize._best_cells(n, fixed)
    want, scored = scored_grid(n, fixed)
    if fixed is not None:  # bit for bit
        assert (cells, used) == (want, scored)
    else:  # the closed form moves each d inside its bisection bracket only
        assert [(key[0], q, r) for key, q, r in cells] == [(key[0], q, r) for key, q, r in want]
        assert used == scored


def head(n, delta0, q, r):
    """(f_xx, f_yy, D, F(0)) of the cell at delta0, F(0) -1e18 where the gate fails."""
    head_at, head, *_ = optimize._stages(n, float)
    return head(delta0 * q, head_at(q, r, 1.0))[:4]


def passes(n, delta0, q, r):
    return min(optimize.float_margins(n, delta0, q, r, 1.0)) > NOISE


def key_at(n, delta0, q, r):
    """The cell's key at delta0 without bisection: (1, epsilon) or (0, worst margin)."""
    margins = optimize.float_margins(n, delta0, q, r, 1.0)
    return (1, margins[optimize._EPSILON]) if min(margins) > NOISE else (0, min(margins))


def cells(rng, n, count):
    """Seeded (q, r) cells at beta = 1 with r in its band, half of them near the
    built-in row (where delta0 has a feasible range), and at n = 3 the vertex
    (3, 1), where gamma0 is 0."""
    ricci = (n - 1) / (n - 2)
    found = [(3.0, 1.0)] if n == 3 else []
    while len(found) < count:
        if n in published.PARAM_ROWS and rng.random() < 0.5:
            p = published.PARAM_ROWS[n]
            q, r = (float(x / p["beta"]) * rng.uniform(0.97, 1.03) for x in (p["b"], p["alpha"]))
        else:
            q = rng.uniform(0.01, min(3.99, 8 / (n - 1)))  # the band is empty from q = 8/(n-1) on
            spectral = 4 * (n - 3) / ((n - 2) * (4 - q))
            r = spectral + rng.random() * (ricci - spectral)
        found.append((q, r))
    return found


def near_zero_delta0s(n, q, r):
    """delta0 within a few ulps of where f_xx, f_yy or D is 0 at the cell."""
    hessian, disc_aa, disc_ab = 2 * (n - 1) / (n - 2), 4 * n / (n - 2), (n - 1) / (n - 2)
    roots = [2 / hessian, 2 * r / hessian]  # f_xx = 0, f_yy = 0 at beta = 1
    # D = disc_aa a^2 - 4 (disc_ab + r) a + (4 - r) r
    b_half, c = 2 * (disc_ab + r), (4 - r) * r
    disc = b_half * b_half - disc_aa * c
    if disc >= 0:
        roots += [(b_half - math.sqrt(disc)) / disc_aa, (b_half + math.sqrt(disc)) / disc_aa]
    found = []
    for a in roots:
        x = a / q
        for _ in range(4):
            x = math.nextafter(x, -math.inf)
        for _ in range(9):
            found.append(x)
            x = math.nextafter(x, math.inf)
    return [x for x in found if x > 0]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_head_decides_a_bisection_step(n):
    # where a cell passes at d, every margin is above the noise at mid < d
    # exactly when f_xx, f_yy, D and F(0) are: the rest of the chain is free of
    # a, so the grid's closed form solves for these four alone
    rng = random.Random(1600 + n)
    checked = near = 0
    for q, r in cells(rng, n, 300):
        d = rng.uniform(0.05, 2.0)
        if not passes(n, d, q, r):
            continue
        mids = [rng.uniform(0, d) for _ in range(8)] + [x for x in near_zero_delta0s(n, q, r) if x < d]
        for mid in mids:
            fxx, fyy, D, f0 = h = head(n, mid, q, r)
            assert (min(h) > NOISE) == passes(n, mid, q, r), (n, q, r, d, mid)
            checked += 1
            near += min(abs(fxx), abs(fyy), abs(D)) < 1e-13
    if n < 6:  # no cell is feasible at n = 6
        assert checked > 500 and near > 20, (checked, near)


def f_at_1(n, q, r):
    """F(1) of the cell, free of delta0, as the grid's F(1) bound computes it."""
    head_at, *_, f_at_1, _ = optimize._stages(n, float)
    return f_at_1(head_at(q, r, 1.0))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_skipped_cell_cannot_beat_the_best(n):
    # the grid passes over a cell whose F(1), or F(0) after its head, is at or
    # below the floor its best sets: the noise, or, at a fixed delta0, the best
    # epsilon, once the best is feasible, and the best's worst margin, at or
    # below the noise, while the best is infeasible with every margin defined;
    # each leaves the cell's key no greater than the best's
    rng = random.Random(1700 + n)
    fired = {"delta0": 0, "epsilon": 0, "epsilon on a feasible cell": 0, "infeasible best": 0}
    points = []
    for q, r in cells(rng, n, 300):
        points += [(rng.uniform(0.05, 2.0), q, r) for _ in range(4)]
        points += [(x, q, r) for x in near_zero_delta0s(n, q, r)[::3]]
    for d, q, r in points:
        key = key_at(n, d, q, r)
        for f in (head(n, d, q, r)[3], f_at_1(n, q, r)):
            # minimize_delta0: the best is (1, -d) and the floor is the noise
            if f <= NOISE:
                fired["delta0"] += 1
                assert key[0] == 0, (n, d, q, r)
            # maximize_epsilon: the best is (1, best epsilon), the floor that epsilon;
            # F(0) or F(1) itself is the tightest floor that fires
            for best_eps in (NOISE * 2, rng.uniform(0.0, 1.0), f if f > NOISE else None):
                if best_eps is not None and f <= best_eps:
                    fired["epsilon"] += 1
                    fired["epsilon on a feasible cell"] += key[0]
                    assert not key > (1, best_eps), (n, d, q, r, best_eps)
            # an infeasible best (0, 0, worst): key_at's (0, worst margin) reads an
            # undefined margin as -1e18, below every best of that form
            for worst in (NOISE, rng.uniform(-1.0, 0.0), f if f <= NOISE else None):
                if worst is not None and f <= worst:
                    fired["infeasible best"] += 1
                    assert not key > (0, worst), (n, d, q, r, worst)
    assert min(fired["delta0"], fired["epsilon"], fired["infeasible best"]) > 100, fired
    if n < 6:  # no cell is feasible at n = 6
        assert fired["epsilon on a feasible cell"] > 20, fired


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_diagonal_gives_the_heads_signs_of_f_xx_and_f_yy(n):
    # on floats, the grid's gate bound decides f_xx > 0 and f_yy > 0 before the
    # head exactly as the head's own f_xx and f_yy do, also within a few ulps
    # of where either is 0
    rng = random.Random(2200 + n)
    head_at, head, *_, diagonal = optimize._stages(n, float)
    checked = {True: 0, False: 0, "near": 0}
    for q, r in cells(rng, n, 300):
        for delta0 in [rng.uniform(0.01, 2.0) for _ in range(4)] + near_zero_delta0s(n, q, r):
            terms = head_at(q, r, 1.0)
            fxx, fyy = head(delta0 * q, terms)[:2]
            holds = fxx > 0 and fyy > 0
            assert diagonal(delta0 * q, terms) == holds, (n, q, r, delta0)
            checked[holds] += 1
            checked["near"] += min(abs(fxx), abs(fyy)) < 1e-14
    assert min(checked.values()) > 100, checked


def closed_form_a(n, d, q, r):
    """The grid's closed-form threshold in a for a cell that passes at d."""
    head_at, head, _, coefficients, *_ = optimize._stages(n, float)
    terms = head_at(q, r, 1.0)
    head(d * q, terms)  # fills the Q terms in, as the grid's head does
    return optimize._lowest_float_a(coefficients(terms))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_closed_form_delta0_lies_in_the_bisection_bracket(n):
    # the grid's delta0 for a cell that passes at d, against the final (lo, d]
    # bracket of the 30 float steps it replaced, from random d and from d near
    # where f_xx, f_yy or D is 0
    rng = random.Random(1900 + n)
    checked = 0
    for q, r in cells(rng, n, 300):
        for d in [rng.uniform(0.05, 2.0) for _ in range(3)] + near_zero_delta0s(n, q, r)[::3]:
            if passes(n, d, q, r):
                lo, hi = bisected_delta0(n, d, q, r)
                assert lo < closed_form_a(n, d, q, r) / q <= hi, (n, q, r, d)
                checked += 1
    if n < 6:  # no cell is feasible at n = 6
        assert checked > 25, checked


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_closed_form_delta0_is_the_exact_threshold(n):
    # the head of the cell's float q and r, evaluated exactly, has one of f_xx,
    # f_yy, D and F(0) at or below the noise a bit below the closed form, and
    # all four above it a bit above; at n = 3 also next to the vertex (3, 1),
    # where f_yy and D vanish together and D's two roots meet.  There the
    # float head's D moves in steps of about 4e-16, 4e-4 of the noise, so the
    # float bisection's bracket can miss this threshold by a few percent of
    # its width; the closed form does not
    rng = random.Random(2100 + n)
    head_at, head, *_ = optimize._stages(n, Fraction)
    # 10^6 times finer than the bisection's last step, 2^-30: every root reads
    # a discriminant written without cancellation, so even next to the vertex
    # the closed form lies within about 4e-16 of the threshold
    noise, tolerance = Fraction(NOISE), Fraction(1, 10**15)
    points = cells(rng, n, 300)
    if n == 3:
        points += [(3 - t, 1 - t / 2) for t in (10.0**-k for k in range(2, 15))]
    checked = near_vertex = 0
    for q, r in points:
        d = next((d for d in (rng.uniform(0.05, 2.0), 2.0) if passes(n, d, q, r)), None)
        if d is None:
            continue
        a = Fraction(closed_form_a(n, d, q, r))
        terms = head_at(Fraction(q), Fraction(r), Fraction(1))
        for x, want in ((a * (1 - tolerance), False), (a * (1 + tolerance), True)):
            fxx, fyy, D, f0, _, _ = head(x, terms)
            assert (f0 is not None and min(fxx, fyy, D, f0) > noise) == want, (n, q, r, x)
        checked += 1
        near_vertex += abs(q - 3) < 0.1
    if n < 6:
        assert checked > 25, checked
    if n == 3:
        assert near_vertex > 10, near_vertex


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_coefficients_give_the_head_exactly(n):
    # on Fractions, the coefficients of a row whose gate has held give f_xx,
    # f_yy, D and F(0) * D at any a as the head computes them, and D's
    # discriminant; on the strict type they draw every constant from the
    # stages' table
    rng = random.Random(2000 + n)
    head_at, head, _, coefficients, *_ = optimize._stages(n, Fraction)
    strict_at, strict_head, _, strict_coefficients, *_ = optimize._stages(n, Strict)
    checked = 0
    while checked < 200:
        b, alpha, beta = (Fraction(rng.randint(1, 400), rng.randint(1, 100)) for _ in range(3))
        terms = head_at(b, alpha, beta)
        a0 = Fraction(rng.randint(1, 4000), rng.randint(1, 100))
        if head(a0, terms)[4] is None:
            continue
        hessian, two_beta, two_alpha, disc_aa, d_a, d_0, d_disc, n_a, n_0, c = got = coefficients(terms)
        assert d_disc == d_a * d_a - 4 * disc_aa * d_0
        for a in (a0, a0 / 2, Fraction(rng.randint(-400, 400), rng.randint(1, 100))):
            fxx, fyy, D, f0, _, const = head(a, terms)
            assert (hessian * a - two_beta, hessian * a - two_alpha) == (fxx, fyy)
            assert disc_aa * a * a - d_a * a + d_0 == D
            if f0 is not None:
                assert c == const and c * D + n_a * a + n_0 == f0 * D, (n, a, b, alpha, beta)
        strict_terms = strict_at(*map(Strict, (b, alpha, beta)))
        strict_head(Strict(a0), strict_terms)
        assert [x.value for x in strict_coefficients(strict_terms)] == list(got)
        checked += 1


def one_shot_head(n, num, a, b, alpha, beta):
    """The head as one function computed it, from the row and a, before its terms
    free of a were split off: the reference for the head of ``_stages(n, num)``,
    with its own constants, each converted to ``num`` where it is used."""
    fxx = num(Fraction(2 * (n - 1), n - 2)) * a - num(2) * beta
    fyy = num(Fraction(2 * (n - 1), n - 2)) * a - num(2) * alpha
    D = (
        num(Fraction(4 * n, n - 2)) * a * a
        - num(4) * (num(Fraction(n - 1, n - 2)) * beta + alpha) * a
        + (num(4) * beta - alpha) * alpha
    )
    zero = num(0)
    if not (b > zero and alpha > zero and beta > zero and fxx > zero and fyy > zero and D > zero):
        return fxx, fyy, D, -1e18 if num is float else None, None, None
    Q = (
        num(n - 2) * alpha**3
        - (num(n * n - 5 * n + 8) * a + num(3 * n - 7) * beta) * alpha**2
        + (num((n - 2) ** 2) * alpha - num((n - 1) * (n - 2)) * a) * beta**2
        + num(4 * (n - 2)) * a * alpha * beta
    ) / D
    const = num(2 * (n - 1)) * beta + num(2 * (n - 2)) * alpha - b * num(n) * num(n - 2) / num(2)
    return fxx, fyy, D, const + Q, Q, const


def bits(values):
    """Each value as its bits: a float's hex (which tells -0.0 from 0.0), an exact
    value's type, numerator and denominator (an Unreduced pair as it stands)."""
    return tuple(
        x if x is None else x.hex() if type(x) is float else (type(x), x.numerator, x.denominator) for x in values
    )


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_split_head_matches_the_one_shot_head_bit_for_bit(n):
    # on floats, Fractions and Unreduced pairs, with the Q terms left to the
    # head at a (the chain) and filled in by a head at 2a beforehand (a float
    # bisection step, which evaluates its cell's terms below the d that filled
    # them); the cells at beta = 1, rescaled, and with one of b, alpha and beta
    # negated, which only the gate b, alpha, beta > 0 may catch
    rng = random.Random(1800 + n)
    gate = {"holds": 0, "fails": 0, "filled at 2a": 0}
    for q, r in cells(rng, n, 60):
        delta0s = [rng.uniform(0.01, 2.0) for _ in range(3)] + near_zero_delta0s(n, q, r)[::3]
        for delta0 in delta0s:
            scale = rng.uniform(0.5, 2.0)
            a0 = delta0 * q
            rows = [(a0, q, r, 1.0), (a0 * scale, q * scale, r * scale, scale)]
            rows += [(a0, -q, r, 1.0), (a0, q, -r, 1.0), (a0, q, r, -1.0)]
            for row in rows:
                for num in (float, Fraction, Unreduced):
                    head_at, head, *_ = optimize._stages(n, num)
                    a, b, alpha, beta = (num(Fraction(x)) for x in row)
                    terms, filled = head_at(b, alpha, beta), head_at(b, alpha, beta)
                    assert terms[-1] is None
                    head(a + a, filled)
                    want = bits(one_shot_head(n, num, a, b, alpha, beta))
                    assert bits(head(a, terms)) == bits(head(a, filled)) == want, (n, num, row)
                    # the head fills the Q terms in where, and only where, its gate holds
                    assert (terms[-1] is not None) == (want[4] is not None), (n, num, row)
                gate["holds" if want[4] is not None else "fails"] += 1
                gate["filled at 2a"] += filled[-1] is not None
    assert min(gate.values()) > 50, gate
