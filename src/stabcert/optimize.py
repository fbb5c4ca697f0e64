"""Parameter search with float exploration, rational rounding, exact recertification.

The exact feasibility chain for a row (n, a, b, alpha, beta), a = b*delta0,
every margin strictly positive:

    b, alpha, beta > 0;  f_xx, f_yy > 0;  D > 0;  epsilon = min(F(0), F(1)) > 0;
    0 < q = b/beta < 4;  spectral coefficient < (n-2)/(n-3) for n >= 4;
    (n-1)beta - (n-2)alpha > 0;  Young numerator mcc + 1/q - 1 > 0;
    gamma0 (bare, at L = L_max) > 0.

Here D is the determinant of f's Hessian and Q the coefficient with
min f = E^2 * Q of the weighted curvature quadratic f that ``curvature``
samples; F is that module's endpoint function; mcc is the mean-curvature
coefficient and L_max the largest Young parameter.

The chain is written once, in ``_chain``, the only place where D, Q, F(0),
F(1), epsilon, the spectral coefficient, mcc, L_max and gamma0 are computed.  ``exact_chain`` evaluates it on Fractions and returns the margins
with those intermediates, which ``stabcert.certify`` records and feeds to the
sampled checks; ``feasibility`` keeps the margins only, and
``float_margins`` evaluates the chain in double precision.  Searching runs
in two phases: the float margins drive multistart coordinate descent inside a
box, then ``_recertified`` rounds each candidate to rationals by continued
fractions (denominator-bounded) and recertifies it with exact arithmetic.
Floating error is harmless: unsound candidates simply fail exact
recertification.  The
search reads its budget, denominator bound and seed from the run's
``RunConfig``; a fixed seed and budget make results deterministic.

A margin that an upstream failure leaves undefined is the last entry of
``_coefficients(n, num)``: None on Fractions, so that ``feasibility`` can say
why, and -1e18 on floats, so that the search reads it as badly infeasible.

At each delta0 level ``_descents`` runs one descent from each start, in start
order, and the descents share a memo from point to objective value, so a point
that several starts reach, or a step back to the previous point, is scored
once.  The budget counts every point queried, memoized or not, so a
search spends it exactly as it would without the memo.  A trial that the budget
refuses is neither scored nor counted, so ``evaluations_used`` never exceeds
the budget.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from operator import truediv
from typing import NamedTuple

from . import published
from .config import RunConfig
from .curvature import ParamSet
from .rational import rational_to_str
from .report import ConstraintReport

Rat = Fraction

_BIG_NEGATIVE = -1e18
_DESCENT_ROUNDS = 6  # coordinate-descent sweeps per start
_BISECTION_STEPS = 10  # outer delta0 bisection steps

_MARGIN_NAMES = (
    "b_positive", "alpha_positive", "beta_positive", "hessian_fxx", "hessian_fyy", "discriminant",
    "epsilon", "q_below_4", "spectral_bound", "ricci_coeff_denominator", "young_numerator", "gamma0_bare",
)
# the index of epsilon at every n: spectral_bound, which n = 3 lacks, comes after it
_EPSILON = _MARGIN_NAMES.index("epsilon")
# Why a margin is undefined when the Hessian gate holds; when it fails, epsilon
# and every margin after it are undefined because of that failure.
_UNDEFINED_WHY = {
    "spectral_bound": "q >= 4",
    "young_numerator": "upstream failure",
    "gamma0_bare": "no Young parameter",
}


@cache
def _coefficients(n: int, num: type) -> tuple:
    """The chain's rational coefficients at dimension n, as ``num`` (Fraction or float),
    followed by the value of an undefined margin: None for Fraction, -1e18 for float."""
    spectral = Fraction(n - 2, n - 3) if n > 3 else None  # the spectral coefficient's strict upper bound
    return tuple(
        None if c is None else num(c)
        for c in (Fraction(2 * (n - 1), n - 2), Fraction(4 * n, n - 2), Fraction(n - 1, n - 2),
                  Fraction(n * n - 4, 4), spectral, Fraction(1, 2))
    ) + (None if num is Fraction else _BIG_NEGATIVE,)


def _chain(n: int, a, b, alpha, beta, k: tuple) -> tuple[tuple, tuple | None]:
    """Every feasibility margin of the row in order, on Fractions or on floats.

    Returns the margins in the order of ``margin_names(n)``, ``k``'s undefined
    value where an upstream failure leaves a margin undefined, and, once the
    Hessian gate holds, the intermediates the margins were computed from:
    ``(Q, F(0), F(1), spectral coefficient, mcc, L_max)``, each None where the
    chain does not reach it (L_max when q = 2).  The spectral coefficient is
    computed whenever q < 4, its margin for n >= 4 only.  ``k`` is
    ``_coefficients(n, type)``.
    Keep the order of operations: search results depend on the float margins
    to the last bit (tests/test_golden.py).
    """
    hessian, disc_aa, disc_ab, slope, spectral_bound, half, undefined = k
    fxx = hessian * a - 2 * beta
    fyy = hessian * a - 2 * alpha
    D = disc_aa * a * a - 4 * (disc_ab * beta + alpha) * a + (4 * beta - alpha) * alpha
    eps = q_margin = spectral = ricci = young = g_bare = undefined
    coeff = mcc = L = values = None
    convex = b > 0 and alpha > 0 and beta > 0 and fxx > 0 and fyy > 0 and D > 0
    if convex:
        Q = (
            (n - 2) * alpha**3
            - ((n * n - 5 * n + 8) * a + (3 * n - 7) * beta) * alpha**2
            + ((n - 2) ** 2 * alpha - (n - 1) * (n - 2) * a) * beta**2
            + 4 * (n - 2) * a * alpha * beta
        ) / D
        const = 2 * (n - 1) * beta + 2 * (n - 2) * alpha - b * n * (n - 2) / 2
        mx = max((n - 2) * beta - alpha, (n - 3) * alpha)
        f0 = const + Q
        f1 = const + slope * b - (n * beta + (n - 1) * alpha) - mx
        eps = min(f0, f1)
        q = b / beta
        q_margin = 4 - q
        if q < 4:
            coeff = 4 / (4 - q) * beta / alpha
            if spectral_bound is not None:
                spectral = spectral_bound - coeff
        ricci = (n - 1) * beta - (n - 2) * alpha
        if ricci > 0 and 0 < q < 4:
            mcc = (4 * beta * beta - (n - 2) * alpha * alpha) / (4 * beta * ricci)
            young = mcc + 1 / q - 1
            if young > 0:
                cross = abs(half - 1 / q)
                if cross == 0:
                    g_bare = 1 / q
                else:
                    L = young / cross
                    g_bare = 1 / q - (1 / L) * cross
        values = (Q, f0, f1, coeff, mcc, L)
    if spectral_bound is None:
        return (b, alpha, beta, fxx, fyy, D, eps, q_margin, ricci, young, g_bare), values
    return (b, alpha, beta, fxx, fyy, D, eps, q_margin, spectral, ricci, young, g_bare), values


class ChainValues(NamedTuple):
    """The exact intermediates of ``_chain`` for a row that passes its Hessian gate."""

    Q: Fraction
    F_at_0: Fraction
    F_at_1: Fraction
    spectral_coeff: Fraction | None  # None when q >= 4
    mean_curv_coeff: Fraction | None  # None when the Ricci denominator or q fails
    L_max: Fraction | None  # None when no Young parameter binds (q = 2 or upstream failure)


def exact_chain(params: ParamSet) -> tuple[ConstraintReport, ChainValues | None]:
    """One exact evaluation of the chain: the report of ``feasibility`` and the
    intermediates its margins were computed from (None when the Hessian gate fails)."""
    n = params.n
    margins, values = _chain(n, params.a, params.b, params.alpha, params.beta, _coefficients(n, Fraction))
    report = ConstraintReport()
    for name, margin in zip(margin_names(n), margins):
        if margin is None:
            why = "Hessian conditions failed" if values is None else _UNDEFINED_WHY[name]
            report.add(name, False, detail=f"undefined: {why}")
        else:
            report.add_margin(name, margin)
    return report, None if values is None else ChainValues._make(values)


def feasibility(params: ParamSet) -> ConstraintReport:
    """Every named constraint with its exact margin; feasible iff all satisfied.

    Every margin is strict (> 0).  Margins the chain leaves undefined after an
    upstream failure are reported unsatisfied with a note instead of raising.
    """
    return exact_chain(params)[0]


@cache
def margin_names(n: int) -> tuple[str, ...]:
    """The names of ``_chain``'s margins at dimension n, in its order."""
    return tuple(name for name in _MARGIN_NAMES if n > 3 or name != "spectral_bound")


def float_margins(n: int, delta0: float, b: float, alpha: float, beta: float) -> tuple[float, ...]:
    """The feasibility margins in double precision, in the order of margin_names(n).

    Undefined margins read as -1e18.  Advisory only; every accepted candidate
    is recertified exactly.
    """
    return _chain(n, delta0 * b, b, alpha, beta, _coefficients(n, float))[0]


@dataclass
class SearchResult:
    n: int
    objective: str
    best_params: ParamSet | None
    certified: bool
    delta0: Fraction | None
    epsilon: Fraction | None
    constraint_report: ConstraintReport | None
    improvement_vs_published: Fraction | None
    evaluations_used: int
    notes: list[str] = field(default_factory=list)
    best_margin_profile: dict[str, float] | None = None  # for uncertified searches


# A row that exact recertification accepted, with the report that accepted it.
Accepted = tuple[ParamSet, ConstraintReport]
Point = tuple[float, float, float]  # (b, alpha, beta)


@cache
def default_box(n: int) -> tuple[tuple[float, float], ...]:
    """Search bounds for (b, alpha, beta); rows 3..5 bracket the built-in values,
    n = 6 extrapolates the row trend geometrically (heuristic)."""
    if n in published.PARAM_ROWS:
        row = published.PARAM_ROWS[n]
        return tuple((float(row[key]) / 4, float(row[key]) * 4) for key in ("b", "alpha", "beta"))
    if n == 6:
        # rows shrink roughly geometrically in n; centre on the extrapolation
        return tuple((val / 8, val * 8) for val in (0.47, 0.72, 0.52))
    raise ValueError(f"no default search box for n = {n}")


def _round_params(n: int, delta0: Fraction, b: float, alpha: float, beta: float, bound: int) -> ParamSet | None:
    """Continued-fraction rounding with a denominator bound, then exact a = delta0*b."""
    b_r, alpha_r, beta_r = (Fraction(x).limit_denominator(bound) for x in (b, alpha, beta))
    if b_r <= 0 or alpha_r <= 0 or beta_r <= 0:  # at bound 2, n = 6's lower bound for b rounds to 0
        return None
    return ParamSet(n=n, a=delta0 * b_r, b=b_r, alpha=alpha_r, beta=beta_r)


@cache
def _scales(n: int) -> tuple[float, ...]:
    """Per-constraint normalization from the built-in row margins (n = 6 uses n = 5)."""
    ref_n = n if n in published.PARAM_ROWS else 5
    row = ParamSet.published_row(ref_n)
    margins = float_margins(ref_n, float(row.delta0), float(row.b), float(row.alpha), float(row.beta))
    by_name = dict(zip(margin_names(ref_n), margins))
    return tuple(max(abs(by_name.get(name, 1.0)), 1e-9) for name in margin_names(n))


def _objective_margin(n: int, delta0: float, vec: Point, scales: tuple[float, ...]) -> float:
    return min(map(truediv, float_margins(n, delta0, *vec), scales))


def _objective_epsilon(n: int, delta0: float, vec: Point, scales: tuple[float, ...]) -> float:
    margins = float_margins(n, delta0, *vec)
    worst = min(map(truediv, margins, scales))
    if worst <= 0:
        return worst  # infeasible: chase feasibility first
    return margins[_EPSILON]


def _coordinate_descent(
    n: int, delta0: float, start: Point, objective, memo: dict[Point, float], used: int, limit: int
) -> tuple[Point, float, int]:
    """Pattern-search descent maximizing ``objective`` over (b, alpha, beta) in ``default_box(n)``.

    Returns the final point, its value and the evaluations used so far.
    ``memo`` maps each point already scored at this delta0 with this objective
    to its value; a point found there is not scored again.  Every point
    queried counts one evaluation, whether the memo answers it or not; a trial
    that would take ``used`` past ``limit`` ends the descent unqueried.
    """
    scales = _scales(n)
    bounds = [(lo, hi, (hi - lo) / 8, (hi - lo) * 1e-5) for lo, hi in default_box(n)]
    point = start
    best = memo.get(point)
    if best is None:
        best = memo[point] = objective(n, delta0, point, scales)
    used += 1
    for _ in range(_DESCENT_ROUNDS):
        improved = False
        for idx, (lo, hi, step, tol) in enumerate(bounds):
            while step > tol:
                x = point[idx]
                moved = False
                for coord in (x + step, x - step):
                    coord = hi if coord >= hi else coord if coord > lo else lo  # min/max builtins: ~7% slower
                    if coord == x:
                        continue
                    if used >= limit:
                        return point, best, used
                    used += 1
                    if idx == 0:  # slicing and unpacking the point: ~5% slower
                        trial = (coord, point[1], point[2])
                    elif idx == 1:
                        trial = (point[0], coord, point[2])
                    else:
                        trial = (point[0], point[1], coord)
                    val = memo.get(trial)
                    if val is None:
                        val = memo[trial] = objective(n, delta0, trial, scales)
                    if val > best:
                        best, point = val, trial
                        moved = improved = True
                        break
                if not moved:
                    step /= 2
        if not improved:
            break
    return point, best, used


def _starts(n: int, seed: int) -> list[Point]:
    """The built-in row (if any), the box's geometric centre, then one
    log-uniform point for each of the seeds seed .. seed + 3."""
    starts: list[Point] = []
    if n in published.PARAM_ROWS:
        row = published.PARAM_ROWS[n]
        starts.append((float(row["b"]), float(row["alpha"]), float(row["beta"])))
    bounds = default_box(n)
    starts.append(tuple(math.sqrt(lo * hi) for lo, hi in bounds))
    for rng in map(random.Random, range(seed, seed + 4)):
        starts.append(tuple(math.exp(rng.uniform(math.log(lo), math.log(hi))) for lo, hi in bounds))
    return starts


def _descents(n: int, delta0: Fraction, objective, cfg: RunConfig, used: int) -> tuple[list[tuple[float, Point]], int]:
    """One descent from each start, in start order, sharing one memo at this delta0.

    Returns each descent's ``(value, final point)`` and the evaluations used so
    far; a start reached with the budget spent is not descended from.
    """
    results = []
    memo: dict[Point, float] = {}
    for start in _starts(n, cfg.seed):
        if used >= cfg.budget:
            break
        point, value, used = _coordinate_descent(n, float(delta0), start, objective, memo, used, cfg.budget)
        results.append((value, point))
    return results, used


def _recertified(n: int, delta0: Fraction, point: Point, cfg: RunConfig) -> Accepted | None:
    """The float point rounded to a rational row, accepted only if every exact margin holds.

    The one place a search turns a float point into a row, so nothing the
    float mirror says reaches a result without exact ``feasibility``.
    """
    candidate = _round_params(n, delta0, *point, bound=cfg.denominator_bound)
    if candidate is None:
        return None
    report = feasibility(candidate)
    return (candidate, report) if report.all_satisfied else None


def _builtin_row(n: int) -> Accepted | None:
    """The built-in row with its exact report, if it certifies."""
    row = ParamSet.published_row(n)
    report = feasibility(row)
    return (row, report) if report.all_satisfied else None


def _epsilon(accepted: Accepted) -> Fraction:
    return accepted[1].entry("epsilon").margin


def _result(
    n: int, objective: str, delta0: Fraction | None, accepted: Accepted | None, improvement: Fraction | None,
    used: int, notes: list[str], profile: dict[str, float] | None = None,
) -> SearchResult:
    """The search's result, carrying the report that accepted its row."""
    params, report = accepted or (None, None)
    return SearchResult(
        n=n,
        objective=objective,
        best_params=params,
        certified=accepted is not None,
        delta0=delta0,
        epsilon=_epsilon(accepted) if accepted else None,
        constraint_report=report,
        improvement_vs_published=improvement,
        evaluations_used=used,
        notes=notes,
        best_margin_profile=profile,
    )


def _search_at_delta0(
    n: int, delta0: Fraction, cfg: RunConfig, used: int
) -> tuple[Accepted | None, tuple[float, Point] | None, int]:
    """Multistart inner search at a fixed rational delta0.

    Returns the first exactly recertified candidate (best float score
    first), the best ``(score, point)`` seen, and the evaluations used so far.
    """
    results, used = _descents(n, delta0, _objective_margin, cfg, used)
    results.sort(key=lambda t: -t[0])
    best = results[0] if results else None
    for score, point in results:
        if score > 0:
            accepted = _recertified(n, delta0, point, cfg)
            if accepted is not None:
                return accepted, best, used
    return None, best, used


def minimize_delta0(n: int, cfg: RunConfig) -> SearchResult:
    """Smallest certified delta0 via outer bisection and exact recertification.

    For n with a built-in row the row is certified first (witness), so the
    result never does worse than it; for other n the search scans a coarse
    descending grid of delta0 candidates in (0, 1] and reports the best
    infeasibility margin profile if nothing certifies.  Reads ``cfg.budget``,
    ``cfg.denominator_bound`` and ``cfg.seed``.
    """
    used = 0
    notes: list[str] = []
    lo, hi = Fraction(0), Fraction(1)
    if n in published.PARAM_ROWS:
        best = _builtin_row(n)
        if best is not None:
            hi = best[0].delta0
            notes.append(f"built-in row certified at delta0 = {rational_to_str(hi)}")
        else:  # pragma: no cover - the built-in rows always certify
            notes.append("built-in row failed exact certification")
    else:
        profile: dict[str, float] | None = None
        for delta0 in (Fraction(1), Fraction(99, 100), Fraction(49, 50), Fraction(9, 10)):
            best, seen, used = _search_at_delta0(n, delta0, cfg, used)
            if best is not None:
                hi = delta0
                notes.append(f"feasible row certified at delta0 = {rational_to_str(delta0)} (finding)")
                break
            if seen is not None and (profile is None or seen[0] > profile["_score"]):
                score, point = seen
                profile = dict(zip(margin_names(n), float_margins(n, float(delta0), *point)))
                profile["_score"] = score
                profile["_delta0"] = float(delta0)
            if used >= cfg.budget:
                break
        if best is None:
            notes.append("no certified row found; margin profile reported")
            return _result(n, "minimize_delta0", None, None, None, used, notes, profile)

    for _ in range(_BISECTION_STEPS):
        if used >= cfg.budget or hi - lo <= Fraction(1, 1 << 12):
            break
        mid = ((lo + hi) / 2).limit_denominator(4096)
        if not lo < mid < hi:
            break
        accepted, _, used = _search_at_delta0(n, mid, cfg, used)
        if accepted is not None:
            best, hi = accepted, mid
            notes.append(f"improved certified delta0 = {rational_to_str(mid)}")
        else:
            lo = mid

    improvement = published.DELTA0[n] - hi if best is not None and n in published.DELTA0 else None
    return _result(n, "minimize_delta0", hi if best is not None else None, best, improvement, used, notes)


def maximize_epsilon(n: int, cfg: RunConfig, delta0_fixed: Rat) -> SearchResult:
    """Largest exactly-certified epsilon at a fixed delta0.

    When delta0_fixed equals a built-in row's threshold the row itself seeds
    the search, so the result is never below the published epsilon.  Reads
    the same settings as ``minimize_delta0``.
    """
    delta0 = Fraction(delta0_fixed)
    notes: list[str] = []
    builtin = n in published.PARAM_ROWS and published.DELTA0[n] == delta0
    best = _builtin_row(n) if builtin else None
    if best is not None:
        notes.append(f"built-in row certified with epsilon = {rational_to_str(_epsilon(best))}")

    results, used = _descents(n, delta0, _objective_epsilon, cfg, 0)
    for _, point in results:
        accepted = _recertified(n, delta0, point, cfg)
        if accepted is not None and (best is None or _epsilon(accepted) > _epsilon(best)):
            best = accepted
            notes.append(f"improved epsilon = {rational_to_str(_epsilon(best))}")

    if best is None:
        notes.append("no certified row found at this delta0")
    improvement = _epsilon(best) - published.EPSILON[n] if best is not None and builtin else None
    return _result(n, "maximize_epsilon", delta0, best, improvement, used, notes)


def reverify(params_strings: dict[str, str]) -> tuple[ParamSet, ConstraintReport]:
    """Re-run exact feasibility from serialized parameter strings alone."""
    params = ParamSet(
        n=int(params_strings["n"]),
        a=Fraction(params_strings["a"]),
        b=Fraction(params_strings["b"]),
        alpha=Fraction(params_strings["alpha"]),
        beta=Fraction(params_strings["beta"]),
    )
    return params, feasibility(params)
