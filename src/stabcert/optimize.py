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

The chain is written once, in ``_stages(n, num)``, in two stages: the head,
everything that depends on a, and the tail, the only place where F(1),
epsilon, the spectral coefficient, mcc, L_max and gamma0 are; ``_chain`` is
the tail of the head.  The head splits where a enters: ``head_at`` computes a
row's terms free of a, and ``head`` is the only place where f_xx, f_yy, D, Q
and F(0) are computed at a from them.  ``exact_chain`` evaluates the chain on
``Unreduced`` rationals, which skip the gcd that every Fraction operation
pays, and reduces each result once, to the Fraction margins and intermediates
that ``stabcert.certify`` records and feeds to the sampled checks;
``feasibility`` keeps the margins only, and ``float_margins`` evaluates the
chain in double precision.  The float search calls the stages itself, so
that rescoring a cell at a new delta0 costs the head at the new a only.

Verdicts do not change when a row is scaled, so the search fixes beta = 1 and
runs in two coordinates, q = b/beta and r = alpha/beta, with r placed inside
its band between the spectral curve and the Ricci bound.  Searching runs in
two phases: ``_best_cells`` scores a coarse grid of cells by the float
margins and zooms a small grid onto the best cell so far, with no seed and no
randomness; then each objective rounds the best cell's q and r by continued
fractions (``cfg.denominator_bound``) and decides by exact arithmetic alone:
``minimize_delta0`` searches a dyadic delta0 grid exactly, starting at the
cell's float delta0, and ``maximize_epsilon`` recertifies once.  Floating
error is harmless: unsound candidates simply fail exact recertification.
Every row a search returns has beta = 1, so its epsilon is epsilon/beta.

A margin that an upstream failure leaves undefined is None on exact types,
so that ``feasibility`` can say why, and -1e18 on floats, which the search
counts as an undefined margin (``_stages``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from . import published
from .certificate import STRICT_MARGIN, CertCheck, ConstraintReport
from .config import RunConfig
from .curvature import ParamSet
from .rational import Unreduced, rational_to_str


_BIG_NEGATIVE = -1e18

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
def _stages(n: int, num: type) -> tuple:
    """The chain's stages at dimension n, ``(head_at, head, tail)``, on the
    number type ``num``: float, or an exact type built from an int or a
    Fraction (``Unreduced`` or Fraction).

    Each constant the stages multiply, divide or compare by is converted to
    ``num`` once, here, under its own name: the chain's rational coefficients,
    the n-dependent integers and the literals 0, 1/2, 1, 2 and 4, so the chain
    combines its inputs with values of their own type only.  Small integers
    convert to double exactly, so the float margins keep every bit they had
    with int operands.  ``undefined``, the value of a margin that an upstream
    failure leaves undefined, is -1e18 on floats and None on any other type.

    - ``head_at(b, alpha, beta)``: the row's head terms, those free of a, as
      the list [b, alpha, beta > 0; 2 beta; 2 alpha; D's coefficient of a; D's
      constant term; b; alpha; beta; the Q terms], the Q terms None.
    - ``head(a, terms)``: ``(f_xx, f_yy, D, F(0), Q, c)`` at a, c being F's
      constant term.  Where the Hessian gate (b, alpha, beta, f_xx, f_yy,
      D > 0) fails, F(0) is ``undefined`` and Q and c are None.  The first time
      it holds, ``head`` puts the Q terms, the terms of Q's numerator free of a
      and c, into ``terms``: a row that fails the gate never computes them, and
      every later head of the row reuses them.
    - ``tail(at_a, b, alpha, beta)``: every margin of the row from its head
      at a, with the intermediates, as ``_chain`` returns them.
    """
    undefined = _BIG_NEGATIVE if num is float else None
    zero, half, one, two, four = num(0), num(Fraction(1, 2)), num(1), num(2), num(4)
    dim, n_1, n_2, n_3 = num(n), num(n - 1), num(n - 2), num(n - 3)  # dim is n, n_1 is n - 1, ...
    n_2_sq, n_1_n_2, four_n_2 = num((n - 2) ** 2), num((n - 1) * (n - 2)), num(4 * (n - 2))
    two_n_1, two_n_2 = num(2 * (n - 1)), num(2 * (n - 2))
    hessian = num(Fraction(2 * (n - 1), n - 2))  # f_xx's and f_yy's coefficient of a
    # D = disc_aa a^2 - 4 (disc_ab beta + alpha) a + (4 beta - alpha) alpha
    disc_aa, disc_ab = num(Fraction(4 * n, n - 2)), num(Fraction(n - 1, n - 2))
    q_a, q_beta = num(n * n - 5 * n + 8), num(3 * n - 7)  # Q's coefficients of a alpha^2 and of beta alpha^2
    slope = num(Fraction(n * n - 4, 4))  # F(1)'s coefficient of b
    spectral_bound = num(Fraction(n - 2, n - 3)) if n > 3 else None  # the spectral coefficient's strict upper bound

    def head_at(b, alpha, beta) -> list:
        return [
            b > zero and alpha > zero and beta > zero, two * beta, two * alpha,
            four * (disc_ab * beta + alpha), (four * beta - alpha) * alpha, b, alpha, beta, None,
        ]

    def head(a, terms: list) -> tuple:
        positive, two_beta, two_alpha, d_a, d_0, b, alpha, beta, q_terms = terms
        fxx = hessian * a - two_beta
        fyy = hessian * a - two_alpha
        D = disc_aa * a * a - d_a * a + d_0
        if not (positive and fxx > zero and fyy > zero and D > zero):
            return fxx, fyy, D, undefined, None, None
        if q_terms is None:
            q_terms = terms[-1] = (
                n_2 * alpha**3, q_beta * beta, alpha**2, n_2_sq * alpha, beta**2,
                two_n_1 * beta + two_n_2 * alpha - b * dim * n_2 / two,
            )
        n_2_alpha3, q_beta_beta, alpha_sq, n_2_sq_alpha, beta_sq, const = q_terms
        Q = (
            n_2_alpha3
            - (q_a * a + q_beta_beta) * alpha_sq
            + (n_2_sq_alpha - n_1_n_2 * a) * beta_sq
            + four_n_2 * a * alpha * beta
        ) / D
        return fxx, fyy, D, const + Q, Q, const

    def tail(at_a: tuple, b, alpha, beta) -> tuple[tuple, tuple | None]:
        fxx, fyy, D, f0, Q, const = at_a
        eps = q_margin = spectral = ricci = young = g_bare = undefined
        coeff = mcc = L = values = None
        if Q is not None:
            mx = max(n_2 * beta - alpha, n_3 * alpha)
            f1 = const + slope * b - (dim * beta + n_1 * alpha) - mx
            eps = min(f0, f1)
            q = b / beta
            q_margin = four - q
            if q < four:
                coeff = four / q_margin * beta / alpha
                if spectral_bound is not None:
                    spectral = spectral_bound - coeff
            ricci = n_1 * beta - n_2 * alpha
            if ricci > zero and zero < q < four:
                mcc = (four * beta * beta - n_2 * alpha * alpha) / (four * beta * ricci)
                inv_q = one / q
                young = mcc + inv_q - one
                if young > zero:
                    cross = abs(half - inv_q)
                    if cross == zero:
                        g_bare = inv_q
                    else:
                        L = young / cross
                        g_bare = inv_q - (one / L) * cross
            values = (Q, f0, f1, coeff, mcc, L)
        if spectral_bound is None:
            return (b, alpha, beta, fxx, fyy, D, eps, q_margin, ricci, young, g_bare), values
        return (b, alpha, beta, fxx, fyy, D, eps, q_margin, spectral, ricci, young, g_bare), values

    return head_at, head, tail


def _chain(a, b, alpha, beta, stages: tuple) -> tuple[tuple, tuple | None]:
    """Every feasibility margin of the row in order, on one exact type or on
    floats: the tail of the head.  ``stages`` is ``_stages(n, type)``.

    Returns the margins in the order of ``margin_names(n)``, the stages'
    undefined value where an upstream failure leaves a margin undefined, and,
    once the Hessian gate holds, the intermediates the margins were computed
    from: ``(Q, F(0), F(1), spectral coefficient, mcc, L_max)``, each None
    where the chain does not reach it (L_max when q = 2).  The spectral
    coefficient is computed whenever q < 4, its margin for n >= 4 only.

    The chain splits where a = delta0 * b stops mattering.  The head computes
    everything that depends on a: f_xx, f_yy, D and, once the gate holds, Q and
    F(0) = c + Q, from the row's head terms, which hold every term of the head
    free of a, F's constant term c, which F(1) shares, among them.  The tail
    computes nothing that depends on a: F(1), the q, spectral, Ricci and Young
    margins and gamma0 depend on b, alpha and beta alone, and
    epsilon = min(F(0), F(1)) joins the two.  So at a fixed cell (b, alpha,
    beta) every value of a gives the same head terms and tail margins to the
    last bit, and the float search can rescore a cell at a new delta0 by the
    head alone, on terms it computed once (``_best_cells``).
    Typed constants: every number the chain combines with a, b, alpha and beta
    is one of the stages' constants, so floats meet floats only and exact
    values meet values of their own type only (integer exponents aside).
    Keep the order of operations: search results depend on the float margins
    to the last bit (tests/test_golden.py, test_chain_bits_pinned).
    """
    head_at, head, tail = stages
    return tail(head(a, head_at(b, alpha, beta)), b, alpha, beta)


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
    intermediates its margins were computed from (None when the Hessian gate fails).

    The chain runs on ``Unreduced`` copies of a, b, alpha and beta; each margin
    and intermediate becomes a Fraction once, here, so no Unreduced reaches a
    report, a certificate or ``rational_to_str``.
    """
    n = params.n
    row = (Unreduced(x) for x in (params.a, params.b, params.alpha, params.beta))
    margins, values = _chain(*row, _stages(n, Unreduced))
    checks = []
    for name, margin in zip(margin_names(n), margins):
        if margin is None:
            why = "Hessian conditions failed" if values is None else _UNDEFINED_WHY[name]
            checks.append(CertCheck.of(name, False, detail=f"undefined: {why}"))
        else:  # every margin is strict; the sign of an Unreduced is its numerator's
            exact = Fraction(margin.numerator, margin.denominator)
            checks.append(CertCheck.of(name, margin.numerator > 0, margin=exact, detail=STRICT_MARGIN))
    if values is None:
        return ConstraintReport(checks), None
    return ConstraintReport(checks), ChainValues._make(
        None if x is None else Fraction(x.numerator, x.denominator) for x in values
    )


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
    return _chain(delta0 * b, b, alpha, beta, _stages(n, float))[0]


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
Cell = tuple[tuple, float, float]  # (key, q, r) at beta = 1; see _best_cells for the key

_COARSE = 32  # cells a side of the first (q, s) grid
_ZOOM = 6  # cells a side of each zoomed grid
_ZOOMS = 10
_FLOAT_BISECTIONS = 30  # float delta0 bisection steps for a cell feasible at the best d so far
_DELTA0_BITS = 20  # the exact delta0 search runs on the grid k / 2^20, 0 < k < 2^20
# A float margin at or below this counts as failed.  Double rounding leaves a
# margin that is exactly 0 (at the vertex (q, r) = (3, 1) at n = 3, say) near
# 1e-16, and a cell that noise alone kept feasible would hold the search there.
_NOISE = 1e-12


def _best_cells(n: int, fixed: float | None) -> tuple[list[Cell], int]:
    """The search driver of both objectives: the best (q, r) cells at beta = 1 by the float margins.

    Verdicts do not change when a row is scaled, so beta = 1 loses nothing.  A
    cell is a point q in (0, 4), s in (0, 1) that puts r at the fraction s of
    its band, from the spectral curve (0 at n = 3) to the Ricci bound; q where
    the curve lies above the bound (q >= 8/3, 2 and 8/5 at n = 4, 5 and 6) is
    skipped.  The driver scores the centres of a _COARSE^2 grid over the whole
    square, then, _ZOOMS times, of a _ZOOM^2 grid over the box of the best cell
    so far and its neighbours.

    A feasible cell's key is (1, value): with ``fixed`` the value is epsilon at
    delta0 = fixed (epsilon/beta), without it -d, d the smallest delta0 at which
    the cell is feasible, found by float bisection below the best d so far (a
    cell that fails at that d is not bisected).  An infeasible cell's key is
    (0, -undefined margins, worst defined margin): every feasible cell outranks
    it, and where every cell leaves a margin undefined (n = 6) fewer undefined
    margins rank first.  Returns the best cell after each grid, finest first
    and without repeats, and the number of float evaluations: one per scored
    cell and one per bisection step.

    A cell replaces the best only when its key is greater, so the search
    evaluates only what can decide that, and returns what scoring every cell
    and every bisection step by ``float_margins`` would:
    - A bisection step needs the head alone, on the terms the cell's score
      computed, the Q terms among them (the score's head filled them in, as
      the cell's gate held).  The cell passed every margin at the current d,
      and mid < d changes a = mid * q only, so b, alpha, beta, the head's
      terms and every tail margin (F(1) among them) are the same to the last
      bit and above _NOISE.  So every margin is above _NOISE at
      mid exactly when each of f_xx, f_yy, D and F(0) is; where the gate fails
      at mid, one of f_xx, f_yy and D is <= 0 and F(0) is undefined, and the
      step fails either way.
    - A cell whose Hessian gate fails at d gets its key from the head alone:
      epsilon and every margin after it are undefined, so the key is
      (0, _EPSILON - len(margin_names(n)), min(q, r, 1, f_xx, f_yy, D)).
    - Once the best key is feasible, a cell whose F(0) is at or below a floor
      is not taken to the tail: _NOISE without ``fixed``, the best epsilon
      (itself above _NOISE) with it.  F(0) is undefined, -1e18, wherever the
      gate fails.  A cell with F(0) <= _NOISE is infeasible, key (0, ...):
      its gate fails, or its margin epsilon = min(F(0), F(1)) <= F(0) does.
      With ``fixed``, a cell with F(0) <= the best epsilon has the key
      (0, ...) or (1, epsilon) with epsilon <= the best.  A cell that goes on
      reuses its head in the tail, and if a tail margin fails it is
      infeasible too.  Either way the key is not greater than the best, so
      the cell changes neither the best, nor d, nor any level's winner, and
      its score is None; it still counts as one evaluation.
    """
    used = 0
    d = 1.0 if fixed is None else fixed  # the delta0 cells are scored at: the best d so far
    head_at, head, tail = _stages(n, float)
    # the key's second entry where the Hessian gate fails: minus the number of
    # undefined margins, epsilon and every margin after it
    gate_failed = _EPSILON - len(margin_names(n))
    # the F(0) a cell must exceed to beat the best, once the best is feasible
    floor = None

    def score(q: float, r: float) -> tuple | None:
        """The cell's key, or None when it cannot beat the best."""
        nonlocal used, d
        used += 1
        terms = head_at(q, r, 1.0)
        at_d = head(d * q, terms)
        fxx, fyy, D, f0, Q, _ = at_d
        if floor is not None and f0 <= floor:
            return None
        if Q is None:
            return 0, gate_failed, min(q, r, 1.0, fxx, fyy, D)
        margins = tail(at_d, q, r, 1.0)[0]
        worst = min(margins)
        if worst <= _NOISE:
            if floor is not None:
                return None
            undefined = margins.count(_BIG_NEGATIVE)
            return 0, -undefined, min(m for m in margins if m != _BIG_NEGATIVE) if undefined else worst
        if fixed is not None:
            return 1, margins[_EPSILON]
        lo = 0.0
        for _ in range(_FLOAT_BISECTIONS):
            mid = (lo + d) / 2
            fxx, fyy, D, f0, _, _ = head(mid * q, terms)
            if fxx > _NOISE and fyy > _NOISE and D > _NOISE and f0 > _NOISE:
                d = mid
            else:
                lo = mid
        used += _FLOAT_BISECTIONS
        return 1, -d

    best = None  # (key, q, r, s)
    levels = []
    ricci = (n - 1) / (n - 2)
    q_lo, q_hi, s_lo, s_hi, cells = 0.0, 4.0, 0.0, 1.0, _COARSE
    for _ in range(_ZOOMS + 1):
        dq, ds = (q_hi - q_lo) / cells, (s_hi - s_lo) / cells
        for i in range(cells):
            q = q_lo + (i + 0.5) * dq
            spectral = 4 * (n - 3) / ((n - 2) * (4 - q))
            if spectral >= ricci:
                continue
            for j in range(cells):
                s = s_lo + (j + 0.5) * ds
                key = score(q, r := spectral + s * (ricci - spectral))
                if key is not None and (best is None or key > best[0]):
                    best = key, q, r, s
                    if key[0]:
                        floor = _NOISE if fixed is None else key[1]
        levels.append(best[:3])
        _, q, _, s = best
        q_lo, q_hi, s_lo, s_hi = max(q - dq, 0.0), min(q + dq, 4.0), max(s - ds, 0.0), min(s + ds, 1.0)
        cells = _ZOOM
    return list(dict.fromkeys(reversed(levels))), used


def _accepted(params: ParamSet) -> Accepted | None:
    """The row with its exact report, if every exact margin holds: the one place
    a search accepts a row, so no float verdict reaches a result unchecked."""
    report = feasibility(params)
    return (params, report) if report.all_satisfied else None


def _first_certified(cells: list[Cell], cfg: RunConfig, certify) -> Accepted | None:
    """``certify(b, alpha, d)`` of the first feasible cell whose q and r, rounded by
    continued fractions under the denominator bound, it accepts.

    ``d`` is -key[1], the cell's float score negated: for the delta0 objective
    the smallest delta0 at which float bisection found the cell feasible, which
    seeds the exact search; the epsilon objective ignores it.  A coarser cell
    is tried only when rounding has moved a finer one out of the feasible set:
    a q within about 1/bound of 3 rounds to 3 itself, the vertex where gamma0
    is 0 at n = 3.
    """
    for key, q, r in cells:
        if not key[0]:
            continue
        b, alpha = (Fraction(x).limit_denominator(cfg.denominator_bound) for x in (q, r))
        if b > 0 and alpha > 0 and (accepted := certify(b, alpha, -key[1])) is not None:
            return accepted
    return None


def _builtin_row(n: int) -> Accepted | None:
    """The built-in row divided exactly by its beta, with its exact report, if n has one."""
    if n not in published.PARAM_ROWS:
        return None
    row = ParamSet.published_row(n)
    return _accepted(ParamSet(n, row.a / row.beta, row.b / row.beta, row.alpha / row.beta, Fraction(1)))


def _epsilon(accepted: Accepted) -> Fraction:
    return accepted[1].entry("epsilon").margin


def _result(
    n: int, objective: str, delta0: Fraction | None, accepted: Accepted | None, improvement: Fraction | None,
    used: int, notes: list[str], cell: Cell, scored_at: float,
) -> SearchResult:
    """The search's result, carrying the report that accepted its row, or, when
    nothing certified, the float margins of ``cell`` at delta0 = ``scored_at``."""
    params, report = accepted or (None, None)
    _, q, r = cell
    profile = None
    if accepted is None:
        profile = dict(zip(margin_names(n), float_margins(n, scored_at, q, r, 1.0)), _delta0=scored_at)
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


def _lowest_delta0(n: int, b: Fraction, alpha: Fraction, d: float) -> Accepted | None:
    """The row (delta0 * b, b, alpha, 1) at the smallest exactly feasible delta0
    = k / 2^bits, 0 < k < 2^bits (bits = _DELTA0_BITS), if any, searched from
    the float guess d.

    The search starts at k = ceil(d * 2^bits), clamped to the grid.  If k is
    feasible it gallops down (k - 1, k - 2, k - 4, ...) to a k that fails or to
    0; if k fails and so does the grid's top, nothing on the grid is feasible;
    otherwise it gallops up (k + 1, k + 2, ...) to a k that passes.  Then it
    bisects the bracket, whose low end fails (or is 0) and whose high end
    passes.  Every verdict is exact, through ``_accepted``, and computed once.
    A good guess costs about two exact evaluations, a bad one at most about
    2 * bits + 2.

    The answer is the one a bisection of (0, 1] would give, because for fixed
    (b, alpha, beta) the exact verdict is monotone in delta0 (a = delta0 * b):
    only f_xx, f_yy, D and epsilon depend on a.  f_xx * f_yy - D is the square
    of an affine function of a with slope +-2/(n-2), so f's Hessian is
    a * H1 + H0 with H1 = (2/(n-2)) [[n-1, +-1], [+-1, n-1]] positive definite:
    once the convexity gate holds at some a it holds at every larger a.  Q is
    the minimum of a * S + (terms free of a) with S >= 0, so F(0) = const + Q,
    and with it epsilon, does not decrease as a grows; F(1) and every other
    margin are free of a.
    """
    top = 1 << _DELTA0_BITS
    verdicts: dict[int, Accepted | None] = {}

    def passes(k: int) -> bool:
        if k not in verdicts:
            verdicts[k] = _accepted(ParamSet(n, Fraction(k, top) * b, b, alpha, Fraction(1)))
        return verdicts[k] is not None

    k = min(max(math.ceil(d * top), 1), top - 1)
    step = 1
    if passes(k):
        hi = lo = k
        while lo > 0 and passes(lo):
            hi, lo, step = lo, max(k - step, 0), 2 * step
    elif passes(top - 1):
        hi = lo = k
        while not passes(hi):
            lo, hi, step = hi, min(k + step, top - 1), 2 * step
    else:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return verdicts[hi]


def minimize_delta0(n: int, cfg: RunConfig) -> SearchResult:
    """Smallest certified delta0: the best cell's rounded row at the smallest
    delta0 = k / 2^_DELTA0_BITS that ``_lowest_delta0`` finds exactly feasible,
    searching from the delta0 that float bisection found for the cell.

    For n with a built-in row the row (at beta = 1) is the witness, so the
    result never does worse than it; with nothing certified the result reports
    the best cell's margin profile at delta0 = 1.  Reads ``cfg.denominator_bound``.
    """
    notes: list[str] = []
    best = _builtin_row(n)
    if best is not None:
        notes.append(f"built-in row certified at delta0 = {rational_to_str(best[0].delta0)}")
    cells, used = _best_cells(n, None)
    found = _first_certified(cells, cfg, lambda b, alpha, d: _lowest_delta0(n, b, alpha, d))
    if found is not None and (best is None or found[0].delta0 < best[0].delta0):
        best = found
        notes.append(f"certified delta0 = {rational_to_str(best[0].delta0)}")
    if best is None:
        notes.append("no certified row found; margin profile reported")
    delta0 = best[0].delta0 if best else None
    improvement = published.DELTA0[n] - delta0 if best and n in published.DELTA0 else None
    return _result(n, "minimize_delta0", delta0, best, improvement, used, notes, cells[0], 1.0)


def maximize_epsilon(n: int, cfg: RunConfig, delta0_fixed: Fraction) -> SearchResult:
    """Largest exactly certified epsilon/beta at a fixed delta0: the best cell's
    rounded row, recertified once.

    When delta0_fixed equals a built-in row's threshold the row (at beta = 1) is
    the witness, so the result is never below the published epsilon/beta, and
    ``improvement_vs_published`` is the gain over it.  Reads ``cfg.denominator_bound``.
    """
    delta0 = Fraction(delta0_fixed)
    notes: list[str] = []
    witness = best = _builtin_row(n) if published.DELTA0.get(n) == delta0 else None
    if witness is not None:
        notes.append(f"built-in row certified with epsilon = {rational_to_str(_epsilon(witness))}")
    cells, used = _best_cells(n, float(delta0))
    found = _first_certified(cells, cfg, lambda b, alpha, _: _accepted(ParamSet(n, delta0 * b, b, alpha, Fraction(1))))
    if found is not None and (best is None or _epsilon(found) > _epsilon(best)):
        best = found
        notes.append(f"improved epsilon = {rational_to_str(_epsilon(best))}")
    if best is None:
        notes.append("no certified row found at this delta0")
    improvement = _epsilon(best) - _epsilon(witness) if witness is not None else None
    return _result(n, "maximize_epsilon", delta0, best, improvement, used, notes, cells[0], float(delta0))


def reverify(params_strings: dict[str, str]) -> tuple[ParamSet, ConstraintReport]:
    """Re-run exact feasibility from serialized parameter strings alone: the row
    ``ParamSet.from_strings`` reads, which refuses strings the row does not write."""
    params = ParamSet.from_strings(params_strings)
    return params, feasibility(params)
