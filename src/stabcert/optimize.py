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
everything that depends on a, and the tail, the only place where epsilon,
the spectral coefficient, mcc, L_max and gamma0 are; ``_chain`` is the tail
of the head.  The head splits where a enters: ``head_at`` computes a row's
terms free of a, and ``head`` is the only place where f_xx, f_yy, D, Q and
F(0) are computed at a from them.  F(1), free of a too, is computed by a
stage of its own, ``f_at_1``, into the row's terms, where the tail reads it.
``exact_chain`` evaluates the chain on ``Unreduced`` rationals, which skip
the gcd that every Fraction operation pays, and reduces each result once, to
the Fraction margins and intermediates that ``stabcert.certify`` records and
feeds to the sampled checks; ``feasibility`` reduces the margins only, on the
same evaluation (``_exact``), and ``float_margins`` evaluates the chain in
double precision.  The float
search calls the stages itself: ``coefficients`` writes the head's terms as
polynomials in a, so that a row's lowest delta0, float or exact, is a closed
form in its head's terms, and ``f_at_1`` and ``diagonal`` decide, before a
cell's head, whether it can beat the best cell so far.

Verdicts do not change when a row is scaled, so the search fixes beta = 1 and
runs in two coordinates, q = b/beta and r = alpha/beta, with r placed inside
its band between the spectral curve and the Ricci bound.  Searching runs in
two phases: ``_best_cells`` scores a coarse grid of cells by the float
margins, bounded by the best of a sparse pass over a sixteenth of it, and
zooms a small grid onto the best cell so far, with no seed and no
randomness; then each objective rounds the best cell's q and r by continued
fractions (``cfg.denominator_bound``) and decides by exact arithmetic alone:
``minimize_delta0`` recertifies the least delta0 on a dyadic grid above the
row's exact threshold, in closed form, and ``maximize_epsilon`` recertifies
once.  Floating error is harmless: unsound candidates simply fail exact
recertification.
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
    """The chain's stages at dimension n, ``(head_at, head, tail, coefficients,
    f_at_1, diagonal)``, on the number type ``num``: float, or an exact type
    built from an int or a Fraction (``Unreduced`` or Fraction).

    Each constant the stages multiply, divide or compare by is converted to
    ``num`` once, here, under its own name: the chain's rational coefficients,
    the n-dependent integers and the literals 0, 1/2, 1, 2 and 4, so the chain
    combines its inputs with values of their own type only.  Small integers
    convert to double exactly, so the float margins keep every bit they had
    with int operands.  ``undefined``, the value of a margin that an upstream
    failure leaves undefined, is -1e18 on floats and None on any other type.

    - ``head_at(b, alpha, beta)``: the row's head terms, those free of a, as
      the list [b, alpha, beta > 0; 2 beta; 2 alpha; D's coefficient of a; D's
      constant term; b; alpha; beta; c; F(1); the Q terms], c (F's constant
      term), F(1) and the Q terms None until they are first needed.
    - ``head(a, terms)``: ``(f_xx, f_yy, D, F(0), Q, c)`` at a.  Where the
      Hessian gate (b, alpha, beta, f_xx, f_yy, D > 0) fails, F(0) is
      ``undefined`` and Q and c are None.  The first time it holds, ``head``
      puts the Q terms, the terms of Q's numerator free of a, into ``terms``,
      and c unless ``f_at_1`` has: a row that fails the gate never computes
      them, and every later head of the row reuses them.
    - ``tail(at_a, terms)``: every margin of the row from its head at a and
      its terms, with the intermediates, as ``_chain`` returns them.
    - ``coefficients(terms)``: the head as polynomials in a, from the terms
      of a row whose gate has held once (so its Q terms and c are filled in):
      ``(hessian, 2 beta, 2 alpha, disc_aa, d_a, d_0, d_disc, n_a, n_0, c)``
      with f_xx = hessian a - 2 beta, f_yy = hessian a - 2 alpha,
      D = disc_aa a^2 - d_a a + d_0, d_disc = d_a^2 - 4 disc_aa d_0 and
      F(0) D = c D + n_a a + n_0, n_a a + n_0 being Q's numerator N.  Like
      d_disc, n_a and n_0 are written so that they lose no digits where
      alpha = beta: n_a = -[(n^2 - 5n + 8)(alpha - beta)^2 + 2(n - 3) beta
      ((n - 4) alpha + beta)] and n_0 = alpha [(n - 2)(alpha - beta)^2 +
      (n - 3) beta ((n - 2) beta - alpha)].
    - ``f_at_1(terms)``: F(1), free of a, put into ``terms``, with c if the
      head has not put it there: F(1) is computed here only, and c only in
      ``constant``, whichever of the two stages needs it first.  The tail
      reads F(1) from ``terms`` and calls ``f_at_1`` only where nothing has,
      so the exact chain computes F(1) and c only where the gate holds; the
      float search calls it before a cell's head, for its F(1) bound
      (``_best_cells``).
    - ``diagonal(a, terms)``: whether f_xx and f_yy, the diagonal of f's
      Hessian, are positive at a, without the head: whether hessian a exceeds
      2 beta and 2 alpha.  On floats too it says exactly what the head's signs
      say: f_xx is the correctly rounded difference of hessian a and 2 beta,
      and such a difference has the sign of the exact one.
    """
    undefined = _BIG_NEGATIVE if num is float else None
    zero, half, one, two, four = num(0), num(Fraction(1, 2)), num(1), num(2), num(4)
    dim, n_1, n_2, n_3 = num(n), num(n - 1), num(n - 2), num(n - 3)  # dim is n, n_1 is n - 1, ...
    n_2_sq, n_1_n_2, four_n_2 = num((n - 2) ** 2), num((n - 1) * (n - 2)), num(4 * (n - 2))
    two_n_1, two_n_2, two_n_3, n_4 = num(2 * (n - 1)), num(2 * (n - 2)), num(2 * (n - 3)), num(n - 4)
    hessian = num(Fraction(2 * (n - 1), n - 2))  # f_xx's and f_yy's coefficient of a
    # D = disc_aa a^2 - 4 (disc_ab beta + alpha) a + (4 beta - alpha) alpha
    disc_aa, disc_ab = num(Fraction(4 * n, n - 2)), num(Fraction(n - 1, n - 2))
    # D's discriminant d_a^2 - 4 disc_aa d_0 = disc_sq (beta - alpha)^2 + disc_alpha alpha^2 - disc_beta beta^2,
    # written so that it loses no digits where D's roots meet: at n = 3, where alpha = beta
    disc_sq = num(Fraction(16 * (n + 1), n - 2))
    disc_alpha, disc_beta = num(Fraction(16 * (n - 3), n - 2)), num(Fraction(16 * (n - 3), (n - 2) ** 2))
    q_a, q_beta = num(n * n - 5 * n + 8), num(3 * n - 7)  # Q's coefficients of a alpha^2 and of beta alpha^2
    slope = num(Fraction(n * n - 4, 4))  # F(1)'s coefficient of b
    spectral_bound = num(Fraction(n - 2, n - 3)) if n > 3 else None  # the spectral coefficient's strict upper bound

    def head_at(b, alpha, beta) -> list:
        return [
            b > zero and alpha > zero and beta > zero, two * beta, two * alpha,
            four * (disc_ab * beta + alpha), (four * beta - alpha) * alpha, b, alpha, beta, None, None, None,
        ]

    def constant(terms: list):
        """F's constant term c, put into ``terms``."""
        b, alpha, beta = terms[5], terms[6], terms[7]
        c = terms[8] = two_n_1 * beta + two_n_2 * alpha - b * dim * n_2 / two
        return c

    def f_at_1(terms: list):
        _, _, _, _, _, b, alpha, beta, c, _, _ = terms
        if c is None:
            c = constant(terms)
        mx = max(n_2 * beta - alpha, n_3 * alpha)
        f1 = terms[9] = c + slope * b - (dim * beta + n_1 * alpha) - mx
        return f1

    def diagonal(a, terms: list) -> bool:
        h = hessian * a
        return h > terms[1] and h > terms[2]

    def head(a, terms: list) -> tuple:
        positive, two_beta, two_alpha, d_a, d_0, b, alpha, beta, const, _, q_terms = terms
        fxx = hessian * a - two_beta
        fyy = hessian * a - two_alpha
        D = disc_aa * a * a - d_a * a + d_0
        if not (positive and fxx > zero and fyy > zero and D > zero):
            return fxx, fyy, D, undefined, None, None
        if q_terms is None:
            q_terms = terms[-1] = n_2 * alpha**3, q_beta * beta, alpha**2, n_2_sq * alpha, beta**2
        n_2_alpha3, q_beta_beta, alpha_sq, n_2_sq_alpha, beta_sq = q_terms
        Q = (
            n_2_alpha3
            - (q_a * a + q_beta_beta) * alpha_sq
            + (n_2_sq_alpha - n_1_n_2 * a) * beta_sq
            + four_n_2 * a * alpha * beta
        ) / D
        if const is None:
            const = constant(terms)
        return fxx, fyy, D, const + Q, Q, const

    def tail(at_a: tuple, terms: list) -> tuple[tuple, tuple | None]:
        fxx, fyy, D, f0, Q, _ = at_a
        _, _, _, _, _, b, alpha, beta, _, f1, _ = terms
        eps = q_margin = spectral = ricci = young = g_bare = undefined
        coeff = mcc = L = values = None
        if Q is not None:
            if f1 is None:
                f1 = f_at_1(terms)
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

    def coefficients(terms: list) -> tuple:
        _, two_beta, two_alpha, d_a, d_0, _, alpha, beta, c, _, q_terms = terms
        _, _, alpha_sq, _, beta_sq = q_terms
        n_a = zero - (q_a * (alpha - beta) ** 2 + two_n_3 * beta * (n_4 * alpha + beta))
        n_0 = alpha * (n_2 * (alpha - beta) ** 2 + n_3 * beta * (n_2 * beta - alpha))
        d_disc = disc_sq * (beta - alpha) ** 2 + disc_alpha * alpha_sq - disc_beta * beta_sq
        return hessian, two_beta, two_alpha, disc_aa, d_a, d_0, d_disc, n_a, n_0, c

    return head_at, head, tail, coefficients, f_at_1, diagonal


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
    last bit, and the float search can find a cell's lowest delta0 from the
    head's terms alone, as polynomials in a (``_best_cells``).
    Typed constants: every number the chain combines with a, b, alpha and beta
    is one of the stages' constants, so floats meet floats only and exact
    values meet values of their own type only (integer exponents aside).
    Keep the order of operations: search results depend on the float margins
    to the last bit (tests/test_golden.py, test_chain_bits_pinned).
    """
    head_at, head, tail, *_ = stages
    terms = head_at(b, alpha, beta)
    return tail(head(a, terms), terms)


class ChainValues(NamedTuple):
    """The exact intermediates of ``_chain`` for a row that passes its Hessian gate."""

    Q: Fraction
    F_at_0: Fraction
    F_at_1: Fraction
    spectral_coeff: Fraction | None  # None when q >= 4
    mean_curv_coeff: Fraction | None  # None when the Ricci denominator or q fails
    L_max: Fraction | None  # None when no Young parameter binds (q = 2 or upstream failure)


def _exact(params: ParamSet) -> tuple[ConstraintReport, tuple | None]:
    """One exact evaluation of the chain, on ``Unreduced`` copies of a, b, alpha
    and beta: the report of ``feasibility``, each margin reduced once to a
    Fraction, and the intermediates, unreduced (None when the Hessian gate fails)."""
    n = params.n
    row = (Unreduced(x) for x in (params.a, params.b, params.alpha, params.beta))
    margins, values = _chain(*row, _stages(n, Unreduced))
    checks = []
    for name, margin in zip(margin_names(n), margins):
        if margin is None:
            why = "Hessian conditions failed" if values is None else _UNDEFINED_WHY[name]
            checks.append(CertCheck(name, "exact", "fail", None, None, f"undefined: {why}"))
        else:  # every margin is strict; the sign of an Unreduced is its numerator's
            status = "pass" if margin.numerator > 0 else "fail"
            checks.append(CertCheck(name, "exact", status, Fraction(margin.numerator, margin.denominator), None,
                                    STRICT_MARGIN))
    return ConstraintReport(checks), values


def exact_chain(params: ParamSet) -> tuple[ConstraintReport, ChainValues | None]:
    """The report of ``feasibility`` and the intermediates its margins were computed
    from, each reduced once to a Fraction (None when the Hessian gate fails)."""
    report, values = _exact(params)
    if values is None:
        return report, None
    return report, ChainValues._make(None if x is None else Fraction(x.numerator, x.denominator) for x in values)


def feasibility(params: ParamSet) -> ConstraintReport:
    """Every named constraint with its exact margin; feasible iff all satisfied.

    Every margin is strict (> 0).  Margins the chain leaves undefined after an
    upstream failure are reported unsatisfied with a note instead of raising.
    """
    return _exact(params)[0]


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
_SPARSE = 4  # the sparse pass ahead of the coarse grid scores every _SPARSE-th column and row
_DELTA0_BITS = 20  # the exact delta0 search runs on the grid k / 2^20, 0 < k < 2^20
# A float margin at or below this counts as failed.  Double rounding leaves a
# margin that is exactly 0 (at the vertex (q, r) = (3, 1) at n = 3, say) near
# 1e-16, and a cell that noise alone kept feasible would hold the search there.
_NOISE = 1e-12


def _larger_root(x2: float, x1: float, x0: float, disc: float) -> float:
    """The larger real root of x2 a^2 + x1 a + x0, x2 > 0, from its
    discriminant disc = x1^2 - 4 x2 x0, which the caller writes without
    cancellation, by the quadratic formula without cancellation
    (-(x1 + sign(x1) sqrt(disc)) / 2 is the product of x2 and the root of
    larger magnitude, and x0 over it the other root); -inf when there is none."""
    if disc < 0:
        return -math.inf
    big = -(x1 + math.copysign(math.sqrt(disc), x1)) / 2
    return max(big / x2, x0 / big) if big else 0.0


def _lowest_float_a(coefficients: tuple) -> float:
    """The least a above which f_xx, f_yy, D and F(0) all exceed _NOISE, in
    floats, from the float ``coefficients`` of a row that passes at some a:
    ``_lowest_delta0``'s threshold with each margin lowered by _NOISE, so the
    largest of f_xx's and f_yy's, which D's no longer implies, and the larger
    roots of D - _NOISE and of P = (c - _NOISE) D + N, whose leading
    coefficient is positive as F(0) rises to c and exceeds _NOISE where the
    row passes.  Near the n = 3 vertex (q, r) = (3, 1), f_yy and D vanish
    together and D's roots meet, and N's coefficients vanish as (alpha -
    beta)^2.  So each root reads a discriminant written without cancellation:
    D's is the one ``coefficients`` writes (d_a^2 - 4 disc_aa d_0 would lose
    most of its digits there), and P's, (n_a - c d_a)^2 - 4 c disc_aa
    (c d_0 + n_0), is c^2 d_disc - 2 c (n_a d_a + 2 disc_aa n_0) + n_a^2 from
    D's and from N's coefficients, which ``coefficients`` writes without
    cancellation too.
    """
    hessian, two_beta, two_alpha, disc_aa, d_a, d_0, d_disc, n_a, n_0, const = coefficients
    c = const - _NOISE
    return max(
        (two_beta + _NOISE) / hessian, (two_alpha + _NOISE) / hessian,
        (d_a + math.sqrt(d_disc + 4 * disc_aa * _NOISE)) / (2 * disc_aa),
        _larger_root(c * disc_aa, n_a - c * d_a, c * d_0 + n_0,
                     c * c * d_disc - 2 * c * (n_a * d_a + 2 * disc_aa * n_0) + n_a * n_a),
    )


def _best_cells(n: int, fixed: float | None) -> tuple[list[Cell], int]:
    """The search driver of both objectives: the best (q, r) cells at beta = 1 by the float margins.

    Verdicts do not change when a row is scaled, so beta = 1 loses nothing.  A
    cell is a point q in (0, 4), s in (0, 1) that puts r at the fraction s of
    its band, from the spectral curve (0 at n = 3) to the Ricci bound; q where
    the curve lies above the bound (q >= 8/3, 2 and 8/5 at n = 4, 5 and 6) is
    skipped.  The driver scores the centres of a _COARSE^2 grid over the whole
    square, then, _ZOOMS times, of a _ZOOM^2 grid over the box of the best cell
    so far and its neighbours.  Each grid runs column by column: q fixed, s
    and with it r rising.

    A feasible cell's key is (1, value): with ``fixed`` the value is epsilon at
    delta0 = fixed (epsilon/beta), without it -d, d the smallest float delta0
    at which the cell is feasible, in closed form, for a cell that passes at
    the best d so far (d never rises).  An infeasible cell's key is
    (0, -undefined margins, worst defined margin): every feasible cell outranks
    it, and where every cell leaves a margin undefined (n = 6) fewer undefined
    margins rank first.  Returns the best cell after each grid, finest first
    and without repeats, and the number of float evaluations: one per cell of
    the grids, whether or not its chain is evaluated, and none for the sparse
    pass's cells (below), which the coarse grid counts as its own.

    The closed form: the cell passed every margin at d, and delta0 < d changes
    a = delta0 * q only, so b, alpha, beta, the head's terms and every tail
    margin (F(1) among them) stay the same to the last bit and above _NOISE.
    So the cell passes at delta0 exactly when f_xx, f_yy, D and F(0) exceed
    _NOISE at a, which ``_lowest_float_a`` solves from the head's terms as
    polynomials in a (``coefficients``; the cell's head filled the Q terms
    in, as the cell's gate held).

    A cell replaces the best only when its key is greater, so the search
    evaluates only what can decide that.  Each time the best key changes it
    sets two bounds, both before any cell is feasible as well as after, and
    tests them before a cell's head; a cell that fails one cannot have a
    greater key and is not scored:
    - The gate bound, once the best key has fewer undefined margins than a
      cell whose Hessian gate fails (a feasible best has none): a cell whose
      f_xx or f_yy fails at a = d q, by ``diagonal``, has the key
      (0, _EPSILON - len(margin_names(n)), ...) and is below the best.  So is
      every later cell of its column: f_xx is free of r, f_yy = hessian a -
      2 r, r does not fall as s rises, to the last bit, as every rounding is
      monotone, and d changes only at a feasible cell.  The rest of the column
      is passed over in one step.  (The sparse pass may lower the d of this
      test below the d cells are scored at.)
    - The F(1) bound: F(1) is free of a (``f_at_1``), and
      epsilon = min(F(0), F(1)) <= F(1), so a cell with F(1) <= a floor has
      a key no greater than the best.  The floor is the best epsilon (itself
      above _NOISE) with ``fixed`` and a feasible best: the cell is
      infeasible, or feasible with an epsilon no greater.  It is _NOISE
      without ``fixed`` and a feasible best: the cell is infeasible.  It is
      the best's worst margin, at or below _NOISE, when the best is
      infeasible with every margin defined: the cell's gate fails, so it has
      undefined margins, or its worst margin is at most its epsilon, so at
      most the floor.  F(1) does not fall as r rises (its slope in r is
      n - 2 or 0), so once a cell of a column passes, the test would almost
      never stop a later one there, and the search stops testing in that
      column until the best, and with it the floor, changes.  A cell it does
      not test goes on to its head, which decides its key exactly.
    The same reasons hold for F(0), the head's, which the search tests against
    the same floor after the head and before the tail: it is -1e18 wherever
    the gate fails, and epsilon <= F(0).  A cell that goes on to the tail
    reuses its head and F(1) there, and once the best is feasible, a cell with
    a tail margin at or below _NOISE is infeasible and not scored either.
    None of these cells changes the best, d or any grid's result, but each
    still counts as one evaluation.

    The sparse pass: the bounds pass over much only once the best key is
    good, and in column order (q rising toward the n = 3 vertex (3, 1)) that
    comes late in the coarse grid.  So before it the driver scores the coarse
    grid's sparse subgrid, every _SPARSE-th column and row from the middle of
    the first _SPARSE (at most (_COARSE / _SPARSE)^2 cells), by the same code
    from the same start, and counts none of them.  The sparse best's key L
    is the key of a real coarse cell: a feasible L because the coarse grid
    starts from the same d, an infeasible one because d moves only at a
    feasible cell, whose key is greater.  So the coarse best is at least L,
    and a cell whose key is provably below L can neither beat nor tie it.
    The coarse grid then runs as it would have, in the same order, from no
    best and the first d, but with the bounds L set:
    - Without ``fixed`` and a feasible L = (1, -d_L): the gate bound tests
      f_xx and f_yy at a = d_L q until the coarse d falls to d_L or below (a
      cell that fails there has its lowest delta0 above d_L, where
      ``_lowest_float_a`` lifts both to _NOISE), and the floor is _NOISE.
    - Otherwise the gate bound, if L sets one, tests at the first d, and the
      floor, if L sets one (epsilon_L with ``fixed``, the worst margin of an
      infeasible L), is the float just below it, so that F(1) or F(0) at the
      floor itself passes.  The test must be strict: at n = 3,
      F(1) = 1 - q/4 is free of r for r >= 1, so equal keys occur, and the
      first of them, which may come before the sparse cell, is the best.
    With a feasible L, a cell with a tail margin at or below _NOISE is not
    scored either.  A sparse pass that scores no cell, every sparse column
    lying past the band (n >= 27), sets no bound.  So the coarse grid ends
    with the same best cell, d, bounds and evaluations as without the pass,
    and so does every zoom after it.
    """
    # the key's second entry where the Hessian gate fails: minus the number of
    # undefined margins, epsilon and every margin after it
    gate_failed = _EPSILON - len(margin_names(n))
    ricci = (n - 1) / (n - 2)
    used = 0
    d = 1.0 if fixed is None else fixed  # the delta0 cells are scored at: the best d so far
    # the bounds the best key sets: whether a cell must pass f_xx and f_yy at
    # a = gate_d q, and the floor its F(1) and F(0) must exceed, to beat it;
    # and whether the best is feasible
    gate_bound, gate_d, floor, feasible = False, d, None, False
    best = None  # (key, q, r, s)

    def level(q_lo: float, q_hi: float, s_lo: float, s_hi: float, cells: int, step: int = 1) -> tuple:
        """Score a grid's cells, every ``step``-th column and row from the
        middle of the first ``step``, into the search's state; returns the
        cell widths (dq, ds)."""
        nonlocal used, d, gate_bound, gate_d, floor, feasible, best
        head_at, head, tail, coefficients, f_at_1, diagonal = _stages(n, float)
        dq, ds = (q_hi - q_lo) / cells, (s_hi - s_lo) / cells
        for i in range(step // 2, cells, step):
            q = q_lo + (i + 0.5) * dq
            spectral = 4 * (n - 3) / ((n - 2) * (4 - q))
            if spectral >= ricci:
                continue
            test_f1 = True  # until a cell of the column passes the F(1) bound, and again once the best changes
            for j in range(step // 2, cells, step):
                s = s_lo + (j + 0.5) * ds
                terms = head_at(q, r := spectral + s * (ricci - spectral), 1.0)
                if gate_bound and not diagonal(gate_d * q, terms):
                    used += cells - j  # this cell and the rest of the column
                    break
                used += 1
                if test_f1 and floor is not None:
                    if f_at_1(terms) <= floor:
                        continue
                    test_f1 = False
                at_d = head(d * q, terms)
                fxx, fyy, D, f0, Q, _ = at_d
                if floor is not None and f0 <= floor:
                    continue
                if Q is None:  # the Hessian gate fails: the key from the head alone
                    key = 0, gate_failed, min(q, r, 1.0, fxx, fyy, D)
                else:
                    margins = tail(at_d, terms)[0]
                    worst = min(margins)
                    if worst <= _NOISE:
                        if feasible:
                            continue
                        undefined = margins.count(_BIG_NEGATIVE)
                        # the least defined margin: worst, or, if it is undefined, the
                        # first margin after the undefined ones, which sort first
                        key = 0, -undefined, sorted(margins)[undefined] if worst == _BIG_NEGATIVE else worst
                    elif fixed is not None:
                        key = 1, margins[_EPSILON]
                    else:
                        d = min(d, _lowest_float_a(coefficients(terms)) / q)
                        key = 1, -d
                if best is None or key > best[0]:
                    best = key, q, r, s
                    test_f1 = True
                    if key[0]:
                        gate_bound, floor, feasible = True, _NOISE if fixed is None else key[1], True
                        gate_d = min(gate_d, d)
                    else:
                        gate_bound, floor = key[1] > gate_failed, None if key[1] else key[2]
        return dq, ds

    level(0.0, 4.0, 0.0, 1.0, _COARSE, _SPARSE)
    # keep the bounds of the sparse best's key, if there is one, for the coarse level, d aside
    if best is not None and best[0][0] and fixed is None:
        d = 1.0
    elif floor is not None:  # strict: a cell whose F(1) or F(0) ties the floor may tie the key
        floor = math.nextafter(floor, -math.inf)
    used, best = 0, None

    levels = []
    q_lo, q_hi, s_lo, s_hi, cells = 0.0, 4.0, 0.0, 1.0, _COARSE
    for _ in range(_ZOOMS + 1):
        dq, ds = level(q_lo, q_hi, s_lo, s_hi, cells)
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
    """``certify(b, alpha)`` of the first feasible cell whose q and r, rounded by
    continued fractions under the denominator bound, it accepts.

    A coarser cell is tried only when rounding has moved a finer one out of the
    feasible set: a q within about 1/bound of 3 rounds to 3 itself, the vertex
    where gamma0 is 0 at n = 3.
    """
    for key, q, r in cells:
        if not key[0]:
            continue
        b, alpha = (Fraction(x).limit_denominator(cfg.denominator_bound) for x in (q, r))
        if b > 0 and alpha > 0 and (accepted := certify(b, alpha)) is not None:
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


def _least_integer_above(p, s) -> int:
    """The least integer above p + sqrt(s), for exact rationals p and s >= 0
    (Fraction or Unreduced), by one isqrt: with L the product of their
    denominators, p L and s L^2 are integers, and an integer m L - p L is at
    most sqrt(s L^2) exactly when it is at most isqrt(s L^2)."""
    p_den, s_den = p.denominator, s.denominator
    return (p.numerator * s_den + math.isqrt(s.numerator * s_den * p_den * p_den)) // (p_den * s_den) + 1


def _lowest_delta0(n: int, b: Fraction, alpha: Fraction) -> Accepted | None:
    """The row (delta0 * b, b, alpha, 1) at the smallest exactly feasible delta0
    = k / 2^bits, 0 < k < 2^bits (bits = _DELTA0_BITS), if any: ``_accepted``
    at the least k above t 2^bits / b, t the row's threshold in a.

    For fixed (b, alpha, beta) the exact verdict is monotone in a = delta0 * b:
    only f_xx, f_yy, D and epsilon depend on a.  f_xx * f_yy - D is the square
    of an affine function of a with slope +-2/(n-2), so f's Hessian is
    a * H1 + H0 with H1 = (2/(n-2)) [[n-1, +-1], [+-1, n-1]] positive definite:
    once the convexity gate holds at some a it holds at every larger a.  Q is
    the minimum of a * S + (terms free of a) with S >= 0, so F(0) = c + Q, and
    with it epsilon, does not decrease as a grows; F(1) and every other margin
    are free of a.

    So the row is feasible at a exactly when its margins free of a hold and a
    exceeds t, the larger of two roots, each p + sqrt(s) with rational p and
    s >= 0.  At a root of f_xx or f_yy, D <= 0, as f_xx * f_yy - D is a square,
    so D has a larger root and f_xx, f_yy are positive above it; the gate holds
    on a set that reaches to infinity, so exactly above that root.  There
    F(0) = c + N/D, N being Q's numerator, is positive exactly when P = c D + N
    is, again on such a set, so above P's larger root, or everywhere when P has
    none.  F(0) rises to c, so c <= 0 leaves no a, and c > 0 makes P's leading
    coefficient c disc_aa positive.  The head at the grid's top decides the
    gate for every k and fills in the Q terms that ``coefficients`` reads; the
    one exact evaluation at k decides the margins free of a.
    """
    top = 1 << _DELTA0_BITS
    head_at, head, _, coefficients, *_ = _stages(n, Unreduced)
    terms = head_at(Unreduced(b), Unreduced(alpha), Unreduced(1))
    if head(Unreduced(Fraction(top - 1, top) * b), terms)[4] is None:
        return None
    *_, disc_aa, d_a, d_0, _, n_a, n_0, c = coefficients(terms)
    if c.numerator <= 0:
        return None
    per_a, k = Unreduced(top / b), 0  # k exceeds t * per_a
    # D and P as x2 a^2 - x1 a + x0, x2 > 0: larger root p + sqrt(p^2 - x0/x2), p = x1 / (2 x2)
    for x2, x1, x0 in ((disc_aa, d_a, d_0), (c * disc_aa, c * d_a - n_a, c * d_0 + n_0)):
        p = x1 / (x2 + x2)
        s = p * p - x0 / x2
        if s.numerator >= 0:
            k = max(k, _least_integer_above(p * per_a, s * per_a * per_a))
    return _accepted(ParamSet(n, Fraction(k, top) * b, b, alpha, Fraction(1))) if k < top else None


def minimize_delta0(n: int, cfg: RunConfig) -> SearchResult:
    """Smallest certified delta0: the best cell's rounded row at the smallest
    exactly feasible delta0 = k / 2^_DELTA0_BITS, from its closed-form threshold
    (``_lowest_delta0``).

    For n with a built-in row the row (at beta = 1) is the witness, so the
    result never does worse than it; with nothing certified the result reports
    the best cell's margin profile at delta0 = 1.  Reads ``cfg.denominator_bound``.
    """
    notes: list[str] = []
    best = _builtin_row(n)
    if best is not None:
        notes.append(f"built-in row certified at delta0 = {rational_to_str(best[0].delta0)}")
    cells, used = _best_cells(n, None)
    found = _first_certified(cells, cfg, lambda b, alpha: _lowest_delta0(n, b, alpha))
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
    found = _first_certified(cells, cfg, lambda b, alpha: _accepted(ParamSet(n, delta0 * b, b, alpha, Fraction(1))))
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
