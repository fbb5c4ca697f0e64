import hashlib
import random
from fractions import Fraction as F

import pytest
from quadmin_oracle import determinant, hessian_entries, min_coefficient
from strict_number import Strict
from test_grid_oracle import sparse_cells

from stabcert import optimize, published
from stabcert.config import ConfigError, RunConfig
from stabcert.curvature import ParamSet
from stabcert.optimize import (
    ChainValues,
    exact_chain,
    feasibility,
    float_margins,
    margin_names,
    maximize_epsilon,
    minimize_delta0,
    reverify,
)


def row(n):
    return ParamSet.published_row(n)


def closed_epsilon(p):
    """min{F(0), F(1)} with the oracle's Q, written out here."""
    n, b, alpha, beta = p.n, p.b, p.alpha, p.beta
    const = 2 * (n - 1) * beta + 2 * (n - 2) * alpha - b * F(n * (n - 2), 2)
    slope = F(n * n - 4, 4) * b - (n * beta + (n - 1) * alpha) - max((n - 2) * beta - alpha, (n - 3) * alpha)
    return const + min_coefficient(n, p.a, alpha, beta), const + slope


class TestFeasibility:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_builtin_rows_feasible(self, n):
        report = feasibility(row(n))
        assert report.all_satisfied, [e.name for e in report.entries if not e.satisfied]

    def test_exact_spectral_margin_recorded(self):
        assert feasibility(row(4)).entry("spectral_bound").margin == F(83, 7854)
        assert feasibility(row(5)).entry("spectral_bound").margin == F(1893, 4800350)

    def test_alpha_bumped_to_3_fails(self):
        p = row(3)
        bad = ParamSet(3, p.a, p.b, F(3), p.beta)
        report = feasibility(bad)
        assert not report.all_satisfied
        assert not report.entry("hessian_fyy").satisfied  # 2a = 20/11 < 3

    def test_tiny_b_fails(self):
        # keep delta0 = 1/3, so a shrinks with b and the Hessian collapses
        p = row(3)
        bad = ParamSet(3, F(1, 300), F(1, 100), p.alpha, p.beta)
        report = feasibility(bad)
        assert not report.all_satisfied
        assert not report.entry("hessian_fxx").satisfied

    def test_undefined_margins_reported_not_raised(self):
        hessian = "undefined: Hessian conditions failed"
        cases = [
            # f_xx = 4a - 2 beta < 0: everything from epsilon on is undefined
            (ParamSet(3, F(1, 300), F(1, 100), F(1), F(1)),
             {name: hessian for name in ("epsilon", "q_below_4", "ricci_coeff_denominator",
                                         "young_numerator", "gamma0_bare")}),
            # ricci denominator 2 - 3 < 0: no Young numerator, so no Young parameter
            (ParamSet(3, F(5), F(1), F(3), F(1)),
             {"young_numerator": "undefined: upstream failure", "gamma0_bare": "undefined: no Young parameter"}),
            # q = b/beta = 4 at n = 4: no spectral coefficient
            (ParamSet(4, F(1), F(2), F(1, 2), F(1, 2)),
             {"spectral_bound": "undefined: q >= 4", "young_numerator": "undefined: upstream failure",
              "gamma0_bare": "undefined: no Young parameter"}),
            # Young numerator -1/24 <= 0
            (ParamSet(3, F(1), F(3), F(1, 2), F(1)), {"gamma0_bare": "undefined: no Young parameter"}),
        ]
        for params, want in cases:
            report = feasibility(params)
            assert not report.all_satisfied
            undefined = {e.name: e.detail for e in report.entries if e.margin is None}
            assert undefined == want, params
            assert not any(report.entry(name).satisfied for name in want)

    def test_binding_info_entry(self):
        # L_max is a value of the chain, not a margin: every margin is strict
        report, values = exact_chain(row(3))
        assert values.L_max == F(71, 11)
        assert [e.name for e in report.entries] == list(margin_names(3))
        assert all(e.detail == "> 0" for e in report.entries)

    def test_spectral_bound_is_strict(self):
        # q = 2 gives the coefficient 4/(4-2) * 1/1 = 2 = (n-2)/(n-3) exactly
        boundary = ParamSet(4, F(1), F(2), F(1), F(1))
        report = feasibility(boundary)
        assert all(report.entry(name).satisfied for name in ("hessian_fxx", "hessian_fyy", "discriminant"))
        assert exact_chain(boundary)[1].spectral_coeff == 4 / (4 - boundary.q) * boundary.beta / boundary.alpha == 2
        entry = report.entry("spectral_bound")
        assert not entry.satisfied and entry.margin == 0

    def test_chain_matches_exact_helpers(self):
        # the oracle's D and Q and the closed forms written here are the
        # reference for every margin and every intermediate the chain returns
        rng = random.Random(17)

        def jitter(x, spread):
            return (x * F(rng.randint(1000 - spread, 1000 + spread), 1000)).limit_denominator(10**4)

        rows = [ParamSet(3, F(1), F(3), F(18, 11), F(3, 2))]  # q = 2: no Young parameter binds
        for i in range(400):
            base = row(min(3 + i % 4, 5))
            b, alpha, beta = (jitter(x, 500) for x in (base.b, base.alpha, base.beta))
            rows.append(ParamSet(3 + i % 4, jitter(base.delta0, 300) * b, b, alpha, beta))
        for p in rows:
            n, alpha, beta = p.n, p.alpha, p.beta
            report, values = exact_chain(p)
            assert report == feasibility(p)
            m = {e.name: e.margin for e in report.entries}
            # one undefined value per number type: None exactly, -1e18 in the float mirror
            undefined = [report.entry(name).detail.startswith("undefined: ") for name in margin_names(n)]
            exact, _ = optimize._chain(p.a, p.b, alpha, beta, optimize._stages(n, F))
            # typed constants: the chain runs on a type that refuses every other operand
            strict = optimize._chain(*map(Strict, (p.a, p.b, alpha, beta)), optimize._stages(n, Strict))
            assert [[x if x is None else x.value for x in part or ()] for part in strict] == [
                list(exact), list(values or ())
            ]
            approx = float_margins(n, float(p.delta0), float(p.b), float(alpha), float(beta))
            assert [margin is None for margin in exact] == undefined
            assert [margin == -1e18 for margin in approx] == undefined
            fxx, fyy, _ = hessian_entries(n, p.a, alpha, beta)
            D = determinant(n, p.a, alpha, beta)
            assert (m["b_positive"], m["alpha_positive"], m["beta_positive"]) == (p.b, alpha, beta)
            assert (m["hessian_fxx"], m["hessian_fyy"], m["discriminant"]) == (fxx, fyy, D)
            if not (fxx > 0 and fyy > 0 and D > 0):
                assert m["epsilon"] is None and m["gamma0_bare"] is None and values is None
                continue
            q = p.q
            f0, f1 = closed_epsilon(p)
            assert values[:3] == (min_coefficient(n, p.a, alpha, beta), f0, f1)
            assert m["epsilon"] == min(f0, f1)
            assert m["q_below_4"] == 4 - q
            coeff = 4 / (4 - q) * beta / alpha if q < 4 else None
            assert values.spectral_coeff == coeff
            if n > 3:
                assert m["spectral_bound"] == (None if coeff is None else F(n - 2, n - 3) - coeff)
            ricci = (n - 1) * beta - (n - 2) * alpha
            assert m["ricci_coeff_denominator"] == ricci
            if ricci <= 0 or q >= 4:
                assert m["young_numerator"] is None and m["gamma0_bare"] is None
                assert values.mean_curv_coeff is values.L_max is None
                continue
            mcc = (4 * beta * beta - (n - 2) * alpha * alpha) / (4 * beta * ricci)
            young = mcc + 1 / q - 1
            assert values.mean_curv_coeff == mcc
            assert m["young_numerator"] == young
            if young <= 0:
                assert m["gamma0_bare"] is None and values.L_max is None
                continue
            cross = abs(F(1, 2) - 1 / q)
            if cross == 0:
                assert m["gamma0_bare"] == 1 / q
                assert values.L_max is None
            else:
                L = young / cross
                assert values.L_max == L
                assert m["gamma0_bare"] == 1 / q - cross / L


def assert_chain_on_fractions(p):
    """``exact_chain`` gives, as Fractions, the margins and values of ``_chain``
    evaluated on Fractions; its verdicts are those margins' signs."""
    margins, values = optimize._chain(p.a, p.b, p.alpha, p.beta, optimize._stages(p.n, F))
    report, chain = exact_chain(p)
    assert [e.margin for e in report.entries] == list(margins)
    assert chain == (None if values is None else ChainValues(*values))
    # no Unreduced leaves exact_chain, for certificates and rational_to_str
    assert all(type(x) is F for x in (*(e.margin for e in report.entries), *(chain or ())) if x is not None)
    assert [e.satisfied for e in report.entries] == [x is not None and x > 0 for x in margins]


def test_exact_chain_is_the_fraction_chain():
    # seeded rows around the built-in ones at n = 3..6, with denominators as
    # large as the search's rounding gives, a quarter to four times each value
    rng = random.Random(23)
    for n in range(3, 7):
        base = row(min(n, 5))
        for _ in range(150):
            b, alpha, beta = (x * F(rng.randint(250, 4000), 1000) for x in (base.b, base.alpha, base.beta))
            b, alpha, beta = (x.limit_denominator(10**6) for x in (b, alpha, beta))
            delta0 = (base.delta0 * F(rng.randint(500, 1500), 1000)).limit_denominator(4096)
            assert_chain_on_fractions(ParamSet(n, delta0 * b, b, alpha, beta))


class TestFloatMirror:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_exact_margins(self, n):
        p = row(n)
        exact = feasibility(p)
        approx = float_margins(n, float(p.delta0), float(p.b), float(p.alpha), float(p.beta))
        for name, value in zip(margin_names(n), approx):
            truth = exact.entry(name).margin
            assert value == pytest.approx(float(truth), rel=1e-9, abs=1e-12), name

    def test_infeasible_region_padded(self):
        values = float_margins(4, 0.5, 1.0, 50.0, 0.01)
        assert len(values) == len(margin_names(4))
        assert min(values) < 0


# Rows on which margins are exactly 0, each with the margins that the failures
# leave undefined and why.  Every margin is strict, so each row must fail at
# each zero margin, exactly and in the float mirror, and a flipped comparison
# (> to >=) must show.
_GATE_FAILED = "undefined: Hessian conditions failed"
_AFTER_GATE = ("epsilon", "q_below_4", "spectral_bound", "ricci_coeff_denominator", "young_numerator", "gamma0_bare")
_NO_GAMMA0 = {"gamma0_bare": "undefined: no Young parameter"}
_NO_YOUNG = {"young_numerator": "undefined: upstream failure", **_NO_GAMMA0}


def zero_row(id, params, zeros, undefined=None, float_defined=()):
    """``float_defined`` names margins the exact chain leaves undefined but the
    float mirror computes, because a zero upstream of them rounds positive."""
    return pytest.param(zeros, params, undefined or {}, float_defined, id=id)


ZERO_MARGIN_ROWS = [
    # f_xx = f_yy = 3a - 2 = 1/4 and D = 8a^2 - 10a + 3 = 0: the Hessian gate
    # fails, so epsilon and every margin after it are undefined
    zero_row(
        "D", ParamSet(4, F(3, 4), F(1), F(1), F(1)), ("discriminant",), dict.fromkeys(_AFTER_GATE, _GATE_FAILED)
    ),
    # f_xx = 4a - 2 beta at n = 3
    zero_row(
        "fxx", ParamSet(3, F(1, 2), F(1), F(1, 4), F(1)), ("hessian_fxx",),
        dict.fromkeys(_AFTER_GATE[:2] + _AFTER_GATE[3:], _GATE_FAILED),
    ),
    # f_yy = 4a - 2 alpha at n = 3; D = 12a^2 - 4(2 beta + alpha)a + (4 beta - alpha)alpha is 0 too
    zero_row(
        "fyy", ParamSet(3, F(1, 2), F(1), F(1), F(1, 4)), ("hessian_fyy", "discriminant"),
        dict.fromkeys(_AFTER_GATE[:2] + _AFTER_GATE[3:], _GATE_FAILED),
    ),
    # q = b/beta = 4: no spectral coefficient, and no Young parameter (epsilon < 0 as well)
    zero_row(
        "q=4", ParamSet(4, F(4), F(4), F(1), F(1)), ("q_below_4",), {"spectral_bound": "undefined: q >= 4", **_NO_YOUNG}
    ),
    # the n = 3 vertex (q, r) = (3, 1) at delta0 = 1/2: gamma0 = 1/3 - (1/L)(1/2 - 1/3) = 0;
    # the float margin rounds to -4.4e-16
    zero_row("gamma0", ParamSet(3, F(3, 2), F(3), F(1), F(1)), ("gamma0_bare",)),
    # the n = 4 vertex (q, r) = (2, 1) at delta0 = 7/16: mcc = 1/2 and q = 2 make
    # the Young numerator mcc + 1/q - 1 = 0, so gamma0 has no Young parameter
    zero_row(
        "n4-vertex", ParamSet(4, F(7, 8), F(2), F(1), F(1)), ("epsilon", "spectral_bound", "young_numerator"),
        _NO_GAMMA0,
    ),
    # solved in rationals for the one margin, with the Hessian gate holding and
    # every other defined margin positive:
    # the Ricci denominator (n-1)beta - (n-2)alpha at alpha = (n-1)/(n-2)
    zero_row("ricci", ParamSet(4, F(9, 8), F(1, 8), F(3, 2), F(1)), ("ricci_coeff_denominator",), _NO_YOUNG),
    # the spectral margin (n-2)/(n-3) - 4/(4-q) * beta/alpha at alpha = 4(n-3)/((n-2)(4-q));
    # at n = 5 the float margin rounds to +2.2e-16
    zero_row("spectral-n4", ParamSet(4, F(3, 4), F(1, 8), F(16, 31), F(1)), ("spectral_bound",)),
    zero_row("spectral-n5", ParamSet(5, F(7, 8), F(1, 8), F(64, 93), F(1)), ("spectral_bound",)),
    # the Young numerator mcc + 1/q - 1 at 1/q = 1 - mcc
    zero_row("young-n4", ParamSet(4, F(1), F(96, 49), F(9, 8), F(1)), ("young_numerator",), _NO_GAMMA0),
    # at n = 5 the float Young numerator rounds to +2.2e-16, so the float
    # mirror computes gamma0 from it: about -9.7e14, far below _NOISE
    zero_row(
        "young-n5", ParamSet(5, F(6, 5), F(28, 27), F(8, 7), F(1)), ("young_numerator",),
        _NO_GAMMA0, float_defined=("gamma0_bare",),
    ),
]


@pytest.mark.parametrize("zeros, params, undefined, float_defined", ZERO_MARGIN_ROWS)
def test_zero_margin_fails_without_raising(zeros, params, undefined, float_defined):
    assert_chain_on_fractions(params)
    report = feasibility(params)
    assert [e.name for e in report.entries if e.margin == 0] == list(zeros)
    assert not any(report.entry(name).satisfied for name in zeros)
    assert not report.all_satisfied
    assert {e.name: e.detail for e in report.entries if e.margin is None} == undefined
    names = margin_names(params.n)
    floats = map(float, (params.delta0, params.b, params.alpha, params.beta))
    approx = dict(zip(names, float_margins(params.n, *floats)))
    assert all(approx[name] <= optimize._NOISE for name in (*zeros, *float_defined))
    float_undefined = [e for e in names if e in undefined and e not in float_defined]
    assert [e for e in names if approx[e] == optimize._BIG_NEGATIVE] == float_undefined


def _box(n):
    """(b, alpha, beta) bounds around each built-in row, from a quarter to four
    times its values; n = 6 extrapolates the rows' trend."""
    if n in published.PARAM_ROWS:
        row = published.PARAM_ROWS[n]
        return tuple((float(row[key]) / 4, float(row[key]) * 4) for key in ("b", "alpha", "beta"))
    return tuple((val / 8, val * 8) for val in (0.47, 0.72, 0.52))


def _rounded(n, delta0, b, alpha, beta, bound):
    """b, alpha and beta rounded by continued fractions under ``bound``, with a = delta0 * b exactly."""
    b, alpha, beta = (F(x).limit_denominator(bound) for x in (b, alpha, beta))
    return ParamSet(n=n, a=delta0 * b, b=b, alpha=alpha, beta=beta)


def _chain_points(n, count=2000):
    """Seeded (delta0, b, alpha, beta) in ``_box(n)`` with delta0 in (0, 1]; every
    eighth point has b = 2 beta, so q = 2 exactly."""
    rng = random.Random(1000 + n)
    box = _box(n)
    for i in range(count):
        delta0 = 1 - rng.random()
        b, alpha, beta = (rng.uniform(lo, hi) for lo, hi in box)
        yield delta0, 2 * beta if i % 8 == 0 else b, alpha, beta


def _chain_line(margins, values) -> bytes:
    """One chain evaluation as text: floats by ``float.hex``, everything else by ``str``."""
    fields = margins + (values or (None,))
    return (" ".join(x.hex() if isinstance(x, float) else str(x) for x in fields) + "\n").encode()


def test_chain_bits_pinned():
    # Every float margin and intermediate to the last bit, and the exact chain of
    # the same points rounded to rationals, over n = 3..6.  The draw
    # reaches non-convex points, q >= 4 and, at n = 3, gamma0 = 1/q at q = 2.  The
    # digests were recorded while the chain still multiplied by int literals.
    floats, exact = hashlib.sha256(), hashlib.sha256()
    seen = {"non-convex": 0, "q >= 4": 0, "q = 2 reaches gamma0": 0}
    bound = RunConfig().denominator_bound
    for n in range(3, 7):
        float_stages, exact_stages = optimize._stages(n, float), optimize._stages(n, F)
        for delta0, b, alpha, beta in _chain_points(n):
            margins, values = optimize._chain(delta0 * b, b, alpha, beta, float_stages)
            floats.update(_chain_line(margins, values))
            seen["non-convex"] += values is None
            seen["q >= 4"] += values is not None and b / beta >= 4
            seen["q = 2 reaches gamma0"] += values is not None and b / beta == 2 and margins[-1] > 0
            p = _rounded(n, F(delta0).limit_denominator(4096), b, alpha, beta, bound)
            exact.update(_chain_line(*optimize._chain(p.a, p.b, p.alpha, p.beta, exact_stages)))
    assert min(seen.values()) > 100, seen
    assert floats.hexdigest() == "77f6da9bc3abced408270bb9b2d619854920989ce6989f3529616c391b68dfc9"
    assert exact.hexdigest() == "ab482904e70b8921a31f6eb183ff74eaaf075d141a84ad91339ff34723bf3597"


def test_feasibility_is_exact_chains_report():
    # the two entry points share one evaluation and reduce different amounts:
    # the same names, statuses, margins (as Fractions) and details, on the
    # built-in rows and seeded rows at n = 3..6 that fail the Hessian gate,
    # have q >= 4 or pass
    bound = RunConfig().denominator_bound
    rows = [row(n) for n in published.SUPPORTED_N]
    for n in range(3, 7):
        rows += [_rounded(n, F(d).limit_denominator(4096), b, alpha, beta, bound)
                 for d, b, alpha, beta in _chain_points(n, 150)]
    seen = {"gate fails": 0, "q >= 4": 0, "feasible": 0}
    for p in rows:
        report, values = exact_chain(p)
        assert feasibility(p) == report
        assert all(type(e.margin) is F for e in report if e.margin is not None)
        seen["gate fails"] += values is None
        seen["q >= 4"] += values is not None and p.q >= 4
        seen["feasible"] += report.all_satisfied
    assert min(seen.values()) >= 10, seen


def identity(b, alpha):
    return b, alpha


class TestMinimizeDelta0:
    def test_never_worse_than_builtin_row(self):
        result = minimize_delta0(3, RunConfig())
        assert result.certified
        assert result.delta0 <= F(1, 3)
        assert result.improvement_vs_published == F(1, 3) - result.delta0 > 0

    @pytest.mark.parametrize("n, exact_calls", [(3, 2), (4, 3), (5, 2)])
    def test_one_exact_evaluation_per_rounded_row(self, monkeypatch, n, exact_calls):
        # the witness, then one evaluation at each rounded row's closed-form k; at
        # n = 4 the best cell's row fails its spectral bound and the next one certifies
        calls = []
        exact = optimize.feasibility
        monkeypatch.setattr(optimize, "feasibility", lambda p: calls.append(p) or exact(p))
        assert minimize_delta0(n, RunConfig()).certified
        assert len(calls) == exact_calls

    def test_deterministic(self):
        # no seed reaches the search: two seeds give equal results, reports included
        assert minimize_delta0(4, RunConfig(seed=5)) == minimize_delta0(4, RunConfig(seed=0))

    def test_certified_result_reverifies_exactly(self):
        result = minimize_delta0(3, RunConfig())
        assert result.certified
        params, report = reverify(result.best_params.as_strings())
        assert params == result.best_params
        assert report.all_satisfied
        original = {e.name: e.margin for e in result.constraint_report.entries}
        replayed = {e.name: e.margin for e in report.entries}
        assert original == replayed

    def test_open_dimension_probe_reports_profile(self):
        result = minimize_delta0(6, RunConfig())
        if result.certified:  # would be a finding; surface loudly
            pytest.fail(f"unexpected certified n=6 row: {result.best_params}")
        profile = result.best_margin_profile
        assert profile is not None
        assert profile["_delta0"] == 1.0 and profile["beta_positive"] == 1.0
        assert list(profile)[:-1] == list(margin_names(6))


# The chain's infimum of delta0 (ROADMAP item 1): 1/6 at n = 3, not attained, at
# (q, r) = (3, 1); 7/16 at n = 4, at (2, 1); about 0.9534623 at n = 5.
@pytest.mark.parametrize("n, infimum", [(3, F(1, 6)), (4, F(7, 16))])
def test_certified_delta0_within_2_pow_minus_19_of_the_infimum(n, infimum):
    result = minimize_delta0(n, RunConfig())
    assert result.certified
    assert infimum < result.delta0 <= infimum + F(1, 2**19)


def test_certified_delta0_n5_beats_the_import_result():
    result = minimize_delta0(5, RunConfig())
    assert result.certified
    assert result.delta0 < F(3022, 3169) and result.delta0 <= F(95347, 100000)


def test_no_row_at_or_below_one_sixth_at_n3():
    # The lower end of the n = 3 bracket, by its three-line argument at beta = 1
    # (a row's verdicts are those of the row divided by its beta):
    # if q <= 3, hessian_fxx = 4 delta0 q - 2 <= 0; if q > 3, gamma0_bare > 0
    # needs r > q - 2 (mcc = (2 + r)/4), and then hessian_fyy = 4 delta0 q - 2r < 0.
    rng = random.Random(6)

    def draw(lo, hi):
        return lo + (hi - lo) * F(rng.randint(1, 10**6), 10**6)

    branches = {"q <= 3": 0, "gamma0": 0, "f_yy": 0}
    for i in range(3000):
        # every other row near the vertex and the threshold, where the bracket is tight
        near = i % 2 == 0
        q = draw(F(29, 10), F(31, 10)) if near else draw(F(0), F(4))
        r = draw(F(9, 10), F(11, 10)) if near else draw(F(0), F(2))
        delta0 = F(1, 6) - draw(F(0), F(1, 1000)) / 10 if near else draw(F(0), F(1, 6))
        beta = draw(F(1, 10), F(10))
        report = feasibility(ParamSet(3, delta0 * q * beta, q * beta, r * beta, beta))
        assert not report.all_satisfied
        if q <= 3:
            assert report.entry("hessian_fxx").margin <= 0
            branches["q <= 3"] += 1
        elif r > q - 2:
            assert report.entry("hessian_fyy").margin < 0
            branches["f_yy"] += 1
        else:
            assert not report.entry("gamma0_bare").satisfied
            branches["gamma0"] += 1
    assert min(branches.values()) > 100, branches
    # the rows q = 3 - t, r = 1 - t/2 certify just above 1/6, never at it
    for t in (F(1, 10**6), F(1, 10**4)):
        q, r = 3 - t, 1 - t / 2
        assert feasibility(ParamSet(3, (F(1, 6) + t / 10) * q, q, r, F(1))).all_satisfied
        assert not feasibility(ParamSet(3, F(1, 6) * q, q, r, F(1))).all_satisfied


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_search_scores_cells_inside_the_band(monkeypatch, n):
    # beta = 1, 0 < q < 4 and r strictly between the spectral curve and the Ricci
    # bound; evaluations_used counts every cell of the grids, and the grid's
    # bounds pass some over before their head, so the chain's float head sees
    # at most that many, plus the sparse pass's cells ahead of the coarse grid
    # and the margin profile's float_margins (tests/test_grid_oracle.py pins
    # evaluations_used itself)
    seen = []
    stages = optimize._stages

    def recording_stages(dim, num):
        head_at, head, *rest = stages(dim, num)
        if num is not float:  # the exact recertification
            return (head_at, head, *rest)

        def recording(a, terms):
            seen.append(tuple(terms[5:8]))  # the head terms' b, alpha and beta
            return head(a, terms)

        return (head_at, recording, *rest)

    monkeypatch.setattr(optimize, "_stages", recording_stages)
    result = minimize_delta0(n, RunConfig())
    assert 0 < len(seen) <= result.evaluations_used + sparse_cells(n) + 1
    for b, alpha, beta in seen:
        assert beta == 1.0 and 0 < b < 4
        assert 4 * (n - 3) / ((n - 2) * (4 - b)) < alpha < (n - 1) / (n - 2)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_every_returned_row_has_beta_one(n):
    for result in (minimize_delta0(n, RunConfig()), maximize_epsilon(n, RunConfig(), published.DELTA0[n])):
        assert result.certified and result.best_params.beta == 1


class TestMaximizeEpsilon:
    def test_witness_dominance_row3(self):
        result = maximize_epsilon(3, RunConfig(), F(1, 3))
        assert result.certified
        assert result.epsilon >= published.EPSILON[3] / row(3).beta
        assert result.improvement_vs_published == result.epsilon - published.EPSILON[3] / row(3).beta

    def test_witness_dominance_row5(self):
        result = maximize_epsilon(5, RunConfig(), F(21, 22))
        assert result.certified
        assert result.epsilon >= published.EPSILON[5] / row(5).beta

    def test_result_epsilon_is_exact(self):
        result = maximize_epsilon(4, RunConfig(seed=1), F(1, 2))
        assert result.epsilon == min(closed_epsilon(result.best_params))

    def test_uncertified_reports_profile_at_the_fixed_delta0(self):
        result = maximize_epsilon(6, RunConfig(), F(1, 2))
        assert not result.certified and result.delta0 == F(1, 2)
        assert result.best_margin_profile["_delta0"] == 0.5


def test_rounding_respects_denominator_bound():
    rng = random.Random(21)
    for _ in range(300):
        q, r = rng.uniform(0.05, 3.95), rng.uniform(0.05, 2.0)
        bound = rng.choice([10, 1000, 10**6])
        b, alpha = optimize._first_certified([((1, 0.0), q, r)], RunConfig(denominator_bound=bound), identity)
        for value, raw in ((b, q), (alpha, r)):
            assert 0 < value.denominator <= bound
            assert abs(float(value) - raw) <= 1.0 / bound


def test_rounding_recovers_builtin_row_from_floats():
    # the witness is the built-in row divided exactly by its beta; its q and r,
    # as floats, round back to it under the default bound
    for n in (3, 4, 5):
        p = row(n)
        witness = optimize._builtin_row(n)[0]
        assert witness == ParamSet(n, p.a / p.beta, p.b / p.beta, p.alpha / p.beta, F(1))
        assert witness.delta0 == p.delta0
        cell = ((1, 0.0), float(witness.b), float(witness.alpha))
        assert optimize._first_certified([cell], RunConfig(), identity) == (witness.b, witness.alpha)


def test_rounding_onto_a_vertex_falls_back_to_a_coarser_cell():
    # a q within 1/bound of 3 rounds to 3, where gamma0 is 0 at n = 3
    def lowest(b, alpha):
        return optimize._lowest_delta0(3, b, alpha)

    vertex, coarser = ((1, -0.17), 3 - 1e-9, 1 - 1e-10), ((1, -0.18), 2.999, 0.9995)
    assert optimize._first_certified([vertex], RunConfig(), lowest) is None
    params, report = optimize._first_certified([vertex, coarser], RunConfig(), lowest)
    assert (params.b, params.alpha, params.beta) == (F(2999, 1000), F(1999, 2000), 1) and report.all_satisfied
    assert params.delta0.denominator == 2**20
    # an infeasible cell is never tried
    assert optimize._first_certified([((0, -1, -1.0), 2.999, 0.9995)], RunConfig(), lowest) is None


def test_config_validation():
    with pytest.raises(ConfigError, match="denominator_bound must be >= 2"):
        RunConfig(denominator_bound=1)
