import random
from fractions import Fraction as F

import pytest
from quadmin_oracle import determinant, hessian_entries, min_coefficient

from stabcert import optimize, published
from stabcert.config import ConfigError, RunConfig
from stabcert.curvature import ParamSet
from stabcert.optimize import (
    default_box,
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
            exact, _ = optimize._chain(n, p.a, p.b, alpha, beta, optimize._coefficients(n, F))
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


class TestMinimizeDelta0:
    def test_never_worse_than_builtin_row(self):
        result = minimize_delta0(3, RunConfig(budget=4000))
        assert result.certified
        assert result.delta0 <= F(1, 3)
        assert result.improvement_vs_published >= 0
        assert result.evaluations_used <= 4000

    def test_deterministic(self):
        cfg = RunConfig(budget=3000, seed=5)
        a = minimize_delta0(4, cfg)
        b = minimize_delta0(4, cfg)
        assert a.delta0 == b.delta0
        assert a.best_params == b.best_params
        assert a.evaluations_used == b.evaluations_used

    def test_certified_result_reverifies_exactly(self):
        result = minimize_delta0(3, RunConfig(budget=3000))
        assert result.certified
        params, report = reverify(result.best_params.as_strings())
        assert params == result.best_params
        assert report.all_satisfied
        original = {e.name: e.margin for e in result.constraint_report.entries}
        replayed = {e.name: e.margin for e in report.entries}
        assert original == replayed

    def test_open_dimension_probe_reports_profile(self):
        result = minimize_delta0(6, RunConfig(budget=2500))
        if result.certified:  # would be a finding; surface loudly
            pytest.fail(f"unexpected certified n=6 row: {result.best_params}")
        assert result.best_margin_profile is not None
        assert "_delta0" in result.best_margin_profile


    def test_each_point_scored_once_per_delta0(self, monkeypatch):
        # the memo answers repeated points; the budget still counts every query
        seen = []
        scored = optimize.float_margins

        def recording(n, delta0, b, alpha, beta):
            seen.append((delta0, b, alpha, beta))
            return scored(n, delta0, b, alpha, beta)

        monkeypatch.setattr(optimize, "float_margins", recording)
        result = minimize_delta0(4, RunConfig(seed=5))
        assert result.evaluations_used == 12840  # tests/data/search_n4_seed5.json
        assert len(seen) == len(set(seen))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_evaluations_never_exceed_budget(n):
    # a trial the budget refuses is neither scored nor counted
    delta0 = published.DELTA0.get(n, F(1))
    for budget in range(1, 400, 7):
        cfg = RunConfig(budget=budget)
        for result in (minimize_delta0(n, cfg), maximize_epsilon(n, cfg, delta0)):
            assert result.evaluations_used <= budget, (result.objective, budget)


class TestMaximizeEpsilon:
    def test_witness_dominance_row3(self):
        result = maximize_epsilon(3, RunConfig(budget=3000), F(1, 3))
        assert result.certified
        assert result.epsilon >= published.EPSILON[3]

    def test_witness_dominance_row5(self):
        result = maximize_epsilon(5, RunConfig(budget=2500), F(21, 22))
        assert result.certified
        assert result.epsilon >= published.EPSILON[5]

    def test_result_epsilon_is_exact(self):
        result = maximize_epsilon(4, RunConfig(budget=2000, seed=1), F(1, 2))
        assert result.epsilon == min(closed_epsilon(result.best_params))


def test_rounding_respects_denominator_bound():
    import random

    from stabcert.optimize import _round_params

    rng = random.Random(21)
    for _ in range(300):
        b, alpha, beta = (rng.uniform(0.05, 5.0) for _ in range(3))
        bound = rng.choice([10, 1000, 10**6])
        params = _round_params(3, F(1, 3), b, alpha, beta, bound)
        assert params is not None
        for value, raw in ((params.b, b), (params.alpha, alpha), (params.beta, beta)):
            assert value.denominator <= bound
            assert abs(float(value) - raw) <= 1.0 / bound
        assert params.delta0 == F(1, 3)  # a = delta0 * b holds exactly after rounding


def test_rounding_recovers_builtin_row_from_floats():
    from stabcert.optimize import _round_params

    p = ParamSet.published_row(5)
    rounded = _round_params(5, F(21, 22), float(p.b), float(p.alpha), float(p.beta), 10**6)
    assert rounded == p


def test_config_validation():
    with pytest.raises(ConfigError, match="denominator_bound must be >= 2"):
        RunConfig(denominator_bound=1)
    with pytest.raises(ConfigError, match="budget must be >= 1"):
        RunConfig(budget=0)
    with pytest.raises(ValueError):
        default_box(9)
