"""Every certificate stabcert writes: a parameter row's (``certify``), a
search result's (``result_certificate``) and verify-all's (``certify_all``).

A row's certificate has up to three sections, in this order:

* the margin chain: every margin of ``optimize.feasibility`` under the chain's
  names, the same checks a search certificate carries;
* evidence, appended only when every margin holds: the values the margins
  were computed from (D, Q, F's endpoint values, epsilon, mcc, L_max, gamma0),
  read from the chain's single exact evaluation; the pointwise curvature
  sampling of that Q, the quadratic-form sampling of that mcc and its exact
  vertex identity; and, under both gamma0 conventions, the barrier data and
  the barrier ODE;
* the published comparison, appended only for a built-in row: the check
  a = b*delta0, and one published target for each of delta0, epsilon, L and
  gamma0; a target whose computed value differs from the published one is a
  discrepancy, and the values it was computed from are in the evidence.

A search result's certificate is the margin chain of its row, which
exact recertification has just computed; the search's result values stay in
its result file.  It draws no samples, so a search loads no high-precision
code.  verify-all's bundles the three built-in rows' certificates with the
delta1 table and the iteration constants at delta = 1.

An identity that holds for every input (the critical collapse, the barrier
amplitudes' product and ratio) is a fact of the code, not of a row: the tests
prove it, and no certificate carries it.

Each is a deterministic function of its params and the settings its
environment records, so ``recompute`` rebuilds it from them.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from . import curvature, published
from .certificate import ApproxValue, CertCheck, Certificate, ConstraintReport, PublishedTarget, json_difference
from .config import _PARSERS, RunConfig
from .curvature import ParamSet
from .optimize import ChainValues, SearchResult, exact_chain, feasibility
from .rational import rational_to_str as rts


def chain_certificate(params: ParamSet, report: ConstraintReport, cfg: RunConfig) -> Certificate:
    """The row's parameters and its chain margins, unchanged, with the run settings."""
    return Certificate(n=params.n, params=params.as_strings(), checks=list(report), environment=cfg.environment())


def certify(params: ParamSet, cfg: RunConfig) -> Certificate:
    """The chain; then, if every margin holds, the evidence and, for a built-in row, the published comparison."""
    report, chain = exact_chain(params)
    cert = chain_certificate(params, report, cfg)
    if report.all_satisfied:
        _evidence(cert, params, chain, cfg)
        if params.n in published.PARAM_ROWS and params == ParamSet.published_row(params.n):
            _compare_published(cert, params)
    return cert


def _prefixed(prefix: str, checks: list[CertCheck]) -> list[CertCheck]:
    return [check._replace(name=f"{prefix}/{check.name}") for check in checks]


def _evidence(cert: Certificate, params: ParamSet, chain: ChainValues, cfg: RunConfig) -> None:
    """The evidence for a row whose margins (``cert.checks``) all hold, from the chain's one exact evaluation."""
    from . import bubble  # high precision: loaded by the first certificate with evidence, never by a search

    n, alpha, beta, q, seed = params.n, params.alpha, params.beta, params.q, cfg.seed
    margins = {check.name: check.margin for check in cert.checks}
    eps, gamma0_bare = margins["epsilon"], margins["gamma0_bare"]
    c1, c2 = curvature.linear_coefficients(n, alpha, beta)
    cert.values.update(
        {
            "discriminant_D": rts(margins["discriminant"]),
            "f_min_coefficient_Q": rts(chain.Q),
            "F_at_0": rts(chain.F_at_0),
            "F_at_1": rts(chain.F_at_1),
            "epsilon": rts(eps),
            # which linear coefficient attains the max in F(1)
            "gradient_term_max_branch": "beta" if c1 > c2 else "alpha" if c1 < c2 else "both",
            "linear_scale_convention": "sign-independent: the minimum depends on the linear-term scale only "
            "through its square; sampling draws both orientations",
        }
    )
    cert.checks += curvature.curvature_sample_check(params, chain.Q, cfg.curvature_samples, seed)
    quadform = bubble.quadform_lower_bound_check(n, alpha, beta, chain.mean_curv_coeff, cfg.quadform_samples, seed)
    cert.checks += _prefixed("quadform", quadform)

    branches = bubble.derive(params, eps, gamma0_bare)
    gamma0_with_ratio = branches[1].gamma0
    cert.values["q"] = rts(q)
    cert.values["spectral_coeff"] = rts(chain.spectral_coeff)
    cert.values["mean_curv_coeff"] = rts(chain.mean_curv_coeff)
    if chain.L_max is not None:
        cert.values["L_max"] = rts(chain.L_max)
    cert.values["gamma0_bare"] = rts(gamma0_bare)
    cert.values["gamma0_with_ratio"] = rts(gamma0_with_ratio)
    cert.add_flag(
        "gamma0_convention_divergence",
        "the defining bracket carries an extra beta/alpha factor that the quoted "
        "values omit; both conventions are computed and carried through the chain",
        bare=rts(gamma0_bare),
        with_ratio=rts(gamma0_with_ratio),
    )
    for branch in branches:
        prefix = f"barrier[{branch.convention}]"
        cert.values[f"{prefix}/gamma0"] = rts(branch.gamma0)
        cert.values[f"{prefix}/x0"] = str(branch.x0)
        cert.values[f"{prefix}/y0"] = str(branch.y0)
        cert.values[f"{prefix}/area_const"] = branch.area_const.to_jsonable()
        cert.values[f"{prefix}/volume_const"] = branch.volume_const.to_jsonable()
        ode = bubble.barrier_ode_check(branch.x0, branch.y0, cfg.barrier_samples)
        cert.checks += _prefixed(prefix, ode)


def _compare_published(cert: Certificate, params: ParamSet) -> None:
    """One published target per quoted value, against the computed one in ``cert.values``
    (gamma0 under the bare convention); a mismatch is a discrepancy, not a failure."""
    n, values = params.n, cert.values
    cert.checks.append(CertCheck.of("a_equals_b_delta0", params.a == params.b * published.DELTA0[n]))
    compared = [("delta0", published.DELTA0, rts(params.delta0)), ("epsilon", published.EPSILON, values["epsilon"])]
    if "L_max" in values:
        compared.append(("L", published.L_VALUES, values["L_max"]))
    compared.append(("gamma0", published.GAMMA0, values["gamma0_bare"]))
    for quantity, table, computed in compared:
        quoted = rts(table[n])
        cert.published_targets.append(PublishedTarget(quantity, quoted, computed, computed == quoted))


def result_certificate(result: SearchResult, cfg: RunConfig) -> Certificate:
    """Certificate for one certified search result; re-verifiable from params alone."""
    assert result.best_params is not None and result.constraint_report is not None
    cert = chain_certificate(result.best_params, result.constraint_report, cfg)
    cert.environment["objective"] = result.objective
    cert.environment["evaluations_used"] = result.evaluations_used
    return cert


def certify_all(cfg: RunConfig) -> Certificate:
    """verify-all's certificate: each built-in row's, the delta1 table and the iteration grid.

    The grid is computed first: when cfg's s and s1 leave both Caccioppoli
    branches nonpositive it raises ConfigError before any row is certified.
    The grid holds, for each built-in n at delta = 1 and q midway between
    (n-2)/n and delta, epsilon1, C and C0 (from C_MS and R) and the
    Caccioppoli C1 and C2 at k = delta/2 (from s and s1).
    """
    from . import iteration  # high precision: loaded by verify-all, never by a search

    grid = []
    delta = Fraction(1)
    for n in published.SUPPORTED_N:
        q = (Fraction(n - 2, n) + delta) / 2
        dg = iteration.degiorgi_constants(n, delta, q, cfg.c_ms, cfg.radius)
        eps1 = iteration.epsilon1_threshold(n, delta, q, cfg.c_ms)
        cacc = iteration.caccioppoli_constants(n, delta, delta / 2, cfg.s, cfg.s1)
        grid.append(
            {
                "n": n,
                "delta": rts(delta),
                "q": rts(q),
                "epsilon1": ApproxValue.from_mpf(eps1).to_jsonable(),
                "C": str(dg.C),
                "C0": dg.C0.to_jsonable(),
                "caccioppoli_C1": rts(cacc.c1),
                "caccioppoli_C2": rts(cacc.c2),  # p = 4k + 2 = 4: exact
                "p": rts(cacc.p),
                "both_branches_positive": cacc.both_branches_positive,
            }
        )

    cert = Certificate(
        n=0, params={"rows": ",".join(str(n) for n in published.SUPPORTED_N)}, environment=cfg.environment()
    )
    for n in published.SUPPORTED_N:
        row = certify(ParamSet.published_row(n), cfg)
        cert.values[f"row_n{n}"] = row.to_jsonable()
        passed = row.overall_status == "passed"
        cert.checks.append(CertCheck.of(f"row_n{n}_overall", passed, detail=f"{len(row.discrepancies)} discrepancies"))
        cert.published_targets += [replace(t, quantity=f"n={n}:{t.quantity}") for t in row.published_targets]
        for flag in row.flags:
            cert.add_flag(f"n={n}:{flag['name']}", flag["detail"])

    for n in published.SUPPORTED_N:
        value, quoted = iteration.delta1_of(n), published.DELTA1[n]
        cert.published_targets.append(PublishedTarget(f"delta1(n={n})", rts(quoted), rts(value), value == quoted))
    cert.values["iteration_grid"] = grid
    return cert


# environment keys that are no setting; the digits were one before the precision was fixed
_METADATA = ("objective", "evaluations_used", "float_precision_digits")


def recompute(cert: Certificate) -> Certificate:
    """The certificate stabcert writes for ``cert``'s params under the settings its
    environment records, each ``RunConfig.environment()`` field as a run writes it
    (the ``_METADATA`` keys aside): ``certify_all``'s for n = 0, a search result's
    margin chain when the environment names an objective, else ``certify``'s.
    Settings and params are read before anything runs."""
    settings = {key: value for key, value in cert.environment.items() if key not in _METADATA}
    try:
        cfg = RunConfig(**{key: _PARSERS[key](value) for key, value in settings.items() if key in _PARSERS})
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ValueError(f"environment: {exc}") from None
    if difference := json_difference(settings, cfg.environment(), "environment"):
        raise ValueError(f"{difference} as a run records its settings")
    if cert.n == 0:
        return certify_all(cfg)
    params = ParamSet.from_strings(cert.params, cert.n)
    if "objective" not in cert.environment:
        return certify(params, cfg)
    return chain_certificate(params, feasibility(params), cfg)
