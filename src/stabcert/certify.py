"""One certification path for any parameter row.

A certificate has up to three sections, in this order:

* the margin chain: every margin of ``optimize.feasibility`` under the chain's
  names, the same checks a search certificate carries;
* evidence, appended only when every margin holds: the values the margins
  were computed from (D, Q, F's endpoint values, epsilon, mcc, L_max, gamma0),
  read from the chain's single exact evaluation; the pointwise curvature
  sampling of that Q, the quadratic-form sampling of that mcc and its exact
  vertex identity; and, under both gamma0 conventions, the barrier data with
  its exact surd identities and the barrier ODE;
* the published comparison, appended only for a built-in row: a = b*delta0,
  the delta0, epsilon, L and gamma0 targets, and a discrepancy check for each
  computed value that differs from its published one.
"""

from __future__ import annotations

from dataclasses import replace

from . import curvature, published
from .certificate import CertCheck, Certificate, PublishedTarget
from .config import RunConfig
from .curvature import ParamSet
from .optimize import ChainValues, exact_chain
from .rational import rational_to_str as rts
from .report import ConstraintReport


def chain_certificate(params: ParamSet, report: ConstraintReport) -> Certificate:
    """The row's parameters and its chain margins, unchanged."""
    return Certificate(n=params.n, params=params.as_strings(), checks=list(report.entries))


def certify(params: ParamSet, cfg: RunConfig) -> Certificate:
    """The chain; then, if every margin holds, the evidence and, for a built-in row, the published comparison."""
    report, chain = exact_chain(params)
    cert = chain_certificate(params, report)
    cert.environment.update(cfg.environment())
    if report.all_satisfied:
        _evidence(cert, params, report, chain, cfg)
        if params.n in published.PARAM_ROWS and params == ParamSet.published_row(params.n):
            _compare_published(cert, params)
    return cert


def _prefixed(prefix: str, report: ConstraintReport) -> list[CertCheck]:
    return [replace(check, name=f"{prefix}/{check.name}") for check in report.entries]


def _evidence(
    cert: Certificate, params: ParamSet, report: ConstraintReport, chain: ChainValues, cfg: RunConfig
) -> None:
    """The evidence for a row whose margins all hold, from the chain's one exact evaluation."""
    from . import bubble  # high precision: loaded by the first certificate with evidence, never by a search

    n, alpha, beta, q, seed = params.n, params.alpha, params.beta, params.q, cfg.seed
    eps = report.entry("epsilon").margin
    gamma0_bare = report.entry("gamma0_bare").margin
    c1, c2 = curvature.linear_coefficients(n, alpha, beta)
    cert.values.update(
        {
            "discriminant_D": rts(report.entry("discriminant").margin),
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
    cert.checks += curvature.curvature_sample_check(params, chain.Q, cfg.curvature_samples, seed).entries
    quadform = bubble.quadform_lower_bound_check(n, alpha, beta, chain.mean_curv_coeff, cfg.quadform_samples, seed)
    cert.checks += _prefixed("quadform", quadform)

    branches = bubble.derive(params, eps, gamma0_bare, dps=cfg.float_precision_digits)
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
        identities = bubble.surd_identities_check(alpha, beta, eps, branch.gamma0, branch.x0, branch.y0)
        cert.checks += _prefixed(prefix, identities)
        ode = bubble.barrier_ode_check(branch.x0, branch.y0, cfg.barrier_samples, cfg.float_precision_digits)
        cert.checks += _prefixed(prefix, ode)


def _compare_published(cert: Certificate, params: ParamSet) -> None:
    """Published values against the computed ones in ``cert.values``; a mismatch is a discrepancy, not a failure."""
    n, values = params.n, cert.values
    delta0 = published.DELTA0[n]
    cert.add_check(CertCheck.of("a_equals_b_delta0", params.a == params.b * delta0))
    cert.add_target(PublishedTarget("delta0", rts(delta0), rts(params.delta0), params.delta0 == delta0))
    trace = (
        f"; trace: F(0)={values['F_at_0']}, F(1)={values['F_at_1']}, "
        f"Q={values['f_min_coefficient_Q']}, D={values['discriminant_D']}"
    )
    compared = [("epsilon", "epsilon", "epsilon", published.EPSILON[n], "", trace)]
    if "L_max" in values:
        compared.append(("L", "L_max", "l_max", published.L_VALUES[n], "", ""))
    compared.append(("gamma0", "gamma0_bare", "gamma0", published.GAMMA0[n], "bare convention ", ""))
    for quantity, key, check, quoted, lead, tail in compared:
        quoted, computed = rts(quoted), values[key]
        cert.add_target(PublishedTarget(quantity, quoted, computed, computed == quoted))
        if computed != quoted:
            cert.add_check(
                CertCheck(
                    f"{check}_matches_published",
                    "exact",
                    "discrepancy",
                    detail=f"{lead}computed {computed} != published {quoted}{tail}",
                )
            )
