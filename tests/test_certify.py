"""The single certification path: the margin chain, then evidence, then the published comparison."""

from fractions import Fraction as F

import pytest

from stabcert import published
from stabcert.certificate import Certificate, PublishedTarget
from stabcert.certify import certify, result_certificate
from stabcert.cli import main
from stabcert.config import RunConfig
from stabcert.curvature import ParamSet
from stabcert.optimize import SearchResult, exact_chain, feasibility, margin_names, minimize_delta0
from stabcert.rational import rational_to_str

SMALL = {"curvature_samples": 300, "quadform_samples": 20, "barrier_samples": 10}
CFG = RunConfig(**SMALL, seed=1)
EVIDENCE = (
    "pointwise_curvature_inequality",
    "quadform/quadform_lower_bound",
    "quadform/quadform_bound_tight_at_vertex",
    "barrier[bare]/barrier_ode_residual",
    "barrier[with_ratio]/barrier_ode_residual",
)
# identities that hold for every positive input: tests/test_bubble.py proves them, no certificate carries them
SURD_IDENTITIES = tuple(
    f"barrier[{convention}]/barrier_{identity}_identity"
    for convention in ("bare", "with_ratio")
    for identity in ("product", "ratio")
)


def summary(checks):
    return [(c.name, c.status, c.margin) for c in checks]


def search_result(params: ParamSet) -> SearchResult:
    """A search result carrying ``params``, as the optimizer would return it."""
    report = feasibility(params)
    return SearchResult(
        n=params.n,
        objective="minimize_delta0",
        best_params=params,
        certified=report.all_satisfied,
        delta0=params.delta0,
        epsilon=None,
        constraint_report=report,
        improvement_vs_published=None,
        evaluations_used=0,
    )


def test_builtin_row_passes_and_matches():
    cert = certify(ParamSet.published_row(3), CFG)
    assert cert.overall_status == "passed"
    assert not cert.discrepancies
    assert cert.values["epsilon"] == "9/11"
    assert cert.values["F_at_0"] == "909/176"
    assert [t.quantity for t in cert.published_targets] == ["delta0", "epsilon", "L", "gamma0"]
    assert all(t.match for t in cert.published_targets)
    vertex = next(c for c in cert.checks if c.name == "quadform/quadform_bound_tight_at_vertex")
    assert (vertex.kind, vertex.status) == ("exact", "pass")
    assert "4AC - B^2 = 4AK" in vertex.detail


def test_builtin_row_carries_flag_and_targets():
    cert = certify(ParamSet.published_row(5), CFG)
    assert cert.values["L_max"] == "106986857/251572482"
    assert cert.values["gamma0_with_ratio"] == "138273723/165829628350"
    assert [f["name"] for f in cert.flags] == ["gamma0_convention_divergence"]
    by_q = {t.quantity: t for t in cert.published_targets}
    assert by_q["L"].match and by_q["gamma0"].match
    assert all(c.status == "pass" for c in cert.checks)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_verify_leads_with_the_search_certificate_checks(tmp_path, n):
    config = tmp_path / "small.cfg"
    config.write_text("".join(f"{key} = {value}\n" for key, value in SMALL.items()), encoding="utf-8")
    out = tmp_path / "cert.json"
    assert main(["verify", "--n", str(n), "--config", str(config), "--out", str(out)]) == 0
    cert = Certificate.read(out)
    chain = result_certificate(search_result(ParamSet.published_row(n)), RunConfig()).checks
    assert summary(cert.checks[: len(chain)]) == summary(chain)
    rest = [c.name for c in cert.checks[len(chain):]]
    assert rest == [*EVIDENCE, "a_equals_b_delta0"]
    assert not set(SURD_IDENTITIES) & {c.name for c in cert.checks}


def test_search_result_certifies_without_published_targets():
    result = minimize_delta0(3, RunConfig(seed=2))
    assert result.certified and result.best_params != ParamSet.published_row(3)
    cert = certify(result.best_params, CFG)
    assert cert.overall_status == "passed"
    assert cert.published_targets == []
    searched = result_certificate(result, CFG)
    assert searched.values == {}  # the search's delta0 and improvement stay in its result file
    chain = searched.checks
    assert summary(cert.checks[: len(chain)]) == summary(chain)
    assert [c.name for c in cert.checks[len(chain):]] == list(EVIDENCE)


def test_rejected_row_lists_every_margin_and_stops():
    # q = 2 puts the n = 4 spectral coefficient exactly on its bound
    params = ParamSet(4, F(1), F(2), F(1), F(1))
    cert = certify(params, CFG)
    assert cert.overall_status == "failed"
    assert summary(cert.checks) == summary(feasibility(params).entries)
    assert [c.name for c in cert.checks][: len(margin_names(4))] == list(margin_names(4))
    spectral = next(c for c in cert.checks if c.name == "spectral_bound")
    assert spectral.status == "fail" and spectral.margin == 0
    assert cert.values == {} and cert.published_targets == [] and cert.flags == []


def test_published_mismatch_on_a_builtin_row_is_a_discrepancy(monkeypatch):
    monkeypatch.setitem(published.GAMMA0, 4, F(1, 2))
    cert = certify(ParamSet.published_row(4), CFG)
    assert cert.overall_status == "passed"
    assert cert.discrepancies == ["gamma0"]
    assert cert.published_targets[-1] == PublishedTarget("gamma0", "1/2", "276875/569091", False)
    # and no check: the row's checks are the margins, the evidence and a = b*delta0, all passing
    assert [c.name for c in cert.checks[len(margin_names(4)):]] == [*EVIDENCE, "a_equals_b_delta0"]
    assert all(c.satisfied for c in cert.checks)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_evidence_values_are_the_chain_margins(n):
    # the evidence records the numbers the margins were computed from, not a recomputation
    cert = certify(ParamSet.published_row(n), CFG)
    margins = {c.name: c for c in cert.checks}
    assert cert.values["epsilon"] == rational_to_str(margins["epsilon"].margin)
    assert cert.values["gamma0_bare"] == rational_to_str(margins["gamma0_bare"].margin)
    assert cert.values["discriminant_D"] == rational_to_str(margins["discriminant"].margin)
    assert cert.values["L_max"] == rational_to_str(exact_chain(ParamSet.published_row(n))[1].L_max)
