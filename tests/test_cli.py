import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from pathlib import Path

import pytest

from stabcert import cli, optimize, published
from stabcert.certificate import CertCheck, Certificate, json_difference
from stabcert.cli import main
from stabcert.config import RunConfig
from stabcert.curvature import ParamSet


def run(args):
    return main(args)


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(
        "curvature_samples = 500\n"
        "quadform_samples = 100\n"
        "barrier_samples = 30\n",
        encoding="utf-8",
    )
    return path


def test_verify_row3(tmp_path, fast_config):
    out = tmp_path / "cert3.json"
    assert run(["verify", "--n", "3", "--config", str(fast_config), "--out", str(out)]) == 0
    cert = Certificate.read(out)
    assert cert.overall_status == "passed"
    assert cert.values["epsilon"] == "9/11"
    assert any(f["name"] == "gamma0_convention_divergence" for f in cert.flags)


def test_verify_unknown_dimension_is_usage_error(tmp_path):
    assert run(["verify", "--n", "7", "--out", str(tmp_path / "x.json")]) == 2


def test_malformed_config_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("no_such_key = 12\n", encoding="utf-8")
    assert run(["verify", "--n", "3", "--config", str(bad)]) == 2
    capsys.readouterr()
    # the retired precision setting: every mpmath computation runs at rational.DPS
    bad.write_text("float_precision_digits = 10\n", encoding="utf-8")
    assert run(["verify", "--n", "3", "--config", str(bad)]) == 2
    assert one_line_error(capsys) == f"error: {bad}:1: unknown key 'float_precision_digits'\n"
    bad.write_text("this is not an assignment\n", encoding="utf-8")
    assert run(["verify", "--n", "3", "--config", str(bad)]) == 2
    capsys.readouterr()
    # a config path that cannot be read as UTF-8 text: a directory, then a non-UTF-8 byte
    bad.write_bytes(b"seed = 1\xff\n")
    for path in (tmp_path, bad):
        assert run(["verify", "--n", "3", "--config", str(path)]) == 2
        assert "cannot read config file" in one_line_error(capsys)


@pytest.mark.parametrize("argv", [["verify", "--n", "3"], ["verify-all"], ["optimize", "--n", "3"]])
def test_unwritable_output_is_usage_error(tmp_path, fast_config, capsys, argv):
    blocker = tmp_path / "afile"
    blocker.write_text("", encoding="utf-8")
    # a path under a regular file, then an existing directory
    for out in (blocker / "x.json", tmp_path):
        assert run([*argv, "--config", str(fast_config), "--out", str(out)]) == 2
        assert "cannot write output" in one_line_error(capsys)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["afile", "fast.cfg"]
    assert not list(tmp_path.parent.glob(f"{tmp_path.name}*.tmp"))


@pytest.mark.parametrize("objective", ["delta0", "epsilon"])
def test_optimize_checks_output_path_before_searching(tmp_path, capsys, monkeypatch, objective):
    def search(*args):
        pytest.fail("the search ran before its output path was checked")

    monkeypatch.setattr(optimize, "minimize_delta0", search)
    monkeypatch.setattr(optimize, "maximize_epsilon", search)
    blocker = tmp_path / "afile"
    blocker.write_text("", encoding="utf-8")
    assert run(["optimize", "--n", "4", "--objective", objective, "--out", str(blocker / "x.json")]) == 2
    assert "cannot write output" in one_line_error(capsys)
    # the certificate path and the search log, each an existing directory
    for name in ("x_certificate.json", "search_log.jsonl"):
        blocked = tmp_path / name
        blocked.mkdir()
        assert run(["optimize", "--n", "4", "--objective", objective, "--out", str(tmp_path / "x.json")]) == 2
        assert one_line_error(capsys) == f"error: cannot write output: [Errno 21] Is a directory: '{blocked}'\n"
        blocked.rmdir()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["afile"]


@pytest.mark.parametrize("argv", [["verify", "--n", "3"], ["verify-all"]])
def test_verify_checks_output_path_before_certifying(tmp_path, fast_config, capsys, monkeypatch, argv):
    def certify(*args):
        pytest.fail("a certificate was built before its output path was checked")

    # verify calls certify, verify-all certify_all
    monkeypatch.setattr(cli, "certify", certify)
    monkeypatch.setattr(cli, "certify_all", certify)
    blocker = tmp_path / "afile"
    blocker.write_text("", encoding="utf-8")
    assert run([*argv, "--config", str(fast_config), "--out", str(blocker / "x.json")]) == 2
    assert "cannot write output" in one_line_error(capsys)
    blocked = tmp_path / "somedir"
    blocked.mkdir()
    assert run([*argv, "--config", str(fast_config), "--out", str(blocked)]) == 2
    assert one_line_error(capsys) == f"error: cannot write output: [Errno 21] Is a directory: '{blocked}'\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["afile", "fast.cfg", "somedir"]


def test_write_error_names_the_given_path(tmp_path, fast_config, capsys):
    target = tmp_path / "somedir"
    target.mkdir()
    assert run(["verify", "--n", "3", "--config", str(fast_config), "--out", str(target)]) == 2
    assert one_line_error(capsys) == f"error: cannot write output: [Errno 21] Is a directory: '{target}'\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["fast.cfg", "somedir"]
    assert not any(target.iterdir())


def test_empty_config_uses_documented_defaults(tmp_path):
    empty = tmp_path / "empty.cfg"
    empty.write_text("", encoding="utf-8")
    out = tmp_path / "cert.json"
    # shrink the sampled checks via CLI-independent defaults? none: use config defaults
    # (the run is slower but well under a minute)
    assert run(["verify", "--n", "4", "--config", str(empty), "--out", str(out)]) == 0
    cert = Certificate.read(out)
    assert cert.environment["c_ms"] == 1.0
    assert "float_precision_digits" not in cert.environment
    assert cert.environment["curvature_samples"] == 100_000


def test_failed_exact_check_exits_1(tmp_path, fast_config, monkeypatch):
    # breaking the delta0 factorization makes a_equals_b_delta0 fail hard
    monkeypatch.setitem(published.DELTA0, 3, F(1, 2))
    out = tmp_path / "cert.json"
    assert run(["verify", "--n", "3", "--config", str(fast_config), "--out", str(out)]) == 1
    cert = Certificate.read(out)
    assert cert.overall_status == "failed"


def test_strict_mode_discrepancy_exit(tmp_path, fast_config, monkeypatch):
    monkeypatch.setitem(published.EPSILON, 3, F(1, 2))
    out = tmp_path / "cert.json"
    assert run(["verify", "--n", "3", "--config", str(fast_config), "--out", str(out)]) == 0
    assert run(["verify", "--n", "3", "--strict", "--config", str(fast_config), "--out", str(out)]) == 3
    cert = Certificate.read(out)
    assert "epsilon" in cert.discrepancies


def test_verify_all(tmp_path, fast_config):
    out = tmp_path / "all.json"
    assert run(["verify-all", "--config", str(fast_config), "--out", str(out)]) == 0
    cert = Certificate.read(out)
    for n in (3, 4, 5):
        assert f"row_n{n}" in cert.values
    delta1 = {t.quantity: t for t in cert.published_targets if t.quantity.startswith("delta1")}
    assert delta1["delta1(n=3)"].computed == "3/8"
    assert delta1["delta1(n=4)"].computed == "2/3"
    assert delta1["delta1(n=5)"].computed == "21/22"
    assert all(t.match for t in delta1.values())
    grid = cert.values["iteration_grid"]
    assert [g["n"] for g in grid] == [3, 4, 5]
    assert all("epsilon1" in g and "C0" in g and "caccioppoli_C1" in g for g in grid)
    # one check a row; the critical collapse and the barrier surd identities hold for
    # every input, so tests/test_iteration.py and tests/test_bubble.py prove them instead
    assert [c.name for c in cert.checks] == ["row_n3_overall", "row_n4_overall", "row_n5_overall"]
    moved = {"critical_radicand_perfect_square", "exponent_exceeds_dimension_above_threshold"}
    moved |= {f"barrier[{c}]/barrier_{i}_identity" for c in ("bare", "with_ratio") for i in ("product", "ratio")}
    row_names = {c["name"] for n in (3, 4, 5) for c in cert.values[f"row_n{n}"]["checks"]}
    assert "barrier[bare]/barrier_ode_residual" in row_names and not moved & row_names


@pytest.mark.parametrize(
    "table, quantity",
    [
        pytest.param(published.GAMMA0, "n=4:gamma0", id="gamma0"),
        pytest.param(published.DELTA1, "delta1(n=4)", id="delta1"),
    ],
)
def test_verify_all_strict_discrepancy(tmp_path, fast_config, monkeypatch, table, quantity):
    monkeypatch.setitem(table, 4, F(1, 7))
    out = tmp_path / "all.json"
    assert run(["verify-all", "--config", str(fast_config), "--out", str(out)]) == 0
    assert run(["verify-all", "--strict", "--config", str(fast_config), "--out", str(out)]) == 3
    cert = Certificate.read(out)
    assert any(q.startswith(quantity) for q in cert.discrepancies)


def test_verify_all_without_caccioppoli_constant_is_usage_error(tmp_path, fast_config, capsys):
    # s = s1 = 1/1000 leaves both Caccioppoli branch coefficients nonpositive
    cfg = tmp_path / "run.cfg"
    cfg.write_text(fast_config.read_text(encoding="utf-8") + "s = 1/1000\ns1 = 1/1000\n", encoding="utf-8")
    out = tmp_path / "all.json"
    assert run(["verify-all", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert "both nonpositive" in one_line_error(capsys)


def test_optimize_delta0(tmp_path):
    out = tmp_path / "search.json"
    code = run(
        ["optimize", "--n", "3", "--objective", "delta0", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["certified"]
    assert F(payload["delta0"]) <= F(1, 3)
    log = (tmp_path / "search_log.jsonl").read_text(encoding="utf-8").strip().splitlines()
    assert json.loads(log[-1])["certified"]
    cert_path = out.with_name(out.stem + "_certificate.json")
    assert cert_path.exists()
    cert = Certificate.read(cert_path)
    from stabcert.optimize import reverify

    _, report = reverify(cert.params)
    assert report.all_satisfied


@pytest.mark.parametrize("bound", ["0", "1"])
def test_optimize_denominator_bound_below_two_is_usage_error(tmp_path, capsys, bound):
    out = tmp_path / "search.json"
    assert run(["optimize", "--n", "3", "--denominator-bound", bound, "--out", str(out)]) == 2
    assert not out.exists()
    assert "denominator_bound must be >= 2" in one_line_error(capsys)


def test_optimize_epsilon_requires_delta0_for_probe(tmp_path):
    assert run(["optimize", "--n", "6", "--objective", "epsilon", "--out", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize(
    "value, message",
    [
        ("-1", "must be > 0"), ("0", "must be > 0"), ("x", "bad --delta0"), ("1/0", "bad --delta0"),
        ("1e400", "bad --delta0"),  # no finite float to score cells at
        ("1e-400", "bad --delta0: 1e-400 is 0.0 as a float"),  # the grid would score cells at delta0 = 0
    ],
)
def test_optimize_bad_delta0_is_usage_error(tmp_path, capsys, value, message):
    out = tmp_path / "search.json"
    assert run(["optimize", "--n", "3", "--objective", "epsilon", "--delta0", value, "--out", str(out)]) == 2
    assert not out.exists()
    assert message in one_line_error(capsys)


def test_optimize_delta0_flag_needs_epsilon_objective(tmp_path, capsys):
    out = tmp_path / "search.json"
    assert run(["optimize", "--n", "3", "--delta0", "1/2", "--out", str(out)]) == 2
    assert not out.exists()
    assert "--delta0 applies to --objective epsilon only" in one_line_error(capsys)


def test_optimize_open_dimension_exits_4(tmp_path):
    out = tmp_path / "search6.json"
    code = run(["optimize", "--n", "6", "--out", str(out)])
    assert code == 4
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert not payload["certified"]
    assert payload["margin_profile"]
    assert run(["optimize", "--n", "6", "--objective", "epsilon", "--delta0", "1", "--out", str(out)]) == 4
    assert sorted(path.name for path in tmp_path.iterdir()) == ["search6.json", "search_log.jsonl"]


def test_optimize_seed_is_recorded_but_inert(tmp_path):
    results, certs = [], []
    for seed in ("0", "5"):
        out = tmp_path / seed / "search.json"
        out.parent.mkdir()
        assert run(["optimize", "--n", "4", "--seed", seed, "--out", str(out)]) == 0
        results.append(out.read_bytes())
        certs.append(json.loads(out.with_name("search_certificate.json").read_text(encoding="utf-8")))
    assert results[0] == results[1]
    assert [cert["environment"].pop("seed") for cert in certs] == [0, 5]
    assert certs[0] == certs[1]


def test_removed_budget_key_is_unknown(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("budget = 10\n", encoding="utf-8")
    out = tmp_path / "search.json"
    assert run(["optimize", "--n", "3", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert "unknown key 'budget'" in one_line_error(capsys)


def test_recursion_sim_exit_codes():
    assert run(["recursion-sim", "--s1", "0.5", "--c0", "1", "--c", "1", "--n", "3", "--steps", "5"]) == 0
    assert run(["recursion-sim", "--s1", "-1", "--c0", "1", "--c", "1", "--n", "3"]) == 2
    assert run(["recursion-sim", "--s1", "0.5", "--c0", "nan", "--c", "1", "--n", "3"]) == 2
    assert run(["recursion-sim", "--s1", "0.5", "--n", "3"]) == 2  # no constants given
    for steps in ("0", "-3"):  # no step checked is no evidence, not a pass
        assert run(["recursion-sim", "--s1", "0.5", "--c0", "1", "--c", "1", "--n", "3", "--steps", steps]) == 2


def test_recursion_sim_reports_a_bound_it_breaks(capsys):
    # C0 = 1/2 with C = 1 takes the sequence above (C0^(3/2) S1)^(3^m): the
    # verdict is printed and the exit code says the check failed
    assert run(["recursion-sim", "--c0", "0.5", "--c", "1", "--s1", "0.5", "--n", "3", "--steps", "4"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1].split() == ["0", "0.5", "0.176776695297"]
    assert out[-1] == "dominated=False tends_to_zero=True"


@pytest.mark.parametrize("s1, c0, c", [("1e-3", "2971", "0.99346"), ("1e-3", "1.276", "0.9998")])
def test_recursion_sim_verdict_covers_steps_it_does_not_show(capsys, s1, c0, c):
    # at n = 8 the sequence breaks its bound first at step 25; one row shown still fails
    assert run(["recursion-sim", "--s1", s1, "--c0", c0, "--c", c, "--n", "8", "--steps", "1"]) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("dominated=False ")


def test_recursion_sim_derived_constants(capsys):
    code = run(
        ["recursion-sim", "--s1", "1e-20", "--n", "3", "--q", "1/2", "--delta", "1",
         "--cms", "1", "--radius", "1e6", "--steps", "8"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "derived C0" in out and "2^(11/1)" in out
    assert "tends_to_zero=True" in out
    # mixing explicit and derived constants is a usage error
    assert run(["recursion-sim", "--s1", "1e-3", "--n", "3", "--q", "1/2", "--delta", "1", "--c0", "1", "--c", "1"]) == 2
    assert run(["recursion-sim", "--s1", "1e-3", "--n", "3", "--q", "1/2"]) == 2


def test_report_is_read_only(tmp_path, fast_config, capsys):
    out = tmp_path / "cert.json"
    run(["verify", "--n", "3", "--config", str(fast_config), "--out", str(out)])
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert run(["report", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    rendered = capsys.readouterr().out
    assert "epsilon: quoted 9/11 vs computed 9/11 [match]" in rendered


def test_report_shows_the_evidence_each_sampled_check_drew(tmp_path, capsys):
    # a one-sample certificate passes as a default one does, but does not read like one
    one = tmp_path / "one.cfg"
    one.write_text("curvature_samples = 1\nquadform_samples = 1\nbarrier_samples = 1\n", encoding="utf-8")
    rendered = {}
    for name, config in (("default", []), ("one", ["--config", str(one)])):
        out = tmp_path / f"{name}.json"
        assert run(["verify", "--n", "3", *config, "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["report", str(out)]) == 0
        rendered[name] = capsys.readouterr().out
    assert rendered["one"] != rendered["default"]
    samples, seed = RunConfig().curvature_samples, RunConfig().seed
    assert (f"[       pass] pointwise_curvature_inequality (sampled)  {samples} samples, 0 violations, seed={seed}\n"
            in rendered["default"])
    assert "[       pass] pointwise_curvature_inequality (sampled)  1 samples, 0 violations," in rendered["one"]
    assert "[       pass] barrier[bare]/barrier_ode_residual (approximate)  1 points, max relative residual " in (
        rendered["one"])


def test_report_shows_each_verify_all_rows_checks(tmp_path, capsys):
    # a verify-all file at one sample per check does not read like the golden's 300
    one = tmp_path / "one.cfg"
    one.write_text("curvature_samples = 1\nquadform_samples = 1\nbarrier_samples = 1\n", encoding="utf-8")
    out = tmp_path / "all.json"
    assert run(["verify-all", "--config", str(one), "--out", str(out)]) == 0
    capsys.readouterr()
    rendered = []
    for path in (out, DATA / "verify_all_small.json"):
        assert run(["report", str(path)]) == 0
        rendered.append(capsys.readouterr().out)
    assert rendered[0] != rendered[1]
    for n, text in ((1, rendered[0]), (300, rendered[1])):
        assert text.count(f"pointwise_curvature_inequality (sampled)  {n} samples, 0 violations, seed=0\n") == 3
    assert "row_n4 checks (18):\n" in rendered[1]
    assert "  [       pass] spectral_bound (exact)  margin=83/7854\n" in rendered[1]


def test_report_prints_the_settings_that_differ_from_the_defaults(tmp_path, capsys):
    assert run(["report", str(DATA / "verify_all_small.json")]) == 0
    assert ("settings that differ from the defaults:\n"
            "  curvature_samples = 300 (default 100000)\n"
            "  quadform_samples = 10 (default 1000)\n"
            "  barrier_samples = 10 (default 1000)\n"
            "checks (3):\n") in capsys.readouterr().out
    out = tmp_path / "cert.json"
    assert run(["verify", "--n", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["report", str(out)]) == 0
    assert "settings that differ" not in capsys.readouterr().out
    # a search's objective and evaluations_used are no setting, and of the
    # settings a search reads only denominator_bound, not the seed
    assert run(["report", str(DATA / "search_n3_seed5_certificate.json")]) == 0
    rendered = capsys.readouterr().out
    assert "settings that differ" not in rendered
    assert "objective" not in rendered and "evaluations_used" not in rendered
    search = tmp_path / "search.json"
    assert run(["optimize", "--n", "3", "--denominator-bound", "1000", "--seed", "5", "--out", str(search)]) == 0
    capsys.readouterr()
    assert run(["report", str(tmp_path / "search_certificate.json")]) == 0
    assert ("settings that differ from the defaults:\n"
            "  denominator_bound = 1000 (default 1000000)\n"
            "checks (11):\n") in capsys.readouterr().out


def test_report_missing_file():
    assert run(["report", "/nonexistent/cert.json"]) == 2


def one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:"), err
    return err


def test_report_rejects_non_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]\n", encoding="utf-8")
    assert run(["report", str(path)]) == 2
    assert "JSON object" in one_line_error(capsys)


def write_certificate(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


DATA = Path(__file__).parent / "data"


def verify_all_small() -> dict:
    return json.loads((DATA / "verify_all_small.json").read_text("utf-8"))


def search_certificate(n: int) -> dict:
    return json.loads((DATA / f"search_n{n}_seed5_certificate.json").read_text("utf-8"))


def assert_refused(tmp_path, capsys, payload: dict, golden: dict, why: str = "") -> None:
    """``report`` exits 2 on ``payload``, an edited copy of the certificate
    ``golden``, on one line naming where it first differs from ``golden``, which
    is also where it first differs from its recomputation."""
    assert run(["report", str(write_certificate(tmp_path / "cert.json", payload))]) == 2, why
    difference = json_difference(payload, golden)
    assert one_line_error(capsys) == (f"error: cannot read certificate: {difference} "
                                      "as recomputed from its params and settings\n"), why


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("margin", "not-a-number", "not a rational"),
        ("margin", "1/0", "not a rational"),
        ("margin", 0.5, "not a rational"),
        ("margin", "0.25", "not a rational"),  # the writer writes p/q
        ("status", "failed", "unknown status"),  # would otherwise render as a passed certificate
        ("status", "discrepancy", "unknown status"),  # a mismatch is a published target, not a check
    ],
)
def test_report_rejects_malformed_check(tmp_path, capsys, field, value, message):
    payload = search_certificate(3)
    payload["checks"][0][field] = value
    assert run(["report", str(write_certificate(tmp_path / "cert.json", payload))]) == 2
    assert message in one_line_error(capsys)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("flags", ["oops"], "flag must be a JSON object"),  # would otherwise be a traceback
        # each would otherwise print Python's TypeError
        ("published_targets", ["x"], "every published target must be a JSON object"),
        ("published_targets", [5], "every published target must be a JSON object"),
        ("published_targets", [None], "every published target must be a JSON object"),
        ("published_targets", [{"quantity": "epsilon", "quoted": "9/11", "computed": "1/2", "match": "no"}],
         "not a boolean"),  # would otherwise render as a match
        ("published_targets", [{"quantity": 5, "quoted": [1], "computed": None, "match": True}],
         "published target quantity 5 is not a string"),
        ("params", None, "params None is not a JSON object"),
        ("checks", [], "checks[0] is absent"),  # would otherwise pass on zero evidence
        ("checks", [{"name": "epsilon", "kind": "exact"}], "a check has no status"),
        ("schema_version", "7", "schema_version '7' is not '1'"),  # would otherwise render as passed
    ],
)
def test_report_rejects_malformed_flags_and_targets(tmp_path, capsys, field, value, message):
    payload = {**search_certificate(3), field: value}
    assert run(["report", str(write_certificate(tmp_path / "cert.json", payload))]) == 2
    assert message in one_line_error(capsys)


@pytest.mark.parametrize(
    "n, check, message",
    [
        # each would otherwise render as a passed certificate
        ("three", {"name": "epsilon", "kind": "exact", "status": "pass"}, "not an integer"),
        (True, {"name": "epsilon", "kind": "exact", "status": "pass"}, "not an integer"),
        (3.0, {"name": "epsilon", "kind": "exact", "status": "pass"}, "not an integer"),
        (3, {"name": 5, "kind": "exact", "status": "pass"}, "not a string"),
        (3, {"name": "epsilon", "kind": "bogus", "status": "pass"}, "unknown kind"),
        (3, {"name": "epsilon", "kind": None, "status": "pass"}, "unknown kind"),
    ],
)
def test_report_rejects_malformed_n_name_and_kind(tmp_path, capsys, n, check, message):
    payload = {**search_certificate(3), "n": n, "checks": [check]}
    assert run(["report", str(write_certificate(tmp_path / "cert.json", payload))]) == 2
    assert message in one_line_error(capsys)


def test_report_rejects_a_status_its_checks_do_not_give(tmp_path, capsys):
    payload = search_certificate(3)
    assert payload["overall_status"] == "passed"
    payload["checks"][3]["status"] = "fail"
    assert run(["report", str(write_certificate(tmp_path / "cert.json", payload))]) == 2
    assert one_line_error(capsys) == ('error: cannot read certificate: checks[3].status is "fail", not "pass" '
                                      "as recomputed from its params and settings\n")


def test_report_accepts_verify_all_n_zero(capsys):
    assert run(["report", str(DATA / "verify_all_small.json")]) == 0
    assert "n = 0, status: passed" in capsys.readouterr().out


def test_report_reads_the_rows_verify_all_nests(tmp_path, capsys):
    payload = verify_all_small()
    payload["values"]["row_n3"]["checks"][0]["status"] = "fail"
    assert run(["report", str(write_certificate(tmp_path / "cert.json", payload))]) == 2
    assert one_line_error(capsys) == ('error: cannot read certificate: values.row_n3.checks[0].status is "fail", '
                                      'not "pass" as recomputed from its params and settings\n')


def check_of_row_n3(payload: dict, name: str) -> dict:
    return next(c for c in payload["values"]["row_n3"]["checks"] if c["name"] == name)


# the checks verify-all writes, one a row
ROW_CHECKS = ("row_n3_overall", "row_n4_overall", "row_n5_overall")


@pytest.mark.parametrize("dropped", [ROW_CHECKS, ROW_CHECKS[:1], ROW_CHECKS[2:]])
def test_report_rejects_verify_all_without_its_row_checks(tmp_path, capsys, dropped):
    # would otherwise read as passed
    payload = verify_all_small()
    payload["checks"] = [c for c in payload["checks"] if c["name"] not in dropped]
    assert_refused(tmp_path, capsys, payload, verify_all_small())


@pytest.mark.parametrize(
    "status, residual",
    [
        ("pass", "0.5"),  # far above the 1e-9 tolerance
        ("pass", "1.00001e-9"),
        ("fail", "1.65509e-13"),  # a breach that reads below the tolerance
        ("pass", None),
        ("pass", "-1.0e-13"),
        ("pass", "nan"),
        ("pass", "1/2"),
        ("pass", 1e-13),
    ],
)
def test_report_rejects_an_approximate_status_its_residual_contradicts(tmp_path, capsys, status, residual):
    payload = verify_all_small()
    row = payload["values"]["row_n3"]
    check = next(c for c in row["checks"] if c["kind"] == "approximate")
    check.update(status=status, residual=residual, detail=f"10 points, max relative residual {residual}, dps=50")
    if status == "fail":
        row["overall_status"] = payload["overall_status"] = "failed"
        payload["checks"][0]["status"] = "fail"  # row_n3_overall
    assert_refused(tmp_path, capsys, payload, verify_all_small())


@pytest.mark.parametrize("status", ["pass", "fail"])
def test_an_approximate_check_at_its_tolerance_reads(status):
    # printed to 6 digits, a residual just either side of 1e-9 reads as 1.0e-9
    check = CertCheck("barrier_ode_residual", "approximate", status, residual="1.0e-9",
                      detail="10 points, max relative residual 1.0e-9, dps=50")
    assert CertCheck.from_jsonable(check.to_jsonable()) == check


@pytest.mark.parametrize(
    "name, field, value, tamper",
    [
        # each would otherwise read as passed
        ("a_equals_b_delta0", "detail", 12345, "detail 12345 is not a string"),
        ("quadform/quadform_bound_tight_at_vertex", "residual", "not a number",
         "a residual, 'not a number', on a check of kind 'exact'"),
        ("pointwise_curvature_inequality", "margin", "-1/1",
         "a margin, '-1/1', on a check whose detail '300 samples, 0 violations, seed=0' is not '> 0'"),
    ],
)
def test_report_rejects_a_field_the_check_kind_does_not_write(tmp_path, capsys, name, field, value, tamper):
    payload = verify_all_small()
    check_of_row_n3(payload, name)[field] = value
    assert_refused(tmp_path, capsys, payload, verify_all_small(), tamper)


@pytest.mark.parametrize(
    "detail",
    [
        "10 points, max relative residual 0.5, dps=5",  # would otherwise read as passed
        "10 points, max relative residual 1.65509e-13, dps=49",
        "10 points, max relative residual 1.6551e-13, dps=50",
        "0 points, max relative residual 1.65509e-13, dps=50",
        "10 points, max relative residual 1.65509e-13",
        "",
    ],
)
def test_report_rejects_an_approximate_detail_that_does_not_record_its_residual(tmp_path, capsys, detail):
    payload = verify_all_small()
    check = check_of_row_n3(payload, "barrier[bare]/barrier_ode_residual")
    assert check["residual"] == "1.65509e-13"
    check["detail"] = detail
    assert_refused(tmp_path, capsys, payload, verify_all_small())


def with_precision_digits(digits: int) -> str:
    """verify_all_small.json as it was written while the precision was a setting,
    at ``digits``: the environment records float_precision_digits, and each
    approximate detail and value its digits."""
    payload = verify_all_small()
    rows = [payload["values"][f"row_n{n}"] for n in (3, 4, 5)]
    for cert in [payload, *rows]:
        cert["environment"] = {**cert["environment"], "float_precision_digits": digits}
    text = json.dumps(payload, indent=2).replace("dps=50", f"dps={digits}")
    return text.replace('"internal_dps": 50', f'"internal_dps": {digits}')


@pytest.mark.parametrize("digits", [50])
def test_report_reads_a_certificate_written_with_the_precision_setting(tmp_path, capsys, digits):
    # float_precision_digits is no setting now, so the top-level block's is
    # ignored; at 50 digits the certificate is the one this code computes.  A
    # nested row's block is the row's, which must equal its recomputation
    payload = json.loads(with_precision_digits(digits))
    assert_refused(tmp_path, capsys, payload, verify_all_small())
    assert json_difference(payload, verify_all_small()).startswith("values.row_n3.environment.float_precision_digits")
    for n in (3, 4, 5):
        del payload["values"][f"row_n{n}"]["environment"]["float_precision_digits"]
    path = write_certificate(tmp_path / "cert.json", payload)
    assert run(["report", str(path)]) == 0
    assert "status: passed" in capsys.readouterr().out
    assert Certificate.read(path).to_jsonable() == payload


def test_report_refuses_a_certificate_written_at_more_digits_than_it_computes(tmp_path, capsys):
    # every approximate value is computed at rational.DPS = 50 digits, so a certificate
    # written at 80 reads, but records details and values this code does not give
    payload = json.loads(with_precision_digits(80))
    assert Certificate.from_jsonable(payload).overall_status == "passed"
    assert_refused(tmp_path, capsys, payload, verify_all_small())


@pytest.mark.parametrize(
    "target, tamper",
    [
        # each would otherwise render, the first as "quoted 1/3 vs computed 1/7 [match]"
        ({"computed": "1/7"}, "match True contradicts '1/3' vs '1/7'"),
        ({"match": False}, "match False contradicts '1/3' vs '1/3'"),
        ({"quoted": 0.5, "computed": 0.5}, "match True contradicts 0.5 vs 0.5"),
        ({"computed": None, "match": False}, "match False contradicts '1/3' vs None"),
    ],
)
def test_report_rejects_a_published_match_its_strings_contradict(tmp_path, capsys, target, tamper):
    payload = verify_all_small()
    assert payload["published_targets"][0]["quantity"] == "n=3:delta0"
    payload["published_targets"][0].update(target)
    if all(isinstance(payload["published_targets"][0][key], str) for key in ("quoted", "computed")):
        assert_refused(tmp_path, capsys, payload, verify_all_small(), tamper)
    else:  # the reader refuses a value that is no string before anything is recomputed
        assert run(["report", str(write_certificate(tmp_path / "cert.json", payload))]) == 2, tamper
        assert one_line_error(capsys).endswith(" is not a string\n"), tamper


WITNESS = "; first witness: lambda=['1/2', '-1/2', '0'], E=1"


@pytest.mark.parametrize(
    "status, detail",
    [
        ("pass", "500 samples, 7 violations, seed=0"),  # violations under a pass
        ("pass", "500 samples, 7 violations, seed=0" + WITNESS),
        ("fail", "500 samples, 0 violations, seed=0"),  # a fail with no violation
        ("pass", "0 samples, 0 violations, seed=0"),  # a pass on zero evidence
        ("fail", "5 samples, 7 violations, seed=0" + WITNESS),  # more violations than samples
        ("fail", "500 samples, 7 violations, seed=0"),  # a violation with no witness
        ("pass", "500 samples, 0 violations, seed=0" + WITNESS),  # a witness with no violation
        ("pass", "500 samples, -0 violations, seed=0"),
        ("pass", "500 samples, 0 violations"),
        ("pass", ""),
        ("pass", 500),
    ],
)
def test_report_rejects_a_sampled_status_its_detail_contradicts(tmp_path, capsys, status, detail):
    payload = verify_all_small()
    row = payload["values"]["row_n3"]
    check = check_of_row_n3(payload, "pointwise_curvature_inequality")
    assert check["kind"] == "sampled"
    check.update(status=status, detail=detail)
    if status == "fail":
        row["overall_status"] = payload["overall_status"] = "failed"
        payload["checks"][0]["status"] = "fail"  # row_n3_overall
    assert_refused(tmp_path, capsys, payload, verify_all_small())


@pytest.mark.parametrize("violations", [1, 500])
def test_a_failed_sampled_check_reads(violations):
    check = CertCheck.sampled("pointwise_curvature_inequality", 500, violations, 7, "lambda=['1', '-1'], E=1")
    assert CertCheck.from_jsonable(check.to_jsonable()) == check and not check.satisfied


def drop_rows(payload: dict) -> None:
    payload["checks"] = [c for c in payload["checks"] if not c["name"].startswith("row_n")]
    for n in (3, 4, 5):
        del payload["values"][f"row_n{n}"]


def drop_row_n5(payload: dict) -> None:
    payload["checks"] = [c for c in payload["checks"] if c["name"] != "row_n5_overall"]


@pytest.mark.parametrize(
    "edit, params",
    [
        (drop_rows, "{'rows': '3,4,5'}"),  # would otherwise read as passed with no row at all
        (drop_row_n5, "{'rows': '3,4,5'}"),
        (lambda payload: payload["params"].update(rows="3,4"), "{'rows': '3,4'}"),
        (lambda payload: payload["params"].update(rows="3,4,5,6"), "{'rows': '3,4,5,6'}"),
        (lambda payload: payload["params"].update(rows="3,3,4,5"), "{'rows': '3,3,4,5'}"),
        (lambda payload: payload["params"].update(seed="0"), "{'rows': '3,4,5', 'seed': '0'}"),
        (lambda payload: payload.update(params={}), "{}"),
        (lambda payload: payload["params"].update(rows=[3, 4, 5]), "{'rows': [3, 4, 5]}"),
    ],
)
def test_report_rejects_verify_all_params_its_row_checks_do_not_give(tmp_path, capsys, edit, params):
    payload = verify_all_small()
    edit(payload)
    assert str(payload["params"]) == params
    assert_refused(tmp_path, capsys, payload, verify_all_small())


GOLDEN_ROWS = {key: row for key, row in verify_all_small()["values"].items() if key.startswith("row_n")}
FAILED_ROW = {**GOLDEN_ROWS["row_n3"], "overall_status": "failed", "checks": [
    {**check, "status": "fail", "detail": "300 samples, 7 violations, seed=0; first witness: lambda=['1', '-1'], E=1"}
    if check["name"] == "pointwise_curvature_inequality" else check
    for check in GOLDEN_ROWS["row_n3"]["checks"]
]}


@pytest.mark.parametrize(
    "status, rows, tamper",
    [
        ("pass", {}, "no row_n3 in values"),
        ("pass", {"row_n3": GOLDEN_ROWS["row_n4"]}, "row_n3 is the certificate of n = 4"),
        ("pass", {"row_n3": {"n": 3}}, "row_n3: not a certificate"),
        ("pass", {"row_n3": FAILED_ROW}, "disagrees with row_n3, which failed"),
        ("fail", {"row_n3": GOLDEN_ROWS["row_n3"]}, "disagrees with row_n3, which passed"),
    ],
)
def test_report_rejects_a_row_check_its_row_does_not_give(tmp_path, capsys, status, rows, tamper):
    payload = verify_all_small()
    payload["checks"][0]["status"] = status  # row_n3_overall
    payload["overall_status"] = "passed" if status == "pass" else "failed"
    del payload["values"]["row_n3"]
    payload["values"].update(rows)
    assert_refused(tmp_path, capsys, payload, verify_all_small(), tamper)


def nested_verify_all(key: str, depth: int) -> str:
    """The JSON text of verify_all_small.json whose ``key`` row is that
    certificate again, ``depth`` deep, the innermost holding its row of n = 3
    (``json.dumps`` refuses to nest that deep itself)."""
    outer = verify_all_small()
    outer["values"][key] = None
    head, tail = json.dumps(outer).split("null")
    return head * depth + json.dumps(GOLDEN_ROWS["row_n3"]) + tail * depth


@pytest.mark.parametrize(
    "text",
    # json.loads raises RecursionError on each, whose traceback would exit 1, the code of a failed check
    [lambda: "[" * 100_000 + "]" * 100_000, lambda: nested_verify_all("row_n3", 600)],
    ids=["array", "verify-all"],
)
def test_report_refuses_a_file_nested_too_deeply(tmp_path, capsys, text):
    path = tmp_path / "cert.json"
    path.write_text(text(), encoding="utf-8")
    assert run(["report", str(path)]) == 2
    assert "cannot read certificate: JSON nested too deeply to read" in one_line_error(capsys)


@pytest.mark.parametrize("key", ["row_n3", "row_n0"])
def test_report_refuses_a_verify_all_certificate_nested_as_a_row(tmp_path, capsys, key):
    # the comparison stops at the first level that differs and names the key once
    path = tmp_path / "cert.json"
    path.write_text(nested_verify_all(key, 100), encoding="utf-8")
    assert run(["report", str(path)]) == 2
    err = one_line_error(capsys)
    assert f"cannot read certificate: values.{key}" in err and err.count(key) == 1, err


def edit_delta0_and_q(cert: dict) -> None:
    cert["params"].update(delta0="1/100", q="7/2")


def edit_n(cert: dict) -> None:
    cert["n"] = 5


def swap_q_for_an_unknown_key(cert: dict) -> None:
    del cert["params"]["q"]
    cert["params"]["scale"] = "2"


# Each edit leaves a certificate that reads, so ``report`` would print its
# edited params under "status: passed" and ``reverify`` would use a and b.
PARAMS_EDITS = [
    (3, edit_delta0_and_q, "params delta0 '1/100' is not '"),
    (4, edit_n, "params n '4' is not the certificate's n = 5"),
    (3, swap_q_for_an_unknown_key, "params have no q"),
]


@pytest.mark.parametrize("n, edit, message", PARAMS_EDITS)
def test_report_rejects_params_the_row_does_not_write(tmp_path, capsys, n, edit, message):
    payload = search_certificate(n)
    assert run(["report", str(write_certificate(tmp_path / "cert.json", payload))]) == 0
    capsys.readouterr()
    edit(payload)
    assert run(["report", str(write_certificate(tmp_path / "cert.json", payload))]) == 2
    assert message in one_line_error(capsys)


@pytest.mark.parametrize("n, edit, message", [case for case in PARAMS_EDITS if case[1] is not edit_n])
def test_reverify_rejects_params_the_row_does_not_write(n, edit, message):
    payload = search_certificate(n)
    edit(payload)
    with pytest.raises(ValueError, match=message):
        optimize.reverify(Certificate.from_jsonable(payload).params)


def test_reverify_reads_unknown_keys_by_name():
    params = {**search_certificate(3)["params"], "scale": "2"}
    with pytest.raises(ValueError, match="unknown params: scale$"):
        optimize.reverify(params)


@pytest.mark.parametrize("n, edit, message", PARAMS_EDITS)
def test_report_rejects_a_nested_row_whose_params_it_does_not_write(tmp_path, capsys, n, edit, message):
    payload = verify_all_small()
    row = json.loads(json.dumps(payload["values"][f"row_n{n}"]))
    edit(row)
    payload["values"][f"row_n{row['n']}"] = row  # under the key its n names, which verify-all passes
    assert_refused(tmp_path, capsys, payload, verify_all_small(), message)


@pytest.mark.parametrize(
    "margin, status, overall",
    [("-5", "pass", "passed"), ("0", "pass", "passed"), ("5", "fail", "failed")],
)
def test_report_rejects_a_margin_its_status_contradicts(tmp_path, capsys, margin, status, overall):
    payload = search_certificate(3)
    check = payload["checks"][0]
    assert (check["name"], check["detail"]) == ("b_positive", "> 0")
    check.update(margin=margin, status=status)
    payload["overall_status"] = overall
    assert_refused(tmp_path, capsys, payload, search_certificate(3))


def test_report_accepts_a_failed_strict_margin(tmp_path, capsys):
    # the chain-only certificate of a row the chain rejects, as a search writes
    # it for a candidate that fails recertification
    published_row = ParamSet.published_row(3)
    params = ParamSet(3, published_row.a / 4, published_row.b, published_row.alpha, published_row.beta)
    report = optimize.feasibility(params)
    result = optimize.SearchResult(n=3, objective="minimize_delta0", best_params=params, certified=False,
                                   delta0=params.delta0, epsilon=None, constraint_report=report,
                                   improvement_vs_published=None, evaluations_used=0)
    path = tmp_path / "cert.json"
    cli.result_certificate(result, RunConfig()).write(path)
    assert run(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "status: failed" in out and "fail] hessian_fxx (exact)  margin=-23/11" in out


def fold_row_n3_to_its_margins(payload: dict) -> None:
    row = payload["values"]["row_n3"]
    row["checks"] = [c for c in row["checks"] if c.get("detail") == "> 0"]
    assert len(row["checks"]) == 11


def drop_the_objective(payload: dict) -> None:
    """A search certificate's environment without its objective, so it reads as a
    row's and lacks the row's evidence; a few samples keep the recomputation short."""
    del payload["environment"]["objective"]
    payload["environment"].update(curvature_samples=30, quadform_samples=3, barrier_samples=3)


@pytest.mark.parametrize(
    "name, edit, error",
    [
        ("verify_all_small.json", lambda d: d["values"]["row_n3"]["values"].update(epsilon="1/2"),
         'values.row_n3.values.epsilon is "1/2", not "9/11"'),
        ("verify_all_small.json", lambda d: d["values"]["iteration_grid"][0].update(C="2^(1/1)"),
         'values.iteration_grid[0].C is "2^(1/1)", not "2^(11/1)"'),
        ("verify_all_small.json", lambda d: check_of_row_n3(d, "hessian_fxx").update(margin="1/1"),
         'values.row_n3.checks[3].margin is "1/1", not "7/11"'),
        # a row certificate with all its evidence deleted
        ("verify_all_small.json", fold_row_n3_to_its_margins, "values.row_n3.checks[11] is absent, not a JSON object"),
        ("verify_all_small.json", lambda d: d["values"].update({"barrier[bare]/x0": "1"}),
         'values["barrier[bare]/x0"] is "1", not absent'),
        ("search_n3_seed5_certificate.json",
         lambda d: d["published_targets"].append({"quantity": "delta0", "quoted": "1/3", "computed": "1/3",
                                                  "match": True}),
         "published_targets[0] is a JSON object, not absent"),
        # a nested row's settings are the run's: it claims 100,000 samples where 300 ran
        ("verify_all_small.json", lambda d: d["values"]["row_n3"]["environment"].update(curvature_samples=100000),
         "values.row_n3.environment.curvature_samples is 100000, not 300"),
        ("search_n3_seed5_certificate.json", lambda d: d["flags"].append({"name": "x", "detail": "y"}),
         "flags[0] is a JSON object, not absent"),
        ("search_n3_seed5_certificate.json", drop_the_objective, "checks[11] is absent, not a JSON object"),
        # a search's result values stay in its result file
        ("search_n3_seed5_certificate.json",
         lambda d: d["values"].update(delta0="1/100", improvement_vs_published="99/100"),
         'values.delta0 is "1/100", not absent'),
        # a verify-all certificate written when it still carried the critical collapse
        ("verify_all_small.json",
         lambda d: d["checks"].append({"name": "critical_radicand_perfect_square", "kind": "exact", "status": "pass",
                                       "detail": "sqrt(delta_c(delta_c-(n-2)/n)) = (n-2)^2/(4(n-1)) for n=3..12"}),
         "checks[3] is a JSON object, not absent"),
    ],
)
def test_report_refuses_what_its_recomputation_does_not_give(tmp_path, capsys, name, edit, error):
    payload = json.loads((DATA / name).read_text("utf-8"))
    edit(payload)
    assert run(["report", str(write_certificate(tmp_path / "cert.json", payload))]) == 2
    assert one_line_error(capsys) == (f"error: cannot read certificate: {error} "
                                      "as recomputed from its params and settings\n")


@pytest.mark.parametrize(
    "edit, error",
    [
        (lambda env: env.clear(), "environment.c_ms is absent, not 1.0"),
        (lambda env: env.update(seed=True), "environment.seed is true, not 1"),
        (lambda env: env.update(c_ms=1), "environment.c_ms is 1, not 1.0"),
        (lambda env: env.update(s="100"), 'environment.s is "100", not "100/1"'),
        (lambda env: env.update(out_dir="."), 'environment.out_dir is ".", not absent'),
        (lambda env: env.update(budget=1000), "environment.budget is 1000, not absent"),
    ],
)
def test_report_refuses_settings_a_run_does_not_record_before_recomputing(tmp_path, capsys, monkeypatch, edit,
                                                                          error):
    # the settings are read first, so a file without them never runs 100,000 samples
    monkeypatch.setattr("stabcert.certify.certify_all", lambda cfg: pytest.fail("recomputed"))
    payload = verify_all_small()
    edit(payload["environment"])
    assert run(["report", str(write_certificate(tmp_path / "cert.json", payload))]) == 2
    assert one_line_error(capsys) == f"error: cannot read certificate: {error} as a run records its settings\n"


def leaf_paths(value, path=()):
    """The path of every scalar in ``value`` outside its top-level "environment" block."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, child in items:
            if path or key != "environment":
                yield from leaf_paths(child, (*path, key))
    else:
        yield path


def edited(value):
    """A JSON value of the same type that differs from ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    return value + "0"


def test_report_refuses_every_sampled_leaf_edit_of_verify_all(tmp_path, capsys):
    paths = list(leaf_paths(verify_all_small()))
    assert len(paths) > 400
    for path in random.Random(7).sample(paths, 40):
        payload = verify_all_small()
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = edited(parent[path[-1]])
        assert run(["report", str(write_certificate(tmp_path / "cert.json", payload))]) == 2, path
        one_line_error(capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "4", "--config", "{fast_config}", "--out", "{out}"],
        ["verify", "--n", "5", "--config", "{fast_config}", "--out", "{out}"],
        ["verify-all", "--config", "{fast_config}", "--out", "{out}"],
        ["optimize", "--n", "4", "--objective", "epsilon", "--out", "{tmp_path}/search.json"],
    ],
)
def test_report_reads_what_each_writer_writes(tmp_path, fast_config, capsys, argv):
    out = tmp_path / ("search_certificate.json" if argv[0] == "optimize" else "cert.json")
    assert run([arg.format(fast_config=fast_config, out=out, tmp_path=tmp_path) for arg in argv]) == 0
    capsys.readouterr()
    assert run(["report", str(out)]) == 0
    assert "status: passed" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, config",
    [
        # --cms and --radius belong to verify-all, the command that reads C_MS and R
        (["verify-all", "--cms", "nan"], ""),
        (["verify-all", "--radius", "inf"], ""),
        (["verify", "--n", "3"], "c_ms = inf\n"),
        (["verify", "--n", "3"], "radius = nan\n"),
    ],
)
def test_non_finite_numbers_are_usage_errors(tmp_path, fast_config, capsys, argv, config):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(fast_config.read_text(encoding="utf-8") + config, encoding="utf-8")
    out = tmp_path / "cert.json"
    assert run([*argv, "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert "finite" in one_line_error(capsys)


@pytest.mark.parametrize(
    "key, value",
    # linearity_samples and budget are not keys: a file that sets one is refused as unknown;
    # random.Random(-1) draws the samples of random.Random(1), which seed = -1 would misrecord
    [("curvature_samples", 0), ("quadform_samples", 0), ("barrier_samples", 0), ("linearity_samples", -5),
     ("budget", 0), ("denominator_bound", 1), ("seed", -1)],
)
def test_sample_counts_below_one_are_usage_errors(tmp_path, fast_config, capsys, key, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(fast_config.read_text(encoding="utf-8") + f"{key} = {value}\n", encoding="utf-8")
    out = tmp_path / "cert.json"
    assert run(["verify", "--n", "3", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert key in one_line_error(capsys)


def test_verify_all_refuses_search_settings_out_of_range(tmp_path, fast_config, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(fast_config.read_text(encoding="utf-8") + "denominator_bound = 0\n", encoding="utf-8")
    out = tmp_path / "all.json"
    assert run(["verify-all", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert "denominator_bound must be >= 2" in one_line_error(capsys)


def test_recursion_sim_rejects_dimension_two(capsys):
    assert run(["recursion-sim", "--s1", "0.5", "--c0", "1", "--c", "1", "--n", "2"]) == 2
    assert "n = 2 must be >= 3" in one_line_error(capsys)
    assert run(["recursion-sim", "--s1", "0.5", "--n", "2", "--q", "1/2", "--delta", "1"]) == 2
    assert "n = 2 must be >= 3" in one_line_error(capsys)


def test_usage_error_exit():
    assert run(["verify"]) == 2  # missing --n


@pytest.mark.parametrize(
    "argv, message",
    [
        # each command takes only the flags it reads
        (["verify", "--n", "3", "--budget", "5"], "unrecognized arguments: --budget 5"),
        (["optimize", "--n", "3", "--cms", "2"], "unrecognized arguments: --cms 2"),
        (["verify"], "required: --n"),
        # the search has no budget
        (["optimize", "--n", "3", "--budget", "5"], "unrecognized arguments: --budget 5"),
        # a rational flag that does not parse is named
        (["recursion-sim", "--s1", "1e-3", "--n", "3", "--q", "1/0", "--delta", "1"], "error: bad --q: Fraction(1, 0)"),
        (["recursion-sim", "--s1", "1e-3", "--n", "3", "--q", "abc", "--delta", "1"],
         "error: bad --q: Invalid literal for Fraction: 'abc'"),
        (["recursion-sim", "--s1", "1e-3", "--n", "3", "--q", "1/2", "--delta", "1/0"],
         "error: bad --delta: Fraction(1, 0)"),
        (["recursion-sim", "--s1", "1e-3", "--n", "3", "--q", "1/2", "--delta", "x"],
         "error: bad --delta: Invalid literal for Fraction: 'x'"),
        # past step 644 this sequence's base-10 exponent leaves the double range
        (["recursion-sim", "--s1", "1e-5", "--n", "3", "--c0", "1", "--c", "2", "--steps", "700"],
         "error: steps = 700 is too many for these inputs: at step 645"),
        # random.Random(-1) draws the samples of random.Random(1)
        (["verify", "--n", "3", "--seed", "-1"], "error: seed must be >= 0"),
        # C_MS and R only enter constants derived from --q/--delta
        (["recursion-sim", "--s1", "0.5", "--n", "3", "--c0", "1", "--c", "1", "--cms", "5"],
         "error: --cms and --radius only derive C0, C with --q/--delta"),
        (["recursion-sim", "--s1", "0.5", "--n", "3", "--c0", "1", "--c", "1", "--radius", "100"],
         "error: --cms and --radius only derive C0, C with --q/--delta"),
    ],
)
def test_usage_errors_are_one_line(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)  # a command that ran anyway would write here
    assert run(argv) == 2
    assert message in one_line_error(capsys)
    assert list(tmp_path.iterdir()) == []


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["verify", "--help"]) == 0
    assert "--strict" in capsys.readouterr().out


# This process has imported every stabcert module already, so only a fresh
# interpreter shows what a command loads, or a deferred import that no longer
# resolves.
def fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` with ``args`` in a new interpreter that imports stabcert from this tree."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120)


MAIN = "import sys\nfrom stabcert import cli\nsys.exit(cli.main(sys.argv[1:]))"  # a command line in a new process


def test_cli_loads_no_high_precision_modules(tmp_path):
    # importing the CLI, a search and a report run no high-precision code
    code = textwrap.dedent(
        """
        import sys
        from pathlib import Path

        from stabcert import cli

        out = Path(sys.argv[1])
        heavy = ("numpy", "mpmath", "stabcert.iteration", "stabcert.bubble")
        assert not [name for name in heavy if name in sys.modules], "after import"
        assert cli.main(["optimize", "--n", "3", "--out", str(out / "search.json")]) == 0
        assert cli.main(["report", str(out / "search_certificate.json")]) == 0
        loaded = [name for name in heavy if name in sys.modules]
        assert not loaded, loaded
        """
    )
    proc = fresh_python(code, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "status: passed" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["recursion-sim", "--s1", "1e-9", "--n", "4", "--q", "3/4", "--delta", "1"],
        ["verify", "--n", "3", "--config", "{fast_config}", "--out", "{tmp_path}/cert.json"],
        ["verify-all", "--config", "{fast_config}", "--out", "{tmp_path}/all.json"],
        ["report", "{data}/verify_all_small.json"],
    ],
)
def test_deferred_imports_resolve_in_a_fresh_process(tmp_path, fast_config, capsys, argv):
    # these commands load mpmath, iteration or bubble on first use
    argv = [arg.format(fast_config=fast_config, tmp_path=tmp_path, data=DATA) for arg in argv]
    assert run(argv) == 0
    in_process = capsys.readouterr().out
    proc = fresh_python(MAIN, *argv)
    assert (proc.returncode, proc.stdout) == (0, in_process), proc.stderr


SEARCH = ["optimize", "--n", "3"]
SIMULATION = ["recursion-sim", "--s1", "1e-9", "--n", "4", "--q", "3/4", "--delta", "1"]


@pytest.mark.parametrize(
    "first, second",
    [
        ([*SEARCH, "--objective", "epsilon", "--delta0", "1/4"], SEARCH),  # a kept --delta0 exits 2
        (SEARCH, SIMULATION),  # main passes a RunConfig only to a command with --config
        (SIMULATION, SEARCH),
        (["optimize", "--n"], SIMULATION),
        (["--help"], SEARCH),
    ],
    ids=["epsilon-then-delta0", "search-then-simulation", "simulation-then-search", "usage-error", "help"],
)
def test_a_command_after_another_in_one_process_runs_as_in_a_fresh_one(tmp_path, monkeypatch, capsys, first, second):
    # main reuses one parser for every command of a process, so the first
    # command must leave nothing in it that the second can see
    monkeypatch.chdir(tmp_path)  # default output paths, the same in both processes
    run(first)
    capsys.readouterr()
    code = run(second)
    in_process = capsys.readouterr().out
    proc = fresh_python(MAIN, *second)
    assert (code, in_process) == (proc.returncode, proc.stdout), proc.stderr
    assert code == 0


def test_main_builds_no_parser_after_its_first_call(monkeypatch, capsys):
    run(["--help"])
    built = []
    init = cli._Parser.__init__
    monkeypatch.setattr(cli._Parser, "__init__", lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    assert run(["verify", "--n", "7"]) == 2
    assert run(["optimize", "--n", "3", "--delta0", "1/4"]) == 2
    assert run(["report", str(DATA / "no_such_certificate.json")]) == 2
    assert built == []  # a parser built per call makes six each
