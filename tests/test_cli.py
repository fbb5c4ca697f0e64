import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from stabcert import iteration, optimize, published
from stabcert.certificate import Certificate
from stabcert.cli import main


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
    bad.write_text("float_precision_digits = 10\n", encoding="utf-8")
    assert run(["verify", "--n", "3", "--config", str(bad)]) == 2
    bad.write_text("this is not an assignment\n", encoding="utf-8")
    assert run(["verify", "--n", "3", "--config", str(bad)]) == 2
    capsys.readouterr()
    # a config path that cannot be read as UTF-8 text: a directory, then a non-UTF-8 byte
    bad.write_bytes(b"seed = 1\xff\n")
    for path in (tmp_path, bad):
        assert run(["verify", "--n", "3", "--config", str(path)]) == 2
        assert "cannot read config file" in one_line_error(capsys)


@pytest.mark.parametrize("argv", [["verify", "--n", "3"], ["verify-all"], ["optimize", "--n", "3", "--budget", "50"]])
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
    assert cert.environment["float_precision_digits"] == 50
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
    names = [c.name for c in cert.checks]
    assert "critical_radicand_perfect_square" in names
    assert "exponent_exceeds_dimension_above_threshold" in names


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
        ["optimize", "--n", "3", "--objective", "delta0", "--budget", "3000", "--out", str(out)]
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


def test_verify_all_passes_float_precision_to_caccioppoli(tmp_path, fast_config, monkeypatch):
    seen = []
    exact = iteration.caccioppoli_constants

    def recording(*args, **kwargs):
        seen.append(kwargs.get("dps"))
        return exact(*args, **kwargs)

    monkeypatch.setattr(iteration, "caccioppoli_constants", recording)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(fast_config.read_text(encoding="utf-8") + "float_precision_digits = 60\n", encoding="utf-8")
    assert run(["verify-all", "--config", str(cfg), "--out", str(tmp_path / "all.json")]) == 0
    assert seen == [60, 60, 60]


def test_optimize_epsilon_requires_delta0_for_probe(tmp_path):
    assert run(["optimize", "--n", "6", "--objective", "epsilon", "--out", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize(
    "value, message",
    [("-1", "must be > 0"), ("0", "must be > 0"), ("x", "bad --delta0"), ("1/0", "bad --delta0")],
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
    code = run(["optimize", "--n", "6", "--budget", "1500", "--out", str(out)])
    assert code == 4
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert not payload["certified"]
    assert payload["margin_profile"]


def test_recursion_sim_exit_codes():
    assert run(["recursion-sim", "--s1", "0.5", "--c0", "1", "--c", "1", "--n", "3", "--steps", "5"]) == 0
    assert run(["recursion-sim", "--s1", "-1", "--c0", "1", "--c", "1", "--n", "3"]) == 2
    assert run(["recursion-sim", "--s1", "0.5", "--c0", "nan", "--c", "1", "--n", "3"]) == 2
    assert run(["recursion-sim", "--s1", "0.5", "--n", "3"]) == 2  # no constants given
    for steps in ("0", "-3"):  # no step checked is no evidence, not a pass
        assert run(["recursion-sim", "--s1", "0.5", "--c0", "1", "--c", "1", "--n", "3", "--steps", steps]) == 2


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


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("margin", "not-a-number", "not a rational"),
        ("margin", "1/0", "not a rational"),
        ("margin", 0.5, "not a rational"),
        ("status", "failed", "unknown status"),  # would otherwise render as a passed certificate
    ],
)
def test_report_rejects_malformed_check(tmp_path, capsys, field, value, message):
    path = tmp_path / "cert.json"
    check = {"name": "epsilon", "kind": "exact", "status": "pass", "margin": "1/2", field: value}
    path.write_text(json.dumps({"n": 3, "checks": [check]}), encoding="utf-8")
    assert run(["report", str(path)]) == 2
    assert message in one_line_error(capsys)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("flags", ["oops"], "flag must be a JSON object"),  # would otherwise be a traceback
        ("published_targets", [{"quantity": "epsilon", "quoted": "9/11", "computed": "1/2", "match": "no"}],
         "not a boolean"),  # would otherwise render as a match
    ],
)
def test_report_rejects_malformed_flags_and_targets(tmp_path, capsys, field, value, message):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"n": 3, "checks": [], field: value}), encoding="utf-8")
    assert run(["report", str(path)]) == 2
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
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"n": n, "checks": [check]}), encoding="utf-8")
    assert run(["report", str(path)]) == 2
    assert message in one_line_error(capsys)


def test_report_accepts_verify_all_n_zero(tmp_path, capsys):
    path = tmp_path / "cert.json"
    check = {"name": "row_n3_overall", "kind": "exact", "status": "pass"}
    path.write_text(json.dumps({"n": 0, "checks": [check]}), encoding="utf-8")
    assert run(["report", str(path)]) == 0
    assert "n = 0, status: passed" in capsys.readouterr().out


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
    # linearity_samples is not a key: a file that sets it is refused as unknown
    [("curvature_samples", 0), ("quadform_samples", 0), ("barrier_samples", 0), ("linearity_samples", -5),
     ("budget", 0), ("denominator_bound", 1)],
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
    cfg.write_text(fast_config.read_text(encoding="utf-8") + "budget = 0\ndenominator_bound = 0\n", encoding="utf-8")
    out = tmp_path / "all.json"
    assert run(["verify-all", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert "budget must be >= 1" in one_line_error(capsys)


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


def test_import_loads_no_numpy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import stabcert.cli, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
