import json
import os
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from stabcert.certificate import STRICT_MARGIN, CertCheck, Certificate, PublishedTarget, json_difference
from stabcert.certify import certify, recompute
from stabcert.config import RunConfig
from stabcert.curvature import ParamSet
from stabcert.cli import (
    EXIT_CHECK_FAILED,
    EXIT_PASS,
    EXIT_STRICT_DISCREPANCY,
    exit_code_for,
)


def sample_certificate() -> Certificate:
    cert = Certificate(n=3, params={"a": "10/11", "b": "30/11"})
    cert.checks.append(CertCheck("discriminant_positive", "exact", "pass", margin=F(24, 121), detail=STRICT_MARGIN))
    cert.checks.append(CertCheck("barrier_ode", "approximate", "pass", residual="1e-40",
                                 detail="10 points, max relative residual 1e-40, dps=50"))
    cert.published_targets.append(PublishedTarget("epsilon", "9/11", "9/11", True))
    cert.add_flag("gamma0_convention_divergence", "both conventions emitted", bare="77/142")
    cert.environment.update({"seed": 0, "budget": 1000, "float_precision_digits": 50})
    cert.values["epsilon"] = "9/11"
    return cert


def test_round_trip_field_for_field():
    cert = sample_certificate()
    clone = Certificate.from_jsonable(json.loads(json.dumps(cert.to_jsonable())))
    assert clone == cert
    # and exact values survive bit-exactly
    assert clone.checks[0].margin == F(24, 121)
    assert cert.to_jsonable()["checks"][0]["margin"] == "24/121"
    assert clone.values["epsilon"] == "9/11"


def test_overall_status_rules():
    cert = sample_certificate()
    assert cert.overall_status == "passed"
    cert.checks.append(CertCheck("something_exact", "exact", "fail"))
    assert cert.overall_status == "failed"


def test_target_mismatch_is_discrepancy():
    # a mismatch is one record, its published target: it is listed once and fails nothing
    cert = sample_certificate()
    cert.published_targets.append(PublishedTarget("L", "71/11", "72/11", False))
    assert cert.discrepancies == ["L"]
    assert cert.overall_status == "passed"


def test_exit_codes_are_pure_functions_of_content():
    cert = sample_certificate()
    assert exit_code_for(cert, strict=False) == EXIT_PASS
    assert exit_code_for(cert, strict=True) == EXIT_PASS

    replay = Certificate.from_jsonable(json.loads(json.dumps(cert.to_jsonable())))
    replay.published_targets.append(PublishedTarget("L", "71/11", "72/11", False))
    assert exit_code_for(replay, strict=False) == EXIT_PASS
    assert exit_code_for(replay, strict=True) == EXIT_STRICT_DISCREPANCY

    failed = Certificate.from_jsonable(json.loads(json.dumps(replay.to_jsonable())))
    failed.checks.append(CertCheck("y", "exact", "fail"))
    assert exit_code_for(failed, strict=False) == EXIT_CHECK_FAILED
    assert exit_code_for(failed, strict=True) == EXIT_CHECK_FAILED


def test_write_is_atomic_and_readable(tmp_path):
    cert = sample_certificate()
    path = tmp_path / "deep" / "cert.json"
    cert.write(path)
    assert Certificate.read(path) == cert
    leftovers = [p for p in path.parent.iterdir() if p.suffix == ".tmp"]
    assert not leftovers
    # the mode a plain open() gives, not the temp file's owner-only 0600
    umask = os.umask(0)
    os.umask(umask)
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask
    # file is plain UTF-8 JSON with schema_version "1"
    raw = json.loads(path.read_text(encoding="utf-8"))
    assert raw["schema_version"] == "1"
    assert raw["overall_status"] == "passed"


@pytest.mark.parametrize("key", list(sample_certificate().to_jsonable()))
def test_reader_requires_every_key_the_writer_writes(key):
    payload = sample_certificate().to_jsonable()
    del payload[key]
    with pytest.raises(ValueError, match=f"not a certificate: no {key}$"):
        Certificate.from_jsonable(payload)


@pytest.mark.parametrize("target", ["x", 5, None, ["quantity"]])
def test_reader_refuses_a_published_target_that_is_no_object(target):
    payload = sample_certificate().to_jsonable()
    payload["published_targets"].append(target)
    with pytest.raises(ValueError, match="^every published target must be a JSON object$"):
        Certificate.from_jsonable(payload)


@pytest.mark.parametrize(
    "target, message",
    [
        ({"quantity": 5, "quoted": [1], "computed": None, "match": True}, "published target quantity 5 is not a string"),
        ({"quantity": "epsilon", "quoted": [1], "computed": "9/11", "match": True},
         "published target quoted [1] is not a string"),
        ({"quantity": "epsilon", "quoted": "9/11", "computed": None, "match": True},
         "published target computed None is not a string"),
    ],
)
def test_reader_refuses_a_published_target_that_is_not_strings(target, message):
    payload = sample_certificate().to_jsonable()
    payload["published_targets"].append(target)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Certificate.from_jsonable(payload)


@pytest.mark.parametrize("field", ["name", "kind", "status", "margin", "residual", "detail"])
def test_check_is_immutable(field):
    check = sample_certificate().checks[0]
    with pytest.raises(AttributeError):
        setattr(check, field, None)
    assert check == CertCheck("discriminant_positive", "exact", "pass", F(24, 121), None, STRICT_MARGIN)


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "certificate",
    [
        lambda: certify(ParamSet.published_row(3), RunConfig(curvature_samples=30, quadform_samples=3,
                                                             barrier_samples=3)),
        lambda: recompute(Certificate.read(DATA / "verify_all_small.json")),
        lambda: Certificate.read(DATA / "search_n3_seed5_certificate.json"),
        lambda: recompute(Certificate.read(DATA / "search_n3_seed5_certificate.json")),
    ],
    ids=["row", "verify-all-recomputed", "search-read", "search-recomputed"],
)
def test_certificate_json_holds_no_tuple(certificate):
    # json writes a tuple, a check among them, as an array, which reads back as a list
    payload = certificate().to_jsonable()
    assert json.loads(json.dumps(payload)) == payload


@pytest.mark.parametrize(
    "got, want, difference",
    [
        ({"a": 1, "b": [1, 2]}, {"b": [1, 2], "a": 1}, None),  # key order is no difference
        ({"a": 1.0}, {"a": 1}, "a is 1.0, not 1"),  # nor a JSON number of another type
        ({"a": True}, {"a": 1}, "a is true, not 1"),
        ({"a": "1"}, {"a": 1}, 'a is "1", not 1'),
        ({"a": [1]}, {"a": [1, 2]}, "a[1] is absent, not 2"),
        ({"a": [1, {}]}, {"a": [1]}, "a[1] is a JSON object, not absent"),
        ({"a": {"b c": [0]}}, {"a": {"b c": [1]}}, 'a["b c"][0] is 0, not 1'),
        ({}, {"a": []}, "a is absent, not a JSON array"),
        # the top-level environment block of the expected value is left out, no nested one
        ({"environment": {"seed": 1}, "rows": [{"environment": 3}]}, {"environment": {}, "rows": [{"environment": 3}]},
         None),
        ({"environment": {"seed": 1}, "rows": [{"environment": 2}]}, {"environment": {}, "rows": [{"environment": 3}]},
         "rows[0].environment is 2, not 3"),
        ({"x": {"environment": 2}}, {"x": {}}, "x.environment is 2, not absent"),
    ],
)
def test_json_difference_names_the_first_path_that_differs(got, want, difference):
    assert json_difference(got, want) == difference
