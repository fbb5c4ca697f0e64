"""Byte-identity of command outputs against the golden files in tests/data.

The files were written by the same commands; any change to a certificate,
search result or margin profile shows up here as a byte difference.  A change
that alters these outputs on purpose rewrites the files and says why.  Every
golden certificate also reads and rewrites to its own bytes and equals its
recomputation, which ``report`` requires, and ``report`` refuses every search
result file.  At twice ``rational.DPS`` digits every
output is the same apart from the digits it records.
"""

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import libmp

from stabcert.certificate import Certificate
from stabcert.cli import main
from stabcert.rational import rational_to_str

DATA = Path(__file__).parent / "data"


def test_verify_all_certificate_bytes(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("curvature_samples = 300\nquadform_samples = 10\nbarrier_samples = 10\n", encoding="utf-8")
    out = tmp_path / "verify_all_small.json"
    assert main(["verify-all", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / out.name).read_bytes()


@pytest.mark.parametrize(
    "n, code, files",
    [
        (4, 0, ("search_n4_seed5.json", "search_n4_seed5_certificate.json")),
        (6, 4, ("search_n6_seed5.json",)),  # uncertified: the margin profile, no certificate
        (3, 0, ("search_n3_seed5.json", "search_n3_seed5_certificate.json")),
        (5, 0, ("search_n5_seed5.json", "search_n5_seed5_certificate.json")),
        (3, 0, ("search_n3_epsilon_seed5.json", "search_n3_epsilon_seed5_certificate.json")),
        # epsilon at a delta0 without a built-in witness
        (3, 0, ("search_n3_epsilon_delta0_0.25_seed5.json", "search_n3_epsilon_delta0_0.25_seed5_certificate.json")),
        (6, 4, ("search_n6_epsilon_delta0_0.5_seed5.json",)),
        (4, 0, ("search_n4_epsilon_seed5.json", "search_n4_epsilon_seed5_certificate.json")),
        (5, 0, ("search_n5_epsilon_seed5.json", "search_n5_epsilon_seed5_certificate.json")),
        # epsilon at a delta0 no row certifies: the margin profile of the best cell
        (6, 4, ("search_n6_epsilon_delta0_1_seed5.json",)),
    ],
)
def test_optimize_output_bytes(tmp_path, n, code, files):
    # the result file's name carries the objective and any fixed delta0:
    # search_n{n}[_epsilon][_delta0_{D}]_seed5.json
    out = tmp_path / files[0]
    objective = "epsilon" if "_epsilon_" in out.name else "delta0"
    argv = ["optimize", "--n", str(n), "--objective", objective, "--seed", "5", "--out", str(out)]
    if "_delta0_" in out.stem:
        argv += ["--delta0", out.stem.split("_delta0_")[1].split("_")[0]]
    assert main(argv) == code
    written = {p.name for p in tmp_path.glob("*.json")}
    assert written == set(files)
    for name in files:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


CERTIFICATES = sorted(p.name for p in DATA.glob("*_certificate.json")) + ["verify_all_small.json"]
SEARCH_RESULTS = sorted(p.name for p in DATA.glob("search_*.json") if p.name not in CERTIFICATES)


@pytest.mark.parametrize("name", CERTIFICATES)
def test_certificate_reads_and_rewrites_byte_identically(name):
    text = (DATA / name).read_text(encoding="utf-8")
    assert json.dumps(Certificate.from_jsonable(json.loads(text)).to_jsonable(), indent=2) + "\n" == text
    assert main(["report", str(DATA / name)]) == 0  # and equals its recomputation


@pytest.mark.parametrize("name", SEARCH_RESULTS)
def test_report_refuses_a_search_result(capsys, name):
    # a search result sits beside its certificate but certifies nothing itself
    assert main(["report", str(DATA / name)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read certificate: not a certificate: no schema_version, overall_status, ")
    assert len(err.splitlines()) == 1


# recursion-sim as certify-all runs it: q midway between (n-2)/n and delta = 1, five
# starting energies per n; then C0 and C given directly
RECURSION_RUNS = {
    "recursion_sim_q_delta1.txt": [
        ["--n", str(n), "--q", rational_to_str((Fraction(n - 2, n) + 1) / 2), "--delta", "1", "--s1", s1]
        for n in (3, 4, 5)
        for s1 in ("1e-5", "1e-13", "1e-22", "1e-31", "1e-40")
    ],
    "recursion_sim_c0_5_c_2048.txt": [
        ["--n", str(n), "--c0", "5", "--c", "2048", "--s1", s1] for n in (3, 4, 5) for s1 in ("1e-30", "0.5")
    ],
}


def recursion_transcript(name: str) -> str:
    """Each run's command line, stdout and exit code, in order."""
    text = []
    for args in RECURSION_RUNS[name]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["recursion-sim", *args])
        text.append(f"$ recursion-sim {' '.join(args)}\n{out.getvalue()}exit {code}\n")
    return "".join(text)


@pytest.mark.parametrize("name", sorted(RECURSION_RUNS))
def test_recursion_sim_output_bytes(name):
    assert recursion_transcript(name) == (DATA / name).read_text(encoding="utf-8")


def test_outputs_are_the_same_at_twice_the_digits(tmp_path, monkeypatch):
    # the evidence that one precision is enough: none of the values computed at
    # rational.DPS moves at 100 digits, in the digits a certificate or table shows
    from stabcert import bubble, certificate, iteration  # noqa: F401  (each module that reads DPS, loaded)

    readers = [module for name, module in sys.modules.items()
               if name.startswith("stabcert") and hasattr(module, "DPS")]
    assert {module.__name__ for module in readers} >= {"stabcert.rational", "stabcert.bubble", "stabcert.iteration"}
    for module in readers:
        monkeypatch.setattr(module, "DPS", 100)
    monkeypatch.setattr(iteration, "_SIM_PREC", libmp.dps_to_prec(100))
    monkeypatch.setattr(certificate.ApproxValue, "internal_dps", 100)
    cfg = tmp_path / "small.cfg"
    cfg.write_text("curvature_samples = 300\nquadform_samples = 10\nbarrier_samples = 10\n", encoding="utf-8")
    out = tmp_path / "verify_all_small.json"
    assert main(["verify-all", "--config", str(cfg), "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.count("dps=100") == 6 and text.count('"internal_dps": 100') == 18
    text = text.replace("dps=100", "dps=50").replace('"internal_dps": 100', '"internal_dps": 50')
    assert text == (DATA / out.name).read_text(encoding="utf-8")
    for name in sorted(RECURSION_RUNS):
        assert recursion_transcript(name) == (DATA / name).read_text(encoding="utf-8"), name
