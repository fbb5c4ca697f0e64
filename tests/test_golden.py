"""Byte-identity of command outputs against the golden files in tests/data.

The files were written by the same commands; any change to a certificate,
search result or margin profile shows up here as a byte difference.  A change
that alters these outputs on purpose rewrites the files and says why.
"""

from pathlib import Path

import pytest

from stabcert.cli import main

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
        # searches that run out of budget mid-descent
        (3, 0, ("search_n3_seed5_budget2500.json", "search_n3_seed5_budget2500_certificate.json")),
        (6, 4, ("search_n6_seed5_budget2501.json",)),
        (4, 0, ("search_n4_epsilon_seed5_budget700.json", "search_n4_epsilon_seed5_budget700_certificate.json")),
        # epsilon at a delta0 no row certifies: every start descends and fails recertification
        (6, 4, ("search_n6_epsilon_delta0_1_seed5.json",)),
    ],
)
def test_optimize_output_bytes(tmp_path, n, code, files):
    # the result file's name carries the objective, any fixed delta0 and any budget:
    # search_n{n}[_epsilon][_delta0_{D}]_seed5[_budget{B}].json
    out = tmp_path / files[0]
    objective = "epsilon" if "_epsilon_" in out.name else "delta0"
    argv = ["optimize", "--n", str(n), "--objective", objective, "--seed", "5", "--out", str(out)]
    if "_delta0_" in out.stem:
        argv += ["--delta0", out.stem.split("_delta0_")[1].split("_")[0]]
    if "_budget" in out.stem:
        argv += ["--budget", out.stem.rsplit("_budget", 1)[1]]
    assert main(argv) == code
    written = {p.name for p in tmp_path.glob("*.json")}
    assert written == set(files)
    for name in files:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name
