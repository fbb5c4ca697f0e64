from fractions import Fraction as F
from pathlib import Path

from stabcert.config import RunConfig, load_config


def test_environment_keys_and_order():
    # certificates record these keys in this order; a change shows in their bytes
    assert list(RunConfig().environment()) == [
        "c_ms", "radius", "s", "s1", "curvature_samples", "quadform_samples", "barrier_samples", "seed",
        "denominator_bound",
    ]


def test_file_round_trip_of_every_field(tmp_path):
    cfg = RunConfig(
        c_ms=2.5, radius=150.0, s=F(7, 3), s1=F(9, 2), curvature_samples=7,
        quadform_samples=8, barrier_samples=9, seed=11, denominator_bound=999,
        out_dir=Path("some/dir"),
    )
    default = RunConfig()
    assert all(value != getattr(default, key) for key, value in vars(cfg).items())
    lines = [f"{key} = {value}\n" for key, value in {**cfg.environment(), "out_dir": cfg.out_dir}.items()]
    path = tmp_path / "run.cfg"
    path.write_text("".join(lines), encoding="utf-8")
    assert load_config(path) == cfg
