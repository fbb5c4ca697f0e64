"""A register of mutants that the tests must kill: each makes one strict
comparison of the exact chain in ``optimize.py`` non-strict, and the rows of
``test_optimize.ZERO_MARGIN_ROWS``, each with a margin exactly 0, must catch it.

Each mutant is a source-text replacement executed into a fresh module object;
it is caught when some row's exact report or float margins differ from the
unmutated module's, or when the row raises ZeroDivisionError (a non-strict
gate that lets a zero through to a division).  ``Unreduced`` defines ``==``,
``<`` and ``>`` only, so ``x > zero`` becomes ``not zero > x``: ``x >= zero``
would raise TypeError on every row and test nothing.

The head gate's f_xx > 0 and f_yy > 0 are not in the register: no row can
kill their non-strict mutants, because D = f_xx f_yy - (2a/(n - 2) - alpha)^2,
so a row with f_xx = 0 or f_yy = 0 has D <= 0 and fails the gate anyway
(``test_the_gate_needs_no_diagonal_at_zero``).
"""

import random
import types
from fractions import Fraction as F
from pathlib import Path

import pytest
from test_optimize import ZERO_MARGIN_ROWS

from stabcert import optimize

SOURCE = Path(optimize.__file__).read_text(encoding="utf-8")

MUTANTS = [
    pytest.param('"pass" if margin.numerator > 0', '"pass" if margin.numerator >= 0', id="exact-margin"),
    pytest.param("and D > zero)", "and not zero > D)", id="head-D"),
    pytest.param("if q < four:", "if not q > four:", id="tail-q-spectral"),
    pytest.param("zero < q < four:", "zero < q and not q > four:", id="tail-q-young"),
    pytest.param("if ricci > zero", "if not zero > ricci", id="tail-ricci"),
    pytest.param("if young > zero", "if not zero > young", id="tail-young"),
]


def load(source: str) -> types.ModuleType:
    # named as the real module, which dataclasses look up in sys.modules
    module = types.ModuleType(optimize.__name__)
    module.__package__ = "stabcert"
    exec(compile(source, optimize.__file__, "exec"), module.__dict__)
    return module


def verdicts(module) -> list:
    """Each zero-margin row's exact report entries and float margins, or the exception it raised."""
    out = []
    for row in ZERO_MARGIN_ROWS:
        params = row.values[1]
        try:
            entries = module.feasibility(params).entries
            floats = module.float_margins(params.n, *map(float, (params.delta0, params.b, params.alpha, params.beta)))
        except ZeroDivisionError as exc:
            out.append(repr(exc))
        else:
            out.append((entries, floats))
    return out


def test_the_unmutated_source_gives_the_modules_verdicts():
    # so that a mutant is caught by its replacement, not by how it is loaded
    assert verdicts(load(SOURCE)) == verdicts(optimize)


@pytest.mark.parametrize("strict, loose", MUTANTS)
def test_zero_margin_rows_catch_the_mutant(strict, loose):
    assert SOURCE.count(strict) == 1, strict
    assert verdicts(load(SOURCE.replace(strict, loose))) != verdicts(optimize)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_the_gate_needs_no_diagonal_at_zero(n):
    head_at, head, *_ = optimize._stages(n, F)
    rng = random.Random(n)
    for _ in range(200):
        a, b, alpha, beta = (F(rng.randint(1, 400), rng.randint(1, 100)) for _ in range(4))
        fxx, fyy, D = head(a, head_at(b, alpha, beta))[:3]
        assert D == fxx * fyy - (2 * a / (n - 2) - alpha) ** 2
