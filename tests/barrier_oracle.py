"""The barrier ODE check as it ran on ``mpf`` operators, three tangents a point.

``barrier_ode_check`` below is ``stabcert.bubble.barrier_ode_check`` before its
sample loop moved to raw ``mpmath.libmp`` values and took eta(t + h) and
eta(t - h) from two tangents by the tangent addition formula.  It reads
``bubble.DPS`` at call time, as the live check does.  The tests require both
to record the same check, status, residual string and detail, and their
worst residuals to agree far below the 6 digits the check records.
"""

from __future__ import annotations

import mpmath

from stabcert import bubble
from stabcert.certificate import CertCheck
from stabcert.rational import QuadSurd


def worst_residual(x0: QuadSurd, y0: QuadSurd, sample_count: int) -> mpmath.mpf:
    """The worst relative residual |eta' + x0*y0 + (y0/x0)*eta^2| / (1 + |eta|^2)
    over the sample points, eta' by a central difference of eta(t) =
    -x0 * tan(y0*t - pi/2), each eta evaluated by its own tangent."""
    with mpmath.workdps(bubble.DPS):
        x0v = x0.approx_mp()
        y0v = y0.approx_mp()
        period = mpmath.pi / y0v
        margin = period / 1000
        lo, hi = margin, period - margin
        span = hi - lo
        half_pi = mpmath.pi / 2
        neg_x0 = -x0v
        product = x0v * y0v
        ratio = y0v / x0v
        step = mpmath.mpf("1e-6") / y0v

        def eta(t):
            return neg_x0 * mpmath.tan(y0v * t - half_pi)

        worst = mpmath.mpf(0)
        for i in range(1, sample_count + 1):
            t = lo + span * i / (sample_count + 1)
            e = eta(t)
            h = step / (1 + abs(e) / x0v)
            deriv = (eta(t + h) - eta(t - h)) / (2 * h)
            residual = deriv + product + ratio * e * e
            worst = max(worst, abs(residual) / (1 + abs(e) ** 2))
    return worst


def barrier_ode_check(x0: QuadSurd, y0: QuadSurd, sample_count: int) -> tuple[list[CertCheck], mpmath.mpf]:
    """The check the former ``barrier_ode_check`` recorded, and the worst residual it recorded, at full precision."""
    worst = worst_residual(x0, y0, sample_count)
    return [CertCheck.approximate("barrier_ode_residual", sample_count, worst)], worst
