"""The float grid search as it ran before it bounded cells ahead of their head.

``best_cells`` below is ``stabcert.optimize._best_cells`` before its gate bound
and its F(1) bound, with its F(0) floor taken out as well, so that it passes
over no cell: every cell is scored through the chain's float head, and through
its tail wherever the Hessian gate holds.  It calls the live ``_stages``, so
a test that compares the two checks the search's bounds alone: both must
return the same cells, keys included, and the same number of evaluations.
"""

from __future__ import annotations

from stabcert import optimize


def best_cells(n: int, fixed: float | None) -> tuple[list, int]:
    """The best (q, r) cells after each grid, finest first and without repeats,
    and the number of cells scored, as ``optimize._best_cells`` returns them."""
    used = 0
    d = 1.0 if fixed is None else fixed
    head_at, head, tail, coefficients, *_ = optimize._stages(n, float)
    gate_failed = optimize._EPSILON - len(optimize.margin_names(n))

    def score(q: float, r: float) -> tuple:
        nonlocal used, d
        used += 1
        terms = head_at(q, r, 1.0)
        at_d = head(d * q, terms)
        fxx, fyy, D, _, Q, _ = at_d
        if Q is None:
            return 0, gate_failed, min(q, r, 1.0, fxx, fyy, D)
        margins = tail(at_d, terms)[0]
        worst = min(margins)
        if worst <= optimize._NOISE:
            undefined = margins.count(optimize._BIG_NEGATIVE)
            return 0, -undefined, min(m for m in margins if m != optimize._BIG_NEGATIVE) if undefined else worst
        if fixed is not None:
            return 1, margins[optimize._EPSILON]
        d = min(d, optimize._lowest_float_a(coefficients(terms)) / q)
        return 1, -d

    best = None  # (key, q, r, s)
    levels = []
    ricci = (n - 1) / (n - 2)
    q_lo, q_hi, s_lo, s_hi, cells = 0.0, 4.0, 0.0, 1.0, optimize._COARSE
    for _ in range(optimize._ZOOMS + 1):
        dq, ds = (q_hi - q_lo) / cells, (s_hi - s_lo) / cells
        for i in range(cells):
            q = q_lo + (i + 0.5) * dq
            spectral = 4 * (n - 3) / ((n - 2) * (4 - q))
            if spectral >= ricci:
                continue
            for j in range(cells):
                s = s_lo + (j + 0.5) * ds
                key = score(q, r := spectral + s * (ricci - spectral))
                if best is None or key > best[0]:
                    best = key, q, r, s
        levels.append(best[:3])
        _, q, _, s = best
        q_lo, q_hi, s_lo, s_hi = max(q - dq, 0.0), min(q + dq, 4.0), max(s - ds, 0.0), min(s + ds, 1.0)
        cells = optimize._ZOOM
    return list(dict.fromkeys(reversed(levels))), used
