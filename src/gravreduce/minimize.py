"""Bracketed one-dimensional minimization.

Strategy: bisection on the sign of the analytic derivative halves the
bracket until its width is 1e-12 of its midpoint, which is returned.  The
energy itself is never compared: two widths within sqrt(eps) of a smooth
minimum have energies equal to rounding, so a comparison of values cannot
place the minimum any closer (Numerical Recipes, section 10.1), while the
derivative's sign can, down to the bracket width.
"""

from __future__ import annotations

from collections.abc import Callable

from .errors import BracketError

REL_WIDTH = 1e-12    # final bracket width over its midpoint


def minimize_bracketed(dfdx: Callable[[float], float], lo: float, hi: float) -> float:
    """Minimizer of a function inside [lo, hi], from its derivative ``dfdx``.

    The bracket must contain exactly one stationary point: the derivative has
    to change sign from negative at lo to positive at hi, otherwise a
    :class:`BracketError` is raised.  Returns the midpoint of the final
    bracket, whose width is ``REL_WIDTH`` of it.
    """
    if not (0.0 < lo < hi):
        raise BracketError("bracket must satisfy 0 < lo < hi")
    d_lo = dfdx(lo)
    d_hi = dfdx(hi)
    if not (d_lo < 0.0 < d_hi):
        raise BracketError(
            f"derivative does not change sign over bracket: f'({lo})={d_lo}, f'({hi})={d_hi}")

    a, b = lo, hi
    mid = 0.5 * (a + b)
    # a < mid < b fails only once a and b are adjacent floats (subnormal brackets)
    while b - a > REL_WIDTH * mid and a < mid < b:
        if dfdx(mid) < 0.0:
            a = mid
        else:
            b = mid
        mid = 0.5 * (a + b)
    return mid
