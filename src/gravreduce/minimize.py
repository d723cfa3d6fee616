"""Bracketed root finding and one-dimensional minimization, by one bisection.

Bisection on the sign of a function halves the bracket until its ends are
adjacent floats: on the dense output for the event roots of ``dop853``, and
on the analytic derivative for a minimum.  The energy itself is never
compared: two widths within sqrt(eps) of a smooth minimum have energies
equal to rounding, so a comparison of values cannot place the minimum any
closer (Numerical Recipes, section 10.1), while the derivative's sign can.
"""

from __future__ import annotations

from collections.abc import Callable

from .errors import BracketError


def bisect_sign_change(f: Callable[[float], float], a: float, b: float) -> float:
    """For a < b with f(a) < 0 <= f(b), unchecked and not evaluated again,
    the midpoint of the bracket bisected down to adjacent floats, which rounds
    to one of them: f changes sign, or is zero, at it or its neighbour."""
    mid = 0.5 * (a + b)
    while a < mid < b:          # fails only once a and b are adjacent floats
        if f(mid) < 0.0:
            a = mid
        else:
            b = mid
        mid = 0.5 * (a + b)
    return mid


def minimize_bracketed(dfdx: Callable[[float], float], lo: float, hi: float) -> float:
    """Minimizer of a function inside [lo, hi], from its derivative ``dfdx``.

    The bracket must contain exactly one stationary point: the derivative has
    to change sign from negative at lo to positive at hi, otherwise a
    :class:`BracketError` is raised.  Returns :func:`bisect_sign_change` of
    ``dfdx``: one float from its sign change at most.
    """
    if not (0.0 < lo < hi):
        raise BracketError("bracket must satisfy 0 < lo < hi")
    d_lo = dfdx(lo)
    d_hi = dfdx(hi)
    if not (d_lo < 0.0 < d_hi):
        raise BracketError(
            f"derivative does not change sign over bracket: f'({lo})={d_lo}, f'({hi})={d_hi}")
    return bisect_sign_change(dfdx, lo, hi)
