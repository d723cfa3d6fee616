"""The scalar DOP853 stepper behind :func:`gravreduce.dynamics.integrate`.

A port of scipy.integrate.DOP853 for the autonomous second-order problem
r'' = a(r), on Python floats, with events located by Brent's method on the
dense output, so that neither numpy nor scipy runs per step.
``dynamics.integrate`` calls it in the packet's own units, so its times are
characteristic times, and imports it on the first integration.
"""

from __future__ import annotations

import math
import operator
import sys

from .errors import IntegrationError

# Dormand-Prince 8(5,3) with its 7th-order dense output (Hairer, Norsett &
# Wanner, Solving ODEs I, section II.10; Hairer's DOP853), with the
# coefficients, error norm and step-size controller of scipy.integrate.DOP853.
# _A holds the nonzero entries of each row of the Butcher matrix, in stage
# order: stage s weights the slopes k1 and k4..k(s-1), stages 2 to 5 excepted,
# and the last row, B, weights k1 and k6..k12; the step advances with it.  The
# error estimates E5 and E3 weight k1 and k6..k12.  The dense output adds
# stages 14 to 16 (_A_DENSE, full rows over k1..k13, k1..k14 and k1..k15,
# with k13 the slope at the step's end) and y(t_old + x h) from the rows of
# _D over k1..k16.  The stage times are not needed: r'' = a(r) is
# autonomous.
_A = ((0.05260015195876773,),
      (0.0197250569845379, 0.0591751709536137),
      (0.02958758547680685, 0.08876275643042054),
      (0.2413651341592667, -0.8845494793282861, 0.924834003261792),
      (0.037037037037037035, 0.17082860872947386, 0.12546768756682242),
      (0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125),
      (0.03709200011850479, 0.17038392571223998, 0.10726203044637328,
       -0.015319437748624402, 0.008273789163814023),
      (0.6241109587160757, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
       20.154067550477894, -43.48988418106996),
      (0.47766253643826434, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
       15.279233632882423, -33.28821096898486, -0.020331201708508627),
      (-0.9371424300859873, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
       -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
      (2.273310147516538, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
       27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
       0.6433927460157636),
      (0.054293734116568765, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
       0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259))
_E5 = (0.01312004499419488, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
       -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294)
_E3 = (-0.18980075407240762, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
       -0.4226823213237919, -0.1521609496625161, 0.20136540080403034, 0.02265179219836082)
_A_DENSE = (
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
     0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987))
_D = ((-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
       2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
       0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
       -4.436036387594894),
      (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
       -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
       -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
       35.81684148639408),
      (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
       527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
       0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
       11.99229113618279),
      (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
       357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
       29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
       -149.72683625798564))
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ERROR_EXPONENT = -1.0 / 8.0          # -1 / (order of the error estimate + 1)
_ROOT_TOL = 4.0 * sys.float_info.epsilon     # absolute and relative, per event root
_ROOT_MAXITER = 100


def _brentq(f, xa: float, xb: float) -> float:
    """A zero of f in [xa, xb] by Brent's method (Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 4), step for step as
    scipy.optimize.brentq, with xtol = rtol = 4 eps.

    A zero division, where C arithmetic would give inf or nan, falls back to
    bisection as the comparisons on those values do there.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise IntegrationError(f"event root is not bracketed on [{xa!r}, {xb!r}]")
    for _ in range(_ROOT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_ROOT_TOL + _ROOT_TOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.nan          # bisect unless interpolation is possible and good
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:         # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:                    # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
    raise IntegrationError(f"event root search did not converge in {_ROOT_MAXITER} "
                           f"iterations on [{xa!r}, {xb!r}]")


def _dense(t_old: float, h: float, y_old: float, y_new: float, k: list):
    """One component of the step's 7th-order dense output, from its 16 stage
    slopes, evaluated as scipy's Dop853DenseOutput does."""
    dy = y_new - y_old
    f0, f1, f2 = dy, h * k[0] - dy, 2.0 * dy - h * (k[12] + k[0])
    f3, f4, f5, f6 = (h * sum(map(operator.mul, d, k)) for d in _D)

    def y(t: float) -> float:
        x = (t - t_old) / h
        x1 = 1.0 - x
        return ((((((f6 * x + f5) * x1 + f4) * x + f3) * x1 + f2) * x + f1) * x1 + f0) * x + y_old
    return y


def solve(accel, r: float, v: float, t_end: float, h_abs: float,
          rtol: float, atol: float, escape_radius: float, max_steps: int,
          stop_at_turn: bool = False):
    """Integrate r' = v, v' = accel(r) from t = 0 with first step ``h_abs``,
    in at most ``max_steps`` accepted steps.

    Returns the accepted (t, r, v) samples, the events as (time, i) pairs in
    the order found, the number of accel calls and the number of rejected
    attempts.  Event i fires where its function, r, v or r - escape_radius for
    i = 0, 1 or 2, is <= 0 at one end of a step and >= 0 at the other, so a
    zero at a step end fires in both adjacent steps; the escape event fires
    only upward and ends the run at its root, with the state taken from the
    dense output.  With ``stop_at_turn``, the first v = 0 root strictly after
    t = 0 (a turning point; a root at the start, where v = 0, does not count)
    ends the run the same way, unless the escape root comes first.
    """
    (a2_1,), (a3_1, a3_2), (a4_1, a4_3), (a5_1, a5_3, a5_4), (a6_1, a6_4, a6_5), \
        (a7_1, a7_4, a7_5, a7_6), (a8_1, a8_4, a8_5, a8_6, a8_7), \
        (a9_1, a9_4, a9_5, a9_6, a9_7, a9_8), \
        (a10_1, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9), \
        (a11_1, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9, a11_10), \
        (a12_1, a12_4, a12_5, a12_6, a12_7, a12_8, a12_9, a12_10, a12_11), \
        (b1, b6, b7, b8, b9, b10, b11, b12) = _A
    e1, e6, e7, e8, e9, e10, e11, e12 = _E5
    d1, d6, d7, d8, d9, d10, d11, d12 = _E3
    t = 0.0
    a = accel(r)
    nfev, n_rejected = 1, 0
    ts, rs, vs = [t], [r], [v]
    events: list[tuple[float, int]] = []
    while t < t_end:
        min_step = 10.0 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegrationError(f"solver failed at {t!r} characteristic times: the "
                                       "required step is below the spacing of "
                                       "floating-point numbers")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = h
            # The stage slopes of r are velocities (p), those of v accelerations (q).
            p1, q1 = v, a
            r2 = r + (a2_1 * p1) * h
            p2 = v + (a2_1 * q1) * h
            q2 = accel(r2)
            r3 = r + (a3_1 * p1 + a3_2 * p2) * h
            p3 = v + (a3_1 * q1 + a3_2 * q2) * h
            q3 = accel(r3)
            r4 = r + (a4_1 * p1 + a4_3 * p3) * h
            p4 = v + (a4_1 * q1 + a4_3 * q3) * h
            q4 = accel(r4)
            r5 = r + (a5_1 * p1 + a5_3 * p3 + a5_4 * p4) * h
            p5 = v + (a5_1 * q1 + a5_3 * q3 + a5_4 * q4) * h
            q5 = accel(r5)
            r6 = r + (a6_1 * p1 + a6_4 * p4 + a6_5 * p5) * h
            p6 = v + (a6_1 * q1 + a6_4 * q4 + a6_5 * q5) * h
            q6 = accel(r6)
            r7 = r + (a7_1 * p1 + a7_4 * p4 + a7_5 * p5 + a7_6 * p6) * h
            p7 = v + (a7_1 * q1 + a7_4 * q4 + a7_5 * q5 + a7_6 * q6) * h
            q7 = accel(r7)
            r8 = r + (a8_1 * p1 + a8_4 * p4 + a8_5 * p5 + a8_6 * p6 + a8_7 * p7) * h
            p8 = v + (a8_1 * q1 + a8_4 * q4 + a8_5 * q5 + a8_6 * q6 + a8_7 * q7) * h
            q8 = accel(r8)
            r9 = r + (a9_1 * p1 + a9_4 * p4 + a9_5 * p5 + a9_6 * p6 + a9_7 * p7
                      + a9_8 * p8) * h
            p9 = v + (a9_1 * q1 + a9_4 * q4 + a9_5 * q5 + a9_6 * q6 + a9_7 * q7
                      + a9_8 * q8) * h
            q9 = accel(r9)
            r10 = r + (a10_1 * p1 + a10_4 * p4 + a10_5 * p5 + a10_6 * p6 + a10_7 * p7
                       + a10_8 * p8 + a10_9 * p9) * h
            p10 = v + (a10_1 * q1 + a10_4 * q4 + a10_5 * q5 + a10_6 * q6 + a10_7 * q7
                       + a10_8 * q8 + a10_9 * q9) * h
            q10 = accel(r10)
            r11 = r + (a11_1 * p1 + a11_4 * p4 + a11_5 * p5 + a11_6 * p6 + a11_7 * p7
                       + a11_8 * p8 + a11_9 * p9 + a11_10 * p10) * h
            p11 = v + (a11_1 * q1 + a11_4 * q4 + a11_5 * q5 + a11_6 * q6 + a11_7 * q7
                       + a11_8 * q8 + a11_9 * q9 + a11_10 * q10) * h
            q11 = accel(r11)
            r12 = r + (a12_1 * p1 + a12_4 * p4 + a12_5 * p5 + a12_6 * p6 + a12_7 * p7
                       + a12_8 * p8 + a12_9 * p9 + a12_10 * p10 + a12_11 * p11) * h
            p12 = v + (a12_1 * q1 + a12_4 * q4 + a12_5 * q5 + a12_6 * q6 + a12_7 * q7
                       + a12_8 * q8 + a12_9 * q9 + a12_10 * q10 + a12_11 * q11) * h
            q12 = accel(r12)
            r_new = r + h * (b1 * p1 + b6 * p6 + b7 * p7 + b8 * p8 + b9 * p9 + b10 * p10
                             + b11 * p11 + b12 * p12)
            v_new = v + h * (b1 * q1 + b6 * q6 + b7 * q7 + b8 * q8 + b9 * q9 + b10 * q10
                             + b11 * q11 + b12 * q12)
            p13, q13 = v_new, accel(r_new)
            nfev += 12
            scale_r = atol + max(abs(r), abs(r_new)) * rtol
            scale_v = atol + max(abs(v), abs(v_new)) * rtol
            e5_r = (e1 * p1 + e6 * p6 + e7 * p7 + e8 * p8 + e9 * p9 + e10 * p10 + e11 * p11
                    + e12 * p12) / scale_r
            e5_v = (e1 * q1 + e6 * q6 + e7 * q7 + e8 * q8 + e9 * q9 + e10 * q10 + e11 * q11
                    + e12 * q12) / scale_v
            e3_r = (d1 * p1 + d6 * p6 + d7 * p7 + d8 * p8 + d9 * p9 + d10 * p10 + d11 * p11
                    + d12 * p12) / scale_r
            e3_v = (d1 * q1 + d6 * q6 + d7 * q7 + d8 * q8 + d9 * q9 + d10 * q10 + d11 * q11
                    + d12 * q12) / scale_v
            err5 = e5_r * e5_r + e5_v * e5_v
            err3 = e3_r * e3_r + e3_v * e3_v
            if err5 == 0.0 and err3 == 0.0:
                error_norm = 0.0
            else:
                error_norm = h * err5 / math.sqrt((err5 + 0.01 * err3) * 2.0)
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            # nan compares false, so a non-finite error shrinks the step by MIN_FACTOR
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
            n_rejected += 1

        r_zero = (r <= 0.0 <= r_new) or (r >= 0.0 >= r_new)
        v_zero = (v <= 0.0 <= v_new) or (v >= 0.0 >= v_new)
        escaped = r - escape_radius <= 0.0 <= r_new - escape_radius
        ends = []       # terminal roots of this step, as (time, i)
        if r_zero or v_zero or escaped:
            ps = [p1, p2, p3, p4, p5, p6, p7, p8, p9, p10, p11, p12, p13]
            qs = [q1, q2, q3, q4, q5, q6, q7, q8, q9, q10, q11, q12, q13]
            for row in _A_DENSE:
                r_s = r + sum(map(operator.mul, row, ps)) * h
                ps.append(v + sum(map(operator.mul, row, qs)) * h)
                qs.append(accel(r_s))
            nfev += 3
            r_of = _dense(t, h, r, r_new, ps)
            v_of = _dense(t, h, v, v_new, qs)
            found = []
            if r_zero:
                found.append((_brentq(r_of, t, t_new), 0))
            if v_zero:
                found.append((_brentq(v_of, t, t_new), 1))
            if escaped:
                ends.append((_brentq(lambda ti: r_of(ti) - escape_radius, t, t_new), 2))
            if stop_at_turn and v_zero and found[-1][0] > 0.0:
                ends.append(found.pop())
            if ends:
                # the run ends at its first terminal root: later roots never happen
                stop = min(ends)
                t_stop = stop[0]
                found = [e for e in found if e[0] <= t_stop] + [stop]
                t_new, r_new, v_new = t_stop, r_of(t_stop), v_of(t_stop)
            events.extend(found)
        t, r, v, a = t_new, r_new, v_new, q13
        ts.append(t)
        rs.append(r)
        vs.append(v)
        if ends:
            break
        if len(ts) > max_steps and t < t_end:
            raise IntegrationError(f"solver took {max_steps} steps and reached only "
                                   f"{t!r} of {t_end!r} characteristic times")
    return ts, rs, vs, events, nfev, n_rejected
