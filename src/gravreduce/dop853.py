"""The scalar DOP853 stepper behind :func:`gravreduce.dynamics.integrate`.

A port of scipy.integrate.DOP853 for the autonomous second-order problem
r'' = a(r), on Python floats, with events located by Brent's method on the
dense output, so that neither numpy nor scipy runs per step.  One loop over
the rows of scipy's Butcher matrix computes every stage, the step's and the
dense output's (see _A).
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
# Row s of _A is scipy's A[s, :s], zeros included, and gives stage s + 1 from
# the slopes of stages 1 to s (see _stages).  Rows 1 to 11 are stages 2 to 12.
# Row 12 is scipy's B, so stage 13 is the step itself: its r and its slope p
# are the new r and v, and its slope q is the next step's first.  Rows 13 to 15
# are the dense output's stages 14 to 16, run only on a step with an event.
# _E5 and _E3, the two error estimates, are scipy's over stages 1 to 12, and
# the rows of _D give y(t_old + x h) from all 16 stages.  The stage times are
# not needed: r'' = a(r) is autonomous.
_A = ((0.05260015195876773,),
      (0.0197250569845379, 0.0591751709536137),
      (0.02958758547680685, 0.0, 0.08876275643042054),
      (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
      (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
      (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
      (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
       -0.015319437748624402, 0.008273789163814023),
      (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
       27.59209969944671, 20.154067550477894, -43.48988418106996),
      (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
       21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
      (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
       -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
       -3.0467644718982196),
      (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
       27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
       0.6433927460157636),
      (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
       -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
       0.04471061572777259),
      (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025,
       -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
       -0.008298),
      (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
       -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
       -0.00034046500868740456, 0.1413124436746325),
      (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
       4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
       2.9475147891527724, -9.15095847217987))
_E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
       1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
       -0.022355307863886294)
_E3 = (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
       -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
       0.02265179219836082)
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
_STEP, _DENSE_STAGES = _A[:12], _A[12:]      # the rows of every attempt, of an event step
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


def _stages(accel, r: float, v: float, h: float, ps: list, qs: list, rows) -> float:
    """Append to ``ps`` and ``qs`` the slopes of r and v (velocities and
    accelerations) at the stages that ``rows`` of _A give, for the step of size
    h from (r, v); return the r of the last.

    Stage s + 1 is r_s = r + (sum of A[s, j] p_j) h, p_s = v + (sum of
    A[s, j] q_j) h and q_s = accel(r_s), over the stages j = 1 to s before it.
    """
    for row in rows:
        r_s = r + sum(map(operator.mul, row, ps)) * h
        ps.append(v + sum(map(operator.mul, row, qs)) * h)
        qs.append(accel(r_s))
    return r_s


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
            ps, qs = [v], [a]
            r_new = _stages(accel, r, v, h, ps, qs, _STEP)
            v_new = ps[12]
            nfev += 12
            scale_r = atol + max(abs(r), abs(r_new)) * rtol
            scale_v = atol + max(abs(v), abs(v_new)) * rtol
            e5_r = sum(map(operator.mul, _E5, ps)) / scale_r
            e5_v = sum(map(operator.mul, _E5, qs)) / scale_v
            e3_r = sum(map(operator.mul, _E3, ps)) / scale_r
            e3_v = sum(map(operator.mul, _E3, qs)) / scale_v
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
            _stages(accel, r, v, h, ps, qs, _DENSE_STAGES)
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
        t, r, v, a = t_new, r_new, v_new, qs[12]
        ts.append(t)
        rs.append(r)
        vs.append(v)
        if ends:
            break
        if len(ts) > max_steps and t < t_end:
            raise IntegrationError(f"solver took {max_steps} steps and reached only "
                                   f"{t!r} of {t_end!r} characteristic times")
    return ts, rs, vs, events, nfev, n_rejected
