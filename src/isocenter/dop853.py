"""Dormand–Prince 8(5,3) on plain floats for autonomous planar systems.

The method is Hairer's DOP853: the 12-stage explicit pair of order 8 with
the 5th- and 3rd-order error estimates, the 7th-order dense output built
from 3 extra stages, and the step-size control of E. Hairer, S. P. Nørsett
and G. Wanner, *Solving Ordinary Differential Equations I*, 2nd ed.,
§II.4–II.6 (Fortran code DOP853, http://www.unige.ch/~hairer/software.html).
The step rules follow scipy's ``solve_ivp(method="DOP853")``
(``scipy/integrate/_ivp/rk.py`` and ``common.py``): the same initial step,
safety factor 0.9, step factors 0.2 and 10, exponent -1/8, the same mix of
the two error norms and the same rejection.  Only numpy arrays are replaced
by Python floats, which for a 2-vector are several times faster.

The tables below are copied from scipy's
``scipy/integrate/_ivp/dop853_coefficients.py``, "Copyright (c) 2001-2002
Enthought, Inc. 2003, SciPy Developers", used under scipy's BSD 3-Clause
licence.  Each row is kept sparse: A[s] maps j to the nonzero a_sj.  Rows
1..11 are the stages, row 12 the weights B of the 8th-order solution and
rows 13..15 the extra stages of the dense output, whose coefficients F3..F6
come through D.  The node table C is not needed: the systems have no time
argument.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Iterator

A = (
    {},
    {
        0: 5.26001519587677318785587544488e-2,
    },
    {
        0: 1.97250569845378994544595329183e-2,
        1: 5.91751709536136983633785987549e-2,
    },
    {
        0: 2.95875854768068491816892993775e-2,
        2: 8.87627564304205475450678981324e-2,
    },
    {
        0: 2.41365134159266685502369798665e-1,
        2: -8.84549479328286085344864962717e-1,
        3: 9.24834003261792003115737966543e-1,
    },
    {
        0: 3.7037037037037037037037037037e-2,
        3: 1.70828608729473871279604482173e-1,
        4: 1.25467687566822425016691814123e-1,
    },
    {
        0: 3.7109375e-2,
        3: 1.70252211019544039314978060272e-1,
        4: 6.02165389804559606850219397283e-2,
        5: -1.7578125e-2,
    },
    {
        0: 3.70920001185047927108779319836e-2,
        3: 1.70383925712239993810214054705e-1,
        4: 1.07262030446373284651809199168e-1,
        5: -1.53194377486244017527936158236e-2,
        6: 8.27378916381402288758473766002e-3,
    },
    {
        0: 6.24110958716075717114429577812e-1,
        3: -3.36089262944694129406857109825,
        4: -8.68219346841726006818189891453e-1,
        5: 2.75920996994467083049415600797e1,
        6: 2.01540675504778934086186788979e1,
        7: -4.34898841810699588477366255144e1,
    },
    {
        0: 4.77662536438264365890433908527e-1,
        3: -2.48811461997166764192642586468,
        4: -5.90290826836842996371446475743e-1,
        5: 2.12300514481811942347288949897e1,
        6: 1.52792336328824235832596922938e1,
        7: -3.32882109689848629194453265587e1,
        8: -2.03312017085086261358222928593e-2,
    },
    {
        0: -9.3714243008598732571704021658e-1,
        3: 5.18637242884406370830023853209,
        4: 1.09143734899672957818500254654,
        5: -8.14978701074692612513997267357,
        6: -1.85200656599969598641566180701e1,
        7: 2.27394870993505042818970056734e1,
        8: 2.49360555267965238987089396762,
        9: -3.0467644718982195003823669022,
    },
    {
        0: 2.27331014751653820792359768449,
        3: -1.05344954667372501984066689879e1,
        4: -2.00087205822486249909675718444,
        5: -1.79589318631187989172765950534e1,
        6: 2.79488845294199600508499808837e1,
        7: -2.85899827713502369474065508674,
        8: -8.87285693353062954433549289258,
        9: 1.23605671757943030647266201528e1,
        10: 6.43392746015763530355970484046e-1,
    },
    {
        0: 5.42937341165687622380535766363e-2,
        5: 4.45031289275240888144113950566,
        6: 1.89151789931450038304281599044,
        7: -5.8012039600105847814672114227,
        8: 3.1116436695781989440891606237e-1,
        9: -1.52160949662516078556178806805e-1,
        10: 2.01365400804030348374776537501e-1,
        11: 4.47106157277725905176885569043e-2,
    },
    {
        0: 5.61675022830479523392909219681e-2,
        6: 2.53500210216624811088794765333e-1,
        7: -2.46239037470802489917441475441e-1,
        8: -1.24191423263816360469010140626e-1,
        9: 1.5329179827876569731206322685e-1,
        10: 8.20105229563468988491666602057e-3,
        11: 7.56789766054569976138603589584e-3,
        12: -8.298e-3,
    },
    {
        0: 3.18346481635021405060768473261e-2,
        5: 2.83009096723667755288322961402e-2,
        6: 5.35419883074385676223797384372e-2,
        7: -5.49237485713909884646569340306e-2,
        10: -1.08347328697249322858509316994e-4,
        11: 3.82571090835658412954920192323e-4,
        12: -3.40465008687404560802977114492e-4,
        13: 1.41312443674632500278074618366e-1,
    },
    {
        0: -4.28896301583791923408573538692e-1,
        5: -4.69762141536116384314449447206,
        6: 7.68342119606259904184240953878,
        7: 4.06898981839711007970213554331,
        8: 3.56727187455281109270669543021e-1,
        12: -1.39902416515901462129418009734e-3,
        13: 2.9475147891527723389556272149,
        14: -9.15095847217987001081870187138,
    },
)

B = A[12]

# E3 is B less the weights of the 3rd-order formula, which scipy subtracts
# entry by entry
E3 = {
    j: b - {
        0: 0.244094488188976377952755905512,
        8: 0.733846688281611857341361741547,
        11: 0.220588235294117647058823529412e-1,
    }.get(j, 0.0)
    for j, b in B.items()
}

E5 = {
    0: 0.1312004499419488073250102996e-1,
    5: -0.1225156446376204440720569753e+1,
    6: -0.4957589496572501915214079952,
    7: 0.1664377182454986536961530415e+1,
    8: -0.3503288487499736816886487290,
    9: 0.3341791187130174790297318841,
    10: 0.8192320648511571246570742613e-1,
    11: -0.2235530786388629525884427845e-1,
}

D = (
    {
        0: -0.84289382761090128651353491142e+1,
        5: 0.56671495351937776962531783590,
        6: -0.30689499459498916912797304727e+1,
        7: 0.23846676565120698287728149680e+1,
        8: 0.21170345824450282767155149946e+1,
        9: -0.87139158377797299206789907490,
        10: 0.22404374302607882758541771650e+1,
        11: 0.63157877876946881815570249290,
        12: -0.88990336451333310820698117400e-1,
        13: 0.18148505520854727256656404962e+2,
        14: -0.91946323924783554000451984436e+1,
        15: -0.44360363875948939664310572000e+1,
    },
    {
        0: 0.10427508642579134603413151009e+2,
        5: 0.24228349177525818288430175319e+3,
        6: 0.16520045171727028198505394887e+3,
        7: -0.37454675472269020279518312152e+3,
        8: -0.22113666853125306036270938578e+2,
        9: 0.77334326684722638389603898808e+1,
        10: -0.30674084731089398182061213626e+2,
        11: -0.93321305264302278729567221706e+1,
        12: 0.15697238121770843886131091075e+2,
        13: -0.31139403219565177677282850411e+2,
        14: -0.93529243588444783865713862664e+1,
        15: 0.35816841486394083752465898540e+2,
    },
    {
        0: 0.19985053242002433820987653617e+2,
        5: -0.38703730874935176555105901742e+3,
        6: -0.18917813819516756882830838328e+3,
        7: 0.52780815920542364900561016686e+3,
        8: -0.11573902539959630126141871134e+2,
        9: 0.68812326946963000169666922661e+1,
        10: -0.10006050966910838403183860980e+1,
        11: 0.77771377980534432092869265740,
        12: -0.27782057523535084065932004339e+1,
        13: -0.60196695231264120758267380846e+2,
        14: 0.84320405506677161018159903784e+2,
        15: 0.11992291136182789328035130030e+2,
    },
    {
        0: -0.25693933462703749003312586129e+2,
        5: -0.15418974869023643374053993627e+3,
        6: -0.23152937917604549567536039109e+3,
        7: 0.35763911791061412378285349910e+3,
        8: 0.93405324183624310003907691704e+2,
        9: -0.37458323136451633156875139351e+2,
        10: 0.10409964950896230045147246184e+3,
        11: 0.29840293426660503123344363579e+2,
        12: -0.43533456590011143754432175058e+2,
        13: 0.96324553959188282948394950600e+2,
        14: -0.39177261675615439165231486172e+2,
        15: -0.14972683625798562581422125276e+3,
    },
)

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1 / 8  # -1 / (error estimator order 7 + 1)
EPS = sys.float_info.epsilon

# the sparse rows as (j, a_sj) pairs, the form the step loops read
STAGES = tuple(tuple(row.items()) for row in A[1:12])
EXTRA_STAGES = tuple(tuple(row.items()) for row in A[13:])
B_ITEMS, E3_ITEMS, E5_ITEMS = (tuple(w.items()) for w in (B, E3, E5))
D_ITEMS = tuple(tuple(row.items()) for row in D)

Rhs = Callable[[float, float], tuple[float, float]]


class StepFailure(ArithmeticError):
    """The integration cannot go on: the step size underflowed or the state
    is no longer finite."""


def rms(a: float, b: float) -> float:
    """Root mean square of a 2-vector, scipy's ``norm``."""
    return math.sqrt(a * a + b * b) / math.sqrt(2.0)


def initial_step(rhs: Rhs, u, v, fu, fv, t_bound, rtol, atol) -> float:
    """The starting step of Hairer–Nørsett–Wanner §II.4 (scipy's
    ``select_initial_step``), one extra rhs call."""
    su, sv = atol + abs(u) * rtol, atol + abs(v) * rtol
    d0, d1 = rms(u / su, v / sv), rms(fu / su, fv / sv)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    gu, gv = rhs(u + h0 * fu, v + h0 * fv)
    d2 = rms((gu - fu) / su, (gv - fv) / sv) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, t_bound)


class Step:
    """One accepted step from (t_old, u_old, v_old) to (t, u, v) with its
    13 stage derivatives ku, kv; the last is the rhs at (u, v)."""

    __slots__ = ("rhs", "t_old", "t", "u_old", "v_old", "u", "v", "ku", "kv")

    def __init__(self, rhs, t_old, t, u_old, v_old, u, v, ku, kv):
        self.rhs, self.t_old, self.t = rhs, t_old, t
        self.u_old, self.v_old, self.u, self.v = u_old, v_old, u, v
        self.ku, self.kv = ku, kv

    def dense(self) -> Callable[[float], tuple[float, float]]:
        """The 7th-order interpolant on [t_old, t]; costs 3 rhs calls."""
        ku, kv, u0, v0 = self.ku, self.kv, self.u_old, self.v_old
        h = self.t - self.t_old
        for row in EXTRA_STAGES:
            du, dv = combine(row, ku, kv)
            gu, gv = self.rhs(u0 + du * h, v0 + dv * h)
            ku.append(gu)
            kv.append(gv)
        fu, fv = coefficients(self.u - u0, h, ku), coefficients(self.v - v0, h, kv)
        t_old = self.t_old

        def at(t: float) -> tuple[float, float]:
            x = (t - t_old) / h
            return u0 + nested(fu, x), v0 + nested(fv, x)

        return at


def combine(row: tuple, ku: list, kv: list) -> tuple[float, float]:
    """Both components of the stage combination sum_j a_j k_j of a sparse row."""
    du = dv = 0.0
    for j, a in row:
        du += a * ku[j]
        dv += a * kv[j]
    return du, dv


def coefficients(delta: float, h: float, k: list) -> tuple:
    """F0..F6 of the interpolant of one component: three from the step's
    ends, four from the 16 stages through D."""
    rows = [delta, h * k[0] - delta, 2 * delta - h * (k[12] + k[0])]
    rows += (h * sum(d * k[j] for j, d in row) for row in D_ITEMS)
    return tuple(rows)


def nested(f: tuple, x: float) -> float:
    """x (F0 + (1-x) (F1 + x (F2 + ... (F5 + x F6))))."""
    y = 0.0
    for i, c in enumerate(reversed(f)):
        y = (y + c) * (x if i % 2 == 0 else 1 - x)
    return y


def steps(rhs: Rhs, u: float, v: float, t_bound: float, rtol: float, atol: float) -> Iterator[Step]:
    """Yield the accepted steps of (u, v)' = rhs(u, v) from t = 0 until t_bound.

    Raises StepFailure when the step size falls below ten spacings of t or a
    step lands on a non-finite state.
    """
    fu, fv = rhs(u, v)
    h_abs = initial_step(rhs, u, v, fu, fv, t_bound, rtol, atol)
    t = 0.0
    while t < t_bound:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:  # also stops a nan step
                raise StepFailure(f"step size underflow at t = {t:.6g}")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            ku, kv = [fu], [fv]
            for row in STAGES:
                du, dv = combine(row, ku, kv)
                gu, gv = rhs(u + du * h, v + dv * h)
                ku.append(gu)
                kv.append(gv)
            du, dv = combine(B_ITEMS, ku, kv)
            u_new, v_new = u + h * du, v + h * dv
            fu_new, fv_new = rhs(u_new, v_new)
            ku.append(fu_new)
            kv.append(fv_new)
            su = atol + max(abs(u), abs(u_new)) * rtol
            sv = atol + max(abs(v), abs(v_new)) * rtol
            e5u, e5v = combine(E5_ITEMS, ku, kv)
            e3u, e3v = combine(E3_ITEMS, ku, kv)
            e5u, e5v, e3u, e3v = e5u / su, e5v / sv, e3u / su, e3v / sv
            err5 = e5u * e5u + e5v * e5v
            err3 = e3u * e3u + e3v * e3v
            if err5 == 0 and err3 == 0:
                error_norm = 0.0
            else:
                error_norm = h_abs * err5 / math.sqrt((err5 + 0.01 * err3) * 2)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            # a nan norm rejects with the smallest factor, as in scipy
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
            rejected = True
        if not (math.isfinite(u_new) and math.isfinite(v_new)):
            raise StepFailure(f"non-finite state at t = {t_new:.6g}")
        yield Step(rhs, t, t_new, u, v, u_new, v_new, ku, kv)
        t, u, v, fu, fv = t_new, u_new, v_new, fu_new, fv_new


def brentq(f: Callable[[float], float], a: float, b: float) -> float:
    """Root of f in [a, b], where f(a) and f(b) differ in sign, to 4 eps
    absolute and relative: scipy's C ``brentq`` (Brent's method), as
    ``solve_ivp`` calls it to locate events."""
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):  # scipy's default iteration cap
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (4 * EPS + 4 * EPS * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)  # interpolate
            else:
                dpre = (fpre - fcur) / (xpre - xcur)  # extrapolate
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    return xcur
