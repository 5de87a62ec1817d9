"""Hairer's DOP853: the explicit Runge-Kutta pair of order 8(5,3) with a
7th-order dense output (Hairer, Norsett & Wanner, *Solving Ordinary
Differential Equations I*, 2nd ed., 1993, Sec. II.10).

This is the one adaptive integrator of the package: trajectories, the
battery's perturbation runs and DOP853 monodromy matrices all use it.
``solve`` repeats, one operation at a time, what
SciPy's ``solve_ivp(method="DOP853")`` does for a real 1-D state
without ``max_step``: the initial step selection, the stage sums, the
E5/E3 error norm, the step-size factors, the clipping of the last step
and the location of a terminal event.  The dense output, which depends
only on its own accepted step (Sec. II.6), waits for the block of samples
its step belongs to and is evaluated there for all of the block's steps
in one stacked pass, each element with SciPy's operations.  Its samples
and its RHS count therefore equal SciPy's bit for bit (the tests compare
them), and no command needs SciPy.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = ["Solution", "solve"]

# The DOP853 tableau below is copied verbatim from SciPy's
# integrate/_ivp/dop853_coefficients.py, Copyright (c) 2001-2002
# Enthought, Inc. 2003, SciPy Developers, under the BSD 3-Clause License.
N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
A[1, 0] = 5.26001519587677318785587544488e-2

A[2, 0] = 1.97250569845378994544595329183e-2
A[2, 1] = 5.91751709536136983633785987549e-2

A[3, 0] = 2.95875854768068491816892993775e-2
A[3, 2] = 8.87627564304205475450678981324e-2

A[4, 0] = 2.41365134159266685502369798665e-1
A[4, 2] = -8.84549479328286085344864962717e-1
A[4, 3] = 9.24834003261792003115737966543e-1

A[5, 0] = 3.7037037037037037037037037037e-2
A[5, 3] = 1.70828608729473871279604482173e-1
A[5, 4] = 1.25467687566822425016691814123e-1

A[6, 0] = 3.7109375e-2
A[6, 3] = 1.70252211019544039314978060272e-1
A[6, 4] = 6.02165389804559606850219397283e-2
A[6, 5] = -1.7578125e-2

A[7, 0] = 3.70920001185047927108779319836e-2
A[7, 3] = 1.70383925712239993810214054705e-1
A[7, 4] = 1.07262030446373284651809199168e-1
A[7, 5] = -1.53194377486244017527936158236e-2
A[7, 6] = 8.27378916381402288758473766002e-3

A[8, 0] = 6.24110958716075717114429577812e-1
A[8, 3] = -3.36089262944694129406857109825
A[8, 4] = -8.68219346841726006818189891453e-1
A[8, 5] = 2.75920996994467083049415600797e1
A[8, 6] = 2.01540675504778934086186788979e1
A[8, 7] = -4.34898841810699588477366255144e1

A[9, 0] = 4.77662536438264365890433908527e-1
A[9, 3] = -2.48811461997166764192642586468
A[9, 4] = -5.90290826836842996371446475743e-1
A[9, 5] = 2.12300514481811942347288949897e1
A[9, 6] = 1.52792336328824235832596922938e1
A[9, 7] = -3.32882109689848629194453265587e1
A[9, 8] = -2.03312017085086261358222928593e-2

A[10, 0] = -9.3714243008598732571704021658e-1
A[10, 3] = 5.18637242884406370830023853209
A[10, 4] = 1.09143734899672957818500254654
A[10, 5] = -8.14978701074692612513997267357
A[10, 6] = -1.85200656599969598641566180701e1
A[10, 7] = 2.27394870993505042818970056734e1
A[10, 8] = 2.49360555267965238987089396762
A[10, 9] = -3.0467644718982195003823669022

A[11, 0] = 2.27331014751653820792359768449
A[11, 3] = -1.05344954667372501984066689879e1
A[11, 4] = -2.00087205822486249909675718444
A[11, 5] = -1.79589318631187989172765950534e1
A[11, 6] = 2.79488845294199600508499808837e1
A[11, 7] = -2.85899827713502369474065508674
A[11, 8] = -8.87285693353062954433549289258
A[11, 9] = 1.23605671757943030647266201528e1
A[11, 10] = 6.43392746015763530355970484046e-1

A[12, 0] = 5.42937341165687622380535766363e-2
A[12, 5] = 4.45031289275240888144113950566
A[12, 6] = 1.89151789931450038304281599044
A[12, 7] = -5.8012039600105847814672114227
A[12, 8] = 3.1116436695781989440891606237e-1
A[12, 9] = -1.52160949662516078556178806805e-1
A[12, 10] = 2.01365400804030348374776537501e-1
A[12, 11] = 4.47106157277725905176885569043e-2

A[13, 0] = 5.61675022830479523392909219681e-2
A[13, 6] = 2.53500210216624811088794765333e-1
A[13, 7] = -2.46239037470802489917441475441e-1
A[13, 8] = -1.24191423263816360469010140626e-1
A[13, 9] = 1.5329179827876569731206322685e-1
A[13, 10] = 8.20105229563468988491666602057e-3
A[13, 11] = 7.56789766054569976138603589584e-3
A[13, 12] = -8.298e-3

A[14, 0] = 3.18346481635021405060768473261e-2
A[14, 5] = 2.83009096723667755288322961402e-2
A[14, 6] = 5.35419883074385676223797384372e-2
A[14, 7] = -5.49237485713909884646569340306e-2
A[14, 10] = -1.08347328697249322858509316994e-4
A[14, 11] = 3.82571090835658412954920192323e-4
A[14, 12] = -3.40465008687404560802977114492e-4
A[14, 13] = 1.41312443674632500278074618366e-1

A[15, 0] = -4.28896301583791923408573538692e-1
A[15, 5] = -4.69762141536116384314449447206
A[15, 6] = 7.68342119606259904184240953878
A[15, 7] = 4.06898981839711007970213554331
A[15, 8] = 3.56727187455281109270669543021e-1
A[15, 12] = -1.39902416515901462129418009734e-3
A[15, 13] = 2.9475147891527723389556272149
A[15, 14] = -9.15095847217987001081870187138


B = A[N_STAGES, :N_STAGES]

E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B.copy()
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

# First 3 coefficients are computed separately.
D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
D[0, 0] = -0.84289382761090128651353491142e+1
D[0, 5] = 0.56671495351937776962531783590
D[0, 6] = -0.30689499459498916912797304727e+1
D[0, 7] = 0.23846676565120698287728149680e+1
D[0, 8] = 0.21170345824450282767155149946e+1
D[0, 9] = -0.87139158377797299206789907490
D[0, 10] = 0.22404374302607882758541771650e+1
D[0, 11] = 0.63157877876946881815570249290
D[0, 12] = -0.88990336451333310820698117400e-1
D[0, 13] = 0.18148505520854727256656404962e+2
D[0, 14] = -0.91946323924783554000451984436e+1
D[0, 15] = -0.44360363875948939664310572000e+1

D[1, 0] = 0.10427508642579134603413151009e+2
D[1, 5] = 0.24228349177525818288430175319e+3
D[1, 6] = 0.16520045171727028198505394887e+3
D[1, 7] = -0.37454675472269020279518312152e+3
D[1, 8] = -0.22113666853125306036270938578e+2
D[1, 9] = 0.77334326684722638389603898808e+1
D[1, 10] = -0.30674084731089398182061213626e+2
D[1, 11] = -0.93321305264302278729567221706e+1
D[1, 12] = 0.15697238121770843886131091075e+2
D[1, 13] = -0.31139403219565177677282850411e+2
D[1, 14] = -0.93529243588444783865713862664e+1
D[1, 15] = 0.35816841486394083752465898540e+2

D[2, 0] = 0.19985053242002433820987653617e+2
D[2, 5] = -0.38703730874935176555105901742e+3
D[2, 6] = -0.18917813819516756882830838328e+3
D[2, 7] = 0.52780815920542364900561016686e+3
D[2, 8] = -0.11573902539959630126141871134e+2
D[2, 9] = 0.68812326946963000169666922661e+1
D[2, 10] = -0.10006050966910838403183860980e+1
D[2, 11] = 0.77771377980534432092869265740
D[2, 12] = -0.27782057523535084065932004339e+1
D[2, 13] = -0.60196695231264120758267380846e+2
D[2, 14] = 0.84320405506677161018159903784e+2
D[2, 15] = 0.11992291136182789328035130030e+2

D[3, 0] = -0.25693933462703749003312586129e+2
D[3, 5] = -0.15418974869023643374053993627e+3
D[3, 6] = -0.23152937917604549567536039109e+3
D[3, 7] = 0.35763911791061412378285349910e+3
D[3, 8] = 0.93405324183624310003907691704e+2
D[3, 9] = -0.37458323136451633156875139351e+2
D[3, 10] = 0.10409964950896230045147246184e+3
D[3, 11] = 0.29840293426660503123344363579e+2
D[3, 12] = -0.43533456590011143754432175058e+2
D[3, 13] = 0.96324553959188282948394950600e+2
D[3, 14] = -0.39177261675615439165231486172e+2
D[3, 15] = -0.14972683625798562581422125276e+3

# step-size control, as in SciPy's explicit Runge-Kutta solvers
SAFETY = 0.9  # multiplies the step proposed from the error estimate
MIN_FACTOR = 0.2  # largest decrease of the step in one rejection
MAX_FACTOR = 10  # largest increase of the step after an accepted one
ERROR_EXPONENT = -1 / 8  # -1/(q + 1) for the error estimator's order q = 7
EPS = np.finfo(float).eps
EVENT_TOL = 4 * EPS  # absolute and relative tolerance of the event root
# solve() samples t_eval on the dense output of queued steps, at most this
# many samples per evaluation, so that its work arrays stay bounded
SAMPLE_BLOCK = 1024
# the nodes as Python floats, whose products with h cost less than numpy
# scalars', and each stage's row of A
_C = C.tolist()
_A_ROWS = [A[s, :s] for s in range(N_STAGES_EXTENDED)]

MESSAGES = {
    0: "The solver successfully reached the end of the integration interval.",
    1: "A termination event occurred.",
    -1: "Required step size is less than spacing between numbers.",
}


class Solution(NamedTuple):
    """What ``solve`` returns.

    ``t`` holds the ``t_eval`` samples reached, or without ``t_eval`` the
    end of the run alone; ``y[k]`` is the state at ``t[k]``.  After a
    terminal event, ``t_event`` and ``y_event`` locate it and the samples
    stop at it.  ``status`` is 0 at the end of the interval, 1 after the
    event and -1 when the step size fell below the spacing of floats.
    """

    t: np.ndarray
    y: np.ndarray
    t_event: float | None
    y_event: np.ndarray | None
    nfev: int
    status: int
    message: str


def _rms(x):
    # a float, so that the step sizes and stage times are floats too
    return float(np.linalg.norm(x)) / x.size**0.5


def _initial_step(fun, t0, y0, f0, interval, rtol, atol):
    """First step size (Hairer, Norsett & Wanner, Sec. II.4), which costs
    one RHS evaluation."""
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -ERROR_EXPONENT
    return min(100 * h0, h1, interval)


def _square_norm(x):
    """``np.linalg.norm(x) ** 2`` for a real 1-D x, bit for bit: the norm
    is sqrt(x.dot(x)), and a square past the largest float is inf."""
    try:
        return math.sqrt(x.dot(x)) ** 2
    except OverflowError:
        return math.inf


def _error_norm(K, h, scale):
    """RMS norm of the 8th-order step's error, the 5th-order estimate
    damped by the 3rd-order one.  A step whose stages overflowed gives a
    NaN or infinite norm, which rejects it."""
    err5 = np.dot(K.T, E5) / scale
    err3 = np.dot(K.T, E3) / scale
    err5_norm_2 = _square_norm(err5)
    err3_norm_2 = _square_norm(err3)
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    if denom == 0:  # 0.01 * err3_norm_2 underflowed; numpy's 0 / 0
        return math.nan
    return abs(h) * err5_norm_2 / math.sqrt(denom * len(scale))


def _dense_output(fun, steps):
    """The 7th-order interpolants of the accepted ``steps``, each
    ``(t_old, h, y_old, y, K)`` with K its 13 stage rows, stacked.

    The three extra stages of every step are evaluated together, one
    stacked RHS call per stage, so ``fun`` gets a (k,) array of times and a
    (k, n) array of states.  ``np.matmul`` over the stack gives each step
    the bits of SciPy's per-step ``np.dot``.  Returns ``(F, t_old, h,
    y_old)``: the coefficient rows F of shape (7, k, n), then the steps'
    starts, spans and start states, which ``_interpolate`` takes.
    """
    t_old, h, y_old, y, stages = map(np.array, zip(*steps))
    K = np.empty((len(h), N_STAGES_EXTENDED, y.shape[1]))
    K[:, : N_STAGES + 1] = stages
    for s in range(N_STAGES + 1, N_STAGES_EXTENDED):
        dy = np.matmul(K[:, :s].transpose(0, 2, 1), _A_ROWS[s]) * h[:, None]
        K[:, s] = fun(t_old + C[s] * h, y_old + dy)
    F = np.empty((INTERPOLATOR_POWER, *y.shape))
    f_old, f = K[:, 0], K[:, N_STAGES]
    delta_y = y - y_old
    F[0] = delta_y
    F[1] = h[:, None] * f_old - delta_y
    F[2] = 2 * delta_y - h[:, None] * (f + f_old)
    F[3:] = (h[:, None, None] * np.matmul(D, K)).transpose(1, 0, 2)
    return F, t_old, h, y_old


def _interpolate(F, t_old, span, y_old, tq):
    """States at the times ``tq``, one row each, on the dense output of
    one step per time: the step that starts at ``t_old`` with state
    ``y_old``, spans ``span`` and has the coefficient rows ``F``, with
    t_old and span shaped like tq, y_old of shape (len(tq), n) and F of
    shape (7, len(tq), n).  Each element takes SciPy's Horner loop, so its
    value does not depend on which other times share the call.
    """
    x = ((tq - t_old) / span)[:, None]
    out = np.zeros((len(x), F.shape[-1]))
    for i, row in enumerate(reversed(F)):
        out += row
        if i % 2 == 0:
            out *= x
        else:
            out *= 1 - x
    out += y_old
    return out


def _sample(dense, counts, tq, out, on_samples=None):
    """Evaluate the samples of the steps whose stacked dense output is
    ``dense`` into ``out``, in blocks of at most SAMPLE_BLOCK samples, and
    hand them, now final, to ``on_samples(tq, out)`` if it is given.

    ``counts`` holds each step's number of samples, in order; ``tq`` holds
    their times.  The event step may hold none, so a block can be empty,
    which is not handed over.
    """
    F, t_old, span, y_old = dense
    step = np.repeat(np.arange(len(counts)), counts)
    for lo in range(0, step.size, SAMPLE_BLOCK):
        s = step[lo : lo + SAMPLE_BLOCK]
        block = slice(lo, lo + s.size)
        out[block] = _interpolate(F[:, s], t_old[s], span[s], y_old[s], tq[block])
    if on_samples is not None and tq.size:
        on_samples(tq, out)


def _brentq(f, a, b, tol):
    """Root of f in [a, b] by Brent's method with absolute and relative
    tolerance ``tol``: the iteration of SciPy's ``brentq``."""
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if math.isnan(fpre) or math.isnan(fcur):
        raise ValueError("the event function is NaN at a step end")
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (tol + tol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        if math.isnan(fcur):
            raise ValueError(f"the event function is NaN at t = {xcur}")
    raise RuntimeError(f"event location failed to converge after 100 iterations, t = {xcur}")


@np.errstate(over="ignore", invalid="ignore")
def solve(fun, t_span, y0, rtol, atol, t_eval=None, event=None, on_samples=None) -> Solution:
    """Integrate y' = fun(t, y) forward over ``t_span`` from the 1-D state y0.

    ``fun`` returns a float array shaped like y.  With ``t_eval`` or
    ``event`` it must also take a stack of k states: a (k,) array of times
    and a (k, n) array of states, one row each, for which it returns a
    (k, n) array, row i the derivative at (t[i], y[i]).  Each stack holds
    one of the three extra dense-output stages of the steps whose samples
    are evaluated together; the event step's come with those of the steps
    queued before it.  Steps keep the local error below
    ``atol + rtol |y|``.  With ``t_eval`` (increasing, within ``t_span``)
    the solution is sampled there on each step's dense output.
    ``event(t, y)`` is a terminal event: the run stops where it falls
    through zero, located on the dense output to ``EVENT_TOL``.  An
    exception raised by ``fun`` propagates, which is how callers impose
    an RHS budget.  Overflow and invalid operations, such as the stages of
    a step that overflowed and is rejected, raise no RuntimeWarning.

    With ``t_eval``, ``on_samples(t, y)`` gets each block of samples as
    soon as it is final, in order, without gaps or overlaps: ``t`` the
    block's times, ``y`` its states, one row each.  A block holds at least
    SAMPLE_BLOCK samples, except the last one.  Both are views, of
    ``t_eval`` and of the states ``solve`` returns, so a callback that
    keeps them past its return must copy them.  An exception it raises
    propagates, like one from ``fun``.
    """
    t, t_bound = map(float, t_span)
    if not t < t_bound:
        raise ValueError(f"t_span must be increasing, got {t_span!r}")
    if not rtol >= 100 * EPS:
        raise ValueError(f"rtol must be at least 100 * EPS = {100 * EPS:.3g}, got {rtol!r}")
    y = np.asarray(y0, dtype=float)
    if t_eval is not None:
        t_eval = np.asarray(t_eval)
        if t_eval.ndim != 1 or np.any(t_eval < t) or np.any(t_eval > t_bound):
            raise ValueError("t_eval must be a 1-D array within t_span")
        if np.any(np.diff(t_eval) <= 0):
            raise ValueError("t_eval must be increasing")
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound - t, rtol, atol)
    nfev = 2
    K = np.empty((N_STAGES + 1, y.size))
    KT = [K[:s].T for s in range(N_STAGES + 1)]
    # the accepted steps whose dense output waits, as _dense_output takes
    # them: the sampled steps since the last block of samples, then the
    # event step, whose dense output is evaluated with theirs; nfev counts
    # their three extra stages when they are queued
    queue = []
    if t_eval is not None:
        # the samples t_eval[:i_done] are in y_out; the steps queued hold
        # t_eval[i_done:i_eval], counts[j] of them step j
        y_out = np.empty((t_eval.size, y.size))
        counts = []
        i_done = i_eval = 0
    g = None if event is None else event(t, y)
    t_event = y_event = None
    status = None
    while status is None:
        # one accepted step, as SciPy's RungeKutta._step_impl takes it
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                status = -1
                break
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s in range(1, N_STAGES):
                dy = np.dot(KT[s], _A_ROWS[s]) * h
                K[s] = fun(t + _C[s] * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, B)
            f_new = fun(t + h, y_new)
            K[-1] = f_new
            nfev += N_STAGES
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K, h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm**ERROR_EXPONENT)
            rejected = True
        if status == -1:
            break
        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        if t >= t_bound:
            status = 0

        # the step's span t - t_old is h, bit for bit
        dense = None
        if event is not None:
            g_new = event(t, y)
            if g >= 0 and g_new <= 0:
                queue.append((t_old, h, y_old, y, K.copy()))
                nfev += 3
                dense = _dense_output(fun, queue)
                F, starts, spans, states = dense
                last = F[:, -1:], starts[-1:], spans[-1:], states[-1:]
                at = lambda s: _interpolate(*last, np.array([s]))[0]
                t_event = _brentq(lambda s: event(s, at(s)), t_old, t, EVENT_TOL)
                y_event = at(t_event)
                t, y = t_event, y_event
                status = 1
            g = g_new
        if t_eval is None:
            continue
        i_new = np.searchsorted(t_eval, t, side="right")
        if dense is not None or i_new > i_eval:
            if dense is None:
                queue.append((t_old, h, y_old, y, K.copy()))
                nfev += 3
            counts.append(i_new - i_eval)
            i_eval = i_new
        if dense is not None or i_eval - i_done >= SAMPLE_BLOCK:
            if dense is None:
                dense = _dense_output(fun, queue)
            _sample(dense, counts, t_eval[i_done:i_eval], y_out[i_done:i_eval], on_samples)
            queue.clear()
            counts.clear()
            i_done = i_eval

    if t_eval is None:
        t_out, y_out = np.array([t]), y[np.newaxis]
    else:
        if queue:
            dense = _dense_output(fun, queue)
            _sample(dense, counts, t_eval[i_done:i_eval], y_out[i_done:i_eval], on_samples)
        t_out, y_out = t_eval[:i_eval].copy(), y_out[:i_eval]
    return Solution(t_out, y_out, t_event, y_event, nfev, status, MESSAGES[status])
