"""Dormand–Prince 8(5,3) integration with dense output and events.

:func:`solve`, the one entry point every solver calls, does what SciPy's
``solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol, atol=atol,
dense_output=True, events=events)`` does, operation for operation, with
each named stop ``(name, g, terminal)`` in the place of an event g: the
same tableau (its decimal literals copied below, from Hairer, Nørsett and
Wanner, *Solving Ordinary Differential Equations I*, §II.5), the same
initial step selection, stage sums, err5/err3 error norm, step-size
control, tolerance floor and 7-row dense coefficients, and the same event
detection and Brent root refinement.  Its times, states, stop roots, RHS
counts and dense coefficients therefore equal SciPy's bit for bit, while
the module needs NumPy alone.  It returns one :class:`Outcome`: why the
solve stopped, each stop's roots by name, and the steps.

Which operations stay NumPy calls and which run on Python floats:

* Pinned to BLAS: the stage sums ``np.dot(K[:s].T, a)``, the ``E5`` and
  ``E3`` error sums, the squared norms ``x.dot(x)`` of the error norm and
  the ``D`` rows of the dense coefficients.  OpenBLAS 0.3 (Haswell
  kernels) forms them with fused multiply-adds, so a left-to-right sum in
  Python floats differs from them in the last bit on 60–90 % of random
  three-component stage arrays, already at two stages.  The solve calls
  them on transposed views of its stage array taken once and writes each
  stage's RHS tuple straight into its row.  The dense rows of all steps
  are formed in one pass when the solve ends (:func:`_dense_rows`, whose
  ``np.matmul(D, K)`` gives each step the bits of its own ``np.dot``), and
  for a single step only where a stop's root is searched in it.
* On Python floats: the time, step size, direction, stage nodes, each
  stage state ``d * h + y`` from its stage sum ``d`` (the two roundings
  of NumPy's elementwise multiply and add), the minimum step
  (``math.nextafter``), the error norm once its two dot products are
  formed (``math.sqrt(x.dot(x)) ** 2``, the formula
  ``np.linalg.norm(x) ** 2`` evaluates), the step-size factors and each
  component's scale atol + max(|y_old|, |y_new|) * rtol (one array per
  tried step).  IEEE arithmetic and the shared libm ``pow`` give these
  NumPy's scalar bits.  States are lists of floats, so ``fun`` and the
  stops get a float time and a list state with no NumPy scalar in
  between, and the arrays of step ends are built once, as the solve ends.

:class:`DenseSolution` evaluates a solve's stacked dense coefficients at
any points in one pass, :func:`joined` makes one evaluator of two dense
pieces, and :func:`run_record` is the one place the keys of a solve's run
record are defined.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

EPS = np.finfo(float).eps
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10
ERROR_EXPONENT = -1 / 8  # -1 / (error estimator order 7 + 1)
ROOT_TOL, ROOT_MAX_ITER = 4 * EPS, 100  # event roots: xtol = rtol = 4 eps
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
#: why a :func:`solve` stopped when no stop's root ended it
END_OF_SPAN, STEP_FAILURE, STEP_BUDGET = "end_of_span", "step_failure", "step_budget"
#: the most accepted steps of one solve, the stop STEP_BUDGET: about 5 s of
#: work, six times the 15,584 steps of a c = 100 bowl to r = 10 at rtol 1e-11
MAX_STEPS = 100_000

# -- tableau -------------------------------------------------------------

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

# rows 3 to 6 of the dense coefficients; rows 0 to 2 come from the step ends
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

# (its row of A up to the diagonal, its node as a float) of the step's
# stages 1-11, then of the three extra stages 13-15 of the dense output
_STAGES = [(A[s, :s], float(C[s])) for s in range(1, N_STAGES)]
_EXTRA_STAGES = [(A[s, :s], float(C[s])) for s in range(N_STAGES + 1, N_STAGES_EXTENDED)]


@dataclass(frozen=True)
class Outcome:
    """The record of one :func:`solve`.

    ``t`` and ``y`` (shape (n, len(t))) are the accepted step ends, the
    last one moved to the root of a terminal stop.  ``stop`` says why the
    solve ended: END_OF_SPAN, STEP_FAILURE (see TOO_SMALL_STEP), STEP_BUDGET
    (MAX_STEPS accepted steps short of the span's end) or the name of the
    terminal stop whose root ended it; ``hits[name]`` holds the
    (root, state) pairs of the stops of that name, triple by triple.
    ``nfev`` counts RHS calls, ``n_steps`` accepted and ``n_rejected``
    rejected steps.  Each dense step k is stored as its start ``t_old[k]``,
    signed length ``h[k]``, start state ``y_old[k]`` and coefficients
    ``F[k]`` (shape (7, n)); a zero-length span is one step with h = 0 and
    F = 0.
    """

    t: np.ndarray
    y: np.ndarray
    nfev: int
    n_steps: int
    n_rejected: int
    stop: str
    hits: dict
    t_old: np.ndarray
    h: np.ndarray
    y_old: np.ndarray
    F: np.ndarray

    @property
    def status(self) -> int:
        """SciPy's status: 0 end of span, 1 stopped at a root, -1 step failure
        or step budget."""
        return {END_OF_SPAN: 0, STEP_FAILURE: -1, STEP_BUDGET: -1}.get(self.stop, 1)

    @property
    def record(self) -> dict:
        return run_record(self)

    @property
    def dense(self) -> DenseSolution:
        return DenseSolution(self)


def _rms(x) -> float:
    return float(np.linalg.norm(x) / x.size ** 0.5)


def _validate_tol(rtol, atol, n):
    if not (np.isfinite(rtol).all() and np.isfinite(atol).all()):
        raise ValueError(f"`rtol` and `atol` must be finite, got {rtol} and {atol}.")
    if np.any(rtol < 100 * EPS):
        warnings.warn("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {100 * EPS})`.",
                      stacklevel=3)
        rtol = np.maximum(rtol, 100 * EPS)
    atol = np.asarray(atol)
    if atol.ndim > 0 and atol.shape != (n,):
        raise ValueError("`atol` has wrong shape.")
    if np.any(atol < 0):
        raise ValueError("`atol` must be positive.")
    return rtol, atol


def _initial_step(fun, t0, y0, t_bound, f0, direction, rtol, atol):
    """First step size by the rule of Hairer, Nørsett and Wanner §II.4.

    Scaled derivatives too large for a float give infinite norms, as
    SciPy's do (which warn).  An infinite d1 can make h0 underflow to 0;
    SciPy then divides by it and returns 0, and so does this, without the
    division: the first step then fails at its minimum size.
    """
    interval_length = abs(t_bound - t0)
    if interval_length == 0.0:
        return 0.0
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    with np.errstate(over="ignore"):
        d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = np.asarray(fun(t0 + h0 * direction, y1.tolist()), dtype=float)
    if h0 == 0.0:
        return 0.0
    with np.errstate(over="ignore"):
        d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval_length)


def _rk_step(fun, t: float, y: list, h: float, K, sums) -> list:
    """The 12-stage step from (t, y), K[0] holding fun(t, y): y_new, with
    every stage in K and fun(t + h, y_new) in its last row.  Each stage
    state is d * h + y on Python floats, d its stage sum."""
    for s, (a, c) in enumerate(_STAGES, start=1):
        K[s] = fun(t + c * h, [d * h + v for d, v in zip(sums[s](a).tolist(), y)])
    y_new = [d * h + v for d, v in zip(sums[N_STAGES](B).tolist(), y)]
    K[N_STAGES] = fun(t + h, y_new)
    return y_new


def _extra_stages(fun, K_ext, sums, t_old: float, y_old: list, h: float):
    """The three extra stages of a step's dense output, into K_ext[13:]."""
    for s, (a, c) in enumerate(_EXTRA_STAGES, start=N_STAGES + 1):
        K_ext[s] = fun(t_old + c * h, [d * h + v for d, v in zip(sums[s](a).tolist(), y_old)])


def _error_norm(KT_dot, h: float, scale) -> float:
    """The err5/err3 error norm of a step; ``KT_dot`` is K.T.dot of its 13 stages."""
    err5 = KT_dot(E5)
    err5 /= scale
    err3 = KT_dot(E3)
    err3 /= scale
    # np.linalg.norm(x) ** 2, as np.linalg.norm forms it for a vector
    err5_norm_2 = math.sqrt(err5.dot(err5)) ** 2
    err3_norm_2 = math.sqrt(err3.dot(err3)) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return abs(h) * err5_norm_2 / math.sqrt(denom * scale.size)


#: the error norm without SciPy's overflow warnings: stages too large for
#: the scaled norm give an infinite or NaN norm, and so a rejected attempt
_quiet_error_norm = np.errstate(over="ignore", invalid="ignore")(_error_norm)


def _dense_rows(h, y_old, y, K):
    """The 7 dense rows F (shape (m, 7, n)) of m steps from their lengths
    ``h`` (m,), ends ``y_old`` and ``y`` (m, n) and extended stages ``K``
    (m, 16, n); ``np.matmul(D, K)`` gives each step the bits of its own
    ``np.dot(D, K[k])``."""
    h = h[:, None]
    F = np.empty((h.size, INTERPOLATOR_POWER, y.shape[1]))
    f_old, f = K[:, 0], K[:, N_STAGES]
    delta_y = y - y_old
    F[:, 0] = delta_y
    F[:, 1] = h * f_old - delta_y
    F[:, 2] = 2 * delta_y - h * (f + f_old)
    F[:, 3:] = h[:, :, None] * np.matmul(D, K)
    return F


def _step_polynomial(coeffs, x, y_old):
    """``y_old`` plus the dense step polynomial at ``x``, its coefficients
    ``coeffs`` highest power first, run as SciPy runs it: from zero,
    y += coeffs[j]; y *= x or (1 - x) in turn."""
    y = np.zeros(y_old.shape)
    for j, f in enumerate(coeffs):
        y += f
        y *= x if j % 2 == 0 else 1 - x
    y += y_old
    return y


def _step_value(t, t_old, h, y_old, F):
    """Dense value of one step at the time t (h = 0: a constant step)."""
    x = (t - t_old) / h if h else 0.0
    return _step_polynomial(F[::-1], x, y_old)


def brentq(f, xa: float, xb: float) -> float:
    """A root of ``f`` in [xa, xb] by Brent's method to xtol = rtol =
    ROOT_TOL in at most ROOT_MAX_ITER iterations.

    Step for step SciPy's C ``brentq``, so the root equals
    ``scipy.optimize.brentq(f, xa, xb, xtol=ROOT_TOL, rtol=ROOT_TOL)`` bit
    for bit.  Raises ``ValueError`` when f(xa) and f(xb) have one sign or
    f returns NaN, and ``RuntimeError`` when the iterations run out.
    """

    def value(x):
        fx = np.float64(f(x))
        if np.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = np.float64(xa), np.float64(xb)
    xblk = fblk = spre = scur = np.float64(0.0)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return float(xpre)
    if fcur == 0:
        return float(xcur)
    if np.signbit(fpre) == np.signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    # C double arithmetic: a zero divisor gives inf or NaN, not an error
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(ROOT_MAX_ITER):
            if fpre != 0 and fcur != 0 and np.signbit(fpre) != np.signbit(fcur):
                xblk, fblk = xpre, fpre
                spre = scur = xcur - xpre
            if abs(fblk) < abs(fcur):
                xpre, xcur, xblk = xcur, xblk, xcur
                fpre, fcur, fblk = fcur, fblk, fcur
            delta = (ROOT_TOL + ROOT_TOL * abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            if fcur == 0 or abs(sbis) < delta:
                return float(xcur)
            if abs(spre) > delta and abs(fcur) < abs(fpre):
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                    spre, scur = scur, stry  # good short step
                else:
                    spre = scur = sbis  # bisect
            else:
                spre = scur = sbis  # bisect
            xpre, fpre = xcur, fcur
            if abs(scur) > delta:
                xcur += scur
            else:
                xcur += delta if sbis > 0 else -delta
            fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {ROOT_MAX_ITER} iterations.")


def _handle_events(value, stops, active, t_old, t):
    """Roots of the active stops (a list of indices) in the step; with a
    terminal stop among them, those in time order up to the first terminal
    root, and True."""
    roots = [brentq(lambda x, g=stops[i][1]: g(float(x), value(x).tolist()), t_old, t)
             for i in active]
    if not any(stops[i][2] for i in active):
        return active, roots, False
    order = np.argsort(roots) if t > t_old else np.argsort(np.negative(roots))
    active, roots = [active[k] for k in order], [roots[k] for k in order]
    last = next(k for k, i in enumerate(active) if stops[i][2])
    return active[:last + 1], roots[:last + 1], True


def solve(fun, t_span, y0, rtol: float, atol: float, stops=()) -> Outcome:
    """Integrate y' = fun(t, y) over ``t_span`` from ``y0`` by DOP853.

    ``fun`` is called with a float t and the state as a list of floats,
    and returns the derivative as a sequence.  ``stops`` are
    ``(name, g, terminal)`` triples, several of which may share a name: g
    is called like ``fun``, the sign changes of each g(t, y) are located,
    and a terminal one ends the solve at its first root.  A solve ends
    after MAX_STEPS accepted steps (the stop STEP_BUDGET) unless the span
    or a terminal root ends it there.  A span end, rtol or atol component
    that is not finite raises ValueError up front.
    """
    t0, t_bound = map(float, t_span)
    if not (math.isfinite(t0) and math.isfinite(t_bound)):
        raise ValueError(f"`t_span` must be finite, got {tuple(t_span)}.")
    y0 = np.asarray(y0).astype(float, copy=False)
    if y0.ndim != 1 or y0.size == 0:
        raise ValueError("`y0` must be a non-empty 1-D state.")
    if not np.isfinite(y0).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    n = y0.size
    rtol, atol = _validate_tol(rtol, atol, n)

    direction = math.copysign(1.0, t_bound - t0) if t_bound != t0 else 1.0
    t, y = t0, y0.tolist()
    f = np.asarray(fun(t, y), dtype=float)
    h_abs = _initial_step(fun, t, y0, t_bound, f, direction, rtol, atol)
    nfev = 1 if t == t_bound else 2
    rtol = float(rtol)
    atols = atol.tolist() if atol.ndim else [float(atol)] * n
    K_ext = np.empty((N_STAGES_EXTENDED, n))
    K = K_ext[:N_STAGES + 1]
    K[0] = f
    # sums[s](a) is the stage sum np.dot(K[:s].T, a), on views taken once
    sums = [K_ext[:s].T.dot for s in range(N_STAGES_EXTENDED)]

    g = [event(t0, y) for _, event, _ in stops]
    found = [[] for _ in stops]  # the (root, state) pairs of each stop
    ts, ys = [t0], [y]
    steps = []  # (t_old, h, y_old, y, K_ext) of every kept step
    n_steps = n_rejected = 0
    stop = None
    while stop is None:
        t_old, y_old = t, y
        if t == t_bound:
            # a zero-length span: one constant step, whose dense rows are 0
            t, h, K_step = t_bound, 0.0, np.zeros_like(K_ext)
            stop = END_OF_SPAN
        else:
            min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
            if h_abs < min_step:
                h_abs = min_step
            abs_y_old = [abs(v) for v in y_old]
            step_rejected = False
            while True:
                if h_abs < min_step:
                    stop = STEP_FAILURE
                    break
                h = h_abs * direction
                t_new = t_old + h
                if direction * (t_new - t_bound) > 0:
                    t_new = t_bound
                h = t_new - t_old
                h_abs = abs(h)
                y_new = _rk_step(fun, t_old, y_old, h, K, sums)
                nfev += N_STAGES
                # atol + max(|y_old|, |y_new|) * rtol; as with np.maximum, a NaN
                # |y_new| gives NaN (|y_old|, y0 or an accepted state, is never NaN)
                scale = np.array([a + (o if o > v else v) * rtol
                                  for a, o, v in zip(atols, abs_y_old, map(abs, y_new))])
                # stages too large for the scaled norm (an infinite d1) meet
                # the first attempts of a solve and the retries of a rejected
                # step; only those run the quiet norm, which costs about 1 us
                norm = _quiet_error_norm if step_rejected or not n_steps else _error_norm
                error_norm = norm(sums[N_STAGES + 1], h, scale)
                if error_norm < 1:
                    if error_norm == 0:
                        factor = MAX_FACTOR
                    else:
                        factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                    if step_rejected:
                        factor = min(1, factor)
                    h_abs *= factor
                    break
                h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                step_rejected = True
                n_rejected += 1
            if stop == STEP_FAILURE:
                break
            n_steps += 1
            t, y = t_new, y_new
            if direction * (t - t_bound) >= 0:
                stop = END_OF_SPAN
            elif n_steps == MAX_STEPS:
                stop = STEP_BUDGET
            _extra_stages(fun, K_ext, sums, t_old, y_old, h)
            nfev += N_STAGES_EXTENDED - N_STAGES - 1
            K_step = K_ext.copy()
            K[0] = K[N_STAGES]  # the next step starts from fun(t, y)
        steps.append((t_old, h, y_old, y, K_step))

        t_kept, y_kept = t, y
        if stops:
            g_new = [event(t, y) for _, event, _ in stops]
            active = [i for i, (a, b) in enumerate(zip(g, g_new))
                      if a <= 0 <= b or a >= 0 >= b]
            if active:
                start = np.array(y_old)
                F, = _dense_rows(np.array([h]), start[None], np.array([y]), K_step[None])

                def value(x):
                    return _step_value(x, t_old, h, start, F)
                hit, roots, terminate = _handle_events(value, stops, active, t_old, t)
                for i, root in zip(hit, roots):
                    found[i].append((root, value(root)))
                if terminate:
                    stop = stops[hit[-1]][0]
                    t_kept, y_kept = found[hit[-1]][-1]
            g = g_new
        if len(ts) > 1 and ts[-1] == t_kept:
            # a terminal root on the previous step end: that end stays last
            steps.pop()
        else:
            ts.append(t_kept)
            ys.append(y_kept)

    hits = {name: [] for name, _, _ in stops}
    for (name, _, _), pairs in zip(stops, found):
        hits[name] += pairs
    if steps:
        t_olds, hs, y_olds, y_news, Ks = map(np.array, zip(*steps))
        F = _dense_rows(hs, y_olds, y_news, Ks)
    else:
        t_olds = hs = np.empty(0)
        y_olds, F = np.empty((0, n)), np.empty((0, INTERPOLATOR_POWER, n))
    return Outcome(
        t=np.array(ts), y=np.array(ys).T, nfev=nfev, n_steps=n_steps,
        n_rejected=n_rejected, stop=stop, hits=hits,
        t_old=t_olds, h=hs, y_old=y_olds, F=F)


class DenseSolution:
    """A solve's dense output, evaluated at any points in one pass.

    Picks each point's step as SciPy's ``OdeSolution`` does (one
    ``searchsorted`` on the step ends, from the left for an ascending solve
    and from the right on the reversed ends of a descending one, clipped to
    the steps) and runs :func:`_step_polynomial` on all of them at once,
    so the values equal ``solve_ivp``'s ``sol(t)`` bit for bit.
    """

    def __init__(self, out: Outcome):
        ts = out.t
        self.ascending = bool(ts[-1] >= ts[0])
        self.side = "left" if self.ascending else "right"
        self.ts_sorted = ts if self.ascending else ts[::-1]
        self.t_old, self.h = out.t_old, out.h
        self.y_old = out.y_old.T
        # (power, component, step), highest power first as SciPy applies them
        self.F = out.F[:, ::-1].transpose(1, 2, 0)

    def __call__(self, t):
        """Values at ``t``: shape (n_states,) for a scalar, else (n_states, n_points)."""
        t = np.asarray(t, dtype=float)
        points = np.atleast_1d(t)
        last = self.h.size - 1
        seg = np.searchsorted(self.ts_sorted, points, side=self.side) - 1
        np.clip(seg, 0, last, out=seg)
        if not self.ascending:
            seg = last - seg
        h = self.h[seg]
        # a constant step (h = 0) has x = 0 and F = 0, so its value is y_old
        x = np.divide(points - self.t_old[seg], h, out=np.zeros_like(points),
                      where=h != 0)
        y = _step_polynomial(self.F[:, :, seg], x, self.y_old[:, seg])
        return y[:, 0] if t.ndim == 0 else y


def joined(below, above, at: float):
    """One dense evaluator of two pieces that meet at ``at``: points below
    it evaluate on ``below``, the others on ``above``, each piece taking a
    float or a 1-D array like :class:`DenseSolution`.  When every point
    lies on one side, that side alone is called."""

    def dense(t):
        t = np.asarray(t, dtype=float)
        low = t < at
        if low.all():
            return below(t)
        if not low.any():
            return above(t)
        lo, hi = below(t[low]), above(t[~low])
        y = np.empty((len(lo), t.size))
        y[:, low], y[:, ~low] = lo, hi
        return y
    return dense


def run_record(*outcomes: Outcome) -> dict:
    """How a result was computed by one or more solves: RHS calls
    (``n_rhs_evals``) and accepted steps (``n_steps``) summed, and the
    largest ``status`` (0 end of span, 1 stop, -1 step failure)."""
    return {"n_rhs_evals": sum(out.nfev for out in outcomes),
            "n_steps": sum(out.n_steps for out in outcomes),
            "status": max(out.status for out in outcomes)}
