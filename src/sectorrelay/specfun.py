"""Special functions and quadrature used by the analytic formulas.

Everything downstream (success probabilities, expected density of progress,
stationarity residuals) reduces to two primitives:

  - the upper incomplete gamma function at shape 3/2,
  - semi-infinite quadrature for the independent numerical cross-checks.

Only shape 3/2 is provided (plus shape 1/2, which solves the radial
optimality condition for p); this is not a general incomplete-gamma library.
Both primitives are written here on top of the standard library: the
scaled complementary error function behind shape 1/2, and QUADPACK's
infinite-interval routine (qagi) for the quadrature.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, QuadratureError

SQRT_PI = math.sqrt(math.pi)

# Gamma(3/2) = sqrt(pi)/2, the x=0 value of the upper incomplete gamma.
GAMMA_3HALF = SQRT_PI / 2.0

#: Below this x, exp(x)*erfc(sqrt(x)) loses nothing; above it the
#: continued fraction converges within _ERFCX_TERMS terms.
_ERFCX_SPLIT = 16.0
_ERFCX_TERMS = 40


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of a converged numerical integration."""

    value: float
    abs_error_estimate: float
    evaluations: int


def gamma_upper_3half(x: float) -> float:
    """Upper incomplete gamma of shape 3/2: integral of sqrt(u)*exp(-u) on [x, inf).

    Uses the closed form sqrt(pi)/2 * erfc(sqrt(x)) + sqrt(x)*exp(-x),
    which is the stable rearrangement of
    Gamma(3/2) + sqrt(x)*exp(-x) - sqrt(pi)/2 * erf(sqrt(x)):
    erfc avoids the cancellation of the erf form for large x.
    """
    if x < 0:
        raise DomainError(f"gamma_upper_3half requires x >= 0, got {x}")
    if x == 0.0:
        return GAMMA_3HALF
    s = math.sqrt(x)
    return GAMMA_3HALF * math.erfc(s) + s * math.exp(-x)


def gamma_upper_half_scaled(x: float) -> float:
    """exp(x) * Gamma(1/2, x) = sqrt(pi) * erfcx(sqrt(x)) for any x >= 0.

    Decays like 1/sqrt(x), with full relative precision: it is the
    difference exp(x)*Gamma(3/2, x) - sqrt(x) (times 2) without the
    cancellation of subtracting the two. Below x = 16 it is
    sqrt(pi)*exp(x)*erfc(sqrt(x)), where erfc(4) ~ 1.5e-8 is still far
    from underflow. Above, it is Laplace's continued fraction
    1/(r + (1/2)/(r + 1/(r + (3/2)/(r + ...)))) with r = sqrt(x),
    evaluated backwards from 40 terms.
    """
    if x < 0:
        raise DomainError(f"gamma_upper_half_scaled requires x >= 0, got {x}")
    r = math.sqrt(x)
    if x < _ERFCX_SPLIT:
        return SQRT_PI * math.erfc(r) * math.exp(x)
    f = r
    for n in range(_ERFCX_TERMS, 0, -1):
        f = r + 0.5 * n / f
    return 1.0 / f


def gamma_upper_3half_scaled(x: float) -> float:
    """exp(x) * Gamma(3/2, x), computed without overflow for any x >= 0.

    By Gamma(3/2, x) = Gamma(1/2, x)/2 + sqrt(x)*exp(-x), the scaled form
    sqrt(pi)/2 * erfcx(sqrt(x)) + sqrt(x) stays O(sqrt(x)) as x grows,
    where the unscaled product would overflow past x ~ 709.
    """
    if x < 0:
        raise DomainError(f"gamma_upper_3half_scaled requires x >= 0, got {x}")
    return gamma_upper_half_scaled(x) / 2.0 + math.sqrt(x)


# =====================================================================
# QUADPACK qagi: 15-point Kronrod rule on (0, 1], bisection, Wynn epsilon
# =====================================================================

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max

#: Subintervals qagi may create before it gives up.
_LIMIT = 200

# Kronrod abscissae on [-1, 1] (the Gauss nodes are the odd-numbered
# ones, 1-based) and the Kronrod and 7-point Gauss weights; the last
# entry belongs to the centre.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.0,
    0.129484966168869693270611432679082,
    0.0,
    0.279705391489276667901467771423780,
    0.0,
    0.381830050505118944950369775488975,
    0.0,
    0.417959183673469387755102040816327,
)
_PAIRS = tuple(zip(_XGK[:7], _WGK[:7], _WG[:7]))

#: What each QUADPACK failure code means.
_QAGI_FAILURES = {
    1: f"the limit of {_LIMIT} subdivisions was reached",
    2: "roundoff error prevents the requested tolerance from being reached",
    3: "the integrand behaves extremely badly at some point of the range",
    4: "roundoff error in the extrapolation table stops convergence",
    5: "the integral is probably divergent or slowly convergent",
}


def _qk15i(f, boun, a, b):
    """15-point Kronrod rule for f on [boun, inf) mapped to (a, b] by x = boun + (1-t)/t.

    Returns (result, abserr, resabs, resasc) as QUADPACK's dqk15i does:
    the Kronrod value, the error estimate from its difference with the
    embedded 7-point Gauss value, and the integrals of |f| and of
    |f - mean| over the subinterval.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = (f(boun + (1.0 - centr) / centr) / centr) / centr
    resg = _WG[7] * fc
    resk = _WGK[7] * fc
    resabs = abs(resk)
    fv = []
    for xgk, wgk, wg in _PAIRS:
        absc = hlgth * xgk
        absc1 = centr - absc
        absc2 = centr + absc
        fval1 = (f(boun + (1.0 - absc1) / absc1) / absc1) / absc1
        fval2 = (f(boun + (1.0 - absc2) / absc2) / absc2) / absc2
        fv.append((wgk, fval1, fval2))
        fsum = fval1 + fval2
        resg = resg + wg * fsum
        resk = resk + wgk * fsum
        resabs = resabs + wgk * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[7] * abs(fc - reskh)
    for wgk, fval1, fval2 in fv:
        resasc = resasc + wgk * (abs(fval1 - reskh) + abs(fval2 - reskh))
    result = resk * hlgth
    resasc = resasc * hlgth
    resabs = resabs * hlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """QUADPACK's dqpsrt: keep iord sorted by descending error estimate and
    return (maxerr, errmax, nrmax) of the next interval to bisect. Lists
    are 1-based (index 0 unused)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        if nrmax != 1:
            for _ in range(nrmax - 1):
                isucc = iord[nrmax - 1]
                if errmax <= elist[isucc]:
                    break
                iord[nrmax] = isucc
                nrmax -= 1
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        ibeg = nrmax + 1
        for i in range(ibeg, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # insert errmax, then errmin bottom-up
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """QUADPACK's dqelg: one step of Wynn's epsilon algorithm on the
    1-based table epstab holding n partial results. Returns (n, result,
    abserr, nres); epstab and res3la are updated in place."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    converged = False
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if err2 <= tol2 and err3 <= tol3:
            # e0, e1 and e2 agree to machine accuracy: converged
            result = res
            abserr = err2 + err3
            converged = True
            break
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            # irregular behaviour: drop the part of the table beyond here
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    if not converged:
        # shift the table
        if n == limexp:
            n = 2 * (limexp // 2) - 1
        ib = 2 if num % 2 == 0 else 1
        for _ in range(newelm + 1):
            epstab[ib] = epstab[ib + 2]
            ib += 2
        if num != n:
            indx = num - n + 1
            for i in range(1, n + 1):
                epstab[i] = epstab[indx]
                indx += 1
        if nres < 4:
            res3la[nres] = result
            abserr = _OFLOW
        else:
            abserr = (
                abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
            )
            res3la[1] = res3la[2]
            res3la[2] = res3la[3]
            res3la[3] = result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _qagi(f, boun, epsrel):
    """QUADPACK's dqagie for f over [boun, inf) with epsabs = 0.

    The range maps to (0, 1] by x = boun + (1-t)/t. The subinterval with
    the largest error estimate is bisected until the summed estimate
    meets epsrel; once the largest error sits on the smallest intervals,
    Wynn's epsilon algorithm extrapolates the sequence of partial sums.
    Returns (result, abserr, neval, ier), ier 0 on success or one of the
    keys of _QAGI_FAILURES.
    """
    epsabs = 0.0
    limit = _LIMIT
    ier = 0
    # 1-based work arrays, as in QUADPACK (index 0 unused)
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    alist[1] = 0.0
    blist[1] = 1.0

    # first approximation to the integral
    result, abserr, defabs, resabs = _qk15i(f, boun, 0.0, 1.0)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, 30 * last - 15, ier

    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    ktmin = 0
    numrl2 = 2
    extrap = False
    noext = False
    ierro = 0
    iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0
    summed = False  # whether the result is the plain sum of rlist

    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = _qk15i(f, boun, a1, b1)
        area2, error2, resabs, defab2 = _qk15i(f, boun, a2, b2)

        # improve the previous approximations and test for accuracy
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        # roundoff, the subdivision limit and bad integrand behaviour
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4

        # append the newly created intervals to the list
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2

        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small = 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: bisect the
            # larger intervals first, while their errors dominate
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue

        # extrapolate
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # final result and error estimate
    if not summed and abserr == _OFLOW:
        summed = True
    if not summed and ier + ierro != 0:
        if ierro == 3:
            abserr = abserr + correc
        if ier == 0:
            ier = 3
        if result != 0.0 and area != 0.0:
            summed = abserr / abs(result) > errsum / abs(area)
        elif abserr > errsum:
            summed = True
        elif area == 0.0:
            return result, abserr, 30 * last - 15, (ier - 1 if ier > 2 else ier)
    if summed:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    else:
        # test on divergence
        if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
            ratio = result / area if area else (math.inf if result else math.nan)
            if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
                ier = 6
    return result, abserr, 30 * last - 15, (ier - 1 if ier > 2 else ier)


def integrate_semi_infinite(
    f: Callable[[float], float],
    lower: float,
    rel_tol: float = 1e-10,
) -> QuadratureResult:
    """Adaptive quadrature of f over [lower, inf).

    QUADPACK's infinite-interval routine qagi, ported to Python (_qagi):
    the same evaluation points, subdivision order and extrapolation, so
    the same values and evaluation counts. Raises QuadratureError if the
    integrator reports non-convergence within 200 subdivisions; a silent
    wrong value is never returned. The reported abs_error_estimate is
    QUADPACK's bound on |value - true integral|.
    """
    if not math.isfinite(lower):
        raise DomainError(f"lower limit must be finite, got {lower}")
    value, abserr, neval, ier = _qagi(f, float(lower), rel_tol)
    if ier != 0:
        raise QuadratureError(
            f"semi-infinite quadrature did not converge from lower={lower}: "
            f"{_QAGI_FAILURES[ier]}"
        )
    if not math.isfinite(value):
        raise QuadratureError(
            f"semi-infinite quadrature produced a non-finite value from lower={lower}"
        )
    return QuadratureResult(
        value=float(value),
        abs_error_estimate=float(abserr),
        evaluations=neval,
    )
