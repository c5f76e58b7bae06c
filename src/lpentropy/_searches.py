"""The two derivative-free searches of the GN estimator's family scans.

Ports of two scipy.optimize routines, cut to the one configuration the
estimator uses of each, so that it runs on numpy alone (importing
scipy.optimize costs about 0.3 s of a cold gn-estimate):

- bounded_brent is minimize_scalar(method="bounded", xatol=1e-8): Brent's
  golden-section search with parabolic steps on a closed interval
  (Brent, Algorithms for Minimization without Derivatives, 1973, ch. 5).
- nelder_mead is minimize(method="Nelder-Mead", xatol=1e-9,
  fatol=1e-12, maxiter=400) without bounds, callbacks, adaptive
  coefficients or a function-evaluation cap (Nelder & Mead, Comput. J. 7,
  1965, with scipy's standard coefficients).

Each evaluates its objective at exactly the points scipy evaluates, in the
same order and with the same arithmetic, so the estimator's results are
those of the scipy calls bit for bit (tests/test_gn_estimator.py checks the
points against scipy).  Only the branches these configurations reach are
ported.

Both routines are adapted from scipy/optimize/_optimize.py (scipy 1.17),
which carries this notice:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math

import numpy as np

#: bounded_brent's absolute tolerance in x
_BRENT_XATOL = 1e-8
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))

#: nelder_mead's tolerances on the simplex's spread in x and in f, and its
#: iteration cap (the first iteration is the initial simplex)
_SIMPLEX_XATOL = 1e-9
_SIMPLEX_FATOL = 1e-12
_SIMPLEX_MAXITER = 400


def _sign(x: float) -> float:
    # np.sign(x) + (x == 0): a zero step goes right
    return -1.0 if x < 0 else 1.0


def bounded_brent(f, a: float, b: float) -> float:
    """The point of [a, b] where Brent's bounded search of f stops.

    f(x) takes and returns a float.  The search stops once the bracket
    around its best point is within 2 tol of it on both sides, with
    tol = sqrt(eps) |x| + xatol/3.  (scipy's cap of 500 evaluations is
    left out: a search to xatol = 1e-8 on the estimator's brackets of
    width at most 0.4 ends within a few dozen.)
    """
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + _BRENT_XATOL / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * _sign(xm - xf)
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e

        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = f(x)

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + _BRENT_XATOL / 3.0
        tol2 = 2.0 * tol1
    return xf


def nelder_mead(f, x0: np.ndarray) -> None:
    """Run the Nelder-Mead simplex search of f from x0, for its evaluations.

    f(x) takes a row of the simplex (a 1-D float array it must neither keep
    nor modify) and returns a float; the caller keeps its own best point,
    so nothing is returned.  An exception raised by f ends the search and
    propagates.  The initial simplex steps each coordinate of x0 by 5 %
    (0.00025 where it is 0); the search stops once every vertex is within
    _SIMPLEX_XATOL of the best in each coordinate and _SIMPLEX_FATOL of it
    in f, or after _SIMPLEX_MAXITER iterations.
    """
    x0 = np.asarray(x0, dtype=float)
    dim = len(x0)
    sim = np.empty((dim + 1, dim))
    sim[0] = x0
    for k in range(dim):
        y = x0.copy()
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.full((dim + 1,), np.inf)
    for k in range(dim + 1):
        fsim[k] = f(sim[k])

    # reflection 1, expansion 2, contraction and shrink 1/2
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    iterations = 1
    while True:
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
        if iterations >= _SIMPLEX_MAXITER:
            return
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= _SIMPLEX_XATOL
                and np.max(np.abs(fsim[0] - fsim[1:])) <= _SIMPLEX_FATOL):
            return

        xbar = np.add.reduce(sim[:-1], 0) / dim
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = f(xe)
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = f(xc)
                shrink = not fxc <= fxr
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
            else:  # inside contraction
                xcc = (1 - psi) * xbar + psi * sim[-1]
                fxcc = f(xcc)
                shrink = not fxcc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xcc, fxcc
            if shrink:
                for j in range(1, dim + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        iterations += 1
