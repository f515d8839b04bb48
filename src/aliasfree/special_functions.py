"""Scalar Bessel-family functions used by the filter designer.

J1 switches from its ascending power series to a Hankel asymptotic
expansion at |x| = 12; both branches stay well inside a 1e-10 absolute
error budget on the magnitudes that occur in kernel design. I0 is a
single all-positive series summed smallest-term-first.
"""

import math

from .rng import _finite

_SERIES_EPS = 1e-18
_J1_SPLIT = 12.0


def bessel_j1(x) -> float:
    """Bessel function of the first kind, order one."""
    x = _finite(x, "x")
    ax = abs(x)
    if ax <= _J1_SPLIT:
        # sum_k (-1)^k (x/2)^(2k+1) / (k! (k+1)!), term ratio -x^2 / (4k(k+1))
        term = x / 2.0
        total = term
        k = 1
        while abs(term) > _SERIES_EPS * (1.0 + abs(total)):
            term *= -(x * x) / (4.0 * k * (k + 1))
            total += term
            k += 1
        return total
    value = _j1_asymptotic(ax)
    return value if x >= 0 else -value  # J1 is odd


def _j1_asymptotic(ax: float) -> float:
    # Hankel expansion with mu = 4, truncated where the terms stop shrinking.
    mu = 4.0
    f = (8.0 * ax) ** 2
    tp = 1.0
    tq = (mu - 1.0) / (8.0 * ax)
    p, q = tp, tq
    for k in range(1, 20):
        tp_next = tp * (-(mu - (4 * k - 3) ** 2) * (mu - (4 * k - 1) ** 2)
                        / ((2 * k - 1) * (2 * k) * f))
        tq_next = tq * (-(mu - (4 * k - 1) ** 2) * (mu - (4 * k + 1) ** 2)
                        / ((2 * k) * (2 * k + 1) * f))
        if abs(tp_next) >= abs(tp) or abs(tq_next) >= abs(tq):
            break
        p += tp_next
        q += tq_next
        tp, tq = tp_next, tq_next
    chi = ax - 0.75 * math.pi
    return math.sqrt(2.0 / (math.pi * ax)) * (p * math.cos(chi) - q * math.sin(chi))


def bessel_i0(x) -> float:
    """Modified Bessel function of the first kind, order zero."""
    x = _finite(x, "x")
    q = x * x / 4.0
    terms = [1.0]
    term = 1.0
    total = 1.0
    k = 1
    while term > _SERIES_EPS * total:
        term *= q / (k * k)
        terms.append(term)
        total += term
        k += 1
    try:  # all terms are positive; adding the small ones first limits roundoff
        value = math.fsum(reversed(terms))  # inf once a single term overflows
    except OverflowError:  # finite terms whose sum overflows past the largest double
        value = math.inf
    if value == math.inf:
        raise ValueError(f"bessel_i0({x!r}) exceeds the largest double")
    return value


def jinc(x) -> float:
    """J1(x) / x, extended continuously with jinc(0) = 1/2."""
    x = _finite(x, "x")
    if abs(x) < 1e-4:
        # two leading series terms; avoids the 0/0 at the origin
        return 0.5 - x * x / 16.0
    return bessel_j1(x) / x
