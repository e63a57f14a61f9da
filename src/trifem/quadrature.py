"""Gaussian quadrature rules on the reference triangle and segment.

Triangle rules are stored in barycentric form with the convention

    integral over K of f  =  |K| * sum_p  w_p * f(x_p),

so the weights of every rule sum to 1.  The tables are symmetric
positive-weight rules; the degree-3 and degree-7 requests are served by
the 6-point and 16-point tables (the classical 4-point and 13-point
rules of those degrees carry a negative weight).  All coefficients were
refined to machine precision from the orbit moment equations.

Segment rules are Gauss-Legendre points mapped to [0, 1], with weights
summing to 1 under the analogous convention.

Each rule is built once per order and shared by every later request,
so its arrays are read-only.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

__all__ = ["QuadRule2d", "QuadRule1d", "triangle_rule", "segment_rule",
           "MAX_TRIANGLE_ORDER", "MAX_SEGMENT_ORDER"]

MAX_TRIANGLE_ORDER = 8
MAX_SEGMENT_ORDER = 9


@dataclass(frozen=True)
class QuadRule2d:
    """Barycentric quadrature rule on the reference triangle.

    lam has shape (ng, 3) with rows summing to 1; weight has shape (ng,)
    and sums to 1.
    """

    lam: np.ndarray
    weight: np.ndarray

    @property
    def npoints(self):
        return len(self.weight)


@dataclass(frozen=True)
class QuadRule1d:
    """Quadrature rule on the unit segment [0, 1]; weights sum to 1."""

    point: np.ndarray
    weight: np.ndarray

    @property
    def npoints(self):
        return len(self.weight)


def _orbit3(b):
    a = 1.0 - 2.0 * b
    return [(a, b, b), (b, a, b), (b, b, a)]


def _orbit6(a, b):
    c = 1.0 - a - b
    return [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]


def _build(points, weights):
    lam = np.array(points, dtype=float)
    w = np.array(weights, dtype=float)
    lam.flags.writeable = w.flags.writeable = False
    return QuadRule2d(lam=lam, weight=w)


def _rule_deg1():
    third = 1.0 / 3.0
    return _build([(third, third, third)], [1.0])


def _rule_deg2():
    pts = _orbit3(1.0 / 6.0)
    return _build(pts, [1.0 / 3.0] * 3)


def _rule_deg4():
    b1, w1 = 0.44594849091596489, 0.22338158967801147
    b2, w2 = 0.091576213509770743, 0.10995174365532187
    pts = _orbit3(b1) + _orbit3(b2)
    return _build(pts, [w1] * 3 + [w2] * 3)


def _rule_deg5():
    s15 = np.sqrt(15.0)
    third = 1.0 / 3.0
    b1 = (6.0 - s15) / 21.0
    w1 = (155.0 - s15) / 1200.0
    b2 = (6.0 + s15) / 21.0
    w2 = (155.0 + s15) / 1200.0
    pts = [(third, third, third)] + _orbit3(b1) + _orbit3(b2)
    return _build(pts, [9.0 / 40.0] + [w1] * 3 + [w2] * 3)


def _rule_deg6():
    b1, w1 = 0.24928674517091042, 0.11678627572637937
    b2, w2 = 0.063089014491502228, 0.050844906370206817
    a3, b3, w3 = 0.053145049844816947, 0.31035245103378441, 0.082851075618373575
    pts = _orbit3(b1) + _orbit3(b2) + _orbit6(a3, b3)
    return _build(pts, [w1] * 3 + [w2] * 3 + [w3] * 6)


def _rule_deg8():
    third = 1.0 / 3.0
    w0 = 0.14431560767778717
    b1, w1 = 0.45929258829272316, 0.095091634267284625
    b2, w2 = 0.17056930775176021, 0.10321737053471825
    b3, w3 = 0.050547228317030975, 0.03245849762319808
    a4, b4, w4 = 0.0083947774099576053, 0.26311282963463811, 0.027230314174434994
    pts = [(third, third, third)] + _orbit3(b1) + _orbit3(b2) + _orbit3(b3) + _orbit6(a4, b4)
    return _build(pts, [w0] + [w1] * 3 + [w2] * 3 + [w3] * 3 + [w4] * 6)


_TRIANGLE_RULES = {
    1: _rule_deg1,
    2: _rule_deg2,
    3: _rule_deg4,   # positive-weight substitute, exact to degree 4
    4: _rule_deg4,
    5: _rule_deg5,
    6: _rule_deg6,
    7: _rule_deg8,   # positive-weight substitute, exact to degree 8
    8: _rule_deg8,
}


def triangle_rule(order):
    """Return a triangle rule exact for total degree <= order (1..8)."""
    if not isinstance(order, (int, np.integer)) or not 1 <= order <= MAX_TRIANGLE_ORDER:
        raise ValueError(f"unsupported triangle quadrature order: {order!r} "
                         f"(supported: 1..{MAX_TRIANGLE_ORDER})")
    return _triangle_rule(int(order))


def segment_rule(order):
    """Return a Gauss-Legendre rule on [0, 1] exact for degree <= order (1..9)."""
    if not isinstance(order, (int, np.integer)) or not 1 <= order <= MAX_SEGMENT_ORDER:
        raise ValueError(f"unsupported segment quadrature order: {order!r} "
                         f"(supported: 1..{MAX_SEGMENT_ORDER})")
    return _segment_rule(int(order))


@cache
def _triangle_rule(order):
    return _TRIANGLE_RULES[order]()


@cache
def _segment_rule(order):
    n = (order + 2) // 2  # n-point Gauss integrates degree 2n-1
    x, w = np.polynomial.legendre.leggauss(n)
    point, weight = (x + 1.0) / 2.0, w / 2.0
    point.flags.writeable = weight.flags.writeable = False
    return QuadRule1d(point=point, weight=weight)
