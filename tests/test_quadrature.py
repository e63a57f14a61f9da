"""Quadrature rules: exactness against closed-form monomial integrals."""

import math

import numpy as np
import pytest

from trifem import segment_rule, triangle_rule
from trifem.quadrature import MAX_SEGMENT_ORDER, MAX_TRIANGLE_ORDER


def exact_monomial(a, b):
    """(1/|T|) * integral over the reference triangle of x^a y^b.

    int_T x^a y^b = a! b! / (a+b+2)!; |T| = 1/2.
    """
    return 2.0 * math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


class TestTriangleRules:
    @pytest.mark.parametrize("order", range(1, MAX_TRIANGLE_ORDER + 1))
    def test_monomial_exactness(self, order):
        rule = triangle_rule(order)
        # reference triangle (0,0), (1,0), (0,1): x = lam2, y = lam3
        x, y = rule.lam[:, 1], rule.lam[:, 2]
        for a in range(order + 1):
            for b in range(order + 1 - a):
                approx = float(rule.weight @ (x**a * y**b))
                assert approx == pytest.approx(exact_monomial(a, b), abs=1e-12)

    @pytest.mark.parametrize("order", range(1, MAX_TRIANGLE_ORDER + 1))
    def test_weights_sum_to_one(self, order):
        assert abs(triangle_rule(order).weight.sum() - 1.0) <= 1e-14

    @pytest.mark.parametrize("order", range(1, MAX_TRIANGLE_ORDER + 1))
    def test_weights_positive(self, order):
        assert np.all(triangle_rule(order).weight > 0)

    @pytest.mark.parametrize("order", range(1, MAX_TRIANGLE_ORDER + 1))
    def test_barycentric_rows_sum_to_one(self, order):
        lam = triangle_rule(order).lam
        assert np.allclose(lam.sum(axis=1), 1.0, atol=1e-14, rtol=0)

    def test_order_one_is_centroid(self):
        rule = triangle_rule(1)
        assert rule.npoints == 1
        assert rule.lam[0] == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=0)
        assert rule.weight[0] == 1.0

    def test_order_two_on_x_squared(self):
        # int over (0,0),(1,0),(0,1) of x^2 = 1/12
        rule = triangle_rule(2)
        x = rule.lam[:, 1]
        area = 0.5
        assert area * float(rule.weight @ x**2) == pytest.approx(1 / 12, abs=1e-15)

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            triangle_rule(0)
        with pytest.raises(ValueError):
            triangle_rule(9)

    def test_affine_invariance(self):
        # the rule on an affine image equals |det| times the rule applied
        # to the pulled-back integrand on the reference triangle
        rule = triangle_rule(4)
        ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        image = np.array([[1.0, 2.0], [4.0, 2.5], [2.0, 5.0]])
        B = np.column_stack([image[1] - image[0], image[2] - image[0]])
        det = abs(np.linalg.det(B))

        def f(p):
            return p[:, 0] ** 2 + p[:, 0] * p[:, 1] + 3.0

        def pullback(p):
            return f(p @ B.T + image[0])

        area_image = 0.5 * det
        lhs = area_image * float(rule.weight @ f(rule.lam @ image))
        rhs = det * 0.5 * float(rule.weight @ pullback(rule.lam @ ref))
        assert lhs == pytest.approx(rhs, rel=1e-13)


class TestSharedRules:
    @pytest.mark.parametrize("rule_of,orders,fields", [
        (triangle_rule, range(1, MAX_TRIANGLE_ORDER + 1), ("lam", "weight")),
        (segment_rule, range(1, MAX_SEGMENT_ORDER + 1), ("point", "weight"))])
    def test_a_cached_rule_cannot_be_changed(self, rule_of, orders, fields):
        # triangle_rule(3).weight[0] = 0 changed every later integral
        for order in orders:
            rule = rule_of(order)
            assert rule_of(np.int64(order)) is rule
            for name in fields:
                array = getattr(rule, name)
                before = array.copy()
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0
                assert np.array_equal(getattr(rule_of(order), name), before)


class TestSegmentRules:
    @pytest.mark.parametrize("order", range(1, MAX_SEGMENT_ORDER + 1))
    def test_polynomial_exactness(self, order):
        rule = segment_rule(order)
        for d in range(order + 1):
            assert float(rule.weight @ rule.point**d) == \
                pytest.approx(1.0 / (d + 1), abs=1e-14)

    @pytest.mark.parametrize("order", range(1, MAX_SEGMENT_ORDER + 1))
    def test_weights_sum_to_one(self, order):
        assert abs(segment_rule(order).weight.sum() - 1.0) <= 1e-14

    @pytest.mark.parametrize("order", range(1, MAX_SEGMENT_ORDER + 1))
    def test_symmetric_about_half(self, order):
        rule = segment_rule(order)
        assert np.allclose(np.sort(rule.point) + np.sort(rule.point)[::-1],
                           1.0, atol=1e-14, rtol=0)

    def test_order_one_is_midpoint(self):
        rule = segment_rule(1)
        assert rule.npoints == 1
        assert rule.point[0] == pytest.approx(0.5, abs=0)
        assert rule.weight[0] == pytest.approx(1.0, abs=0)

    def test_two_point_gauss_on_t_squared(self):
        rule = segment_rule(3)
        assert rule.npoints == 2
        assert float(rule.weight @ rule.point**2) == pytest.approx(1 / 3, abs=1e-15)

    def test_order_five_on_t_fourth(self):
        rule = segment_rule(5)
        assert float(rule.weight @ rule.point**4) == pytest.approx(1 / 5, abs=1e-15)

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            segment_rule(0)
        with pytest.raises(ValueError):
            segment_rule(10)
