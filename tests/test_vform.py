"""Term parsing, extended-form expansion, symbol standardization,
coefficient normalization."""

import numpy as np
import pytest

from trifem import (FeFunction, Mesh2d, coef_to_matrix,
                    expand_extended, fe_mesh, interpolate_nodal,
                    parse_term_sum, square_mesh, standardize_symbols,
                    var_form)
from trifem.terms import TermError
from trifem.vform import FormError


def entry_strings(form):
    return [(str(e.test), None if e.trial is None else str(e.trial))
            for e in form]


class TestParse:
    def test_grad_term(self):
        ts = parse_term_sum("v.grad")
        assert [(t.symbol, t.tag) for t in ts] == [("v", "grad")]

    def test_sum(self):
        ts = parse_term_sum("u1.dy + u2.dx")
        assert [(t.symbol, t.tag) for t in ts] == [("u1", "dy"), ("u2", "dx")]

    def test_whitespace_tolerance(self):
        ts = parse_term_sum("v1 . dx")
        assert [(t.symbol, t.tag) for t in ts] == [("v1", "dx")]

    def test_unknown_tag(self):
        with pytest.raises(TermError, match="unknown derivative tag 'dxx'"):
            parse_term_sum("v.dxx")

    def test_syntax_error_position(self):
        with pytest.raises(TermError, match="position"):
            parse_term_sum("v1.dx + ")

    def test_missing_dot(self):
        with pytest.raises(TermError):
            parse_term_sum("v1dx")


class TestExpand:
    def test_strain_pair_expands_to_four(self):
        form = var_form([0.5], ["v1.dy + v2.dx"], ["u1.dy + u2.dx"])
        out = expand_extended(form)
        assert entry_strings(out) == [("v1.dy", "u1.dy"), ("v1.dy", "u2.dx"),
                                      ("v2.dx", "u1.dy"), ("v2.dx", "u2.dx")]
        assert all(e.coef == 0.5 for e in out)

    def test_elasticity_short_form_gives_six(self):
        form = var_form([1, 1, 0.5],
                        ["v1.dx", "v2.dy", "v1.dy + v2.dx"],
                        ["u1.dx", "u2.dy", "u1.dy + u2.dx"])
        out = expand_extended(form)
        assert entry_strings(out) == [
            ("v1.dx", "u1.dx"), ("v2.dy", "u2.dy"),
            ("v1.dy", "u1.dy"), ("v1.dy", "u2.dx"),
            ("v2.dx", "u1.dy"), ("v2.dx", "u2.dx")]
        assert [e.coef for e in out] == [1, 1, 0.5, 0.5, 0.5, 0.5]

    def test_grad_pair(self):
        out = expand_extended(var_form([1], ["v.grad"], ["u.grad"]))
        assert entry_strings(out) == [("v.dx", "u.dx"), ("v.dy", "u.dy")]

    def test_elementary_unchanged(self):
        form = var_form([2.0], ["v.dx"], ["u.val"])
        out = expand_extended(form)
        assert entry_strings(out) == [("v.dx", "u.val")]

    def test_idempotent(self):
        form = var_form([1, 0.5], ["v1.grad", "v1.dy + v2.dx"],
                        ["u1.grad", "u1.dy + u2.dx"])
        once = expand_extended(form)
        twice = expand_extended(once)
        assert entry_strings(once) == entry_strings(twice)
        assert [e.coef for e in once] == [e.coef for e in twice]

    def test_grad_against_val_rejected(self):
        with pytest.raises(FormError, match="grad"):
            expand_extended(var_form([1], ["v.grad"], ["u.val"]))

    def test_grad_in_linear_form_rejected(self):
        with pytest.raises(FormError):
            expand_extended(var_form([1], ["v.grad"]))

    def test_linear_sum_distributes(self):
        out = expand_extended(var_form([1], ["v1.val + v2.val"]))
        assert entry_strings(out) == [("v1.val", None), ("v2.val", None)]


class TestStandardize:
    def test_stokes_symbols(self):
        form = var_form([1, -1], ["q.val", "v1.dx"], ["u1.dx", "p.val"])
        out = standardize_symbols(["v1", "v2", "q"], ["u1", "u2", "p"], form)
        assert entry_strings(out) == [("v3.val", "u1.dx"), ("v1.dx", "u3.val")]

    def test_newton_symbols(self):
        form = var_form([1], ["q.val"], ["dp.val"])
        out = standardize_symbols(["v1", "v2", "q"], ["du1", "du2", "dp"], form)
        assert entry_strings(out) == [("v3.val", "u3.val")]

    def test_already_standard_unchanged(self):
        form = var_form([1], ["v1.grad"], ["u1.grad"])
        out = standardize_symbols(["v1", "v2"], ["u1", "u2"], form)
        assert entry_strings(out) == [("v1.grad", "u1.grad")]

    def test_pure_renaming_invertible(self):
        form = var_form([1, 2], ["phi.val", "psi.grad"], ["w.val", "z.grad"])
        std = standardize_symbols(["phi", "psi"], ["w", "z"], form)
        # invert by renaming the standard names back, position by position
        restored = [(t.replace("v1", "phi").replace("v2", "psi"),
                     u.replace("u1", "w").replace("u2", "z"))
                    for t, u in entry_strings(std)]
        assert restored == entry_strings(form)

    def test_unknown_symbol(self):
        form = var_form([1], ["mystery.val"], ["u1.val"])
        with pytest.raises(FormError, match="mystery"):
            standardize_symbols(["v1"], ["u1"], form)


class TestCoefToMatrix:
    def unit_triangle_th(self):
        mesh = Mesh2d(node=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                      elem=np.array([[0, 1, 2]]))
        return fe_mesh(mesh)

    def test_constant_one(self):
        from trifem import triangle_rule
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        cc = coef_to_matrix(1, th, 3)
        assert cc.shape == (8, triangle_rule(3).npoints)
        assert np.all(cc == 1.0)

    def test_function_at_centroid(self):
        th = self.unit_triangle_th()
        cc = coef_to_matrix(lambda p: p[:, 0] + p[:, 1], th, 1)
        assert cc.shape == (1, 1)
        assert cc[0, 0] == pytest.approx(2 / 3, abs=1e-15)

    def test_fe_function_matches_callable(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.25))

        def f(p):
            return np.sin(p[:, 0]) + p[:, 1] ** 2

        dofs = interpolate_nodal(f, th, "P2")
        cc_fun = coef_to_matrix(lambda p: _p2_interp_oracle(th, dofs, p), th, 4)
        cc_dof = coef_to_matrix(FeFunction(dofs=dofs, space=_p2(th)), th, 4)
        assert np.allclose(cc_dof, cc_fun, atol=1e-13, rtol=0)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_fe_function_dof_count_checked_on_both_domains(self, extra):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5), ["x==1"])
        coef = FeFunction(dofs=np.ones(th.dof_map("P2").num_dofs + extra),
                          space=_p2(th))
        for domain, region in (("2d", None), ("1d", th.partition[0])):
            with pytest.raises(FormError, match="dof vector"):
                coef_to_matrix(coef, th, 4, domain, region)

    def test_matrix_passthrough_and_shape_check(self):
        from trifem import triangle_rule
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        good = np.full((8, triangle_rule(3).npoints), 2.5)
        assert coef_to_matrix(good, th, 3) is good
        with pytest.raises(FormError, match="shape"):
            coef_to_matrix(np.ones((3, 3)), th, 3)


def _p2(th):
    from trifem import fe_space
    return fe_space("P2")


def _p2_interp_oracle(th, dofs, pts):
    from trifem import evaluate_at_points
    return evaluate_at_points(dofs, th, "P2", pts)
