"""Driver-level behavior: patch tests, two-path equivalences, fixed
points, Newton behavior.  Full convergence ladders live in the
acceptance suite."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import trifem.problems
from trifem import (FeFunction, error_L2, fe_mesh, interpolate_nodal,
                    square_mesh, uniform_refine, var_form)
from trifem.problems import (PROBLEM_IDS, HeatData, NewtonResult,
                             PoissonData, default_spec, elasticity_data,
                             elasticity_tensor_system, ns_polynomial_data,
                             run_elasticity_tensor, run_heat, run_poisson,
                             run_ns_newton, run_problem, run_stokes,
                             solve_biharmonic, solve_elasticity_displacement,
                             solve_heat, solve_poisson, solve_stokes,
                             stokes_data)
from trifem.system import RateReport


def refined_th(selectors=(), levels=2, h0=0.5):
    mesh = square_mesh([0, 1, 0, 1], h0)
    for _ in range(levels):
        mesh = uniform_refine(mesh)
    return fe_mesh(mesh, selectors)


COLUMNS = {"poisson": ["L2", "H1"], "elasticity-disp": ["L2", "H1"],
           "elasticity-tensor": ["L2", "H1"], "heat": ["L2", "H1"],
           "biharmonic-block": ["u_L2", "u_H1", "w_L2", "w_H1"],
           "biharmonic-vector": ["u_L2", "u_H1", "w_L2", "w_H1"],
           "stokes": ["u_L2", "u_H1", "p_L2"]}


class TestProblemTable:
    @pytest.mark.parametrize("problem", PROBLEM_IDS)
    def test_every_row_runs(self, problem):
        result = run_problem(default_spec(problem, refinements=2))
        if problem == "ns-newton":
            assert isinstance(result, NewtonResult)
        else:
            assert isinstance(result, RateReport)
            assert list(result.columns) == COLUMNS[problem]
            assert list(result.slopes) == COLUMNS[problem]

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="refine"):
            default_spec("poisson", refine=3)

    @pytest.mark.parametrize("problem", ["elasticity-disp", "biharmonic-block",
                                         "biharmonic-vector", "stokes",
                                         "ns-newton"])
    def test_selectors_rejected_without_natural_data(self, problem):
        with pytest.raises(ValueError, match="selectors"):
            default_spec(problem, selectors=("x==0",))

    @pytest.mark.parametrize("problem, field, value", [
        ("stokes", "degree", 3), ("ns-newton", "degree", 1),
        ("poisson", "mesh_path", "m.msh"), ("heat", "mesh_path", "m.msh")])
    def test_fixed_field_rejected(self, problem, field, value):
        with pytest.raises(ValueError, match=field):
            default_spec(problem, **{field: value})

    def test_fixed_field_may_be_restated(self):
        spec = default_spec("stokes", degree=2, selectors=(), mesh_path=None)
        assert (spec.degree, spec.selectors) == (2, ())

    @pytest.mark.parametrize("problem", ["poisson", "elasticity-tensor", "heat"])
    def test_every_region_after_the_first_is_dirichlet(self, problem):
        # 'x==0' takes the Robin/Neumann data, 'y==0' and the rest of the
        # boundary are Dirichlet; a region left without a condition
        # stalls the L2 rate
        rep = run_problem(default_spec(problem, refinements=3,
                                       selectors=("x==0", "y==0")))
        assert rep.slopes["L2"] == pytest.approx(2.0, abs=0.2)


class TestPoissonDriver:
    def test_patch_linear_reproduction(self):
        # a = 1, c = 0, f = 0, linear Dirichlet data: P1 reproduces exactly
        lin = lambda p: 2 + 3 * p[:, 0] - p[:, 1]
        grad = lambda p: np.column_stack([np.full(len(p), 3.0),
                                          np.full(len(p), -1.0)])
        data = PoissonData(a=lambda p: np.ones(len(p)),
                           c=lambda p: np.zeros(len(p)),
                           f=lambda p: np.zeros(len(p)),
                           g_R=None, exact=lin, exact_grad=grad)
        spec = default_spec("poisson", degree=1, data=data, selectors=())
        th = refined_th(levels=1)
        uh = solve_poisson(th, spec)
        assert np.allclose(uh, lin(th.dof_map("P1").dof_point), atol=1e-12)

    def test_pure_dirichlet_path_without_selector(self):
        spec = default_spec("poisson", degree=1, selectors=())
        th = refined_th(levels=1)
        assert len(th.partition) == 1   # on = region 0, the whole boundary
        uh = solve_poisson(th, spec)
        bd = th.partition[0].node_idx
        exact_vals = spec.data.exact(th.mesh.node[bd])
        assert np.array_equal(uh[bd], exact_vals)

    def test_robin_region_improves_nothing_weird(self):
        # with the default 'x==0' Robin region the solve converges
        spec = default_spec("poisson", degree=2)
        th = refined_th(selectors=spec.selectors, levels=2)
        uh = solve_poisson(th, spec)
        err = error_L2(th, "P2", spec.order, spec.data.exact, uh)
        assert err < 1e-4


class TestElasticityDrivers:
    def test_displacement_patch_linear(self):
        # linear displacement field: grad(div) and laplacian vanish
        data = elasticity_data(lam=2.0, mu=0.5)

        lin1 = lambda p: 0.3 * p[:, 0] + 0.1 * p[:, 1]
        lin2 = lambda p: -0.2 * p[:, 0] + 0.4 * p[:, 1] + 1.0

        class PatchData:
            lam, mu = 2.0, 0.5
            f = staticmethod(lambda p: np.zeros((len(p), 2)))
            exact = staticmethod(lambda p: np.column_stack([lin1(p), lin2(p)]))
            grad1 = staticmethod(lambda p: np.tile([0.3, 0.1], (len(p), 1)))
            grad2 = staticmethod(lambda p: np.tile([-0.2, 0.4], (len(p), 1)))
            sigma = data.sigma

        spec = default_spec("elasticity-disp", degree=1, data=PatchData)
        th = refined_th(levels=1)
        u1, u2 = solve_elasticity_displacement(th, spec)
        pts = th.dof_map("P1").dof_point
        assert np.allclose(u1, lin1(pts), atol=1e-10)
        assert np.allclose(u2, lin2(pts), atol=1e-10)

    def test_block_path_equals_vector_form_assembly(self):
        # mu*A + (lam+mu)*B blocks == int2d of mu grad:grad + (lam+mu) div div
        from trifem.assembly import assemble_system
        lam, mu = 1.3, 0.7
        th = refined_th(levels=1)
        spec = default_spec("elasticity-disp", degree=2,
                            data=elasticity_data(lam=lam, mu=mu))
        space = spec.space

        from trifem.assembly import assemble_scalar_2d, system_from_blocks
        A = assemble_scalar_2d(th, var_form(1, "v.grad", "u.grad"),
                               space, space, spec.order)
        B1 = assemble_scalar_2d(th, var_form(1, "v.dx", "u.dx"), space, space, spec.order)
        B2 = assemble_scalar_2d(th, var_form(1, "v.dx", "u.dy"), space, space, spec.order)
        B3 = assemble_scalar_2d(th, var_form(1, "v.dy", "u.dx"), space, space, spec.order)
        B4 = assemble_scalar_2d(th, var_form(1, "v.dy", "u.dy"), space, space, spec.order)
        blocks = system_from_blocks(th, [space, space], {
            (0, 0): mu * A + (lam + mu) * B1,
            (0, 1): (lam + mu) * B2,
            (1, 0): (lam + mu) * B3,
            (1, 1): mu * A + (lam + mu) * B4})

        gradgrad = assemble_system(
            th, var_form([mu, mu], ["v1.grad", "v2.grad"], ["u1.grad", "u2.grad"]),
            [space, space], spec.order)
        divdiv = assemble_system(
            th, var_form(lam + mu, "v1.dx + v2.dy", "u1.dx + u2.dy"),
            [space, space], spec.order)
        vec = (gradgrad + divdiv).matrix()

        diff = np.abs(blocks.matrix() - vec).max()
        assert diff <= 1e-13 * np.abs(vec.data).max()

    def test_tensor_rigid_translation(self):
        const = np.array([0.7, -1.2])

        class RigidData:
            lam, mu = 3.0, 1.5
            f = staticmethod(lambda p: np.zeros((len(p), 2)))
            exact = staticmethod(lambda p: np.tile(const, (len(p), 1)))
            grad1 = staticmethod(lambda p: np.zeros((len(p), 2)))
            grad2 = staticmethod(lambda p: np.zeros((len(p), 2)))
            sigma = staticmethod(lambda p: np.zeros((len(p), 3)))

        spec = default_spec("elasticity-tensor", degree=2, data=RigidData)
        th = refined_th(selectors=spec.selectors, levels=1)
        from trifem.problems import solve_elasticity_tensor
        u1, u2 = solve_elasticity_tensor(th, spec)
        assert np.allclose(u1, const[0], atol=1e-10)
        assert np.allclose(u2, const[1], atol=1e-10)

    def test_short_vs_extended_form_identical(self):
        th = refined_th(levels=1)
        spec = default_spec("elasticity-tensor", degree=2)
        short = elasticity_tensor_system(th, spec, extended=False).matrix()
        long = elasticity_tensor_system(th, spec, extended=True).matrix()
        num = np.sqrt(((short - long).multiply(short - long)).sum())
        den = np.sqrt((short.multiply(short)).sum())
        assert num <= 1e-14 * den

    def test_tensor_p3_orders(self):
        spec = default_spec("elasticity-tensor", degree=3, refinements=3)
        rep = run_elasticity_tensor(spec)
        assert rep.slopes["L2"] == pytest.approx(4.0, abs=0.3)
        assert rep.slopes["H1"] == pytest.approx(3.0, abs=0.3)

    def test_displacement_p2_orders(self):
        from trifem.problems import run_elasticity_displacement
        spec = default_spec("elasticity-disp", degree=2, refinements=3)
        rep = run_elasticity_displacement(spec)
        assert rep.slopes["L2"] == pytest.approx(3.0, abs=0.3)
        assert rep.slopes["H1"] == pytest.approx(2.0, abs=0.3)


class TestBiharmonicDriver:
    def test_block_and_vector_modes_agree(self):
        spec = default_spec("biharmonic-vector", degree=2)
        th = refined_th(levels=2)
        w_b, u_b = solve_biharmonic(th, spec, mode="block")
        w_v, u_v = solve_biharmonic(th, spec, mode="vector")
        scale = np.abs(u_b).max()
        assert np.abs(w_b - w_v).max() <= 1e-11 * max(scale, 1)
        assert np.abs(u_b - u_v).max() <= 1e-11 * max(scale, 1)

    def test_p3_auxiliary_rates(self):
        from trifem.problems import run_biharmonic
        spec = default_spec("biharmonic-vector", degree=3, refinements=4)
        rep = run_biharmonic(spec, mode="vector")
        assert rep.slopes["w_L2"] == pytest.approx(2.5, abs=0.3)
        assert rep.slopes["w_H1"] == pytest.approx(1.5, abs=0.3)
        assert rep.slopes["u_H1"] == pytest.approx(3.0, abs=0.3)

    def test_dirichlet_applies_to_u_only(self):
        spec = default_spec("biharmonic-vector", degree=1)
        th = refined_th(levels=2)
        w, u = solve_biharmonic(th, spec, mode="vector")
        bd = th.partition[0].node_idx
        assert np.allclose(u[bd], 0.0, atol=0)       # clamped bubble: u = 0
        assert np.abs(w[bd]).max() > 1e-3            # w unconstrained


class TestStokesDriver:
    def test_zero_data_zero_solution(self):
        class ZeroData:
            f = staticmethod(lambda p: np.zeros((len(p), 2)))
            exact_u = staticmethod(lambda p: np.zeros((len(p), 2)))
            grad1 = staticmethod(lambda p: np.zeros((len(p), 2)))
            grad2 = staticmethod(lambda p: np.zeros((len(p), 2)))
            exact_p = staticmethod(lambda p: np.zeros(len(p)))

        spec = default_spec("stokes", data=ZeroData)
        th = refined_th(levels=1)
        u1, u2, p = solve_stokes(th, spec)
        assert np.abs(u1).max() <= 1e-10
        assert np.abs(u2).max() <= 1e-10

    def test_first_table_level(self):
        spec = default_spec("stokes", refinements=1)
        rep = run_stokes(spec)
        assert rep.columns["u_L2"][0] == pytest.approx(8.88464e-02, rel=0.05)
        assert rep.columns["u_H1"][0] == pytest.approx(2.52940e+00, rel=0.05)
        assert rep.columns["p_L2"][0] == pytest.approx(1.59802e+00, rel=0.05)


def steady_heat_data():
    lin = lambda p: p[:, 0] + p[:, 1]
    return HeatData(f=lambda p, t: np.zeros(len(p)),
                    exact=lambda p, t: lin(p),
                    exact_grad=lambda p, t: np.ones((len(p), 2)))


class TestHeatDriver:
    def test_steady_state_is_fixed_point(self):
        spec = default_spec("heat", degree=1, data=steady_heat_data())
        th = refined_th(selectors=spec.selectors, levels=1)
        uh = solve_heat(th, spec, dt=0.1, nsteps=5)
        exact = th.mesh.node[:, 0] + th.mesh.node[:, 1]
        assert np.abs(uh - exact).max() <= 1e-10

    def test_large_dt_approaches_elliptic_solve(self):
        from trifem import (DirichletSpec, apply_dirichlet_and_solve,
                            assemble_system, coef_matrix_on_edges)
        pi = np.pi
        u = lambda p: np.sin(pi * p[:, 0]) * np.sin(p[:, 1])
        du = lambda p: np.column_stack([
            pi * np.cos(pi * p[:, 0]) * np.sin(p[:, 1]),
            np.sin(pi * p[:, 0]) * np.cos(p[:, 1])])
        f = lambda p: (pi**2 + 1) * u(p)
        data = HeatData(f=lambda p, t: f(p),
                        exact=lambda p, t: u(p),
                        exact_grad=lambda p, t: du(p))
        spec = default_spec("heat", degree=1, data=data)
        th = refined_th(selectors=spec.selectors, levels=2)

        u_heat = solve_heat(th, spec, dt=1e8, nsteps=1)

        kk = assemble_system(th, var_form(1, "v.grad", "u.grad"),
                             [spec.space], spec.order)
        ff = assemble_system(th, var_form(f, "v.val"), [spec.space], spec.order)
        region = th.partition[0]
        flux = coef_matrix_on_edges(du, th, region, spec.order)
        ff = ff + assemble_system(th, var_form(flux, "v.val"), [spec.space],
                                  spec.order, domain="1d", region=region)
        u_ell = apply_dirichlet_and_solve(th, kk, ff, DirichletSpec((1,), (u,)))
        assert np.abs(u_heat - u_ell).max() <= 1e-6

    def test_factorizes_once_per_call(self, monkeypatch):
        calls = []
        real = spla.splu

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", counting)
        spec = default_spec("heat", degree=1, data=steady_heat_data())
        th = refined_th(selectors=spec.selectors, levels=1)
        solve_heat(th, spec, dt=0.1, nsteps=5)
        assert len(calls) == 1

    def test_dt_follows_the_leg_length_on_a_rectangle(self, monkeypatch):
        steps = []

        def record(th, spec, dt, nsteps):
            steps.append(nsteps)
            return np.zeros(th.dof_map(spec.space).num_dofs)

        monkeypatch.setattr(trifem.problems, "solve_heat", record)
        run_heat(default_spec("heat", degree=1, refinements=2,
                              bbox=(0.0, 2.0, 0.0, 1.0)))
        assert steps == [16, 64]          # dt = h^2 for legs 1/4 and 1/8

    def test_heat_uses_dof_vector_coefficient(self):
        # the per-step load accepts the previous iterate as FeFunction
        from trifem import assemble_system, fe_space, integrate_fe
        th = refined_th(selectors=("x==0",), levels=1)
        dofs = np.arange(th.dof_map("P1").num_dofs, dtype=float)
        coef = FeFunction(dofs=dofs, space=fe_space("P1"))
        ff = assemble_system(th, var_form(coef, "v.val"), ["P1"], 3)
        assert ff.shape == (len(dofs),)
        # sum of the load = integral of the coefficient (test sum is 1)
        assert ff.sum() == pytest.approx(integrate_fe(dofs, th, "P1", 3),
                                         abs=1e-13)


class TestCostEvaluation:
    """Inner PDE solve plus quadrature of a nodal mismatch expression,
    the reusable half of a PDE-constrained fitting loop."""

    @staticmethod
    def _solve_conductivity(th, z):
        from trifem import (DirichletSpec, apply_dirichlet_and_solve,
                            assemble_system)
        inside_b = lambda p: (p[:, 0] - 0.3) ** 2 + (p[:, 1] - 0.3) ** 2 < 0.04
        inside_c = lambda p: (p[:, 0] - 0.7) ** 2 + (p[:, 1] - 0.7) ** 2 < 0.04
        kappa = lambda p: 1.0 + z[0] * inside_b(p) + z[1] * inside_c(p)
        kk = assemble_system(th, var_form(kappa, "v.grad", "u.grad"), ["P1"], 5)
        ff = np.zeros(kk.num_dofs)
        g = lambda p: p[:, 0] ** 3 - p[:, 1] ** 3
        return apply_dirichlet_and_solve(th, kk, ff, DirichletSpec((0,), (g,)))

    def test_cost_vanishes_at_target_and_not_elsewhere(self):
        from trifem import integrate_fe
        th = refined_th(levels=2)
        target = self._solve_conductivity(th, (2.0, 3.0))

        def cost(z):
            uh = self._solve_conductivity(th, z)
            node = th.mesh.node
            window = (node[:, 0] - 0.5) ** 2 + (node[:, 1] - 0.5) ** 2 <= 0.2
            fh = window * (uh - target) ** 2
            return integrate_fe(fh, th, "P1", 5)

        assert cost((2.0, 3.0)) <= 1e-20
        assert cost((0.0, 0.0)) > 1e-6


class TestLadder:
    def test_h_is_the_leg_length_on_a_rectangle(self):
        report = run_poisson(default_spec("poisson", refinements=3,
                                          bbox=(0.0, 2.0, 0.0, 1.0)))
        assert list(report.h) == [0.25, 0.125, 0.0625]
        assert report.slopes["L2"] == pytest.approx(2.0, abs=0.1)

    def test_unit_square_h(self):
        report = run_poisson(default_spec("poisson", refinements=2))
        assert list(report.h) == [0.25, 0.125]


class TestNewtonDriver:
    @pytest.mark.parametrize("refinements", [1, 3])
    def test_converges_within_eight_iterates(self, refinements):
        res, _ = run_ns_newton(default_spec("ns-newton", refinements=refinements))
        assert res.converged
        assert res.iterations <= 8
        assert res.stop_reason in ("tolerance", "stagnation")

    def test_iteration_cap_is_not_convergence(self):
        res, _ = run_ns_newton(default_spec("ns-newton", max_iter=2))
        assert (res.iterations, res.converged, res.stop_reason) == (2, False, "max_iter")

    def test_boundary_data_read_from_the_dof_vector(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("Newton evaluated its iterate at points")

        monkeypatch.setattr(trifem.problems, "evaluate_at_points", fail)
        res, _ = run_ns_newton(default_spec("ns-newton", max_iter=3))
        assert res.iterations == 3

    def test_first_increment_small_at_discrete_root(self):
        spec = default_spec("ns-newton", refinements=2,
                            data=ns_polynomial_data(1.0))
        mesh = square_mesh(spec.bbox, spec.h0)
        for _ in range(spec.refinements):
            mesh = uniform_refine(mesh)
        th = fe_mesh(mesh)
        d = spec.data
        u1 = interpolate_nodal(lambda p: d.exact_u(p)[:, 0], th, "P2")
        u2 = interpolate_nodal(lambda p: d.exact_u(p)[:, 1], th, "P2")
        ph = interpolate_nodal(d.exact_p, th, "P1")
        spec.max_iter = 1
        res, _ = run_ns_newton(spec, th=th, initial=(u1, u2, ph))
        assert res.increment_norms[0] <= 1e-8

    def test_superlinear_decrease(self):
        spec = default_spec("ns-newton", refinements=2, max_iter=6)
        res, th = run_ns_newton(spec)
        # monotone decrease above the penalty-induced solver noise floor
        norms = [n for n in res.increment_norms if n > 1e-6]
        assert len(norms) >= 3
        assert all(b < a for a, b in zip(norms, norms[1:]))
        # superlinear contraction once inside the basin
        for a, b in zip(norms, norms[1:]):
            if a < 1.0:
                assert b <= a**1.5

    def test_solution_accuracy_after_newton(self):
        spec = default_spec("ns-newton", refinements=2, max_iter=8)
        res, th = run_ns_newton(spec)
        d = spec.data
        err = error_L2(th, "P2", spec.order,
                       lambda p: d.exact_u(p)[:, 0], res.u1)
        assert err < 5e-2

    def test_convection_entry_positions(self):
        # first four linearized entries pair the velocity-gradient
        # coefficients with val*val products
        from trifem.problems import _ns_jacobian_form
        spec = default_spec("ns-newton")
        th = refined_th(levels=1)
        mats = [np.full((32, 1), float(k)) for k in range(7)]
        form = _ns_jacobian_form(th, spec, mats, spec.order)
        first4 = form.entries[:4]
        assert [str(e.test) for e in first4] == ["v1.val", "v1.val",
                                                 "v2.val", "v2.val"]
        assert [str(e.trial) for e in first4] == ["u1.val", "u2.val",
                                                  "u1.val", "u2.val"]
        for k in range(4):
            assert first4[k].coef is mats[k]
