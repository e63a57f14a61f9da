"""Driver-level behavior: patch tests, two-path equivalences, fixed
points, Newton behavior.  Full convergence ladders live in the
acceptance suite."""

from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import trifem.problems
from trifem import (FeFunction, SelectorError, VarForm, assemble_system,
                    coef_matrix_from_dofs, dirichlet_dofs, error_L2, fe_mesh,
                    integrate_fe, interpolate_nodal, square_mesh, uniform_refine,
                    var_form)
from trifem.fespace import Cells
from trifem.problems import (PROBLEM_IDS, HeatData, NewtonResult,
                             PoissonData, ProblemSpec, default_spec,
                             elasticity_data,
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
FIELDS = frozenset(f.name for f in fields(ProblemSpec))
# a value other than every row's default, for each field a runner may not read
CHANGED = {"degree": 3, "selectors": ("x==0",), "mesh_path": "m.msh",
           "dt": 0.1, "t_end": 9.0, "nu": 5.0, "eps": 1e-6, "max_iter": 3,
           "tol": 1e-6}


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

    def test_an_unknown_problem_is_named(self):
        with pytest.raises(ValueError, match="unknown problem 'poison'; expected one of "
                                             "poisson, "):
            run_problem(ProblemSpec(problem="poison"))

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

    @pytest.mark.parametrize("problem", PROBLEM_IDS)
    def test_every_field_the_runner_does_not_read_is_rejected(self, problem):
        reads = trifem.problems._PROBLEMS[problem].reads
        for field, value in CHANGED.items():
            if field not in reads:
                with pytest.raises(ValueError, match=f"{problem} fixes {field} ="):
                    default_spec(problem, **{field: value})

    @pytest.mark.parametrize("field, value", [("refinements", 2), ("h0", 0.25),
                                              ("bbox", (0.0, 2.0, 0.0, 1.0))])
    def test_mesh_path_excludes_the_generated_mesh_fields(self, field, value):
        assert default_spec("ns-newton", mesh_path="m.msh").mesh_path == "m.msh"
        with pytest.raises(ValueError, match=field):
            default_spec("ns-newton", mesh_path="m.msh", **{field: value})

    @pytest.mark.parametrize("problem", PROBLEM_IDS)
    def test_runner_reads_exactly_the_fields_of_its_row(self, problem):
        # guards the table against drift: a field the runner reads but
        # its row omits would be refused, one the row lists but the
        # runner never reads would be silently ignored
        read = set()

        class Recording(ProblemSpec):
            def __getattribute__(self, name):
                if name in FIELDS:
                    read.add(name)
                return super().__getattribute__(name)

        spec = default_spec(problem, refinements=1)
        run_problem(Recording(**{f: getattr(spec, f) for f in FIELDS}))
        assert read - {"problem"} == set(trifem.problems._PROBLEMS[problem].reads)

    @pytest.mark.parametrize("problem, field, value", [
        ("heat", "dt", -0.1), ("heat", "dt", 0.0), ("heat", "dt", float("inf")),
        ("heat", "t_end", -1.0), ("heat", "t_end", 0.0),
        ("heat", "t_end", float("nan")),
        ("ns-newton", "tol", 0.0), ("ns-newton", "tol", -1e-8),
        ("ns-newton", "tol", float("nan")),
        ("ns-newton", "max_iter", 0), ("ns-newton", "max_iter", -3),
        ("ns-newton", "max_iter", 2.5),
        ("stokes", "eps", 0.0), ("stokes", "eps", -1e-10),
        ("stokes", "eps", float("inf")), ("stokes", "nu", -1.0),
        ("stokes", "nu", 0.0), ("stokes", "nu", float("nan")),
        ("ns-newton", "eps", 0.0), ("ns-newton", "nu", -1.0)])
    def test_a_control_out_of_range_is_a_named_error(self, problem, field, value):
        # each used to run to a wrong number, or to die far from the cause
        with pytest.raises(ValueError, match=f"^{field} must be"):
            default_spec(problem, **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("degree", 4), ("degree", 0), ("degree", 2.5),
        ("refinements", 0), ("refinements", -1), ("refinements", 2.0),
        ("quad_order", 9), ("quad_order", 0), ("quad_order", 4.0),
        ("h0", float("inf")), ("h0", float("nan")), ("h0", 0.0), ("h0", -0.5),
        ("bbox", (0.0, float("inf"), 0.0, 1.0)),
        ("bbox", (float("nan"), 1.0, 0.0, 1.0)),
        ("bbox", (0.0, 1.0, 1.0, 0.0)), ("bbox", (0.0, 1.0, 0.0))])
    def test_a_discretization_out_of_range_is_a_named_error(self, field, value):
        # refinements=0 used to return a report with no level and no
        # column; degree 4 and quad_order 9 failed later, in fe_space or
        # triangle_rule; h0 = inf gave a mesh with no triangle and ended
        # in the "no Dirichlet dof was fixed" hint, NaN failed converting
        # to an integer
        with pytest.raises(ValueError, match=f"^{field} must be"):
            default_spec("poisson", **{field: value})

    @pytest.mark.parametrize("problem", ["poisson", "stokes"])
    @pytest.mark.parametrize("overrides", [
        dict(h0=0.3), dict(h0=0.5, bbox=(0.0, 1.0, 0.0, 0.75))])
    def test_a_grid_that_does_not_fit_its_box_is_a_spec_error(self, problem,
                                                              overrides):
        # such a spec used to be returned, and fail only when it ran
        with pytest.raises(ValueError, match="does not divide the box sides"):
            default_spec(problem, **overrides)

    def test_a_read_mesh_skips_the_grid_test(self, monkeypatch):
        # bbox and h0 describe only a generated mesh
        gridded = []
        monkeypatch.setattr(trifem.problems, "_grid_lines",
                            lambda bbox, h: gridded.append((bbox, h)))
        default_spec("ns-newton", mesh_path="m.msh")
        assert gridded == []
        default_spec("ns-newton")
        assert gridded == [((0.0, 1.0, 0.0, 1.0), 0.5)]

    @pytest.mark.parametrize("field, value", [
        ("degree", 3), ("refinements", 1), ("quad_order", 1), ("quad_order", 8)])
    def test_a_discretization_at_its_bounds_is_kept(self, field, value):
        assert getattr(default_spec("poisson", **{field: value}), field) == value

    @pytest.mark.parametrize("dt, t_end", [(0.3, 1.0), (5.0, 1.0), (0.4, 1.0),
                                           (0.07, 0.2)])
    def test_a_time_step_that_does_not_divide_t_end_is_a_named_error(self, dt,
                                                                     t_end):
        # run_heat used to march with t_end / round(t_end / dt) instead
        with pytest.raises(ValueError, match="^dt must divide t_end"):
            default_spec("heat", dt=dt, t_end=t_end)

    @pytest.mark.parametrize("dt, t_end, nsteps", [(0.1, 1.0, 10), (0.1, 9.0, 90),
                                                   (0.05, 0.2, 4), (1.0, 1.0, 1)])
    def test_a_time_step_that_divides_t_end_is_kept(self, monkeypatch, dt, t_end,
                                                    nsteps):
        steps = []

        def record(th, spec, dt, nsteps):
            steps.append((dt, nsteps))
            return np.zeros(th.dof_map(spec.space).num_dofs)

        monkeypatch.setattr(trifem.problems, "solve_heat", record)
        run_heat(default_spec("heat", degree=1, refinements=2, dt=dt, t_end=t_end))
        assert steps == [(t_end / nsteps, nsteps)] * 2
        assert steps[0][0] == pytest.approx(dt, rel=1e-12)

    @pytest.mark.parametrize("selector", ["x ==", "z==0", "x==0 | y==0 & "])
    def test_a_selector_that_does_not_parse_is_a_named_error(self, selector):
        with pytest.raises(SelectorError, match="position"):
            default_spec("poisson", selectors=("x==0", selector))

    def test_a_single_selector_string_is_one_selector(self):
        assert default_spec("poisson", selectors="x==0").selectors == ("x==0",)

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
        bd = np.unique(th.partition[0].edges)
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

    @pytest.mark.parametrize("problem", ["elasticity-disp", "elasticity-tensor"])
    def test_the_forcing_is_evaluated_once_per_level(self, problem):
        # elasticity-disp used to evaluate the whole of f once per component
        calls = []
        spec = default_spec(problem, refinements=2)
        f = spec.data.f

        def counted(p):
            calls.append(len(p))
            return f(p)

        spec.data = replace(spec.data, f=counted)
        assert len(run_problem(spec).h) == 2
        assert len(calls) == 2

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

    def test_an_unknown_mode_is_named(self):
        spec = default_spec("biharmonic-vector")
        with pytest.raises(ValueError, match="unknown biharmonic mode 'mixed'"):
            solve_biharmonic(refined_th(levels=1), spec, mode="mixed")

    def test_dirichlet_applies_to_u_only(self):
        spec = default_spec("biharmonic-vector", degree=1)
        th = refined_th(levels=2)
        w, u = solve_biharmonic(th, spec, mode="vector")
        bd = np.unique(th.partition[0].edges)
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

    def test_the_forcing_is_evaluated_once_per_level(self):
        # each load component used to call the whole vector function
        calls = []
        spec = default_spec("stokes", refinements=2)
        f = spec.data.f

        def counted(p):
            calls.append(len(p))
            return f(p)

        spec.data = replace(spec.data, f=counted)
        report = run_stokes(spec)
        assert len(report.h) == 2
        assert len(calls) == 2

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
                                  spec.order, region=region)
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

    def test_assembly_calls_do_not_grow_with_the_step_count(self, monkeypatch):
        calls = []
        real = trifem.problems.assemble_system

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(trifem.problems, "assemble_system", counting)
        spec = default_spec("heat", degree=2)
        th = refined_th(selectors=spec.selectors, levels=1)
        counts = []
        for nsteps in (1, 7):
            calls.clear()
            solve_heat(th, spec, dt=0.1, nsteps=nsteps)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    # final-time errors of the loop that assembled its load every step;
    # the prebuilt load operator only reorders the sums
    ASSEMBLED_LOAD_ERRORS = {
        (1, 4): {"L2": [0.009606529412663295, 0.0024974405719398536,
                        0.0006310053522708916, 0.00015817938663674139],
                 "H1": [0.13742174032386587, 0.06964004661665824,
                        0.03493927871494666, 0.017484656749128094]},
        (2, 3): {"L2": [0.0004642653531580087, 5.7123518134994736e-05,
                        7.113181422204812e-06],
                 "H1": [0.01526742740295997, 0.003876319602442278,
                        0.0009737076556726103]},
    }

    @pytest.mark.parametrize("degree, refinements", [(1, 4), (2, 3)])
    def test_final_time_errors_match_the_assembled_load(self, degree, refinements):
        rep = run_heat(default_spec("heat", degree=degree, refinements=refinements))
        for name, ref in self.ASSEMBLED_LOAD_ERRORS[degree, refinements].items():
            np.testing.assert_allclose(rep.columns[name], ref, rtol=1e-9, atol=0)

    @staticmethod
    def _reference_heat(th, spec, dt, nsteps):
        """The step loop with separate products and the full-length
        solve: load @ f + M/dt @ uh (+ flux @ grad u), then solve."""
        from trifem import DirichletSolver, DirichletSpec, load_operator
        from trifem.problems import _boundary, _flux_operator
        data, space, order = spec.data, spec.space, spec.order
        region, on = _boundary(th)
        kk = assemble_system(th, var_form([1.0 / dt, 1], ["v.val", "v.grad"],
                                          ["u.val", "u.grad"]), [space], order)
        initial = lambda p: data.exact(p, 0.0)
        fixed, _ = dirichlet_dofs(th, kk, DirichletSpec(on, (initial,) * len(on)))
        fixed_points = th.dof_map(space).dof_point[fixed]
        solver = DirichletSolver(kk.matrix(), fixed)
        mass = assemble_system(th, var_form(1.0 / dt, "v.val", "u.val"),
                               [space], order).matrix()
        load = load_operator(th, space, order)
        cells = Cells(th, order)
        if region is not None:
            edges = Cells(th, order, region)
            flux = _flux_operator(edges, space)
        uh = interpolate_nodal(initial, th, space)
        for step in range(1, nsteps + 1):
            t = step * dt
            ff = load @ cells.values(lambda p: data.f(p, t)).ravel() + mass @ uh
            if region is not None:
                ff = ff + flux @ edges.values(lambda p: data.exact_grad(p, t),
                                              2).ravel()
            uh = solver.solve(ff, data.exact(fixed_points, t))
        return uh

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("selectors", [None, ()])
    def test_step_operator_matches_the_separate_products(self, degree, selectors):
        spec = default_spec("heat", degree=degree)
        if selectors is not None:          # () leaves no Neumann region
            spec = replace(spec, selectors=selectors)
        th = refined_th(selectors=spec.selectors, levels=2)
        got = solve_heat(th, spec, dt=0.01, nsteps=20)
        ref = self._reference_heat(th, spec, dt=0.01, nsteps=20)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_without_selectors_every_boundary_dof_is_dirichlet(self):
        rep = run_heat(default_spec("heat", degree=1, refinements=2,
                                    selectors=()))
        np.testing.assert_allclose(rep.columns["L2"],
                                   [0.009872002219033327, 0.002543340656161139],
                                   rtol=1e-9, atol=0)

    def test_a_wrong_shape_load_is_a_form_error(self):
        from trifem import FormError
        data = replace(trifem.problems.heat_data(),
                       f=lambda p, t: np.ones(len(p) + 1))
        spec = default_spec("heat", degree=2, data=data)
        th = refined_th(selectors=spec.selectors, levels=1)
        with pytest.raises(FormError, match="point function returned shape"):
            solve_heat(th, spec, dt=0.1, nsteps=2)

    def test_one_back_solve_per_step(self, monkeypatch):
        solves = []
        real = spla.splu

        class Counted:
            def __init__(self, lu):
                self._lu = lu

            def solve(self, *args):
                solves.append(1)
                return self._lu.solve(*args)

        monkeypatch.setattr(spla, "splu", lambda *a, **k: Counted(real(*a, **k)))
        spec = default_spec("heat", degree=2)
        th = refined_th(selectors=spec.selectors, levels=1)
        counts = []
        for nsteps in (3, 9):
            solves.clear()
            solve_heat(th, spec, dt=0.01, nsteps=nsteps)
            counts.append(len(solves))
        assert counts == [3, 9]

    def test_non_finite_load_is_blamed_on_the_data(self):
        data = replace(trifem.problems.heat_data(),
                       f=lambda p, t: np.full(len(p), np.nan))
        with pytest.raises(ValueError, match="right-hand side is not all finite"):
            run_problem(default_spec("heat", degree=1, refinements=1, data=data))

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
        # a load accepts a dof vector (FeFunction) as its coefficient
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

    @pytest.mark.parametrize("problem", ["poisson", "ns-newton"])
    def test_a_spec_built_without_a_level_is_a_named_error(self, problem):
        # a ProblemSpec built directly skips default_spec: the ladder
        # returned a report with no level, Newton an AttributeError on
        # a mesh of None
        spec = replace(default_spec(problem), refinements=0)
        with pytest.raises(ValueError,
                           match=r"^refinements must be an integer >= 1, got 0$"):
            run_problem(spec)


def written_out_ns_residual(th, spec, iterate, spaces):
    """Reference: the residual F(U) of the penalized steady system at
    U = (u1, u2, p), every term of the form written out as one entry of a
    linear form."""
    nu, eps, order = spec.nu, spec.eps, spec.order
    u1, u2, p = iterate
    u1xc, u1yc, u2xc, u2yc, u1c, u2c, pc = (
        coef_matrix_from_dofs(dofs, tag, th, space, order)
        for dofs, tag, space in ((u1, "dx", "P2"), (u1, "dy", "P2"),
                                 (u2, "dx", "P2"), (u2, "dy", "P2"),
                                 (u1, "val", "P2"), (u2, "val", "P2"),
                                 (p, "val", "P1")))
    form = var_form(
        [u1c * u1xc + u2c * u1yc, u1c * u2xc + u2c * u2yc,
         nu * u1xc, nu * u1yc, nu * u2xc, nu * u2yc,
         -pc, -pc,
         -(u1xc + u2yc),
         -eps * pc,
         lambda x: -spec.data.f(x)[:, 0], lambda x: -spec.data.f(x)[:, 1]],
        ["v1.val", "v2.val",
         "v1.dx", "v1.dy", "v2.dx", "v2.dy",
         "v1.dx", "v2.dy",
         "v3.val",
         "v3.val",
         "v1.val", "v2.val"])
    return assemble_system(th, form, spaces, order)


def one_form_jacobian(th, spec, coefs, spaces):
    """Reference: DF(U) assembled as one form of all 15 entries, the
    convection entries first, then the Stokes form's."""
    from trifem.problems import _convection_form, stokes_form
    form = VarForm(entries=_convection_form(coefs).entries + stokes_form(spec).entries)
    return assemble_system(th, form, spaces, spec.order)


def smooth_iterate(th):
    """A smooth (u1, u2, p) that solves nothing."""
    return (interpolate_nodal(lambda p: np.sin(3 * p[:, 0]) * p[:, 1], th, "P2"),
            interpolate_nodal(lambda p: p[:, 0] ** 2 - p[:, 1], th, "P2"),
            interpolate_nodal(lambda p: np.cos(p[:, 0] + p[:, 1]), th, "P1"))


def velocity_coefs(th, spec, u1, u2):
    return [coef_matrix_from_dofs(dofs, tag, th, "P2", spec.order)
            for dofs, tag in ((u1, "dx"), (u1, "dy"), (u2, "dx"),
                              (u2, "dy"), (u1, "val"), (u2, "val"))]


class TestNewtonDriver:
    @pytest.mark.parametrize("refinements", [1, 3])
    def test_first_step_solves_the_jacobian_against_the_residual(self, refinements):
        # from a smooth iterate that is no solution, one Newton step
        # solves DF(U) delta = F(U) on the free dofs, with F(U) the
        # residual as Newton computes it, DF(U) U - load((u.grad)u + f)
        from trifem.problems import _taylor_hood
        th = refined_th(levels=refinements)
        spec = default_spec("ns-newton", max_iter=1)
        spaces, dirichlet = _taylor_hood(spec.data)
        iterate = smooth_iterate(th)
        res, _ = run_ns_newton(spec, th=th, initial=iterate)
        delta = np.concatenate(iterate) - np.concatenate([res.u1, res.u2, res.p])

        kk = one_form_jacobian(th, spec, velocity_coefs(th, spec, *iterate[:2]), spaces)
        free = np.setdiff1d(np.arange(kk.num_dofs), dirichlet_dofs(th, kk, dirichlet)[0])
        want = written_out_ns_residual(th, spec, iterate, spaces)
        got = kk.matrix() @ delta
        assert np.abs(got[free] - want[free]).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("refinements", [1, 2, 3])
    def test_the_first_iterate_from_rest_is_the_stokes_solve(self, refinements):
        # DF(0) is the Stokes form and the load is f, so the first step
        # is solve_stokes itself, Schur CG's exact pressure mean included
        spec = default_spec("ns-newton", refinements=refinements, max_iter=1)
        res, th = run_ns_newton(spec)
        for got, want in zip((res.u1, res.u2, res.p), solve_stokes(th, spec)):
            assert got.tobytes() == want.tobytes()
        mean = integrate_fe(res.p, th, "P1", spec.order)
        assert abs(mean) <= 1e-12 * np.abs(res.p).max()

    @pytest.mark.parametrize("refinements", [1, 3])
    def test_the_jacobian_is_stokes_plus_convection(self, refinements, monkeypatch):
        # the Stokes system assembled once plus the step's convection
        # system is the one-form Jacobian to rounding; scipy's sum drops
        # the entries that cancel to exactly zero
        from trifem.problems import _taylor_hood
        systems = []
        solve = trifem.problems.apply_dirichlet_and_solve

        def recorded(th, system, *args):
            systems.append(system.matrix())
            return solve(th, system, *args)

        monkeypatch.setattr(trifem.problems, "apply_dirichlet_and_solve", recorded)
        th = refined_th(levels=refinements)
        spec = default_spec("ns-newton", max_iter=1)
        iterate = smooth_iterate(th)
        run_ns_newton(spec, th=th, initial=iterate)
        want = one_form_jacobian(th, spec, velocity_coefs(th, spec, *iterate[:2]),
                                 _taylor_hood(spec.data)[0]).matrix()
        [got] = systems
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        want = want.copy()
        want.eliminate_zeros()
        assert got.has_canonical_format
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)

    @pytest.mark.parametrize("initial, max_iter", [(False, 1), (False, 15), (True, 2)])
    def test_the_stokes_form_is_assembled_once_per_run(self, initial, max_iter,
                                                       monkeypatch):
        # later steps assemble the eight convection entries only, and a
        # step from rest assembles no convection entry
        bilinear = []
        assemble = trifem.problems.assemble_system

        def recorded(th, form, *args):
            if not form.is_linear:
                bilinear.append(len(form.entries))
            return assemble(th, form, *args)

        monkeypatch.setattr(trifem.problems, "assemble_system", recorded)
        th = refined_th(levels=1)
        spec = default_spec("ns-newton", max_iter=max_iter)
        res, _ = run_ns_newton(spec, th=th,
                               initial=smooth_iterate(th) if initial else None)
        steps_with_convection = res.iterations - (not initial)
        assert bilinear == [7] + [8] * steps_with_convection

    @pytest.mark.parametrize("problem", [p for p in PROBLEM_IDS if p != "heat"])
    def test_only_heat_builds_a_dirichlet_solver(self, problem, monkeypatch):
        # every steady driver, each Newton step included, solves through
        # apply_dirichlet_and_solve
        def fail(*args, **kwargs):
            raise AssertionError(f"{problem} built a DirichletSolver")

        monkeypatch.setattr(trifem.problems, "DirichletSolver", fail)
        run_problem(default_spec(problem, refinements=2))

    def test_growing_increments_are_named_as_divergence(self, monkeypatch):
        # each faked step lands 1000 times further out than the last
        steps = []

        def growing(th, spec, kk, load):
            steps.append(1)
            scale = 1000.0 ** len(steps)
            return tuple(np.full(th.dof_map(s).num_dofs, scale)
                         for s in ("P2", "P2", "P1"))

        monkeypatch.setattr(trifem.problems, "_solve_taylor_hood", growing)
        with pytest.raises(RuntimeError, match="diverging after 3 steps"):
            run_ns_newton(default_spec("ns-newton"))

    def test_the_forcing_is_evaluated_once_per_run(self):
        calls = []
        spec = default_spec("ns-newton")
        f = spec.data.f

        def counted(p):
            calls.append(len(p))
            return f(p)

        spec.data = replace(spec.data, f=counted)
        res, _ = run_ns_newton(spec)
        assert res.iterations > 1
        assert len(calls) == 1

    @pytest.mark.parametrize("refinements", [1, 3])
    def test_converges_within_eight_iterates(self, refinements):
        res, _ = run_ns_newton(default_spec("ns-newton", refinements=refinements))
        assert res.converged
        assert res.iterations <= 8
        assert res.stop_reason == "tolerance"

    @pytest.mark.parametrize("refinements", [1, 2, 3, 4])
    def test_stops_on_tolerance_within_four_iterates(self, refinements):
        res, _ = run_ns_newton(default_spec("ns-newton", refinements=refinements))
        assert (res.stop_reason, res.converged) == ("tolerance", True)
        assert res.iterations <= 4

    @pytest.mark.parametrize("refinements", [1, 2, 3])
    def test_increments_in_the_basin_contract_superlinearly(self, refinements):
        # no noise floor: the increment leaves out the pressure mean, the
        # mode the eps penalty barely pins
        res, _ = run_ns_newton(default_spec("ns-newton", refinements=refinements))
        norms = res.increment_norms
        assert any(a < 1.0 for a in norms[:-1])
        for a, b in zip(norms, norms[1:]):
            if a < 1.0:
                assert b <= a**1.5

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
        from trifem.problems import _convection_form
        mats = [np.full((32, 1), float(k)) for k in range(6)]
        form = _convection_form(mats)
        first4 = form.entries[:4]
        assert [str(e.test) for e in first4] == ["v1.val", "v1.val",
                                                 "v2.val", "v2.val"]
        assert [str(e.trial) for e in first4] == ["u1.val", "u2.val",
                                                  "u1.val", "u2.val"]
        for k in range(4):
            assert first4[k].coef is mats[k]
