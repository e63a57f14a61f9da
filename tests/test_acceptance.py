"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to watch them stream)."""

import math

import numpy as np

from trifem import (DirichletSpec, Mesh2d, apply_dirichlet_and_solve,
                    assemble_scalar_1d, assemble_scalar_2d, assemble_system,
                    build_topology, expand_extended, fe_mesh,
                    interpolate_nodal,
                    read_freefem_msh, read_freefem_solution, region_dofs,
                    square_mesh, tabulate_basis, triangle_rule,
                    uniform_refine, var_form, write_freefem_msh)
from trifem.problems import (default_spec, elasticity_tensor_system,
                             ns_polynomial_data, run_biharmonic, run_heat,
                             run_ns_newton, run_poisson, run_stokes,
                             solve_biharmonic)
from trifem.quadrature import MAX_TRIANGLE_ORDER
from oracles import direct_bilinear_2d, direct_boundary_mass


def check(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:>2} {status}: {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


def unit_triangle_th():
    mesh = Mesh2d(node=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                  elem=np.array([[0, 1, 2]]))
    return fe_mesh(mesh)


def test_criterion_1_local_matrix_oracles():
    th = unit_triangle_th()
    K = assemble_scalar_2d(th, var_form(1, "v.grad", "u.grad"),
                           "P1", "P1", 2).toarray()
    stiff_ref = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]], dtype=float)
    ok1 = np.abs(K - stiff_ref).max() <= 1e-12

    M = assemble_scalar_2d(th, var_form(1, "v.val", "u.val"),
                           "P1", "P1", 3).toarray()
    area = 0.5
    mass_ref = (area / 12.0) * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]], dtype=float)
    ok2 = np.abs(M - mass_ref).max() <= 1e-12
    check(1, "P1 stiffness and mass match the exact local matrices",
          ok1 and ok2, f"max dev {max(np.abs(K - stiff_ref).max(), np.abs(M - mass_ref).max()):.1e}")


def test_criterion_2_quadrature_exactness():
    worst = 0.0
    for order in range(1, MAX_TRIANGLE_ORDER + 1):
        rule = triangle_rule(order)
        x, y = rule.lam[:, 1], rule.lam[:, 2]
        for a in range(order + 1):
            for b in range(order + 1 - a):
                exact = 2.0 * math.factorial(a) * math.factorial(b) \
                    / math.factorial(a + b + 2)
                worst = max(worst, abs(float(rule.weight @ (x**a * y**b)) - exact))
    check(2, "triangle rules integrate all covered monomials exactly",
          worst <= 1e-12, f"worst error {worst:.1e}")


def test_criterion_3_poisson_convergence():
    details = []
    ok = True
    for k in (1, 2, 3):
        spec = default_spec("poisson", degree=k, refinements=5)
        rep = run_poisson(spec)
        l2, h1 = rep.slopes["L2"], rep.slopes["H1"]
        details.append(f"P{k}: L2 {l2:.2f}, H1 {h1:.2f}")
        ok = ok and abs(l2 - (k + 1)) <= 0.2 and abs(h1 - k) <= 0.2
    check(3, "Poisson slopes are k+1 / k within 0.2 for degrees 1-3",
          ok, "; ".join(details))


STOKES_TABLE = {
    "u_L2": [8.88464e-02, 1.01868e-02, 1.21537e-03, 1.50235e-04, 1.87368e-05],
    "u_H1": [2.52940e+00, 6.62003e-01, 1.67792e-01, 4.21077e-02, 1.05374e-02],
    "p_L2": [1.59802e+00, 3.36224e-01, 7.88512e-02, 1.94079e-02, 4.83415e-03],
}


def test_criterion_4_stokes_table_reproduction():
    spec = default_spec("stokes", refinements=5)
    rep = run_stokes(spec)
    worst = 0.0
    for name, ref in STOKES_TABLE.items():
        got = np.asarray(rep.columns[name])
        worst = max(worst, float(np.max(np.abs(got - ref) / np.asarray(ref))))
    check(4, "all 15 published mixed-method error entries match within 5%",
          worst <= 0.05, f"worst rel dev {worst:.2e}")


def test_criterion_5_biharmonic_suboptimality():
    spec2 = default_spec("biharmonic-vector", degree=2, refinements=5)
    rep2 = run_biharmonic(spec2, mode="vector")
    s = rep2.slopes
    ok_p2 = (abs(s["w_L2"] - 1.5) <= 0.25 and abs(s["w_H1"] - 0.5) <= 0.25
             and abs(s["u_L2"] - 3.0) <= 0.25 and abs(s["u_H1"] - 2.0) <= 0.25)

    spec1 = default_spec("biharmonic-vector", degree=1, refinements=4)
    rep1 = run_biharmonic(spec1, mode="vector")
    t = rep1.slopes
    ok_p1 = abs(t["w_L2"] - 2.0) <= 0.25 and abs(t["w_H1"] - 1.0) <= 0.25

    th = fe_mesh(uniform_refine(uniform_refine(square_mesh([0, 1, 0, 1], 0.5))))
    spec = default_spec("biharmonic-block", degree=2)
    wb, ub = solve_biharmonic(th, spec, mode="block")
    wv, uv = solve_biharmonic(th, spec, mode="vector")
    agree = max(np.abs(wb - wv).max(), np.abs(ub - uv).max())
    ok_eq = agree <= 1e-11

    check(5, "auxiliary-variable rates: P2 suboptimal (1.5/0.5), P1 optimal; "
             "block == vector",
          ok_p2 and ok_p1 and ok_eq,
          f"P2 w: {s['w_L2']:.2f}/{s['w_H1']:.2f}; "
          f"P1 w: {t['w_L2']:.2f}/{t['w_H1']:.2f}; modes agree {agree:.1e}")


def test_criterion_6_heat_order():
    details = []
    ok = True
    for k, refs in ((1, 4), (2, 3)):
        spec = default_spec("heat", degree=k, refinements=refs)
        rep = run_heat(spec)
        slope = rep.slopes["L2"]
        details.append(f"P{k}: {slope:.2f}")
        ok = ok and abs(slope - (k + 1)) <= 0.3
    check(6, "backward Euler with dt = h^(k+1) gives final-time L2 order k+1",
          ok, "; ".join(details))


def test_criterion_7_form_language_equivalence():
    th = fe_mesh(uniform_refine(square_mesh([0, 1, 0, 1], 0.5)))
    spec = default_spec("elasticity-tensor", degree=2)
    A_short = elasticity_tensor_system(th, spec, extended=False).matrix()
    A_long = elasticity_tensor_system(th, spec, extended=True).matrix()
    diff = A_short - A_long
    rel = np.sqrt((diff.multiply(diff)).sum()) / np.sqrt((A_long.multiply(A_long)).sum())
    ok_mat = rel <= 1e-14

    form = var_form([1, 1, 0.5],
                    ["v1.dx", "v2.dy", "v1.dy + v2.dx"],
                    ["u1.dx", "u2.dy", "u1.dy + u2.dx"])
    out = expand_extended(form)
    pairs = [(str(e.test), str(e.trial)) for e in out]
    expected = [("v1.dx", "u1.dx"), ("v2.dy", "u2.dy"),
                ("v1.dy", "u1.dy"), ("v1.dy", "u2.dx"),
                ("v2.dx", "u1.dy"), ("v2.dx", "u2.dx")]
    ok_pairs = pairs == expected and [e.coef for e in out] == [1, 1, 0.5, 0.5, 0.5, 0.5]
    check(7, "short and expanded strain forms agree; expansion yields the "
             "six elementary products",
          ok_mat and ok_pairs, f"Frobenius rel {rel:.1e}")


def test_criterion_8_assembly_oracle():
    th2 = fe_mesh(square_mesh([0, 1, 0, 1], 0.25))            # 32 elements
    th1 = fe_mesh(square_mesh([0, 1, 0, 1], 0.25), ["x==1"])
    rng = np.random.default_rng(314)
    worst = 0.0

    kernels = [
        (var_form(1, "v.val", "u.val"), lambda v, gv, u, gu: v * u),
        (var_form(1, "v.grad", "u.grad"), lambda v, gv, u, gu: gv @ gu),
        (var_form(1, "v.dx", "u.val"), lambda v, gv, u, gu: gv[0] * u),
    ]
    space = "P2"
    n = th2.dof_map(space).num_dofs
    for form, pointwise in kernels:
        A = assemble_scalar_2d(th2, form, space, space, 6)
        for _ in range(20):
            dv, du = rng.standard_normal(n), rng.standard_normal(n)
            got = dv @ (A @ du)
            want = direct_bilinear_2d(th2, space, dv, du, pointwise)
            worst = max(worst, abs(got - want) / max(abs(want), 1e-30))

    region = th1.partition[0]
    B = assemble_scalar_1d(th1, region, var_form(1, "v.val", "u.val"),
                           space, space, 6)
    m = th1.dof_map(space).num_dofs
    for _ in range(20):
        dv, du = rng.standard_normal(m), rng.standard_normal(m)
        got = dv @ (B @ du)
        want = direct_boundary_mass(th1, space, region, dv, du)
        worst = max(worst, abs(got - want) / max(abs(want), 1e-30))

    check(8, "v'Au matches direct quadrature for mass/stiffness/mixed/"
             "boundary kernels (20 random pairs each)",
          worst <= 1e-11, f"worst rel dev {worst:.1e}")


def test_criterion_9_invariant_suites():
    problems = []

    mesh = uniform_refine(square_mesh([0, 1, 0, 1], 0.5))
    topo = build_topology(mesh)
    if not np.all(topo.edge[:, 0] < topo.edge[:, 1]):
        problems.append("edge ordering")

    th = fe_mesh(mesh, ["x==0"])
    for space in ("P1", "P2", "P3"):
        tabs = tabulate_basis("val", th, space, 4)
        if np.abs(sum(np.asarray(t) for t in tabs) - 1.0).max() > 1e-13:
            problems.append(f"partition of unity {space}")
        for tag in ("dx", "dy"):
            tabs = tabulate_basis(tag, th, space, 4)
            if np.abs(sum(np.asarray(t) for t in tabs)).max() > 1e-13:
                problems.append(f"gradient sum {space}.{tag}")

    from trifem.fespace import shape_values
    ref_pts = {"P1": [(1, 0, 0), (0, 1, 0), (0, 0, 1)]}
    lam = np.array(ref_pts["P1"], dtype=float)
    if np.abs(shape_values("P1", lam) - np.eye(3)).max() > 1e-13:
        problems.append("Kronecker P1")

    # Dirichlet fixed-dof exactness
    kk = assemble_system(th, var_form(1, "v.grad", "u.grad"), ["P2"], 4)
    ff = assemble_system(th, var_form(lambda p: np.ones(len(p)), "v.val"), ["P2"], 4)
    g = lambda p: np.cos(p[:, 0]) + p[:, 1] ** 2
    x = apply_dirichlet_and_solve(th, kk, ff, DirichletSpec((1,), (g,)))
    bd = region_dofs(th, "P2", th.partition[1])
    if not np.array_equal(x[bd], g(th.dof_map("P2").dof_point[bd])):
        problems.append("fixed-dof exactness")

    A = kk.matrix()
    if np.abs(A @ np.ones(A.shape[1])).max() > 1e-12:
        problems.append("Laplacian constants")

    th_b = fe_mesh(uniform_refine(square_mesh([0, 1, 0, 1], 0.5)), ["x==0"])
    form = var_form([lambda p: 1 + p[:, 1], 1], ["v.grad", "v.val"],
                    ["u.grad", "u.val"])
    A1 = assemble_scalar_2d(th, form, "P3", "P3", 5)
    A2 = assemble_scalar_2d(th_b, form, "P3", "P3", 5)
    if not (np.array_equal(A1.data, A2.data)
            and np.array_equal(A1.indices, A2.indices)
            and np.array_equal(A1.indptr, A2.indptr)):
        problems.append("determinism")

    check(9, "invariant suites (ordering, unity, Kronecker, Dirichlet, "
             "constants, determinism)", not problems, "; ".join(problems) or "all green")


def test_criterion_10_newton_behavior():
    spec = default_spec("ns-newton", refinements=2, max_iter=6)
    res, _ = run_ns_newton(spec)
    norms = [n for n in res.increment_norms if n > 1e-6]
    ok_dec = len(norms) >= 3 and all(b < a for a, b in zip(norms, norms[1:]))
    ok_super = all(b <= a**1.5 for a, b in zip(norms, norms[1:]) if a < 1.0)

    spec2 = default_spec("ns-newton", refinements=2,
                         data=ns_polynomial_data(1.0), max_iter=1)
    mesh = square_mesh(spec2.bbox, spec2.h0)
    for _ in range(spec2.refinements):
        mesh = uniform_refine(mesh)
    th = fe_mesh(mesh)
    d = spec2.data
    init = (interpolate_nodal(lambda p: d.exact_u(p)[:, 0], th, "P2"),
            interpolate_nodal(lambda p: d.exact_u(p)[:, 1], th, "P2"),
            interpolate_nodal(d.exact_p, th, "P1"))
    res2, _ = run_ns_newton(spec2, th=th, initial=init)
    at_root = res2.increment_norms[0]

    check(10, "Newton increments decrease superlinearly; at the root the "
              "first increment is tiny",
          ok_dec and ok_super and at_root <= 1e-8,
          f"norms {['%.1e' % n for n in res.increment_norms[:4]]}, "
          f"at-root {at_root:.1e}")


def test_criterion_11_io_round_trips(tmp_path):
    mesh = square_mesh([0, 1, 0, 1], 0.5)
    topo = build_topology(mesh)
    path = tmp_path / "fixture.msh"
    write_freefem_msh(path, mesh, boundary=topo.bd_edge)
    back, _ = read_freefem_msh(path)
    ok_mesh = np.array_equal(back.node, mesh.node) and \
        np.array_equal(back.elem, mesh.elem)

    sol = tmp_path / "sol.txt"
    sol.write_text("3\n1.5 -2.25 3.125\n")
    ok_sol = np.array_equal(read_freefem_solution(sol), [1.5, -2.25, 3.125])

    bad = tmp_path / "bad.txt"
    bad.write_text("4\n1 2 3\n")
    try:
        read_freefem_solution(bad)
        ok_err = False
    except ValueError:
        ok_err = True

    check(11, "mesh fixture round-trips exactly; solution reader validates "
              "its declared length", ok_mesh and ok_sol and ok_err)
