"""2D Lagrange finite element assembly with a variational-form language.

PDE discretizations are declared as (Coef, Test, Trial) triples over a
small term language ('v.grad', 'u1.dx', ...) and assembled into sparse
systems on triangular meshes, for P1/P2/P3 elements, scalar and
multi-component problems, with boundary terms over selector-defined
regions.
"""

from .assembly import (AssembledSystem, SparseTriples, assemble_scalar_1d,
                       assemble_scalar_2d, assemble_system, compress,
                       system_from_blocks)
from .fespace import (DofMap, FeFunction, FeSpace, build_dof_map,
                      coef_matrix_from_dofs, coef_matrix_on_edges,
                      evaluate_at_points, fe_space, integrate_fe,
                      interpolate_nodal, region_dofs, tabulate_basis)
from .io import (read_freefem_msh, read_freefem_solution, write_freefem_msh,
                 write_results)
from .mesh import (BoundaryPartition, BoundaryRegion, FeMesh, Mesh2d,
                   MeshTopology, build_topology, classify_boundary,
                   classify_boundary_by_labels, fe_mesh, square_mesh,
                   uniform_refine)
from .quadrature import QuadRule1d, QuadRule2d, segment_rule, triangle_rule
from .selector import SelectorError, parse_selector
from .system import (DirichletSolver, DirichletSpec, RateReport,
                     apply_dirichlet_and_solve, dirichlet_dofs, error_H1_semi,
                     error_L2, fit_rate, solve_sparse)
from .terms import Term, TermSum, parse_term_sum
from .vform import (FormEntry, FormError, VarForm, coef_to_matrix,
                    expand_extended, standardize_symbols, var_form)

__version__ = "0.1.0"
