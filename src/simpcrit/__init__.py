"""simpcrit: exact critical groups of simplicial complexes.

Critical groups via combinatorial Laplacians and reduced Laplacians,
simplicial spanning tree enumeration with torsion weights, matrix-tree
identity checks, and the chip-firing / face-flow model, all in exact
integer arithmetic.
"""

from .complexes import Face, SimplicialComplex, make_face
from .critical import (
    alternating_order,
    critical_group_direct,
    critical_group_reduced,
    laplacian,
    maxwell_matrix,
    pi_product,
    reduced_laplacian,
    verify_simplex_structure,
)
from .flows import (
    ChipState,
    GroupElement,
    critical_representative,
    equivalent,
    extend_to_conservative,
    fire,
    fire_bank,
    is_conservative,
    is_critical,
    is_recurrent,
    is_stable,
    stabilize,
    to_group_element,
)
from .generators import (
    bipyramid,
    complete_graph,
    cycle,
    full_simplex,
    simplex_skeleton,
    sphere,
)
from .intlinalg import (
    AbelianGroup,
    IntMatrix,
    SmithForm,
    char_poly,
    cokernel,
    determinant,
    invariant_factors,
    lattice_membership,
    pseudo_determinant,
    rank,
    smith_normal_form,
)
from .trees import (
    BudgetExceededError,
    NotATreeError,
    SpanningTree,
    TreeCensus,
    TreeHasTorsionError,
    as_spanning_tree,
    enumerate_trees,
    find_torsion_free_tree,
    is_spanning_tree,
    required_tree_size,
    verify_smtt,
)

__version__ = "0.1.0"
