"""Input errors of the library: each is a plain ValueError with one message,
never a HypothesisError (which means the input is outside a theorem)."""

import re

import pytest

from simpcrit import (
    ChipState,
    GroupElement,
    IntMatrix,
    alternating_order,
    bipyramid,
    complete_graph,
    critical_group_reduced,
    cycle,
    enumerate_trees,
    extend_to_conservative,
    find_torsion_free_tree,
    fire,
    is_conservative,
    laplacian,
    make_face,
    reduced_laplacian,
    required_tree_size,
    simplex_skeleton,
    sphere,
    to_group_element,
    verify_smtt,
)
from simpcrit.generators import from_spec
from simpcrit.intlinalg import char_poly, lattice_membership

B = bipyramid()  # f = (1, 5, 9, 7), dimension 2
TREE = [(1, 2), (1, 3), (1, 4), (1, 5)]  # a torsion-free 1-tree; 5 edges outside it
C5 = cycle(5)

# (id, call, exception type, message)
ERRORS = [
    ("faces", lambda: B.faces(3), ValueError, "dimension 3 out of range [-1, 2]"),
    ("reduced_homology", lambda: B.reduced_homology(-2), ValueError,
     "dimension -2 out of range [-1, 2]"),
    ("skeleton", lambda: B.skeleton(3), ValueError, "skeleton dimension 3 out of range [0, 2]"),
    ("laplacian", lambda: laplacian(B, 3), ValueError, "dimension 3 out of range [-1, 2]"),
    ("critical_group_reduced", lambda: critical_group_reduced(B, 2, TREE), ValueError,
     "dimension 2 out of range [0, 2)"),
    ("alternating_order", lambda: alternating_order(B, 2), ValueError,
     "dimension 2 out of range [0, 2)"),
    ("verify_smtt", lambda: verify_smtt(B, 0), ValueError, "dimension 0 out of range [1, 2]"),
    ("enumerate_trees", lambda: enumerate_trees(B, B.dim + 1), ValueError,
     "dimension 3 out of range [0, 2]"),
    # a negative budget is refused before any work, as the CLI refuses --budget -1
    ("enumerate_trees budget", lambda: enumerate_trees(B, 2, budget=-5), ValueError,
     "budget must be at least 0, got -5"),
    ("find_torsion_free_tree budget", lambda: find_torsion_free_tree(B, 2, budget=-1),
     ValueError, "budget must be at least 0, got -1"),
    # no i-faces above the dimension, and the message names the caller's i
    ("required_tree_size -1", lambda: required_tree_size(B, -1), ValueError,
     "dimension -1 out of range [0, 2]"),
    ("required_tree_size 3", lambda: required_tree_size(B, 3), ValueError,
     "dimension 3 out of range [0, 2]"),
    ("required_tree_size 4", lambda: required_tree_size(B, 4), ValueError,
     "dimension 4 out of range [0, 2]"),
    # an unknown face is an input error, not a failed tree check
    ("unknown tree face", lambda: reduced_laplacian(B, 1, [(1, 2), (1, 9)]), ValueError,
     "(1, 9) is not a 1-face of the complex"),
    ("fire", lambda: fire(B, 1, [0, 0, 0], (1, 2)), ValueError,
     "configuration has length 3, expected 9"),
    ("extend_to_conservative", lambda: extend_to_conservative(B, 1, TREE, [0]), ValueError,
     "theta has length 1, expected 5"),
    ("to_group_element", lambda: to_group_element(B, 1, TREE, [0]), ValueError,
     "expected a configuration of length 9 or 5"),
    # a value that int() would truncate is refused, not rounded toward zero
    ("configuration non-integral", lambda: is_conservative(B, 1, [0.5] + [0] * 8), ValueError,
     "non-integral value 0.5"),
    ("theta non-integral", lambda: extend_to_conservative(B, 1, TREE, [0, 0.5, 0, 0, 0]),
     ValueError, "non-integral value 0.5"),
    ("to_group_element non-integral", lambda: to_group_element(B, 1, TREE, [0.9] + [0] * 4),
     ValueError, "non-integral value 0.9"),
    ("ChipState non-integral", lambda: ChipState(cycle(4), 1, (2.5, 0, 0)), ValueError,
     "non-integral value 2.5"),
    ("make_face non-integral", lambda: make_face([1.5, 2]), ValueError, "non-integral value 1.5"),
    ("IntMatrix non-integral", lambda: IntMatrix(2, 2, [[1.5, 0], [0, 2.9]]), ValueError,
     "non-integral value 1.5"),
    ("IntMatrix.diagonal non-integral", lambda: IntMatrix.diagonal([2, 0.5]), ValueError,
     "non-integral value 0.5"),
    ("lattice_membership non-integral",
     lambda: lattice_membership(IntMatrix.diagonal([2]), [2.5]), ValueError,
     "non-integral value 2.5"),
    ("GroupElement +", lambda: GroupElement((2,), (1,)) + GroupElement((3,), (1,)), ValueError,
     "group elements live in different groups"),
    ("ChipState +", lambda: ChipState(C5, 5, (0,) * 4) + ChipState(C5, 4, (0,) * 4), ValueError,
     "chip states live on different games"),
    ("complete_graph", lambda: complete_graph(1), ValueError,
     "a complete graph needs at least 2 vertices"),
    ("simplex_skeleton n", lambda: simplex_skeleton(0, 0), ValueError, "need at least one vertex"),
    ("simplex_skeleton k", lambda: simplex_skeleton(3, 3), ValueError,
     "skeleton dimension must lie in [0, 2]"),
    ("sphere", lambda: sphere(-1), ValueError, "sphere dimension must be nonnegative"),
    ("from_spec empty", lambda: from_spec(""), ValueError, "empty generator spec"),
    ("from_spec non-integer", lambda: from_spec("cycle x"), ValueError,
     "non-integer parameter in generator spec 'cycle x'"),
    ("IntMatrix.apply", lambda: IntMatrix(2, 2).apply([1]), ValueError,
     "vector length does not match column count"),
    ("IntMatrix *", lambda: IntMatrix(2, 3) * IntMatrix(2, 3), ValueError,
     "incompatible shapes for matrix product"),
    ("char_poly", lambda: char_poly(IntMatrix(2, 3)), ValueError,
     "characteristic polynomial of a non-square matrix"),
]


@pytest.mark.parametrize("call,exc_type,message", [row[1:] for row in ERRORS],
                         ids=[row[0] for row in ERRORS])
def test_input_errors_raise_one_plain_error(call, exc_type, message):
    with pytest.raises(exc_type, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is exc_type


def test_integral_values_of_any_type_are_taken_as_ints():
    assert make_face([2.0, 1]) == (1, 2)
    assert fire(C5, 0, (4.0, 0, 0, 0, 0), (1.0,)) == (2, 1, 0, 0, 1)
    assert extend_to_conservative(B, 1, TREE, [1.0, 0, 0, 0, 0]) == \
        extend_to_conservative(B, 1, TREE, [1, 0, 0, 0, 0])
    chips = ChipState(cycle(4), 1, (2.0, 0, 0)).chips
    assert chips == (2, 0, 0) and all(type(c) is int for c in chips)
    m = IntMatrix(2, 2, [[2.0, 0], [0, 3]])
    assert m.data == [[2, 0], [0, 3]] and all(type(x) is int for row in m.data for x in row)
    assert IntMatrix.diagonal([2.0]).data == [[2]]
    assert lattice_membership(IntMatrix.diagonal([2]), [4.0]) == [2]
