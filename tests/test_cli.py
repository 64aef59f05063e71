import argparse
import errno
import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from test_acceptance import RP2_FACETS, linial_meshulam

from simpcrit import cli, generators, trees
from simpcrit.cli import main
from simpcrit.trees import find_torsion_free_tree


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    return code, json.loads(out), err


# ---- generators and info ------------------------------------------------------

def test_info_bipyramid(capsys):
    code, rep, _ = run_json(capsys, "--gen", "bipyramid", "info")
    assert code == 0
    assert rep["command"] == "info"
    assert rep["result"]["f_vector"] == [1, 5, 9, 7]
    assert rep["result"]["pure"] and rep["result"]["apc"]
    assert rep["result"]["homology"]["2"] == {"betti": 2, "torsion": []}


def test_gen_kinds(capsys):
    code, rep, _ = run_json(capsys, "--gen", "sphere 2", "info")
    assert code == 0 and rep["result"]["f_vector"] == [1, 4, 6, 4]
    code, rep, _ = run_json(capsys, "--gen", "simplex-skeleton 6 2", "info")
    assert code == 0 and rep["result"]["f_vector"][3] == 20
    code, rep, _ = run_json(capsys, "--gen", "complete 4", "info")
    assert code == 0 and rep["result"]["f_vector"] == [1, 4, 6]
    code, rep, _ = run_json(capsys, "--gen", "moore 3", "info")
    assert code == 0 and rep["result"]["f_vector"] == [1, 13, 39, 27]
    assert rep["result"]["homology"]["1"] == {"betti": 0, "torsion": ["3"]}


def test_gen_help_names_every_kind():
    # whitespace is dropped on both sides, since argparse wraps the help
    kinds = generators.from_spec.__doc__.split("Kinds:")[1].split(".")[0].split("|")
    help_text = "".join(cli.build_parser().format_help().split())
    assert len(kinds) == 6
    for kind in kinds:
        assert "".join(kind.split()) in help_text, kind


def test_gen_bad_params(capsys):
    code, _, err = run_cli(capsys, "--gen", "cycle 2", "info")
    assert code == 2 and "cycle" in err
    code, _, err = run_cli(capsys, "--gen", "dodecahedron", "info")
    assert code == 2


def test_facet_file_input(tmp_path, capsys):
    path = tmp_path / "complex.txt"
    path.write_text("# the triangle boundary\n\n1 2\n1 3\n2 3\n")
    code, rep, _ = run_json(capsys, "--facets", str(path), "info")
    assert code == 0
    assert rep["result"]["f_vector"] == [1, 3, 3]


def test_facet_file_errors(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1 two 3\n")
    code, _, err = run_cli(capsys, "--facets", str(path), "info")
    assert code == 2 and "integer" in err
    code, _, err = run_cli(capsys, "--facets", str(tmp_path / "missing.txt"), "info")
    assert code == 2


def test_no_source_is_an_input_error(capsys):
    code, _, err = run_cli(capsys, "info")
    assert code == 2


C5 = ("--gen", "cycle 5")
# RP^2 plus a tetrahedron: every 2-tree contains RP^2, so none is torsion-free
RP2_TETRA_FACETS = RP2_FACETS + [(5, 6, 7, 8)]
# RP^2 coned from 7 plus a disjoint solid tetrahedron: not APC, but 2-trees exist
CONE_TETRA_FACETS = RP2_FACETS + [(4, 5, 7), (4, 6, 7), (5, 6, 7), (20, 21, 22, 23)]

# (argv, the one stderr line); run in a directory holding bad.txt and
# two_edges.txt
INPUT_ERRORS = [
    (("--gen", "bipyramid", "--facets", "x.txt", "info"),
     "give either --gen or --facets, not both"),
    (("--gen", "", "--facets", "x.txt", "info"), "give either --gen or --facets, not both"),
    (("--gen", "", "info"), "empty generator spec"),
    (("--facets", "", "info"),
     f"cannot read facet file: [Errno 2] {os.strerror(errno.ENOENT)}: ''"),
    (("info",), "no complex given: use --gen SPEC or --facets FILE"),
    (("--facets", "missing.txt", "info"),
     f"cannot read facet file: [Errno 2] {os.strerror(errno.ENOENT)}: 'missing.txt'"),
    (("--facets", "bad.txt", "info"), "bad.txt:1: not an integer list: '1 two 3'"),
    (("--facets", "empty.txt", "info"), "empty.txt: no facets found"),
    (("--gen", "cycle 2", "info"), "a cycle needs at least 3 vertices"),
    (("--gen", "moore 1", "info"), "a Moore space needs m >= 2"),
    (("--gen", "dodecahedron", "info"), "unrecognized generator spec 'dodecahedron'"),
    (("--gen", "cycle", "info"), "unrecognized generator spec 'cycle'"),
    (("--gen", "cycle 5 6", "info"), "unrecognized generator spec 'cycle 5 6'"),
    (("--gen", "bipyramid 3", "info"), "unrecognized generator spec 'bipyramid 3'"),
    (("--gen", "simplex-skeleton 6", "info"), "unrecognized generator spec 'simplex-skeleton 6'"),
    (("--gen", "cycle x", "info"), "non-integer parameter in generator spec 'cycle x'"),
    (("--gen", "sphere -1", "info"), "sphere dimension must be nonnegative"),
    (("--gen", "bipyramid", "critical-group", "--dim", "2"),
     "--dim 2 out of range [0, 1] for this complex"),
    (("--gen", "bipyramid", "verify", "smtt", "--dim", "0"),
     "--dim must be at least 1 for the matrix-tree identities"),
    (("--gen", "simplex-skeleton 3 0", "verify", "sphere"),
     "sphere check needs dimension at least 1"),
    (("--gen", "bipyramid", "flow", "fire", "--dim", "1", "--config", "1,x", "--face", "2 3"),
     "--config must be a list of integers, got '1,x'"),
    (C5 + ("chip", "stabilize", "--bank", "9", "--chips", "1,0,0,0"),
     "bank vertex 9 is not in the graph"),
    (C5 + ("chip", "group-law", "--bank", "9"), "bank vertex 9 is not in the graph"),
    (("--facets", "two_edges.txt", "chip", "stabilize", "--bank", "1", "--chips", "0,0,0"),
     "the 1-skeleton is disconnected"),
    (C5 + ("chip", "stabilize", "--bank", "5", "--chips", "1,0,0"),
     "expected 4 chip counts, got 3"),
    (C5 + ("chip", "stabilize", "--bank", "5", "--chips", "1,-1,0,0"),
     "chip counts must be nonnegative"),
    (C5 + ("chip", "recurrent", "--bank", "5", "--chips", "5,0,0,0"),
     "recurrence is decided on stable states"),
    (C5 + ("chip", "group-law", "--bank", "5", "--chips", "1,0,0,0"),
     "group-law needs both --chips and --chips2, or neither"),
    (("--gen", "simplex-skeleton 3 0", "chip", "stabilize", "--bank", "1", "--chips", "0,0"),
     "chip-firing needs a complex with edges"),
    (("--gen", "simplex-skeleton 3 0", "chip", "group-law", "--bank", "1"),
     "chip-firing needs a complex with edges"),
    (C5 + ("chip", "group-law", "--bank", "5", "--samples", "0"),
     "--samples must be at least 1, got 0"),
    (C5 + ("chip", "group-law", "--bank", "5", "--samples", "-2"),
     "--samples must be at least 1, got -2"),
    (("--gen", "bipyramid", "verify", "main-thm", "--dim", "1", "--trees", "0"),
     "--trees must be at least 1, got 0"),
    (("--gen", "bipyramid", "trees", "--dim", "2", "--budget", "-1"),
     "--budget must be at least 0, got -1"),
    (("--gen", "bipyramid", "verify", "smtt", "--dim", "2", "--budget", "-1"),
     "--budget must be at least 0, got -1"),
    (("verify", "simplex", "--n", "100000", "--k", "0"), "need 1 <= k <= n - 2"),
    # verify simplex builds its own complex: a given one is refused, not dropped
    (("--facets", "missing.txt", "verify", "simplex", "--n", "5", "--k", "2", "--json"),
     "verify simplex builds its own complex; give no --gen or --facets"),
    (("--gen", "bipyramid", "verify", "simplex", "--n", "5", "--k", "2"),
     "verify simplex builds its own complex; give no --gen or --facets"),
    (("verify", "simplex", "--n", "9999999999999999999999", "--k", "1"),
     "Python int too large to convert to C ssize_t"),
    (("--gen", "complete 9999999999999999999999", "info"),
     "Python int too large to convert to C ssize_t"),
]


@pytest.mark.parametrize("argv,message", INPUT_ERRORS, ids=[" ".join(a) for a, _ in INPUT_ERRORS])
def test_input_errors_exit_2_with_one_line(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.txt").write_text("1 two 3\n")
    (tmp_path / "empty.txt").write_text("# comments and blank lines only\n\n")
    (tmp_path / "two_edges.txt").write_text("1 2\n3 4\n")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


NO_TREE = "no torsion-free spanning tree exists in this dimension"
# (argv, the one stderr line); run in a directory holding rp2_tetra.txt
HYPOTHESIS_ERRORS = [
    # K_1 of a 5-cycle is Z: residues need a finite critical group
    (C5 + ("flow", "canonical", "--dim", "1", "--config", "1,0,0,0,0"),
     "critical group has a free part; residues are not canonical"),
    (("--facets", "rp2_tetra.txt", "flow", "canonical", "--dim", "2", "--config", "1"), NO_TREE),
    (("--facets", "rp2_tetra.txt", "verify", "main-thm", "--dim", "2"), NO_TREE),
]


@pytest.mark.parametrize(
    "argv,message", HYPOTHESIS_ERRORS, ids=[" ".join(a) for a, _ in HYPOTHESIS_ERRORS])
def test_hypothesis_errors_exit_3_with_one_line(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rp2_tetra.txt").write_text(
        "".join(" ".join(map(str, f)) + "\n" for f in RP2_TETRA_FACETS))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (3, "", f"hypothesis violation: {message}\n")


# ---- critical-group ---------------------------------------------------------------

def test_critical_group_bipyramid(capsys):
    code, rep, _ = run_json(capsys, "--gen", "bipyramid", "critical-group", "--dim", "1")
    assert code == 0
    assert rep["result"]["invariant_factors"] == ["15"]
    assert rep["result"]["order"] == "15"
    assert rep["result"]["route"] == "reduced"
    assert rep["result"]["tree"] == [[1, 2], [1, 3], [1, 4], [1, 5]]


def test_critical_group_with_tree_file(tmp_path, capsys):
    tree = tmp_path / "tree.txt"
    tree.write_text("1 2\n1 3\n1 4\n2 5\n")
    code, rep, _ = run_json(
        capsys, "--gen", "bipyramid", "critical-group", "--dim", "1", "--tree", str(tree))
    assert code == 0
    assert rep["result"]["invariant_factors"] == ["15"]


def test_critical_group_bad_tree_exits_3(tmp_path, capsys):
    tree = tmp_path / "tree.txt"
    tree.write_text("1 2\n1 3\n1 4\n2 3\n")  # contains a cycle
    code, _, err = run_cli(
        capsys, "--gen", "bipyramid", "critical-group", "--dim", "1", "--tree", str(tree))
    assert code == 3
    assert err == f"hypothesis violation: {tree}: the listed faces are not a spanning tree\n"


def test_tree_file_is_checked_once(tmp_path, capsys, monkeypatch):
    calls = []
    original = trees.invariant_factors

    def counted(a):
        calls.append((a.rows, a.cols))
        return original(a)

    monkeypatch.setattr(trees, "invariant_factors", counted)
    tree = tmp_path / "tree.txt"
    tree.write_text("1 2\n1 3\n1 4\n2 5\n")
    for argv in (("critical-group", "--dim", "1"),
                 ("flow", "canonical", "--dim", "1", "--config", "1,2,3,0,0,0,0,0,5"),
                 ("flow", "extend", "--dim", "1", "--theta", "1,0,-2,0,3")):
        del calls[:]
        code, _, _ = run_cli(capsys, "--gen", "bipyramid", *argv, "--tree", str(tree))
        assert code == 0
        # one Smith form of the tree's 5 x 4 boundary columns
        assert calls == [(5, 4)], argv


def test_tree_file_with_a_bad_face_exits_2(tmp_path, capsys):
    tree = tmp_path / "tree.txt"
    base = ("--gen", "bipyramid", "critical-group", "--dim", "1", "--tree", str(tree))
    for text, message in (("1 2\n1 3\n1 9\n2 5\n", "(1, 9) is not a 1-face of the complex"),
                          ("1 2\n1 1\n", "duplicate vertex 1 in face [1, 1]"),
                          ("1 2\n0 3\n", "vertex labels must be positive integers")):
        tree.write_text(text)
        assert run_cli(capsys, *base) == (2, "", f"error: {message}\n")


def test_critical_group_budget_fallback_names_the_budget(tmp_path, capsys, monkeypatch):
    # every tree has torsion, so the search for a torsion-free one walks them all
    path = tmp_path / "rp2_tetra.txt"
    path.write_text("".join(" ".join(map(str, f)) + "\n" for f in RP2_TETRA_FACETS))
    base = ("--facets", str(path), "critical-group", "--dim", "2")
    code, rep, _ = run_json(capsys, *base)
    assert code == 0 and rep["result"]["route"] == "direct"
    assert rep["warnings"] == ["no torsion-free tree found; used the direct route"]
    monkeypatch.setattr(
        cli, "find_torsion_free_tree", lambda comp, i: find_torsion_free_tree(comp, i, budget=1))
    code, rep, _ = run_json(capsys, *base)
    assert code == 0 and rep["result"]["route"] == "direct"
    assert len(rep["warnings"]) == 1
    assert "budget" in rep["warnings"][0] and "no torsion-free" not in rep["warnings"][0]


def test_critical_group_dim_range(capsys):
    code, _, err = run_cli(capsys, "--gen", "bipyramid", "critical-group", "--dim", "2")
    assert code == 2


# ---- trees ---------------------------------------------------------------------------

def test_trees_census(capsys):
    code, rep, _ = run_json(capsys, "--gen", "bipyramid", "trees", "--dim", "2", "--census")
    assert code == 0
    assert rep["result"]["count"] == 15
    assert rep["result"]["tau"] == "15"
    assert rep["result"]["torsion_histogram"] == {"1": 15}


def test_trees_stream(capsys):
    code, rep, _ = run_json(
        capsys, "--gen", "sphere 2", "trees", "--dim", "2", "--stream")
    assert code == 0
    assert len(rep["result"]["trees"]) == 4


def test_trees_budget_exit_code(capsys):
    code, rep, _ = run_json(
        capsys, "--gen", "bipyramid", "trees", "--dim", "2", "--budget", "10")
    assert code == 4
    assert rep["result"]["complete"] is False
    assert rep["warnings"]


# ---- verify --------------------------------------------------------------------------

def test_verify_smtt_pass(capsys):
    code, rep, _ = run_json(capsys, "--gen", "bipyramid", "verify", "smtt", "--dim", "2")
    assert code == 0
    assert rep["result"]["verdict"] == "PASS"
    assert rep["result"]["tau"] == "15"
    assert rep["result"]["tree_used"]


def test_verify_smtt_partial_census_exits_4(capsys):
    # a partial tau_2, and a partial tau_1 of 0, are budget exits, never
    # a FAIL verdict or an input error
    for spec, budget in (("simplex-skeleton 6 2", "1000"), ("bipyramid", "2")):
        code, out, err = run_cli(
            capsys, "--gen", spec, "verify", "smtt", "--dim", "2", "--budget", budget, "--json")
        assert code == 4
        assert "budget" in err
        assert "verdict" not in out


def test_verify_smtt_outside_apc_is_a_hypothesis_violation(tmp_path, capsys):
    path = tmp_path / "edges.txt"
    path.write_text("1 2\n3 4\n")
    code, out, err = run_cli(capsys, "--facets", str(path), "verify", "smtt", "--dim", "1")
    assert code == 3
    assert err.startswith("hypothesis violation:") and "acyclic" in err
    assert "FAIL" not in out + err


def test_verify_alt_product_outside_apc_is_a_hypothesis_violation(tmp_path, capsys):
    # RP^2 coned from 7 plus a disjoint tetrahedron: beta~_0 = 1, so its
    # 1- and 2-skeleta are not APC; at dimension 0 only the free part of
    # K_0 fails the identity
    path = tmp_path / "cone_tetra.txt"
    path.write_text("".join(" ".join(map(str, f)) + "\n" for f in CONE_TETRA_FACETS))
    for dim in (1, 2):
        code, out, err = run_cli(capsys, "--facets", str(path), "verify", "alt-product", "--dim", str(dim))
        assert (code, out) == (3, "")
        assert err == (f"hypothesis violation: the {dim}-skeleton is not acyclic in positive "
                       "codimension: the matrix-tree identities do not apply\n")
    code, rep, _ = run_json(capsys, "--facets", str(path), "verify", "alt-product", "--dim", "0")
    assert (code, rep["result"]["verdict"]) == (5, "FAIL")


def test_python_m_simpcrit_runs_from_a_checkout():
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "simpcrit", "--gen", "bipyramid", "verify", "alt-product", "--dim", "1"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "verdict: PASS" in proc.stdout


def test_verify_main_thm(capsys):
    code, rep, _ = run_json(
        capsys, "--gen", "bipyramid", "verify", "main-thm", "--dim", "1", "--trees", "4")
    assert code == 0
    assert rep["result"]["verdict"] == "PASS"
    assert len(rep["result"]["trees"]) == 4


def test_verify_main_thm_budget_exits_4(capsys):
    code, rep, err = run_json(
        capsys, "--gen", "simplex-skeleton 7 2", "verify", "main-thm", "--dim", "1",
        "--budget", "3")
    assert code == 4
    assert "verdict" not in rep["result"] and rep["result"]["complete"] is False
    assert any("budget" in w for w in rep["warnings"])
    assert "hypothesis" not in err


def test_verify_sphere_pass_and_fail(tmp_path, capsys):
    code, rep, _ = run_json(capsys, "--gen", "sphere 2", "verify", "sphere")
    assert code == 0 and rep["result"]["verdict"] == "PASS"
    # the bipyramid is not a pseudomanifold: outside the theorem's
    # hypothesis there is no verdict
    code, out, err = run_cli(capsys, "--gen", "bipyramid", "verify", "sphere", "--json")
    assert (code, out) == (3, "")
    assert err == ("hypothesis violation: complex is not a pseudomanifold; "
                   "the sphere theorem does not apply\n")
    # every ridge of the 2-sphere is in two facets, but an extra edge,
    # dangling or disjoint, makes the complex impure
    for edge in ("4 5", "7 8"):
        path = tmp_path / "sphere_edge.txt"
        path.write_text("1 2 3\n1 2 4\n1 3 4\n2 3 4\n" + edge + "\n")
        code, out, err = run_cli(capsys, "--facets", str(path), "verify", "sphere")
        assert (code, out) == (3, ""), edge
        assert "complex is not a pseudomanifold" in err
    # pure, every ridge in two facets, but not strongly connected: two
    # disjoint 2-spheres, and two disjoint cycles
    for facets in ("1 2 3\n1 2 4\n1 3 4\n2 3 4\n5 6 7\n5 6 8\n5 7 8\n6 7 8\n",
                   "1 2\n2 3\n1 3\n4 5\n5 6\n4 6\n"):
        path = tmp_path / "disjoint.txt"
        path.write_text(facets)
        code, out, err = run_cli(capsys, "--facets", str(path), "verify", "sphere")
        assert (code, out) == (3, ""), facets
        assert "complex is not a pseudomanifold" in err


def test_verify_simplex(capsys):
    code, rep, _ = run_json(capsys, "verify", "simplex", "--n", "5", "--k", "1")
    assert code == 0
    assert rep["result"]["verdict"] == "PASS"
    assert rep["result"]["aat_matches"] == "both"


def test_verify_alt_product(capsys):
    code, rep, _ = run_json(
        capsys, "--gen", "bipyramid", "verify", "alt-product", "--dim", "1")
    assert code == 0
    assert rep["result"]["alternating_product"] == "15"
    assert rep["result"]["verdict"] == "PASS"


# ---- flow ----------------------------------------------------------------------------

def test_flow_fire(capsys):
    code, rep, _ = run_json(
        capsys, "--gen", "bipyramid", "flow", "fire",
        "--dim", "1", "--config", "0,0,0,0,0,0,0,0,0", "--face", "2 3")
    assert code == 0
    res = rep["result"]["result"]
    assert res[4] == -3  # edge 23 in lexicographic position 4


def test_flow_extend_and_canonical(capsys):
    code, rep, _ = run_json(
        capsys, "--gen", "bipyramid", "flow", "extend",
        "--dim", "1", "--theta", "1,0,0,0,0")
    assert code == 0
    assert rep["result"]["conservative"] is True
    code, rep, _ = run_json(
        capsys, "--gen", "bipyramid", "flow", "canonical",
        "--dim", "1", "--config", "1,0,0,0,0")
    assert code == 0
    assert rep["result"]["moduli"] == ["1", "1", "1", "1", "15"]


def test_flow_equiv(capsys):
    code, rep, _ = run_json(
        capsys, "--gen", "bipyramid", "flow", "equiv", "--dim", "1",
        "--config", "0,0,0,0,0,0,0,0,0", "--config2", "0,0,0,0,0,0,0,0,0")
    assert code == 0 and rep["result"]["equivalent"] is True


# ---- chip ----------------------------------------------------------------------------

def test_chip_stabilize(capsys):
    code, rep, _ = run_json(
        capsys, "--gen", "cycle 5", "chip", "stabilize", "--bank", "5",
        "--chips", "2,0,1,0")
    assert code == 0
    assert rep["result"]["stable"] == [0, 1, 1, 0]
    assert rep["result"]["firings"]["1"] == 1


def test_chip_recurrent_and_representative(capsys):
    code, rep, _ = run_json(
        capsys, "--gen", "cycle 4", "chip", "recurrent", "--bank", "4",
        "--chips", "0,0,0")
    assert code == 0 and rep["result"]["recurrent"] is False
    code, rep, _ = run_json(
        capsys, "--gen", "cycle 4", "chip", "representative", "--bank", "4",
        "--chips", "5,0,2")
    assert code == 0
    assert len(rep["result"]["critical"]) == 3


def test_chip_group_law_random(capsys):
    code, rep, _ = run_json(
        capsys, "--gen", "cycle 5", "chip", "group-law", "--bank", "5",
        "--samples", "10", "--seed", "3")
    assert code == 0
    assert rep["result"]["law_holds"] is True
    assert rep["result"]["pairs_checked"] == 10


def test_seed_is_a_flag_of_group_law_alone(capsys):
    # no other command draws random numbers, so none takes --seed
    with pytest.raises(SystemExit) as exc:
        main(["--gen", "bipyramid", "info", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_chip_group_law_explicit_pair(capsys):
    code, rep, _ = run_json(
        capsys, "--gen", "cycle 5", "chip", "group-law", "--bank", "5",
        "--chips", "1,0,1,0", "--chips2", "0,1,0,1")
    assert code == 0 and rep["result"]["law_holds"] is True


# ---- report format --------------------------------------------------------------------

def test_json_round_trip_is_byte_identical(capsys):
    code, out, _ = run_cli(capsys, "--gen", "bipyramid", "info", "--json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_report_has_schema_keys(capsys):
    _, rep, _ = run_json(capsys, "--gen", "cycle 3", "critical-group", "--dim", "0")
    assert set(rep) == {"command", "input", "result", "warnings"}
    assert "digest" in rep["input"] and len(rep["input"]["digest"]) == 64


def test_factors_rendered_as_decimal_strings(capsys):
    _, rep, _ = run_json(capsys, "--gen", "complete 6", "critical-group", "--dim", "0")
    assert rep["result"]["invariant_factors"] == ["6", "6", "6", "6"]
    assert rep["result"]["order"] == "1296"


def test_flags_accepted_before_or_after_subcommand(capsys):
    code1, rep1, _ = run_json(capsys, "--gen", "bipyramid", "info")
    code2, out2, _ = run_cli(capsys, "info", "--gen", "bipyramid", "--json")
    assert code1 == code2 == 0
    assert rep1 == json.loads(out2)


# ---- pinned reports ---------------------------------------------------------------------

BIPYRAMID = ("--gen", "bipyramid")
RP2 = ("--facets", "rp2.txt")  # K_1 = Z/2 + Z/2, H_1 = Z/2
K6 = ("--gen", "complete 6")
LM10 = ("--facets", "lm10.txt")  # K_1 = Z + Z/2 + Z/2 + Z/688015002040
LM14 = ("--facets", "lm14.txt")
RP2_TETRA = ("--facets", "rp2_tetra.txt")
CONE_TETRA = ("--facets", "cone_tetra.txt")
# a solid triangle with a 3-cycle 3-4-5 on its corner: H_1 = Z
TRI_CYCLE = ("--facets", "tri_cycle.txt")


# (argv, exit code, first 16 hex digits of the SHA-256 of the --json stdout)
PINNED_REPORTS = [
    (BIPYRAMID + ("info",), 0, "b8bca8a529253d03"),
    (BIPYRAMID + ("critical-group", "--dim", "1"), 0, "57b1534d773b5453"),
    (BIPYRAMID + ("verify", "main-thm", "--dim", "1"), 0, "6902a5b3ca46571f"),
    (BIPYRAMID + ("verify", "alt-product", "--dim", "1"), 0, "cd95ef6b7f669fb5"),
    (BIPYRAMID + ("flow", "fire", "--dim", "1", "--config", "0,0,0,0,0,0,0,0,0",
                  "--face", "2 3"), 0, "02b342a53e7612d3"),
    (BIPYRAMID + ("flow", "canonical", "--dim", "1", "--config", "1,2,3,0,0,0,0,0,5"),
     0, "8d93e4024a1938e4"),
    (BIPYRAMID + ("flow", "equiv", "--dim", "1", "--config", "1,0,0,0,0,0,0,0,0",
                  "--config2", "0,1,0,0,0,0,0,0,0"), 0, "04414c2eada459dc"),
    (("--gen", "sphere 3", "verify", "sphere"), 0, "1ee769a658b69c5c"),
    (("--gen", "complete 6", "critical-group", "--dim", "0"), 0, "56328eaa5bc87e98"),
    (("verify", "simplex", "--n", "5", "--k", "2"), 0, "d95fd095bccdcfef"),
    (RP2 + ("info",), 0, "43a14333b96829ae"),
    (RP2 + ("critical-group", "--dim", "1"), 0, "e25985b537ab1824"),
    (RP2 + ("verify", "main-thm", "--dim", "1"), 0, "94cb3ca2f674985e"),
    (LM10 + ("info",), 0, "4b52cb3f3f514cfa"),
    (LM10 + ("critical-group", "--dim", "1"), 0, "01f280b1e379f219"),
    (LM10 + ("verify", "main-thm", "--dim", "1"), 0, "b6da5b9a028a6777"),
    (LM14 + ("critical-group", "--dim", "1"), 0, "3d63e5cabda6b720"),
    (LM14 + ("verify", "main-thm", "--dim", "1"), 0, "1be04b5052a43fef"),
    (K6 + ("chip", "stabilize", "--bank", "6", "--chips", "40,0,7,3,12"), 0, "11def4158b7dd4b6"),
    (K6 + ("chip", "representative", "--bank", "6", "--chips", "9,1,0,4,2"), 0, "050e3af45cb38f2b"),
    (K6 + ("chip", "group-law", "--bank", "6", "--samples", "5"), 0, "e848b0db22297b7a"),
    (RP2 + ("flow", "canonical", "--dim", "1",
            "--config", "1,0,2,0,0,-1,0,3,0,0,0,1,0,0,2"), 0, "dcab9c39536a147e"),
    (RP2 + ("flow", "equiv", "--dim", "1", "--config", "1,0,0,0,0,0,0,0,0,0,0,0,0,0,0",
            "--config2", "0,0,0,0,0,0,0,0,0,0,0,0,0,0,1"), 0, "1ec551c2fb0ed8e5"),
    (RP2 + ("flow", "extend", "--dim", "1", "--theta", "1,0,-2,0,3,0,0,1,0,0"), 0, "51eb0d16059c03a8"),
    (BIPYRAMID + ("trees", "--dim", "2", "--stream"), 0, "f3785c123cfb616b"),
    (BIPYRAMID + ("trees", "--dim", "2", "--budget", "10"), 4, "54f4f64192af1d29"),
    (BIPYRAMID + ("verify", "smtt", "--dim", "2"), 0, "0e0a2dbddaea0243"),
    (("--gen", "simplex-skeleton 7 2", "verify", "main-thm", "--dim", "1", "--budget", "3"),
     4, "96c7a4f2717d422f"),
    # the direct-route fallback, with its warning
    (RP2_TETRA + ("critical-group", "--dim", "2"), 0, "01d3cff521e0dddf"),
    (K6 + ("chip", "recurrent", "--bank", "6", "--chips", "4,4,4,4,4"), 0, "fec435e7d9c95bbe"),
    # no torsion-free 2-tree: the determinant takes the first tree, of torsion 2
    (RP2_TETRA + ("verify", "smtt", "--dim", "3"), 0, "13bac49d7df29bab"),
    (RP2 + ("verify", "smtt", "--dim", "2"), 0, "9cb9cd8dbca3bde6"),
    # a tree from a file
    (BIPYRAMID + ("critical-group", "--dim", "1", "--tree", "tree.txt"), 0, "db1e302ae23fb70b"),
    (BIPYRAMID + ("flow", "canonical", "--dim", "1", "--config", "1,2,3,0,0,0,0,0,5",
                  "--tree", "tree.txt"), 0, "9d21c7d0ca81b716"),
    (BIPYRAMID + ("flow", "extend", "--dim", "1", "--theta", "1,0,-2,0,3",
                  "--tree", "tree.txt"), 0, "b0352a9833c97756"),
    # not APC: every tree search answers from beta~_{i-1} alone
    (CONE_TETRA + ("trees", "--dim", "2"), 0, "89708dd5d06944dc"),
    (CONE_TETRA + ("trees", "--dim", "1"), 0, "cfa480898014e269"),
    (CONE_TETRA + ("critical-group", "--dim", "2"), 0, "e574a5456f491be8"),
    (CONE_TETRA + ("verify", "main-thm", "--dim", "2", "--trees", "3"), 0, "0a8499a4ec594601"),
    # H_1 infinite: alternating product 1/3, |K_1| = 1, FAIL and exit 5.  This
    # must stay a FAIL, not a hypothesis violation: bench/worker.py's
    # check_spectra requires exit 5 whenever H_1 is infinite
    (TRI_CYCLE + ("verify", "alt-product", "--dim", "1"), 5, "32b100b58b7397ba"),
]


@pytest.mark.parametrize(
    "argv,exit_code,digest", PINNED_REPORTS, ids=[" ".join(a) for a, _, _ in PINNED_REPORTS])
def test_reports_are_pinned_byte_for_byte(argv, exit_code, digest, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, facets in (("rp2.txt", RP2_FACETS),
                         ("lm10.txt", linial_meshulam(10, 0.5, 1).facets()),
                         ("lm14.txt", linial_meshulam(14, 0.3, 1).facets()),
                         ("rp2_tetra.txt", RP2_TETRA_FACETS),
                         ("cone_tetra.txt", CONE_TETRA_FACETS),
                         ("tri_cycle.txt", [(1, 2, 3), (3, 4), (4, 5), (3, 5)]),
                         ("tree.txt", [(1, 2), (1, 3), (1, 4), (2, 5)])):
        (tmp_path / name).write_text("".join(" ".join(map(str, f)) + "\n" for f in facets))
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_text_report_is_pinned_byte_for_byte(capsys):
    # the text form of a report with a list of dicts under a dict
    code, out, _ = run_cli(capsys, "--gen", "bipyramid", "trees", "--dim", "2", "--stream")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "140e1625d30ea19f"


# ---- seeded fuzz ----------------------------------------------------------------------

# The fuzz's seed and grammar are fixed; a failing vector is a fault to
# mend, not a reason to change either.  Every source has at most 8
# vertices and every budget is at most 10^4, so no vector starts a long
# build.  Most values fit the source (a chain with one entry per face, a
# face, a vertex), so most vectors get past the input checks.
FUZZ_SEED = 20261020
FUZZ_VECTORS = 500
FUZZ_GENS = ["bipyramid", "cycle 3", "cycle 8", "complete 2", "complete 6", "simplex-skeleton 6 2",
             "simplex-skeleton 8 3", "simplex-skeleton 5 0", "sphere 0", "sphere 2", "sphere 6",
             "cycle 2", "moore 1", "sphere -1", "dodecahedron", "", "cycle x", "bipyramid 3",
             "complete 9999999999999999999999"]
FUZZ_FILES = {
    "rp2.txt": "".join(" ".join(map(str, f)) + "\n" for f in RP2_FACETS).encode(),
    "triangle.txt": b"# the triangle boundary\n1 2\n1 3\n2 3\n",
    "cone.txt": "".join(" ".join(map(str, f)) + "\n" for f in CONE_TETRA_FACETS).encode(),
    "latin1.txt": b"1 2 3\n\xff\xfe 4\n",
    "empty.txt": b"",
    "blank.txt": b"# nothing\n\n",
    "dup.txt": b"1 2 2\n2 3\n",
    "zero.txt": b"0 1 2\n1 2 3\n",
    "negative.txt": b"-1 2 3\n2 3 4\n",
    "huge.txt": b"12345678901234567890 2 3\n2 3 4\n98765432109876543210 4\n",
}
FUZZ_JUNK = ["-1", "0", "x", "", "99999999999999999999"]


def fuzz_sources():
    """(argv, complex or None) for every source of the grammar; run where
    the facet files are."""

    def load(gen=None, facets=None):
        try:
            return cli._load_complex(argparse.Namespace(gen=gen, facets=facets))[0]
        except (ValueError, OverflowError):
            return None

    return ([(["--facets", "missing.txt"], None), (["--gen", "bipyramid", "--facets", "triangle.txt"], None)]
            + [(["--gen", g], load(gen=g)) for g in FUZZ_GENS]
            + [(["--facets", f], load(facets=f)) for f in sorted(FUZZ_FILES)])


def fuzz_vector(rng, sources):
    """(command, argv): a source, a subcommand shape and its flags, each
    drawn from the fixed grammar above; some flags are left out, some
    values are junk."""
    good = [s for s in sources if s[1] is not None]
    source, comp = rng.choice(good if rng.random() < 0.75 else sources)
    fits = comp is not None and rng.random() < 0.9
    d = rng.randint(0, comp.dim) if fits else rng.choice([-1, 0, 1, 2, 6])

    def faces():
        return comp.faces(d) if fits and 0 <= d <= comp.dim else ()

    def junk(value):
        return rng.choice(FUZZ_JUNK) if rng.random() < 0.08 else value

    def chain(size=None):
        n = len(faces()) if size is None else size
        n = n if fits and rng.random() < 0.8 else rng.randint(0, 10)
        return junk(",".join(str(rng.randint(0, 3)) for _ in range(n)))

    def theta():
        return chain(comp._cycle_rank(d) if faces() else 0)

    def face():
        fs = faces()
        f = rng.choice(fs) if fs and rng.random() < 0.8 else rng.sample(range(0, 10), rng.randint(0, 3))
        return junk(" ".join(map(str, f)))

    def bank():
        vs = comp.vertices() if fits else ()
        return junk(str(rng.choice(vs))) if vs else rng.choice(FUZZ_JUNK + ["1", "5"])

    def chips():
        return chain(len(comp.vertices()) - 1 if fits else 0)

    def dim():
        return junk(str(d))

    def budget():
        return junk(rng.choice(["0", "1", "10", "100", "10000"]))

    def tree():
        return rng.choice(["auto", "auto", "rp2.txt", "triangle.txt", "missing.txt", "dup.txt"])

    def small(*values):
        return lambda: junk(rng.choice(values))

    D, B, T = ("--dim", dim), ("--budget", budget), ("--tree", tree)
    C, F = ("--config", chain), ("--face", face)
    K, Ch = ("--bank", bank), ("--chips", chips)
    shapes = [
        ("info",), ("critical-group", D, T), ("trees", D, B, ("--census", None), ("--stream", None)),
        ("verify smtt", D, B), ("verify main-thm", D, B, ("--trees", small("1", "3"))),
        ("verify sphere",), ("verify simplex", ("--n", small("3", "5", "8")), ("--k", small("1", "2", "3"))),
        ("verify alt-product", D), ("flow fire", D, C, F), ("flow extend", D, ("--theta", theta), T),
        ("flow equiv", D, C, ("--config2", chain)), ("flow canonical", D, C, T),
        ("chip stabilize", K, Ch), ("chip recurrent", K, Ch), ("chip representative", K, Ch),
        ("chip group-law", K, ("--chips", chips), ("--chips2", chips), ("--samples", small("1", "3")),
         ("--seed", small("0", "7"))),
    ]
    required = {"--dim", "--n", "--k", "--bank", "--config", "--config2", "--theta", "--face"}
    shape = rng.choice(shapes)
    flags = []
    for flag, value in shape[1:]:
        if flag == "--budget":
            odds = 1  # the default budget is far above 10^4
        elif value is None:
            odds = 0.3
        elif flag in required or flag == "--chips" and shape[0] != "chip group-law":
            odds = 0.97
        else:
            odds = 0.5
        if rng.random() < odds:
            flags += [flag] if value is None else [flag, value()]
    if rng.random() < 0.5:
        flags.append("--json")
    if rng.random() < 0.03:
        flags += [rng.choice(["--bogus", "--seed", "--gen"]), "1"]
    if shape[0] == "verify simplex" and rng.random() < 0.7:
        source = []
    head, tail = (source, []) if rng.random() < 0.7 else ([], source)
    return shape[0], head + shape[0].split() + flags + tail


def test_seeded_cli_fuzz_exits_with_a_known_code(tmp_path, monkeypatch, capsys):
    # each vector ends in 0, 2 (argparse's SystemExit(2) included), 3, 4
    # or 5, and no exception escapes cli.main
    monkeypatch.chdir(tmp_path)
    for name, data in FUZZ_FILES.items():
        (tmp_path / name).write_bytes(data)
    sources = fuzz_sources()
    rng = random.Random(FUZZ_SEED)
    seen = Counter()
    for _ in range(FUZZ_VECTORS):
        command, argv = fuzz_vector(rng, sources)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # name the vector that raised
            pytest.fail(f"{argv} raised {exc!r}")
        capsys.readouterr()
        assert code in (0, 2, 3, 4, 5), (argv, code)
        if command == "verify simplex" and ("--gen" in argv or "--facets" in argv):
            assert code == 2, argv
        seen[code] += 1
    # the vectors reach results, hypothesis violations and budget cuts,
    # not only input errors: a quarter or more get a full answer
    assert {0, 2, 3, 4} <= set(seen) and seen[0] >= FUZZ_VECTORS // 4, seen
