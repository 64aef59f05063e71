import hashlib
import json
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from test_acceptance import RP2_FACETS

from simpcrit import cli
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


def test_critical_group_budget_fallback_names_the_budget(tmp_path, capsys, monkeypatch):
    # RP^2 plus a tetrahedron: every 2-tree contains RP^2, so every tree
    # has torsion and the search for a torsion-free one walks them all
    path = tmp_path / "rp2_tetra.txt"
    path.write_text("1 2 3\n1 2 4\n1 3 5\n1 4 6\n1 5 6\n"
                    "2 3 6\n2 4 5\n2 5 6\n3 4 5\n3 4 6\n5 6 7 8\n")
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


def test_verify_sphere_pass_and_fail(capsys):
    code, rep, _ = run_json(capsys, "--gen", "sphere 2", "verify", "sphere")
    assert code == 0 and rep["result"]["verdict"] == "PASS"
    # the bipyramid is not a pseudomanifold, so the sphere law fails there
    code, rep, _ = run_json(capsys, "--gen", "bipyramid", "verify", "sphere")
    assert code == 5
    assert rep["result"]["verdict"] == "FAIL"
    assert rep["result"]["pseudomanifold"] is False
    assert rep["result"]["group_order"] == "15"
    assert rep["result"]["facets"] == 7


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


def lm_facets(n, p, seed):
    """All edges on 1..n, then each triangle in combinations order kept
    when random.Random(seed).random() < p."""
    rng = random.Random(seed)
    tris = [t for t in combinations(range(1, n + 1), 3) if rng.random() < p]
    return list(combinations(range(1, n + 1), 2)) + tris


# first 16 hex digits of the SHA-256 of each command's --json stdout
PINNED_REPORTS = [
    (BIPYRAMID + ("info",), "b8bca8a529253d03"),
    (BIPYRAMID + ("critical-group", "--dim", "1"), "57b1534d773b5453"),
    (BIPYRAMID + ("verify", "main-thm", "--dim", "1"), "6902a5b3ca46571f"),
    (BIPYRAMID + ("verify", "alt-product", "--dim", "1"), "cd95ef6b7f669fb5"),
    (BIPYRAMID + ("flow", "fire", "--dim", "1", "--config", "0,0,0,0,0,0,0,0,0",
                  "--face", "2 3"), "02b342a53e7612d3"),
    (BIPYRAMID + ("flow", "canonical", "--dim", "1", "--config", "1,2,3,0,0,0,0,0,5"),
     "8d93e4024a1938e4"),
    (BIPYRAMID + ("flow", "equiv", "--dim", "1", "--config", "1,0,0,0,0,0,0,0,0",
                  "--config2", "0,1,0,0,0,0,0,0,0"), "04414c2eada459dc"),
    (("--gen", "sphere 3", "verify", "sphere"), "6a54ef4902e83eb4"),
    (("--gen", "complete 6", "critical-group", "--dim", "0"), "56328eaa5bc87e98"),
    (("verify", "simplex", "--n", "5", "--k", "2"), "d95fd095bccdcfef"),
    (RP2 + ("info",), "43a14333b96829ae"),
    (RP2 + ("critical-group", "--dim", "1"), "e25985b537ab1824"),
    (RP2 + ("verify", "main-thm", "--dim", "1"), "94cb3ca2f674985e"),
    (LM10 + ("info",), "4b52cb3f3f514cfa"),
    (LM10 + ("critical-group", "--dim", "1"), "01f280b1e379f219"),
    (LM10 + ("verify", "main-thm", "--dim", "1"), "b6da5b9a028a6777"),
    (LM14 + ("critical-group", "--dim", "1"), "3d63e5cabda6b720"),
    (LM14 + ("verify", "main-thm", "--dim", "1"), "1be04b5052a43fef"),
    (K6 + ("chip", "stabilize", "--bank", "6", "--chips", "40,0,7,3,12"), "11def4158b7dd4b6"),
    (K6 + ("chip", "representative", "--bank", "6", "--chips", "9,1,0,4,2"), "050e3af45cb38f2b"),
    (K6 + ("chip", "group-law", "--bank", "6", "--samples", "5"), "e848b0db22297b7a"),
    (RP2 + ("flow", "canonical", "--dim", "1",
            "--config", "1,0,2,0,0,-1,0,3,0,0,0,1,0,0,2"), "dcab9c39536a147e"),
    (RP2 + ("flow", "equiv", "--dim", "1", "--config", "1,0,0,0,0,0,0,0,0,0,0,0,0,0,0",
            "--config2", "0,0,0,0,0,0,0,0,0,0,0,0,0,0,1"), "1ec551c2fb0ed8e5"),
    (RP2 + ("flow", "extend", "--dim", "1", "--theta", "1,0,-2,0,3,0,0,1,0,0"), "51eb0d16059c03a8"),
]


@pytest.mark.parametrize("argv,digest", PINNED_REPORTS, ids=[" ".join(a) for a, _ in PINNED_REPORTS])
def test_reports_are_pinned_byte_for_byte(argv, digest, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, facets in (("rp2.txt", RP2_FACETS),
                         ("lm10.txt", lm_facets(10, 0.5, 1)),
                         ("lm14.txt", lm_facets(14, 0.3, 1))):
        (tmp_path / name).write_text("".join(" ".join(map(str, f)) + "\n" for f in facets))
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest
