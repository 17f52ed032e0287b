"""End-to-end command line tests: one JSON report, documented exit codes."""

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations

import pytest

import weakcross
from weakcross import Family, elements_from_mask, kernels, serialize_family
from weakcross.cli import build_parser, main
from oracles import planted_matching_blocks


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured


def write_fam(path, n, k, sets):
    path.write_text(serialize_family(Family.from_sets(n, k, sets)))
    return str(path)


@pytest.fixture
def star_pair(tmp_path):
    left = write_fam(tmp_path / "left.fam", 6, 2,
                     [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6)])
    right = write_fam(tmp_path / "right.fam", 6, 3,
                      [(1, 2, 3), (1, 2, 4), (1, 5, 6)])
    return left, right


def test_verify_cross_satisfied(star_pair, capsys):
    left, right = star_pair
    code, report, _ = run_cli(capsys, "verify-cross", "--left", left,
                              "--right", right, "--ell", "2", "--t", "1")
    assert code == 0
    assert report["command"] == "verify-cross"
    assert report["schema"] == 1
    assert report["result"]["verdict"] == "satisfied"
    assert report["result"]["witness"] is None
    for side, path in (("left", left), ("right", right)):
        with open(path, "rb") as fh:
            want = hashlib.sha256(fh.read()).hexdigest()
        assert report["inputs"][side]["sha256"] == want
    assert report["inputs"]["ell"] == 2


# A tall pair with entries in {0, 1, 2} and many ties (|F| = 14 > |F'| = 7),
# and a sparse wide pair.
TALL = (6, 3, 2,
        [(1, 2, 5), (1, 2, 6), (1, 3, 6), (1, 5, 6), (2, 3, 4), (2, 3, 5), (2, 3, 6),
         (2, 4, 5), (2, 4, 6), (2, 5, 6), (3, 4, 5), (3, 4, 6), (3, 5, 6), (4, 5, 6)],
        [(1, 3), (2, 3), (2, 6), (3, 4), (3, 5), (4, 5), (5, 6)])
SPARSE = (18, 3, 4,
          [(1, 2, 18), (1, 4, 7), (1, 6, 8), (2, 9, 18), (2, 12, 17), (2, 14, 18),
           (3, 4, 18), (4, 5, 8), (5, 9, 12), (7, 8, 9)],
          [(1, 2, 5, 8), (1, 3, 4, 11), (1, 4, 5, 12), (1, 5, 11, 14), (1, 5, 11, 16),
           (1, 6, 7, 18), (2, 3, 9, 18), (2, 4, 8, 17), (2, 9, 13, 15), (3, 5, 8, 12),
           (3, 5, 8, 15), (4, 5, 13, 16), (4, 6, 8, 18), (5, 8, 13, 15), (5, 11, 14, 17),
           (9, 10, 11, 17)])


@pytest.mark.parametrize("pair,ell,min_sum,rows,cols", [
    (TALL, 2, 1, [1, 5], [2, 3]),
    (TALL, 3, 3, [5, 8, 11], [0, 2, 3]),
    (SPARSE, 2, 0, [0, 1], [7, 11]),
    (SPARSE, 3, 0, [0, 1, 2], [7, 11, 15]),
])
def test_verify_cross_pinned_results(tmp_path, capsys, pair, ell, min_sum, rows, cols):
    # The lex-least minimal grid, pinned; the report's inputs embed the
    # temporary paths, so only its result is compared.
    n, k, kprime, left_sets, right_sets = pair
    left = write_fam(tmp_path / "l.fam", n, k, left_sets)
    right = write_fam(tmp_path / "r.fam", n, kprime, right_sets)
    code, report, _ = run_cli(capsys, "verify-cross", "--left", left,
                              "--right", right, "--ell", str(ell), "--t", "1")
    assert code == 1
    assert report["result"] == {
        "verdict": "violated",
        "min_sum": min_sum,
        "threshold": ell * ell - ell + 1,
        "witness": {"rows": rows, "cols": cols},
    }


def test_verify_cross_violated_exit_code(tmp_path, capsys):
    left = write_fam(tmp_path / "l.fam", 4, 2, [(1, 2)])
    right = write_fam(tmp_path / "r.fam", 4, 2, [(3, 4)])
    code, report, _ = run_cli(capsys, "verify-cross", "--left", left,
                              "--right", right, "--ell", "1", "--t", "1")
    assert code == 1
    assert report["result"]["verdict"] == "violated"
    assert report["result"]["witness"] == {"rows": [0], "cols": [0]}


def test_verify_cross_vacuous_exit_code(tmp_path, capsys):
    left = write_fam(tmp_path / "l.fam", 4, 2, [(1, 2)])
    right = write_fam(tmp_path / "r.fam", 4, 2, [(3, 4)])
    code, report, _ = run_cli(capsys, "verify-cross", "--left", left,
                              "--right", right, "--ell", "2", "--t", "1")
    assert code == 2
    assert report["result"]["verdict"] == "vacuous"


def test_verify_cross_ground_mismatch_is_usage_error(tmp_path, capsys):
    left = write_fam(tmp_path / "l.fam", 4, 2, [(1, 2)])
    right = write_fam(tmp_path / "r.fam", 5, 2, [(3, 4)])
    code, _, captured = run_cli(capsys, "verify-cross", "--left", left,
                                "--right", right, "--ell", "1", "--t", "1")
    assert code == 64
    assert "error" in captured.err


def test_verify_single_exit_codes(tmp_path, capsys):
    good = write_fam(tmp_path / "g.fam", 6, 2, [(1, 2), (1, 3), (1, 4)])
    code, report, _ = run_cli(capsys, "verify-single", "--family", good,
                              "--ell", "3")
    assert code == 0 and report["result"]["verdict"] == "satisfied"

    bad = write_fam(tmp_path / "b.fam", 6, 2, [(1, 2), (3, 4), (5, 6)])
    code, report, _ = run_cli(capsys, "verify-single", "--family", bad,
                              "--ell", "3")
    assert code == 1
    assert report["result"]["witness"] == {"indices": [0, 1, 2]}

    code, report, _ = run_cli(capsys, "verify-single", "--family", good,
                              "--ell", "1")
    assert code == 2


def test_construct_star_roundtrip(tmp_path, capsys):
    out = tmp_path / "star.fam"
    code, report, _ = run_cli(capsys, "construct", "--kind", "star",
                              "--n", "6", "--k", "3", "--t", "2",
                              "--out", str(out))
    assert code == 0
    assert report["result"]["size"] == 4
    assert report["result"]["closed_form"] == "4"
    from weakcross import parse_family
    family = parse_family(out.read_text())
    assert all(elements_from_mask(m)[:2] == (1, 2) for m in family.masks)


def test_construct_star_explicit_core(tmp_path, capsys):
    out = tmp_path / "star.fam"
    code, report, _ = run_cli(capsys, "construct", "--kind", "star",
                              "--n", "5", "--k", "2", "--t", "1",
                              "--core", "3", "--out", str(out))
    assert code == 0
    assert report["inputs"]["core"] == [3]
    from weakcross import parse_family
    family = parse_family(out.read_text())
    assert [elements_from_mask(m) for m in family.masks] == [(1, 3), (2, 3), (3, 4), (3, 5)]


def test_construct_star_core_size_mismatch(tmp_path, capsys):
    code, _, captured = run_cli(capsys, "construct", "--kind", "star",
                                "--n", "5", "--k", "2", "--t", "2",
                                "--core", "3", "--out", str(tmp_path / "x.fam"))
    assert code == 64
    assert "does not have t = 2" in captured.err


def test_construct_tight_pair(tmp_path, capsys):
    prefix = str(tmp_path / "tight")
    code, report, _ = run_cli(capsys, "construct", "--kind", "tight-pair",
                              "--n", "12", "--k", "3", "--kprime", "3",
                              "--t", "2", "--out", prefix)
    assert code == 0
    assert report["inputs"]["core"] == [1, 2]
    assert report["inputs"]["extra"] == [1, 3, 4]
    assert report["result"]["product"] == "110"
    assert report["result"]["closed_form_product"] == "110"
    from weakcross import parse_family
    left = parse_family((tmp_path / "tight.left.fam").read_text())
    right = parse_family((tmp_path / "tight.right.fam").read_text())
    assert (len(left), len(right)) == (10, 11)


@pytest.mark.parametrize("ell", ["0", "-3"])
def test_construct_tight_pair_rejects_ell_below_one(tmp_path, capsys, ell):
    code, report, captured = run_cli(
        capsys, "construct", "--kind", "tight-pair", "--n", "12", "--k", "3",
        "--kprime", "3", "--t", "2", "--ell", ell, "--out", str(tmp_path / "tight"))
    assert (code, report, captured.out) == (64, None, "")
    assert captured.err == f"error: ell must be at least 1, got {ell}\n"
    assert list(tmp_path.iterdir()) == []


def test_construct_sunflower_and_covering(tmp_path, capsys):
    out = tmp_path / "flower.fam"
    code, report, _ = run_cli(capsys, "construct", "--kind", "sunflower",
                              "--n", "9", "--k", "3", "--t", "1",
                              "--petals", "4", "--out", str(out))
    assert code == 0 and report["result"]["size"] == 4

    out = tmp_path / "cov.fam"
    code, report, _ = run_cli(capsys, "construct", "--kind", "covering",
                              "--n", "7", "--k", "2", "--ell", "3",
                              "--out", str(out))
    assert code == 0
    assert report["result"]["size"] == 11
    assert report["result"]["closed_form"] == "11"


def test_construct_random_is_reproducible(tmp_path, capsys):
    out_a, out_b = tmp_path / "a.fam", tmp_path / "b.fam"
    for out in (out_a, out_b):
        code, _, _ = run_cli(capsys, "construct", "--kind", "random",
                             "--n", "8", "--k", "3", "--size", "6",
                             "--seed", "7", "--out", str(out))
        assert code == 0
    assert out_a.read_text() == out_b.read_text()


# Each kind's options besides --n, in the order its usage error names them.
CONSTRUCT_NEEDS = {
    "star": {"--k": "3", "--t": "2"},
    "tight-pair": {"--k": "3", "--kprime": "3", "--t": "2"},
    "sunflower": {"--k": "3", "--t": "1", "--petals": "4"},
    "covering": {"--k": "2", "--ell": "3"},
    "random": {"--k": "3", "--size": "6", "--seed": "7"},
}


@pytest.mark.parametrize("kind,missing", [
    (kind, opt) for kind, needs in CONSTRUCT_NEEDS.items() for opt in needs])
def test_construct_missing_option(tmp_path, capsys, kind, missing):
    argv = ["construct", "--kind", kind, "--n", "12", "--out", str(tmp_path / "x")]
    for opt, value in CONSTRUCT_NEEDS[kind].items():
        if opt != missing:
            argv += [opt, value]
    code, report, captured = run_cli(capsys, *argv)
    assert (code, report) == (64, None)
    assert captured.err == (
        f"error: {kind} needs --n, {', '.join(CONSTRUCT_NEEDS[kind])}\n")
    assert list(tmp_path.iterdir()) == []


def test_construct_kind_and_core_errors(tmp_path, capsys):
    out = str(tmp_path / "x")
    assert run_cli(capsys, "construct", "--kind", "nope", "--n", "6",
                   "--out", out)[0] == 64
    code, report, captured = run_cli(
        capsys, "construct", "--kind", "tight-pair", "--n", "9", "--k", "3",
        "--kprime", "3", "--t", "2", "--core", "1,2", "--out", out)
    assert (code, report) == (64, None)
    assert captured.err == "error: an explicit --core also needs --extra\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,inputs,result", [
    (("--kind", "star", "--n", "6", "--k", "3", "--t", "2"),
     {"kind": "star", "n": 6, "k": 3, "t": 2, "core": [1, 2]},
     {"out": "OUT", "size": 4, "closed_form": "4"}),
    (("--kind", "star", "--n", "5", "--k", "2", "--t", "1", "--core", "3"),
     {"kind": "star", "n": 5, "k": 2, "t": 1, "core": [3]},
     {"out": "OUT", "size": 4, "closed_form": "4"}),
    (("--kind", "tight-pair", "--n", "12", "--k", "3", "--kprime", "3",
      "--t", "2", "--ell", "2"),
     {"kind": "tight-pair", "n": 12, "k": 3, "kprime": 3, "t": 2,
      "core": [1, 2], "extra": [1, 3, 4], "ell": 2},
     {"left_out": "OUT.left.fam", "right_out": "OUT.right.fam",
      "left_size": 10, "right_size": 11, "product": "110",
      "closed_form_product": "110"}),
    (("--kind", "tight-pair", "--n", "9", "--k", "3", "--kprime", "3",
      "--t", "2", "--core", "1,2", "--extra", "2,5,6"),
     {"kind": "tight-pair", "n": 9, "k": 3, "kprime": 3, "t": 2,
      "core": [1, 2], "extra": [2, 5, 6]},
     {"left_out": "OUT.left.fam", "right_out": "OUT.right.fam",
      "left_size": 7, "right_size": 8, "product": "56",
      "closed_form_product": "56"}),
    (("--kind", "sunflower", "--n", "9", "--k", "3", "--t", "1",
      "--petals", "4"),
     {"kind": "sunflower", "n": 9, "k": 3, "t": 1, "petals": 4},
     {"out": "OUT", "size": 4}),
    (("--kind", "covering", "--n", "7", "--k", "2", "--ell", "3"),
     {"kind": "covering", "n": 7, "k": 2, "ell": 3},
     {"out": "OUT", "size": 11, "closed_form": "11"}),
    (("--kind", "random", "--n", "8", "--k", "3", "--size", "6",
      "--seed", "7"),
     {"kind": "random", "n": 8, "k": 3, "size": 6, "seed": 7},
     {"out": "OUT", "size": 6}),
])
def test_construct_pinned_reports(tmp_path, capsys, argv, inputs, result):
    out = str(tmp_path / "c")
    code, report, captured = run_cli(capsys, "construct", *argv, "--out", out)
    assert (code, captured.err) == (0, "")
    got = json.loads(json.dumps(report).replace(out, "OUT"))
    assert got["inputs"] == inputs
    assert got["result"] == result


def test_sunflower_command(tmp_path, capsys):
    fam = write_fam(tmp_path / "f.fam", 5, 3, [(1, 2, 3), (1, 2, 4), (1, 2, 5)])
    code, report, _ = run_cli(capsys, "sunflower", "--family", fam,
                              "--t", "2", "--petals", "3")
    assert code == 0
    assert report["result"]["found"] is True
    assert report["result"]["sunflower"] == {
        "kernel": [1, 2], "members": [0, 1, 2], "petals": 3}

    code, report, _ = run_cli(capsys, "sunflower", "--family", fam,
                              "--t", "2", "--petals", "4")
    assert code == 0
    assert report["result"] == {"found": False, "sunflower": None}


def test_matching_command(tmp_path, capsys):
    fam = write_fam(tmp_path / "f.fam", 6, 2, [(1, 2), (3, 4), (5, 6), (1, 3)])
    code, report, _ = run_cli(capsys, "matching", "--family", fam)
    assert code == 0
    assert report["result"]["nu"] == 3
    # Canonical order is (1,2), (1,3), (3,4), (5,6).
    assert report["result"]["certificate"] == [0, 2, 3]


def test_matching_command_deep_family(tmp_path, capsys):
    fam = write_fam(tmp_path / "f.fam", 40, 3, planted_matching_blocks(31))
    code, report, _ = run_cli(capsys, "matching", "--family", fam)
    assert code == 0
    assert report["result"]["nu"] == 13
    assert len(report["result"]["certificate"]) == 13


# With ell = |F| = 1,100 there is one ell-subset, but its enumeration is
# 1,100 rows deep, far past Python's recursion limit.  Summing |A & B|
# over all ordered pairs of blocks, the diagonal included, counts each
# element once per pair of blocks holding it: the sum of squared degrees.
DEEP = list(combinations(range(1, 21), 3))[:1100]
DEEP_GRID_SUM = sum(d * d for d in Counter(e for b in DEEP for e in b).values())


def test_verify_single_deep_ell(tmp_path, capsys):
    fam = write_fam(tmp_path / "f.fam", 20, 3, DEEP)
    code, report, _ = run_cli(capsys, "verify-single", "--family", fam,
                              "--ell", "1100")
    assert code == 1
    assert report["result"]["min_sum"] == (DEEP_GRID_SUM - 3 * 1100) // 2
    assert report["result"]["witness"] == {"indices": list(range(1100))}


@pytest.mark.parametrize("disjoint_pair", [False, True], ids=["satisfied", "violated"])
def test_verify_single_1200_blocks_matches_pair_minimum(tmp_path, capsys, disjoint_pair):
    # 1,200 7-subsets of [14], one of each complementary pair drawn, so
    # any two meet; the violated case swaps the last for the complement
    # of another, leaving exactly one disjoint pair.  The expected report
    # is worked out here, from the test's own masks in ascending order
    # (the family's canonical order) and a minimum over all pairs.
    rng = random.Random(1200)
    full = set(range(1, 15))
    halves = rng.sample([c for c in combinations(range(1, 15), 7) if 1 in c], 1200)
    blocks = [c if rng.random() < 0.5 else tuple(sorted(full - set(c))) for c in halves]
    if disjoint_pair:
        blocks[-1] = tuple(sorted(full - set(blocks[700])))
    fam = tmp_path / "f.fam"
    fam.write_text("14 7\n" + "".join(" ".join(map(str, b)) + "\n" for b in blocks))
    masks = sorted(sum(1 << (e - 1) for e in b) for b in blocks)
    want = min(min(((a & b).bit_count(), i, j) for j, b in enumerate(masks[i + 1:], i + 1))
               for i, a in enumerate(masks[:-1]))
    code, report, _ = run_cli(capsys, "verify-single", "--family", str(fam), "--ell", "2")
    assert report["result"]["min_sum"] == want[0] == (0 if disjoint_pair else 1)
    if disjoint_pair:
        assert code == 1
        assert report["result"]["witness"] == {"indices": [want[1], want[2]]}
    else:
        assert code == 0 and report["result"]["verdict"] == "satisfied"


def test_verify_cross_deep_ell(tmp_path, capsys):
    fam = write_fam(tmp_path / "f.fam", 20, 3, DEEP)
    code, report, _ = run_cli(capsys, "verify-cross", "--left", fam,
                              "--right", fam, "--ell", "1100", "--t", "1")
    assert code == 1
    assert report["result"]["min_sum"] == DEEP_GRID_SUM
    assert report["result"]["witness"] == {"rows": list(range(1100)),
                                           "cols": list(range(1100))}


def test_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    def overflow(masks):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(kernels, "max_disjoint", overflow)
    fam = write_fam(tmp_path / "f.fam", 6, 2, [(1, 2), (3, 4)])
    code, report, captured = run_cli(capsys, "matching", "--family", fam)
    assert code == 70
    assert report is None
    assert captured.err == "internal error: RecursionError: maximum recursion depth exceeded\n"


def test_erdos_command(capsys):
    code, report, _ = run_cli(capsys, "erdos", "--n", "10", "--k", "2",
                              "--ell", "2")
    assert code == 0
    assert report["result"]["bound"] == "9"
    assert "max_size" not in report["result"]


def test_erdos_exhaustive(capsys):
    code, report, _ = run_cli(capsys, "erdos", "--n", "5", "--k", "2",
                              "--ell", "2", "--exhaustive")
    assert code == 0
    assert report["result"]["bound"] == "4"
    assert report["result"]["max_size"] == 4
    assert report["result"]["matches_bound"] is True
    assert len(report["result"]["witness"]) == 4


def test_erdos_exhaustive_guard(capsys):
    code, _, captured = run_cli(capsys, "erdos", "--n", "8", "--k", "2",
                                "--ell", "2", "--exhaustive")
    assert code == 64
    assert "force" in captured.err

    code, report, _ = run_cli(capsys, "erdos", "--n", "8", "--k", "2",
                              "--ell", "2", "--exhaustive", "--force")
    assert code == 0
    assert report["result"]["max_size"] == 7


def test_search_command(tmp_path, capsys):
    prefix = str(tmp_path / "best")
    code, report, _ = run_cli(capsys, "search", "--n", "4", "--k", "2",
                              "--kprime", "2", "--ell", "1", "--t", "1",
                              "--out", prefix)
    assert code == 0
    assert report["result"]["best_product"] == "9"
    assert report["result"]["exhaustive"] is True
    from weakcross import parse_family
    left = parse_family((tmp_path / "best.left.fam").read_text())
    right = parse_family((tmp_path / "best.right.fam").read_text())
    assert len(left) * len(right) == 9


def test_search_budget_exit_code(capsys):
    code, report, _ = run_cli(capsys, "search", "--n", "5", "--k", "2",
                              "--kprime", "2", "--ell", "1", "--t", "1",
                              "--budget", "5")
    assert code == 3
    assert report["result"]["exhaustive"] is False
    assert report["inputs"]["budget"] == 5


def test_search_guard_is_usage_error(capsys):
    code, _, captured = run_cli(capsys, "search", "--n", "7", "--k", "3",
                                "--kprime", "3", "--ell", "1", "--t", "1")
    assert code == 64
    assert "budget" in captured.err


def test_refute_command(tmp_path, capsys):
    left = write_fam(tmp_path / "l.fam", 4, 2, [(1, 2), (1, 3), (1, 4)])
    right = write_fam(tmp_path / "r.fam", 4, 2, [(2, 3)])
    code, report, _ = run_cli(capsys, "refute", "--left", left,
                              "--right", right, "--ell", "1", "--t", "1")
    assert code == 0
    assert report["inputs"]["petals"] == 3
    assert report["result"]["kernel"] == [1]
    assert report["result"]["witness"] == {"rows": [2], "cols": [0], "sum": 0}


def test_refute_without_sunflower_is_usage_error(tmp_path, capsys):
    left = write_fam(tmp_path / "l.fam", 4, 2, [(1, 2), (3, 4)])
    right = write_fam(tmp_path / "r.fam", 4, 2, [(2, 3)])
    code, _, captured = run_cli(capsys, "refute", "--left", left,
                                "--right", right, "--ell", "1", "--t", "1")
    assert code == 64
    assert "no sunflower" in captured.err


def test_cover_command(star_pair, capsys):
    left, right = star_pair
    code, report, _ = run_cli(capsys, "cover", "--left", left,
                              "--right", right, "--t", "1",
                              "--indices", "0,1")
    assert code == 0
    assert report["result"]["exceptional"] == []
    assert report["result"]["left_indices"] == [0, 1]
    covered = set()
    for part in report["result"]["parts"]:
        covered.update(part["members"])
    assert covered == {0, 1, 2}


def test_cover_bad_indices(star_pair, capsys):
    left, right = star_pair
    code, _, captured = run_cli(capsys, "cover", "--left", left,
                                "--right", right, "--t", "1",
                                "--indices", "0,0")
    assert code == 64 and "distinct" in captured.err
    code, _, captured = run_cli(capsys, "cover", "--left", left,
                                "--right", right, "--t", "1",
                                "--indices", "zero")
    assert code == 64 and "comma-separated" in captured.err


@pytest.mark.parametrize("argv,message", [
    pytest.param(
        ("verify-cross", "--left", "{left}", "--right", "{right}", "--ell", "0", "--t", "1"),
        "ell must be at least 1, got 0", id="verify-cross-ell-0"),
    pytest.param(
        ("verify-single", "--family", "{left}", "--ell", "0"),
        "ell must be at least 1, got 0", id="verify-single-ell-0"),
    pytest.param(
        ("construct", "--kind", "covering", "--n", "6", "--k", "2", "--ell", "0",
         "--out", "{out}"),
        "ell must be at least 1, got 0", id="construct-covering-ell-0"),
    pytest.param(
        ("sunflower", "--family", "{left}", "--t", "0", "--petals", "2"),
        "kernel size must satisfy 1 <= t < k = 2, got 0 (members of a k-uniform "
        "family cannot intersect in k points without being equal)", id="sunflower-t-0"),
    pytest.param(
        ("erdos", "--n", "5", "--k", "9", "--ell", "2"),
        "need 1 <= k <= n, got k=9, n=5", id="erdos-k-above-n"),
    pytest.param(
        ("search", "--n", "4", "--k", "2", "--kprime", "2", "--ell", "1", "--t", "1",
         "--budget", "0", "--out", "{out}"),
        "node budget must be positive", id="search-budget-0"),
    pytest.param(
        ("refute", "--left", "{left}", "--right", "{right}", "--ell", "1", "--t", "1",
         "--petals", "0"),
        "petal count must be at least 1, got 0", id="refute-petals-0"),
    pytest.param(
        ("cover", "--left", "{left}", "--right", "{right}", "--t", "1", "--indices", "0,0"),
        "left indices must be distinct", id="cover-repeated-index"),
    # A ground mismatch with a second error: the first check still wins.
    pytest.param(
        ("verify-cross", "--left", "{left}", "--right", "{wide}", "--ell", "0", "--t", "1"),
        "ell must be at least 1, got 0", id="verify-cross-ground-mismatch-ell-0"),
    pytest.param(
        ("refute", "--left", "{left}", "--right", "{wide}", "--ell", "0", "--t", "1"),
        "ell must be at least 1, got 0", id="refute-ground-mismatch-ell-0"),
    pytest.param(
        ("cover", "--left", "{left}", "--right", "{wide}", "--t", "1", "--indices", "x"),
        "expected comma-separated integers, got 'x'", id="cover-ground-mismatch-bad-indices"),
    # Star and tight-pair cores: the empty core is reported before the
    # extra block's elements and before the default extra block's size.
    pytest.param(
        ("construct", "--kind", "star", "--n", "5", "--k", "2", "--t", "0", "--out", "{out}"),
        "a block must be nonempty", id="construct-star-empty-core"),
    pytest.param(
        ("construct", "--kind", "star", "--n", "5", "--k", "2", "--t", "2", "--core", "2,2",
         "--out", "{out}"),
        "repeated element 2", id="construct-star-repeated-core-element"),
    pytest.param(
        ("construct", "--kind", "tight-pair", "--n", "8", "--k", "2", "--kprime", "3",
         "--t", "0", "--extra", "1,9", "--out", "{out}"),
        "a block must be nonempty", id="construct-tight-pair-empty-core-with-extra"),
    pytest.param(
        ("construct", "--kind", "tight-pair", "--n", "4", "--k", "2", "--kprime", "4",
         "--t", "0", "--out", "{out}"),
        "a block must be nonempty", id="construct-tight-pair-empty-core-default-extra"),
    pytest.param(
        ("construct", "--kind", "tight-pair", "--n", "8", "--k", "2", "--kprime", "3",
         "--t", "2", "--core", "1,2", "--extra", "3,4,5", "--out", "{out}"),
        "extra block meets the core in 0 elements, need 1",
        id="construct-tight-pair-extra-misses-core"),
    # Element lists take ASCII integers only, as .fam files do.
    pytest.param(
        ("construct", "--kind", "star", "--n", "12", "--k", "3", "--t", "1", "--core", "1_0",
         "--out", "{out}"),
        "expected comma-separated integers, got '1_0'", id="construct-star-underscore-in-core"),
    pytest.param(
        ("construct", "--kind", "tight-pair", "--n", "8", "--k", "2", "--kprime", "3",
         "--t", "1", "--core", "1", "--extra", "1,２", "--out", "{out}"),
        "expected comma-separated integers, got '1,２'",
        id="construct-tight-pair-non-ascii-extra"),
    pytest.param(
        ("cover", "--left", "{left}", "--right", "{right}", "--t", "1", "--indices", "0, 1"),
        "expected comma-separated integers, got '0, 1'", id="cover-space-in-indices"),
    # A core and extra block that fit each other but not --t.
    pytest.param(
        ("construct", "--kind", "tight-pair", "--n", "12", "--k", "3", "--kprime", "3",
         "--t", "2", "--core", "1", "--extra", "2,3,4", "--out", "{out}"),
        "core does not have t = 2 elements", id="construct-tight-pair-core-not-t"),
    # An empty option value is read, not taken for an absent option.
    pytest.param(
        ("construct", "--kind", "star", "--n", "6", "--k", "3", "--t", "2", "--core", "",
         "--out", "{out}"),
        "expected comma-separated integers, got ''", id="construct-star-empty-core-value"),
    pytest.param(
        ("construct", "--kind", "tight-pair", "--n", "8", "--k", "2", "--kprime", "3",
         "--t", "1", "--core", "", "--extra", "1,2,3", "--out", "{out}"),
        "expected comma-separated integers, got ''", id="construct-tight-pair-empty-core-value"),
    pytest.param(
        ("construct", "--kind", "tight-pair", "--n", "8", "--k", "2", "--kprime", "3",
         "--t", "1", "--extra", "", "--out", "{out}"),
        "expected comma-separated integers, got ''", id="construct-tight-pair-empty-extra-value"),
    pytest.param(
        ("construct", "--kind", "tight-pair", "--n", "12", "--k", "3", "--kprime", "3",
         "--t", "2", "--out", ""),
        "--out needs a nonempty prefix", id="construct-tight-pair-empty-out"),
    pytest.param(
        ("search", "--n", "4", "--k", "2", "--kprime", "2", "--ell", "1", "--t", "1",
         "--out", ""),
        "--out needs a nonempty prefix", id="search-empty-out"),
    # A default tight pair whose core is larger than its right blocks.
    pytest.param(
        ("construct", "--kind", "tight-pair", "--n", "5", "--k", "2", "--kprime", "0",
         "--t", "1", "--out", "{out}"),
        "core size 1 exceeds a block size", id="construct-tight-pair-kprime-0"),
])
def test_library_errors_are_usage_errors(tmp_path, star_pair, capsys, argv, message):
    # A ValueError raised by the library is a usage error in every command:
    # exit 64, one line on stderr, nothing on stdout and no file written.
    left, right = star_pair
    wide = write_fam(tmp_path / "wide.fam", 7, 3, [(1, 2, 3)])
    before = sorted(os.listdir(tmp_path))
    paths = {"left": left, "right": right, "wide": wide, "out": str(tmp_path / "out")}
    argv = [arg.format(**paths) for arg in argv]
    code, report, captured = run_cli(capsys, *argv, "--json", str(tmp_path / "r.json"))
    assert (code, report, captured.out) == (64, None, "")
    assert captured.err == f"error: {message}\n"
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("argv", [
    ("erdos", "--n", "６", "--k", "2", "--ell", "2"),
    ("erdos", "--n", "6", "--k", "2", "--ell", "1_0"),
    ("erdos", "--n", " 6", "--k", "2", "--ell", "2"),
    ("search", "--n", "4", "--k", "2", "--kprime", "2", "--ell", "1", "--t", "1",
     "--budget", "1_000"),
    ("construct", "--kind", "random", "--n", "6", "--k", "2", "--size", "3",
     "--seed", "٣", "--out", "unwritten.fam"),
])
def test_integer_options_take_ascii_digits_only(capsys, argv):
    # An integer option takes an optional sign and ASCII digits, the .fam
    # parser's rule; int() alone would also read 1_0 as 10, non-ASCII
    # digits and padded ones.
    code, report, captured = run_cli(capsys, *argv)
    assert (code, report, captured.out) == (64, None, "")
    assert "invalid integer value" in captured.err
    code, report, _ = run_cli(capsys, "erdos", "--n", "+6", "--k", "2", "--ell", "2")
    assert (code, report["inputs"]["n"]) == (0, 6)


def test_json_flag_copies_stdout(tmp_path, star_pair, capsys):
    left, right = star_pair
    copy = tmp_path / "report.json"
    code, _, captured = run_cli(capsys, "verify-cross", "--left", left,
                                "--right", right, "--ell", "1", "--t", "1",
                                "--json", str(copy))
    assert code == 0
    assert copy.read_text() == captured.out


@pytest.mark.parametrize("argv", [
    ("matching", "--family", "{fam}"),
    ("search", "--n", "4", "--k", "2", "--kprime", "2", "--ell", "1", "--t", "1",
     "--out", "{out}"),
], ids=["matching", "search"])
def test_empty_json_path_is_a_usage_error(tmp_path, capsys, argv):
    # An empty --json path is a path that cannot be written, not an
    # absent --json: exit 64, and no family file left behind.
    fam = write_fam(tmp_path / "f.fam", 6, 2, [(1, 2), (3, 4)])
    argv = [arg.format(fam=fam, out=tmp_path / "out") for arg in argv]
    code, report, captured = run_cli(capsys, *argv, "--json", "")
    assert (code, report, captured.out) == (64, None, "")
    assert captured.err.startswith("error: cannot write : ")
    assert captured.err.count("\n") == 1
    assert os.listdir(tmp_path) == ["f.fam"]


def test_json_write_failure_leaves_stdout_empty(tmp_path, capsys):
    fam = write_fam(tmp_path / "f.fam", 6, 2, [(1, 2), (3, 4)])
    target = tmp_path / "missing" / "x.json"
    code, report, captured = run_cli(capsys, "matching", "--family", fam,
                                     "--json", str(target))
    assert (code, report, captured.out) == (64, None, "")
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert not target.parent.exists()


@pytest.mark.parametrize("argv", [
    ("construct", "--kind", "random", "--n", "6", "--k", "2", "--size", "3",
     "--seed", "1", "--out", "{prefix}"),
    ("construct", "--kind", "tight-pair", "--n", "12", "--k", "3", "--kprime", "3",
     "--t", "2", "--out", "{prefix}"),
    ("search", "--n", "4", "--k", "2", "--kprime", "2", "--ell", "1", "--t", "1",
     "--out", "{prefix}"),
], ids=["construct", "tight-pair", "search"])
def test_json_write_failure_leaves_no_family_file(tmp_path, capsys, argv):
    # A command writes all of its files or none: the families written
    # before the --json copy failed are removed again.
    target = tmp_path / "missing" / "x.json"
    argv = [arg.format(prefix=tmp_path / "out") for arg in argv]
    code, report, captured = run_cli(capsys, *argv, "--json", str(target))
    assert (code, report, captured.out) == (64, None, "")
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_family_write_failure_removes_the_other_family(tmp_path, capsys):
    # The right file's path is a directory: the left file, already
    # written, is removed, and the --json copy is never written.
    blocked = tmp_path / "out.right.fam"
    blocked.mkdir()
    code, report, captured = run_cli(
        capsys, "search", "--n", "4", "--k", "2", "--kprime", "2", "--ell", "1",
        "--t", "1", "--out", str(tmp_path / "out"), "--json", str(tmp_path / "r.json"))
    assert (code, report, captured.out) == (64, None, "")
    assert captured.err.startswith(f"error: cannot write {blocked}: ")
    assert list(tmp_path.iterdir()) == [blocked]


def test_reports_are_deterministic(star_pair, capsys):
    left, right = star_pair
    argv = ["verify-cross", "--left", left, "--right", right,
            "--ell", "2", "--t", "1"]
    _, _, first = run_cli(capsys, *argv)
    _, _, second = run_cli(capsys, *argv)
    assert first.out == second.out


# The families the golden verify commands read, written to the working
# directory under these names so each report echoes a fixed relative path.
GOLDEN_FAMILIES = {
    # Any two 6-sets of [10] share at least 2 points.
    "dense.fam": (10, 6, list(combinations(range(1, 11), 6))[::5][:40]),
    # All 2-sets of [7]: many ell-subsets tie at the minimum.
    "pairs.fam": (7, 2, list(combinations(range(1, 8), 2))),
    "tall.left.fam": (TALL[0], TALL[1], TALL[3]),
    "tall.right.fam": (TALL[0], TALL[2], TALL[4]),
    "sparse.left.fam": (SPARSE[0], SPARSE[1], SPARSE[3]),
    "sparse.right.fam": (SPARSE[0], SPARSE[2], SPARSE[4]),
    # Stars through {1, 2}: every entry is at least t = 2.
    "star.left.fam": (8, 4, [c for c in combinations(range(1, 9), 4) if {1, 2} <= set(c)]),
    "star.right.fam": (8, 5, [c for c in combinations(range(1, 9), 5) if {1, 2} <= set(c)]),
}


@pytest.mark.parametrize("argv,code,digest", [
    (("search", "--n", "6", "--k", "2", "--kprime", "2", "--ell", "1",
      "--t", "1"),
     0, "3c34d0c75d3254957d670540216516dd955d08b2bf301472861d1f1e8263e3cb"),
    (("erdos", "--n", "6", "--k", "3", "--ell", "2", "--exhaustive"),
     0, "2eaf43f23951f8c7245c3179fd89591bea315380a45d559a555e530db71babb7"),
    (("erdos", "--n", "6", "--k", "2", "--ell", "3", "--exhaustive"),
     0, "b60f03cad98049b9a4b47e6126f49c7a832a9b2109bf4dc68ad5ab738e63655f"),
    (("erdos", "--n", "7", "--k", "3", "--ell", "2", "--exhaustive", "--force"),
     0, "47c51a82d3e595626e82b5628de476d228abd5bf4a149ec8ff5554246dd726c3"),
    (("search", "--n", "5", "--k", "2", "--kprime", "3", "--ell", "2",
      "--t", "1"),
     0, "ccd74a7956c91cc9fabaa70540c75a4cf80d93234f79ce8a3b8ba5e4b7ec0a5f"),
    (("search", "--n", "6", "--k", "2", "--kprime", "2", "--ell", "2",
      "--t", "1", "--budget", "8000"),
     0, "9422ae19ce90a39dca67e87752a58d82477c49af38eb2751273c611e873cc474"),
    (("search", "--n", "7", "--k", "3", "--kprime", "3", "--ell", "1",
      "--t", "1", "--budget", "200000"),
     0, "56f1ab73d5c7e4c5e2ca8664704f7baeb923c1dad771b1047865506d6527fdf7"),
    (("search", "--n", "6", "--k", "3", "--kprime", "3", "--ell", "2",
      "--t", "1", "--budget", "20000"),
     3, "a038a459bd3cce70f60d0a9b5fc6eca3efd23a84b47268aa40756de059c0801f"),
    (("verify-single", "--family", "dense.fam", "--ell", "3"),
     0, "95a03389638adf2f36543462780b6fdf735929c3efb7c8b8062431e8c552727d"),
    (("verify-single", "--family", "pairs.fam", "--ell", "4"),
     1, "fce89d64f9f90f26b24157ac4f0eb998f0fa527d3899819eb09e6b0513433de9"),
    (("verify-cross", "--left", "sparse.left.fam", "--right", "sparse.right.fam",
      "--ell", "2", "--t", "1"),
     1, "f0760b3f6566a4233243e1a5753b065759c9d114b36f4b49a724b18d5082d23e"),
    (("verify-cross", "--left", "tall.left.fam", "--right", "tall.right.fam",
      "--ell", "1", "--t", "1"),
     1, "bfa2e4daa85fb79d6ce097702bbd027e9c9c23ce6f1a5bc9249338ecf1e25e09"),
    (("verify-cross", "--left", "star.left.fam", "--right", "star.right.fam",
      "--ell", "2", "--t", "2"),
     0, "2c7b22a2643bfa3f59ca17c07f8d25dcf6567c80077fa359bd2197816e13b62f"),
    (("search", "--n", "5", "--k", "2", "--kprime", "3", "--ell", "3", "--t", "1"),
     0, "6cafd2f474933dbcba48896eab0cc67cd1b0f219ad44ac2a3173d93f9e6f7d95"),
    (("construct", "--kind", "star", "--n", "8", "--k", "3", "--t", "2", "--core", "3,5",
      "--out", "star.fam"),
     0, "71ce38181701268ef3142c6b212d0a7f471375588888cc3bad0e1aaddd1584f7"),
    (("construct", "--kind", "tight-pair", "--n", "12", "--k", "3", "--kprime", "3",
      "--t", "2", "--out", "tight"),
     0, "a5549a48dd396726d742a60f36a2b571bf9b44088c55512dac0533ed59094902"),
    (("construct", "--kind", "sunflower", "--n", "9", "--k", "3", "--t", "1",
      "--petals", "4", "--out", "sf.fam"),
     0, "7b6a55670f80d6d69bf2cffddc1a0874d7f6d1d455aaac502f7c0eeba10fe4e3"),
    (("construct", "--kind", "covering", "--n", "7", "--k", "2", "--ell", "3",
      "--out", "cov.fam"),
     0, "97aaeb841c67898c192b91b8f2a1321dcf95f04a5c80f7100b445216f105abe2"),
    (("construct", "--kind", "random", "--n", "8", "--k", "3", "--size", "6",
      "--seed", "7", "--out", "rnd.fam"),
     0, "21c04ee029c7609a7225e6d094fdb556d3a5ab6fc1d3dd14eb7e19d608c159e3"),
    (("construct", "--kind", "random", "--n", "20", "--k", "10", "--size", "6",
      "--seed", "7", "--out", "rnd.fam"),
     0, "d172c27e09aceb2b82404da3c6153b64ef007b215a97f1278af9df6f5d9cff7b"),
    (("sunflower", "--family", "pairs.fam", "--t", "1", "--petals", "3"),
     0, "6fcfa7daf4570cc59742e29b398aaa6b1df54727cd6c271d77cd96199be53a7b"),
    (("sunflower", "--family", "dense.fam", "--t", "2", "--petals", "3"),
     0, "245b38a98c64f8f152deddcd6bb289fccda5acc71a2c607cbf4495e633225e80"),
    (("matching", "--family", "pairs.fam"),
     0, "08013e95af0470a0ed0de052b5c06008810c954e671a56f863456b9513048944"),
    (("refute", "--left", "pairs.fam", "--right", "pairs.fam", "--ell", "2", "--t", "1"),
     0, "67910e3995141eb0a09e0645dd5920e5f3de6af4b7443be019d61ac9ae67f3e7"),
    (("cover", "--left", "star.left.fam", "--right", "star.right.fam", "--t", "2",
      "--indices", "0,1"),
     0, "9bab4ad2e513f43d370dc259dd191184113a571b061ac2bc5b7701d6087bb269"),
], ids=["search-6-2-2-1-1", "erdos-6-3-2-exhaustive", "erdos-6-2-3-exhaustive",
        "erdos-7-3-2-exhaustive-force", "search-5-2-3-2-1", "search-6-2-2-2-1-budget-8000",
        "search-7-3-3-1-1-budget-200000", "search-6-3-3-2-1-budget-20000",
        "verify-single-dense-ell-3", "verify-single-pairs-ell-4-violated",
        "verify-cross-sparse-ell-2-violated", "verify-cross-tall-ell-1-violated",
        "verify-cross-star-ell-2-satisfied", "search-5-2-3-3-1",
        "construct-star-explicit-core", "construct-tight-pair-default-core",
        "construct-sunflower", "construct-covering", "construct-random-8-3-sampled",
        "construct-random-20-10-drawn", "sunflower-pairs-t-1-found",
        "sunflower-dense-t-2-not-found", "matching-pairs", "refute-pairs-ell-2",
        "cover-star-t-2"])
def test_golden_reports(argv, code, digest, tmp_path, monkeypatch, capsys):
    # SHA-256 of the exact stdout: pins the report bytes, not just
    # run-to-run agreement, for exhaustive ell = 1 searches (one within a
    # budget, past the guard at n = 7), an exhaustive branch and bound at
    # ell = 2 (past the guard at n = 7) and ell = 3, exhaustive ell = 2
    # and ell = 3 searches (one within a budget), a budgeted search at
    # ell = 2 (exit 3), node counts included, every construction (random
    # on both sampling paths), and the verify, sunflower, matching,
    # refute and cover commands on fixed families (witnesses included),
    # run from the directory holding them so the echoed paths are fixed.
    # The digest goes on over the bytes of every file the command writes,
    # in name order.  The ids name the command, so a re-pinned digest
    # keeps its test's name.
    monkeypatch.chdir(tmp_path)
    for name, (n, k, sets) in GOLDEN_FAMILIES.items():
        write_fam(tmp_path / name, n, k, sets)
    got, _, captured = run_cli(capsys, *argv)
    assert got == code
    hashed = hashlib.sha256(captured.out.encode())
    for path in sorted(tmp_path.iterdir()):
        if path.name not in GOLDEN_FAMILIES:
            hashed.update(path.read_bytes())
    assert hashed.hexdigest() == digest


def test_stdout_is_exactly_one_json_document(star_pair, capsys):
    left, right = star_pair
    _, report, captured = run_cli(capsys, "verify-cross", "--left", left,
                                  "--right", right, "--ell", "1", "--t", "1")
    assert captured.out == json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_usage_errors(tmp_path, capsys):
    assert run_cli(capsys, )[0] == 64
    assert run_cli(capsys, "no-such-command")[0] == 64
    assert run_cli(capsys, "matching", "--family",
                   str(tmp_path / "missing.fam"))[0] == 64
    bad = tmp_path / "bad.fam"
    bad.write_text("not a family\n")
    code, _, captured = run_cli(capsys, "matching", "--family", str(bad))
    assert code == 64
    assert "line" in captured.err
    code, _, captured = run_cli(capsys, "matching", "--family", str(bad),
                                "--threads", "0")
    assert code == 64


def test_non_utf8_family_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.fam"
    bad.write_bytes(b"4 2\n1 2\n\xff3 4\n")
    code, report, captured = run_cli(capsys, "matching", "--family", str(bad))
    assert (code, report) == (64, None)
    assert captured.err == f"error: {bad}: line 3: byte 0xff is not valid UTF-8\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit):
        # argparse handles --version before main() can normalise it.
        build_parser().parse_args(["--version"])
    assert main(["--version"]) == 0
    capsys.readouterr()


def test_calls_in_one_process_stay_independent(capsys):
    # A usage error, a valid call and --version in turn must each give
    # what they give in a process of their own, also should main() ever
    # reuse its parser across calls.
    calls = [["erdos", "--n", "6", "--k"], ["erdos", "--n", "6", "--k", "3", "--ell", "2"],
             ["--version"]]
    src = os.path.dirname(os.path.dirname(weakcross.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for argv in calls:
        code = main(argv)
        captured = capsys.readouterr()
        alone = subprocess.run([sys.executable, "-m", "weakcross", *argv],
                               capture_output=True, text=True,
                               env=dict(os.environ, PYTHONPATH=path))
        assert (code, captured.out, captured.err) == (
            alone.returncode, alone.stdout, alone.stderr)
    assert [main(argv) for argv in calls] == [64, 0, 0]
    capsys.readouterr()


def test_module_entry_point(tmp_path):
    fam = tmp_path / "f.fam"
    fam.write_text(serialize_family(Family.from_sets(4, 2, [(1, 2), (3, 4)])))
    src = os.path.dirname(os.path.dirname(weakcross.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "weakcross", "matching", "--family", str(fam)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["result"]["nu"] == 2
