"""Command-line front end: artifacts, exit codes, determinism."""

import json
import os
import subprocess
import sys
from hashlib import sha256
from pathlib import Path

import pytest

import colorreduce
from colorreduce import MULTISET, build_local1, view_to_json
from colorreduce.bounds import random_independent_sets
from colorreduce.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1]) if out else None


def test_bound_subcommand(tmp_path, capsys):
    code, out = run_cli(["bound", "--delta", "1024", "--C", "1", "--eta", "0",
                         "--out", str(tmp_path)], capsys)
    assert code == 0
    assert out["rounds"] == 4
    assert (tmp_path / "bound.json").exists()


def test_build_subcommand(tmp_path, capsys):
    code, out = run_cli(["build", "--family", "nh1", "--m", "3", "--d", "2",
                         "--variant", "multiset", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert out["vertices"] == 18
    data = json.loads((tmp_path / "graph.json").read_text())
    assert len(data["vertices"]) == 18


def test_color_delta1_and_determinism(tmp_path, capsys):
    args = ["color", "--algo", "delta1", "--m", "1000", "--delta", "4",
            "--n", "40", "--seed", "7"]
    code, out = run_cli(args + ["--out", str(tmp_path / "a")], capsys)
    assert code == 0
    assert out["proper"] is True and out["palette"] <= 5
    code2, _ = run_cli(args + ["--out", str(tmp_path / "b")], capsys)
    assert code2 == 0
    for name in ("assignment.json", "instance.json", "palettes.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_color_delta1_accepts_a_palette_past_float_range(tmp_path, capsys):
    code, out = run_cli(["color", "--algo", "delta1", "--m", str(10**400), "--delta", "3",
                         "--n", "200", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert out["proper"] is True and out["palette"] == 4
    colors = json.loads((tmp_path / "assignment.json").read_text())["colors"]
    assert set(colors) <= {1, 2, 3, 4}


def test_kw_too_small_palette_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["color", "--algo", "kw", "--m", "3", "--delta", "4", "--n", "5"])
    assert exc.value.code == 2


def test_missing_instance_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["color", "--algo", "kw", "--m", "9", "--delta", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("algo,m,delta", [("linial1", 1000, 4), ("kw", 20, 3)])
def test_color_linial1_and_kw_succeed(algo, m, delta, tmp_path, capsys):
    code, out = run_cli(["color", "--algo", algo, "--m", str(m), "--delta", str(delta),
                         "--n", "30", "--seed", "3", "--out", str(tmp_path)], capsys)
    assert code == 0 and out["proper"] is True and out["palette"] < m
    assert (tmp_path / "assignment.json").exists()


@pytest.mark.parametrize("args", [
    pytest.param(["color", "--algo", "delta1", "--m", "5", "--delta", "4", "--n", "5"],
                 id="delta1-palette-below-delta-plus-2"),
    pytest.param(["simulate", "--algo", "full-info", "--m", "6", "--delta", "3", "--n", "5"],
                 id="full-info-without-rounds"),
])
def test_coloring_flag_mistakes_are_usage_errors(args, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args + ["--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert not (tmp_path / "run").exists()


def test_graph_file_disagreeing_with_the_flags_is_a_usage_error(tmp_path, capsys):
    from colorreduce import graph_to_json, random_colored_tree
    gpath = tmp_path / "instance.json"
    gpath.write_text(json.dumps(graph_to_json(random_colored_tree(12, 3, 50, seed=4))))
    for m, delta in (("40", "3"), ("50", "4")):
        with pytest.raises(SystemExit) as exc:
            main(["color", "--algo", "delta1", "--m", m, "--delta", delta,
                  "--graph", str(gpath), "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        assert "flags say" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_out_naming_a_file_exits_1(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("keep\n")
    code = main(["bound", "--delta", "64", "--out", str(target)])
    err = _assert_one_error_line(code, capsys)
    assert "cannot write run directory" in err
    assert target.read_text() == "keep\n"


def test_chi_subcommand_k_query(tmp_path, capsys):
    code, out = run_cli(["chi", "--family", "nh1", "--m", "5", "--d", "3",
                         "--k", "2", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert out["status"] == "no"


def test_chi_export(tmp_path, capsys):
    col = tmp_path / "h.col"
    code, _ = run_cli(["chi", "--family", "nh1", "--m", "4", "--d", "2",
                       "--export", str(col), "--out", str(tmp_path)], capsys)
    assert code == 0
    assert col.exists() and (tmp_path / "chi.json").exists()


def test_refute_subcommand(tmp_path, capsys):
    host = build_local1(5, 3, MULTISET)
    classes = random_independent_sets(host, 2, seed=3)
    payload = [[view_to_json(v) for v in sorted(cls, key=lambda x: x.digest)]
               for cls in classes]
    classes_file = tmp_path / "classes.json"
    classes_file.write_text(json.dumps(payload))
    code, out = run_cli(["refute", "--family", "nh1", "--m", "5", "--d", "3",
                         "--classes", str(classes_file), "--out", str(tmp_path)], capsys)
    assert code == 0
    assert out["uncovered"]
    assert (tmp_path / "counterexample.json").exists()
    transcript = json.loads((tmp_path / "transcript.json").read_text())
    assert transcript["verified_absent_from_all_classes"] is True


def test_refute_recursive_family(tmp_path, capsys):
    from colorreduce import build_relaxed_levels
    from colorreduce.bounds import random_relaxed_class

    levels = build_relaxed_levels(0, 7, 4)
    classes = [random_relaxed_class(levels, 20, seed=s, bound=4) for s in range(4)]
    payload = [[view_to_json(v) for v in sorted(cls, key=lambda x: x.digest)]
               for cls in classes]
    classes_file = tmp_path / "classes.json"
    classes_file.write_text(json.dumps(payload))
    code, out = run_cli(["refute", "--family", "nt", "--m", "7", "--d", "4",
                         "--r", "1", "--variant", "set",
                         "--classes", str(classes_file), "--out", str(tmp_path)], capsys)
    assert code == 0
    assert out["uncovered"]["children"]


def test_refute_defective(tmp_path, capsys):
    from colorreduce.bounds import random_defective_classes

    (cls,) = random_defective_classes(32, 4, 1, count=1, seed=9)
    payload = [[view_to_json(v) for v in cls]]
    classes_file = tmp_path / "classes.json"
    classes_file.write_text(json.dumps(payload))
    code, out = run_cli(["refute", "--family", "nh1", "--m", "32", "--d", "4",
                         "--defect", "1", "--classes", str(classes_file),
                         "--out", str(tmp_path)], capsys)
    assert code == 0
    assert out["uncovered"]


def test_refute_domain_failure_exit_code(tmp_path, capsys):
    classes_file = tmp_path / "classes.json"
    classes_file.write_text(json.dumps([[], [], [], [], []]))  # c=5 > delta^2/4
    code = main(["refute", "--family", "nh1", "--m", "7", "--d", "4",
                 "--classes", str(classes_file), "--out", str(tmp_path)])
    assert code == 1


def test_refute_with_delta_zero_exits_1(tmp_path, capsys):
    # a degenerate delta used to reach the refuter's ConstructionError
    classes_file = tmp_path / "classes.json"
    classes_file.write_text("[]")
    code = main(["refute", "--family", "nh1", "--m", "7", "--d", "0",
                 "--classes", str(classes_file), "--out", str(tmp_path / "run")])
    err = _assert_one_error_line(code, capsys)
    assert "need delta >= 1" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("classes", ["missing.json", "classes.json"])
def test_refute_unsupported_family_is_a_usage_error(classes, tmp_path, capsys):
    # the family is checked before the classes file is read
    (tmp_path / "classes.json").write_text("[]")
    with pytest.raises(SystemExit) as exc:
        main(["refute", "--family", "nsl", "--m", "7", "--d", "4",
              "--classes", str(tmp_path / classes), "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert "refute supports --family nh1 or nt" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def _assert_one_error_line(code, capsys):
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("flags", [["--C", "nan"], ["--C", "inf"], ["--eta", "nan"],
                                   ["--C", "1e308"]])
def test_bound_with_non_finite_input_exits_1(flags, tmp_path, capsys):
    code = main(["bound", "--delta", "64", *flags, "--out", str(tmp_path)])
    _assert_one_error_line(code, capsys)


def test_color_graph_with_out_of_range_endpoint_exits_1(tmp_path, capsys):
    gpath = tmp_path / "instance.json"
    gpath.write_text(json.dumps({"n": 2, "edges": [[0, 5]], "psi": [1, 2], "m": 3, "delta": 1}))
    code = main(["color", "--algo", "delta1", "--m", "3", "--delta", "1",
                 "--graph", str(gpath), "--out", str(tmp_path / "run")])
    _assert_one_error_line(code, capsys)


@pytest.mark.parametrize("graph", [
    {"n": 2, "edges": [[0, 1]], "m": 3, "delta": 1},  # no psi
    {"n": 2, "edges": [[0, "1"]], "psi": [1, 2], "m": 3, "delta": 1},
    {"n": "2", "edges": [[0, 1]], "psi": [1, 2], "m": 3, "delta": 1},
    {"n": 2, "edges": 5, "psi": [1, 2], "m": 3, "delta": 1},
    [],
    '{"n": 2,',  # not JSON
    pytest.param("[" * 100_000 + "]" * 100_000, id="nested-100000"),
])
def test_color_malformed_graph_file_exits_1(graph, tmp_path, capsys):
    gpath = tmp_path / "instance.json"
    gpath.write_text(graph if isinstance(graph, str) else json.dumps(graph))
    code = main(["color", "--algo", "delta1", "--m", "3", "--delta", "1",
                 "--graph", str(gpath), "--out", str(tmp_path / "run")])
    _assert_one_error_line(code, capsys)


@pytest.mark.parametrize("text", [
    pytest.param(json.dumps([[{"inner": 1}]]), id="missing-children"),
    pytest.param(json.dumps([[{"inner": 1, "children": 5}]]), id="children-not-a-list"),
    pytest.param(json.dumps([[{"inner": True, "children": [[2, 1]]}]]), id="color-true"),
    pytest.param(json.dumps([[{"inner": 1, "children": [[2, True]]}]]), id="count-true"),
    pytest.param(json.dumps([[1.5]]), id="member-float"),
    pytest.param(json.dumps([[[1]]]), id="member-list"),
    pytest.param("[" * 100_000 + "]" * 100_000, id="nested-100000"),
    # a member nested past the recursion limit; json.load or view_from_json
    # gives up first, depending on how deep the parser may go
    pytest.param("[[" + '{"inner": ' * 5000 + "1" + "}" * 5000 + "]]", id="member-5000"),
])
def test_refute_malformed_classes_file_exits_1(text, tmp_path, capsys):
    classes_file = tmp_path / "classes.json"
    classes_file.write_text(text)
    code = main(["refute", "--family", "nh1", "--m", "5", "--d", "3",
                 "--classes", str(classes_file), "--out", str(tmp_path)])
    _assert_one_error_line(code, capsys)


def test_refute_honours_cap_zero(tmp_path, capsys):
    classes_file = tmp_path / "classes.json"
    classes_file.write_text("[]")
    code = main(["refute", "--family", "nt", "--r", "1", "--m", "7", "--d", "4",
                 "--cap", "0", "--classes", str(classes_file), "--out", str(tmp_path / "run")])
    assert "cap 0" in _assert_one_error_line(code, capsys)
    assert not (tmp_path / "run").exists()


def test_chi_failure_leaves_no_run_directory(tmp_path, capsys):
    code = main(["chi", "--family", "nh1", "--m", "5", "--d", "3", "--k", "0",
                 "--out", str(tmp_path / "run")])
    _assert_one_error_line(code, capsys)
    assert not (tmp_path / "run").exists()


def test_chi_failure_leaves_no_export(tmp_path, capsys):
    export = tmp_path / "h.col"
    code = main(["chi", "--family", "nh1", "--m", "5", "--d", "3", "--k", "0",
                 "--export", str(export), "--out", str(tmp_path / "run")])
    _assert_one_error_line(code, capsys)
    assert sorted(tmp_path.iterdir()) == []


@pytest.mark.parametrize("member", [
    # a two-round vertex: its center is a view, not a color
    {"inner": {"inner": 1, "children": [[2, 1]]},
     "children": [[{"inner": 2, "children": [[1, 1]]}, 1]]},
    3,  # a bare color: no neighbor collection at all
])
@pytest.mark.parametrize("flags", [
    ["--m", "7", "--d", "4"],
    ["--m", "32", "--d", "4", "--defect", "1"],
])
def test_refute_class_member_not_one_round_exits_1(member, flags, tmp_path, capsys):
    classes_file = tmp_path / "classes.json"
    classes_file.write_text(json.dumps([[member]]))
    code = main(["refute", "--family", "nh1", *flags,
                 "--classes", str(classes_file), "--out", str(tmp_path)])
    _assert_one_error_line(code, capsys)


def test_refute_member_color_outside_palette_exits_1(tmp_path, capsys):
    classes_file = tmp_path / "classes.json"
    classes_file.write_text(json.dumps([[{"inner": 50, "children": [[2, 1]]}]]))
    code = main(["refute", "--family", "nh1", "--m", "7", "--d", "4",
                 "--classes", str(classes_file), "--out", str(tmp_path / "run")])
    _assert_one_error_line(code, capsys)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("args", [
    ["refute", "--family", "nh1", "--m", "7", "--d", "4", "--classes", "missing.json"],
    ["color", "--algo", "delta1", "--m", "3", "--delta", "1", "--graph", "missing.json"],
    ["color", "--algo", "delta1", "--m", "3", "--delta", "1", "--graph", "latin1.json"],
])
def test_unreadable_input_file_exits_1(args, tmp_path, capsys):
    (tmp_path / "latin1.json").write_bytes(b'{"n": 1, "edges": [], "psi": ["\xe9"]}')
    args = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
    code = main([*args, "--out", str(tmp_path / "run")])
    _assert_one_error_line(code, capsys)


def test_build_over_edge_cap_exits_1(tmp_path, capsys):
    # local1(10,5) has 20,020 vertices, under the cap, but 23,005,125 edges
    code = main(["build", "--family", "nh1", "--m", "10", "--d", "5",
                 "--out", str(tmp_path / "run")])
    assert "edges" in _assert_one_error_line(code, capsys)


def test_verify_hom_subcommands(tmp_path, capsys):
    code, out = run_cli(["verify-hom", "--which", "h", "--r", "1", "--m", "3",
                         "--d", "2", "--out", str(tmp_path / "h")], capsys)
    assert code == 0 and out["verified"] is True
    assert out["missing_images"] == 0 and out["broken_edges"] == 0
    code, out = run_cli(["verify-hom", "--which", "f", "--r", "1", "--m", "3",
                         "--d", "1", "--out", str(tmp_path / "f")], capsys)
    assert code == 0 and out["verified"] is True


@pytest.mark.parametrize("args,digests", [
    (["build", "--family", "ntilde", "--r", "2", "--m", "3", "--d", "2"],
     {"graph.json": "0f45dcecf8f5", "stats.json": "53f1b56f9f3b"}),
    (["verify-hom", "--which", "h", "--r", "2", "--m", "3", "--d", "2"],
     {"report.json": "ca2aeafe5f60"}),
    (["verify-hom", "--which", "f", "--r", "1", "--m", "4", "--d", "2"],
     {"report.json": "a81507321ea5"}),
])
def test_family_and_hom_artifacts_are_pinned(args, digests, tmp_path, capsys):
    # sha256 prefixes of the artifacts' bytes
    assert main([*args, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert {name: sha256((tmp_path / name).read_bytes()).hexdigest()[:12]
            for name in digests} == digests


def test_color_loads_instance_from_file(tmp_path, capsys):
    from colorreduce import graph_to_json, random_colored_tree
    g = random_colored_tree(12, 3, 50, seed=4)
    gpath = tmp_path / "instance.json"
    gpath.write_text(json.dumps(graph_to_json(g)))
    code, out = run_cli(["color", "--algo", "delta1", "--m", "50", "--delta", "3",
                         "--graph", str(gpath), "--out", str(tmp_path / "run")], capsys)
    assert code == 0 and out["proper"] is True
    saved = json.loads((tmp_path / "run" / "instance.json").read_text())
    assert saved == graph_to_json(g)


def test_simulate_full_info_with_trace(tmp_path, capsys):
    code, out = run_cli(["simulate", "--algo", "full-info", "--rounds", "2",
                         "--m", "6", "--delta", "3", "--n", "8", "--seed", "2",
                         "--trace", "--out", str(tmp_path)], capsys)
    assert code == 0
    trace = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert len(trace) == 2 * 8  # one record per (round, node)
    record = json.loads(trace[0])
    assert set(record) == {"round", "node", "state", "sent", "received"}


def _write_classes(path, classes):
    path.write_text(json.dumps([[view_to_json(v) for v in sorted(cls, key=lambda x: x.digest)]
                                for cls in classes]))
    return str(path)


def test_run_directories_repeat_across_hash_seeds_and_allocators(tmp_path):
    from colorreduce import build_relaxed_levels
    from colorreduce.bounds import random_defective_classes, random_relaxed_class

    nh1 = _write_classes(tmp_path / "nh1.json",
                         random_independent_sets(build_local1(5, 3, MULTISET), 2, seed=3))
    defective = _write_classes(tmp_path / "defective.json",
                               random_defective_classes(32, 4, 1, count=1, seed=9))
    levels = build_relaxed_levels(0, 7, 4)
    nt = _write_classes(tmp_path / "nt.json",
                        [random_relaxed_class(levels, 20, seed=s, bound=4) for s in range(4)])
    runs = {
        "build": ["build", "--family", "nh1", "--m", "5", "--d", "3"],
        "chi": ["chi", "--family", "nsl", "--r", "2", "--m", "3", "--d", "3"],
        "refute-nh1": ["refute", "--family", "nh1", "--m", "5", "--d", "3", "--classes", nh1],
        "refute-defect": ["refute", "--family", "nh1", "--m", "32", "--d", "4",
                          "--defect", "1", "--classes", defective],
        "refute-nt": ["refute", "--family", "nt", "--m", "7", "--d", "4", "--r", "1",
                      "--variant", "set", "--classes", nt],
    }
    src = str(Path(colorreduce.__file__).resolve().parents[1])
    contents = {}
    # views hash by identity, so their set order follows memory addresses;
    # switching the allocator moves those as the hash seed moves str hashes
    for hash_seed, allocator in (("1", "pymalloc"), ("2", "malloc")):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONMALLOC=allocator,
                   PYTHONPATH=src)
        for name, args in runs.items():
            out = tmp_path / hash_seed / name
            proc = subprocess.run([sys.executable, "-m", "colorreduce.cli", *args,
                                   "--out", str(out)], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            contents[hash_seed, name] = {p.name: p.read_bytes() for p in out.iterdir()}
    for name in runs:
        assert contents["1", name], name
        assert contents["1", name] == contents["2", name], name


PINNED_RUNS = {
    "color": ["color", "--algo", "delta1", "--m", "1000", "--delta", "4",
              "--n", "40", "--seed", "7"],
    "simulate-full-info": ["simulate", "--algo", "full-info", "--rounds", "2", "--m", "6",
                           "--delta", "3", "--n", "8", "--seed", "2", "--trace"],
    "simulate-linial": ["simulate", "--algo", "linial", "--m", "1000", "--delta", "3",
                        "--n", "12", "--seed", "1", "--trace"],
    "build": ["build", "--family", "nh1", "--m", "3", "--d", "2"],
    "chi": ["chi", "--family", "nh1", "--m", "4", "--d", "2"],
    "chi-k": ["chi", "--family", "nh1", "--m", "5", "--d", "3", "--k", "2"],
    "refute": ["refute", "--family", "nh1", "--m", "5", "--d", "3",
               "--classes", "classes.json"],
    "verify-hom": ["verify-hom", "--which", "h", "--r", "1", "--m", "3", "--d", "2"],
    "bound": ["bound", "--delta", "1024"],
}

# sha256 prefixes of stdout and of every file of the run directory
PINNED_DIGESTS = {
    "bound": {"bound.json": "ac78ca761cb9", "stdout": "925a90f0056b"},
    "build": {"graph.json": "555db3e07480", "stats.json": "ea45c0582198",
              "stdout": "be5b9d75e0e7"},
    "chi": {"chi.json": "d13b665c70c1", "stdout": "2f79c654b054"},
    "chi-k": {"chi.json": "d017d9b193c8", "stdout": "f975217be06d"},
    "color": {"instance.json": "827a149d3d89", "assignment.json": "53b2bb20bcee",
              "palettes.csv": "76807c17e42e", "stdout": "6321fbe879cc"},
    "refute": {"counterexample.json": "251c17bd3757", "transcript.json": "b4cc3e505791",
               "stdout": "6b664c978f7a"},
    "simulate-full-info": {"instance.json": "317cd2cb0c30", "assignment.json": "229872e80088",
                           "trace.jsonl": "8abc7a70e052", "stdout": "72aadaaf95e1"},
    "simulate-linial": {"instance.json": "fde244974563", "assignment.json": "d33d20c70fdc",
                        "palettes.csv": "94a52f537752", "trace.jsonl": "d3f777012736",
                        "stdout": "f31097b2b593"},
    "verify-hom": {"report.json": "a6a5ad9e7d67", "stdout": "117dd03e411d"},
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_run_directory_and_summary_line_are_pinned(name, tmp_path, monkeypatch, capsys):
    # run from tmp_path without --out, so the summary's "out" is the
    # default runs/<subcommand>-<hash> and its name is pinned with stdout
    monkeypatch.chdir(tmp_path)
    _write_classes(tmp_path / "classes.json",
                   random_independent_sets(build_local1(5, 3, MULTISET), 2, seed=3))
    assert main(PINNED_RUNS[name]) == 0
    stdout = capsys.readouterr().out
    (run_dir,) = (tmp_path / "runs").iterdir()
    assert json.loads(stdout)["out"] == f"runs/{run_dir.name}"
    digests = {p.name: sha256(p.read_bytes()).hexdigest()[:12] for p in run_dir.iterdir()}
    digests["stdout"] = sha256(stdout.encode()).hexdigest()[:12]
    assert digests == PINNED_DIGESTS[name]
