import json
import os
import shlex

import numpy as np
import pytest

from ultragw import cli
from ultragw.cli import classical_mds


def run(args):
    return cli.main([str(a) for a in args])


def write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f)


@pytest.fixture
def space_file(tmp_path):
    path = tmp_path / "x.json"
    write_json(path, {"ids": ["a", "b"], "u": [[0, 1], [1, 0]],
                      "mu": [0.5, 0.5]})
    return path


def test_validate_exit_codes(tmp_path, space_file, capsys):
    assert run(["validate", space_file]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    write_json(bad, {"ids": ["a", "b", "c"],
                     "u": [[0, 1, 3], [1, 0, 2], [3, 2, 0]],
                     "mu": [1 / 3, 1 / 3, 1 / 3]})
    assert run(["validate", bad]) == 2
    report = json.loads(capsys.readouterr().out)
    assert not report["ok"]
    assert ["triangle", 0, 2, 1] in report["violations"]
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert run(["validate", garbage]) == 3


def test_validate_rejects_non_finite(tmp_path, capsys):
    for text in ('{"ids": ["a", "b"], "u": [[0, NaN], [NaN, 0]], '
                 '"mu": [0.5, 0.5]}',
                 '{"ids": ["a", "b"], "u": [[0, 1], [1, 0]], '
                 '"mu": [NaN, 0.5]}',
                 '{"ids": ["a", "b"], "u": [[0, Infinity], [Infinity, 0]], '
                 '"mu": [0.5, 0.5]}'):
        bad = tmp_path / "nonfinite.json"
        bad.write_text(text)
        assert run(["validate", bad]) == 2
        assert "finite" in capsys.readouterr().err


def test_quotient_and_perturb_commands(tmp_path, space_file, capsys):
    assert run(["quotient", space_file, "--t", "1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["blocks"] == [[0, 1]]
    out = tmp_path / "p.json"
    assert run(["perturb", space_file, "--t", "2", "--seed", "3",
                "--out", out]) == 0
    obj = json.load(open(out))
    assert obj["config"]["seed"] == 3


@pytest.mark.parametrize("t", ["nan", "inf", "-inf", "-1"])
def test_quotient_refuses_a_level_that_is_not_finite_and_nonnegative(
        space_file, capsys, t):
    assert run(["quotient", space_file, "--t=" + t]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == "error: level must be finite and nonnegative\n"


def test_gen_command_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--k", "2", "--subsample", "6", "--seed", "9"]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_ingest_and_newick_errors(tmp_path, capsys):
    nwk = tmp_path / "t.nwk"
    nwk.write_text("(((A,B),C),D);")
    assert run(["ingest", "--newick", nwk]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["ids"] == ["A", "B", "C", "D"]
    assert obj["kind"] == "ultra_dissimilarity"
    bad = tmp_path / "bad.nwk"
    bad.write_text("((A,B);")
    assert run(["ingest", "--newick", bad]) == 3


def test_wasserstein_command(tmp_path, capsys):
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    write_json(m1, {"x": [0.5], "m": [1.0]})
    write_json(m2, {"x": [2.0], "m": [1.0]})
    assert run(["wasserstein", m1, m2, "--p", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(2.0)
    assert run(["wasserstein", m1, m2, "--p", "1", "--q", "2"]) == 2
    capsys.readouterr()
    assert run(["wasserstein", m1, m2, "--p", "inf", "--ground", "line"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 1.5
    plain = tmp_path / "plain.json"
    write_json(plain, [1.0])
    for ground in ("halfline", "line"):
        assert run(["wasserstein", plain, m2, "--p", "1",
                    "--ground", ground]) == 2
        assert capsys.readouterr().err == (
            'error: %s ground needs ScalarMeasure files ({"x": [...], '
            '"m": [...]})\n' % ground)


def test_wasserstein_ultrametric_ground_refuses_bad_masses(
        tmp_path, space_file, capsys):
    a = tmp_path / "a.json"
    write_json(a, [0.25, 0.75])
    cases = {"total": [1.0, 1.0], "nan": [float("nan"), 1.0],
             "negative": [-0.5, 1.5]}
    for name, masses in cases.items():
        b = tmp_path / ("%s.json" % name)
        b.write_text(json.dumps(masses))
        for pair in ((a, b), (b, a)):
            assert run(["wasserstein", *pair, "--p", "1",
                        "--ground", space_file]) == 2
            cap = capsys.readouterr()
            assert cap.out == "" and cap.err.startswith("error: ")


@pytest.mark.parametrize("text", ['{"foo": 1}', '"abc"', "7", "null",
                                  '{"m": "abc"}', '{"x": [1], "y": [1]}',
                                  '[[1], 2]'])
def test_wasserstein_malformed_mass_file_exits_3(tmp_path, space_file,
                                                 capsys, text):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    write_json(good, [0.5, 0.5])
    bad.write_text(text)
    for ground in ("halfline", space_file):
        assert run(["wasserstein", bad, good, "--p", "1",
                    "--ground", ground]) == 3
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err.startswith("error: cannot parse %s: " % bad)


@pytest.mark.parametrize("text", ['"abc"', "[1, 2]", "7", "null"])
def test_malformed_space_file_exits_3(tmp_path, space_file, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    for argv in (["validate", bad], ["ugw", space_file, bad, "--p", "1"]):
        assert run(argv) == 3
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err.startswith("error: cannot parse %s: " % bad)


def test_wasserstein_q_needs_the_halfline_ground(tmp_path, space_file,
                                                 capsys):
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    write_json(m1, {"x": [0.5], "m": [1.0]})
    write_json(m2, {"x": [2.0], "m": [1.0]})
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_json(a, [1.0, 0.0])
    write_json(b, [0.0, 1.0])
    for args in ([m1, m2, "--ground", "line"], [a, b, "--ground", space_file]):
        assert run(["wasserstein", *args, "--p", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] > 0
        assert run(["wasserstein", *args, "--p", "2", "--q", "1"]) == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err == "error: --q needs --ground halfline\n"
    assert run(["wasserstein", m1, m2, "--p", "2", "--q", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["config"] == {
        "p": "2", "q": "1", "ground": "halfline"}


def test_gw_commands(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_json(a, {"ids": ["x", "y"], "u": [[0, 1], [1, 0]], "mu": [0.5, 0.5]})
    write_json(b, {"ids": ["x", "y"], "u": [[0, 2], [2, 0]], "mu": [0.5, 0.5]})
    assert run(["ugw-inf", a, b]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 2.0
    assert run(["ugh", a, b]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 2.0
    assert run(["ugw", a, b, "--p", "1", "--restarts", "3", "--iters", "50",
                "--seed", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(
        1.0, abs=1e-6)
    assert run(["usturm", a, b, "--p", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(
        0.5 * 2.0, abs=1e-9)
    assert run(["bounds", a, b, "--p", "1", "--which", "uslb,slb"]) == 0
    vals = json.loads(capsys.readouterr().out)["values"]
    assert vals["uslb"] == pytest.approx(1.0)


def test_usturm_size_cap_exit(tmp_path):
    n = 9
    rng = np.random.default_rng(0)
    pts = np.sort(rng.uniform(0, 1, n))
    u = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            u[i, j] = u[j, i] = np.diff(pts)[i:j].max()
    path = tmp_path / "big.json"
    write_json(path, {"ids": [str(i) for i in range(n)], "u": u.tolist(),
                      "mu": [1 / n] * n})
    assert run(["usturm", path, path, "--p", "1"]) == 4


def _make_corpus(tmp_path, count, subsample=5):
    d = tmp_path / "corpus"
    d.mkdir()
    for s in range(count):
        assert run(["gen", "--k", "2", "--subsample", subsample, "--seed", s,
                    "--out", d / ("s%02d.json" % s)]) == 0
    return d


def test_matrix_identical_spaces(tmp_path, space_file, capsys):
    d = tmp_path / "two"
    d.mkdir()
    for name in ("a.json", "b.json"):
        write_json(d / name, {"ids": ["a", "b"], "u": [[0, 1], [1, 0]],
                              "mu": [0.5, 0.5]})
    assert run(["matrix", "--dir", d, "--method", "uslb", "--p", "1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["matrix"] == [[0.0, 0.0], [0.0, 0.0]]


def test_matrix_two_point_ugw_inf(tmp_path, capsys):
    d = tmp_path / "pair"
    d.mkdir()
    write_json(d / "a.json", {"ids": ["x", "y"], "u": [[0, 1], [1, 0]],
                              "mu": [0.5, 0.5]})
    write_json(d / "b.json", {"ids": ["x", "y"], "u": [[0, 2], [2, 0]],
                              "mu": [0.5, 0.5]})
    assert run(["matrix", "--dir", d, "--method", "ugw-inf"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["matrix"][0][1] == 2.0


def test_matrix_matches_bounds_calls(tmp_path, capsys):
    from ultragw import load_space, uslb
    d = _make_corpus(tmp_path, 4)
    assert run(["matrix", "--dir", d, "--method", "uslb", "--p", "1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    spaces = [load_space(d / ("s%02d.json" % s)) for s in range(4)]
    for i in range(4):
        for j in range(4):
            expect = 0.0 if i == j else uslb(spaces[i], spaces[j], 1)
            assert obj["matrix"][i][j] == pytest.approx(expect, abs=1e-15)


def test_matrix_csv_feeds_mds(tmp_path, capsys):
    d = _make_corpus(tmp_path, 3)
    m = tmp_path / "m.csv"
    assert run(["matrix", "--dir", d, "--method", "uslb", "--p", "1",
                "--format", "csv", "--out", m]) == 0
    assert run(["mds", m, "--dim", "2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["coords"]) == 3 and len(obj["coords"][0]) == 2


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"k": 2, "subsample": 4, "seed": 77})
    out1 = tmp_path / "o1.json"
    assert run(["gen", "--config", cfg, "--out", out1]) == 0
    obj = json.load(open(out1))
    assert obj["config"]["seed"] == 77 and len(obj["ids"]) == 4
    out2 = tmp_path / "o2.json"
    assert run(["gen", "--config", cfg, "--subsample", "3",
                "--out", out2]) == 0
    assert len(json.load(open(out2))["ids"]) == 3


@pytest.mark.parametrize("command", ["gen", "ugw", "matrix"])
def test_config_must_hold_an_object(tmp_path, capsys, command):
    a = tmp_path / "corpus" / "a.json"
    a.parent.mkdir()
    write_json(a, {"ids": ["x", "y"], "u": [[0, 1], [1, 0]], "mu": [0.5, 0.5]})
    write_json(a.parent / "b.json", json.load(open(a)))
    argv = {"gen": ["gen"], "ugw": ["ugw", a, a, "--p", "1"],
            "matrix": ["matrix", "--dir", a.parent, "--method", "uslb"]}
    cfg = tmp_path / "cfg.json"
    for value in (3, "seed", ["k"]):
        write_json(cfg, value)
        assert run(argv[command] + ["--config", cfg]) == 3
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err == "error: config %s must hold a JSON object\n" % cfg


def _two_point(path, d):
    write_json(path, {"ids": ["a", "b"], "u": [[0, d], [d, 0]],
                      "mu": [0.5, 0.5]})


_MATRIX_AC = (",a,c\na,0,1\nc,1,0\n", '{"format": "csv", "method": "uslb", '
              '"p": "1", "seed": 0, "threads_requested": null}\n')


def _matrix_run(capsys, source, path, skip):
    argv = ["matrix", source, path, "--method", "uslb", "--format", "csv"]
    code = run(argv + (["--skip-invalid"] if skip else []))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_matrix_dir_skip_invalid(tmp_path, capsys):
    # b.json fails validation in one corpus and is not JSON in the other
    val, js = tmp_path / "val", tmp_path / "js"
    for d in (val, js):
        d.mkdir()
        _two_point(d / "a.json", 1.0)
        _two_point(d / "c.json", 2.0)
    write_json(val / "b.json", {"ids": ["a", "b", "c"],
                                "u": [[0, 1, 3], [1, 0, 2], [3, 2, 0]],
                                "mu": [1 / 3, 1 / 3, 1 / 3]})
    (js / "b.json").write_text("{not json")
    assert _matrix_run(capsys, "--dir", val, False) == (
        2, "", "error: %s failed ultra_dissimilarity validation: "
               "[('triangle', 0, 2, 1)]\n" % (val / "b.json"))
    with pytest.raises(json.JSONDecodeError) as exc:
        json.loads("{not json")
    assert _matrix_run(capsys, "--dir", js, False) == (
        3, "", "error: cannot parse %s: %s\n" % (js / "b.json", exc.value))
    for d in (val, js):
        assert _matrix_run(capsys, "--dir", d, True) == (0,) + _MATRIX_AC


def test_matrix_newick_dir_skip_invalid(tmp_path, capsys):
    d = tmp_path / "nwk"
    d.mkdir()
    (d / "a.nwk").write_text("((a,b),c);\n")
    (d / "b.nwk").write_text("((a,b),c;\n")
    (d / "c.nwk").write_text("(((a,b),c),d);\n(a,b);\n")
    assert _matrix_run(capsys, "--newick-dir", d, False) == (
        3, "", "error: newick parse error in %s: expected ')' at line 1, "
               "column 9\n" % (d / "b.nwk"))
    assert _matrix_run(capsys, "--newick-dir", d, True) == (
        0, ",a,c_0,c_1\na,0,1.125,0.88888888888888895\n"
           "c_0,1.125,0,1.75\nc_1,0.88888888888888895,1.75,0\n",
        _MATRIX_AC[1])


def test_mds_two_point():
    coords = classical_mds(np.array([[0.0, 1.0], [1.0, 0.0]]), 1)
    assert sorted(np.round(coords.ravel(), 10)) == [-0.5, 0.5]


def test_mds_equilateral():
    d = np.ones((3, 3)) - np.eye(3)
    coords = classical_mds(d, 2)
    dists = [np.linalg.norm(coords[i] - coords[j])
             for i in range(3) for j in range(i + 1, 3)]
    assert np.max(np.abs(np.array(dists) - 1.0)) < 1e-10


def test_mds_recovers_euclidean(rng):
    pts = rng.normal(size=(7, 3))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    coords = classical_mds(d, 3)
    d2 = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=2)
    assert np.max(np.abs(d - d2)) < 1e-8


def test_mds_dim_error():
    with pytest.raises(ValueError):
        classical_mds(np.zeros((2, 2)), 3)


# Positionals and required options that make each command's argv parse.
_BASE_ARGV = {
    "validate": ["x.json"],
    "ingest": ["--newick", "t.nwk"],
    "gen": [],
    "perturb": ["x.json", "--t", "1"],
    "quotient": ["x.json", "--t", "1"],
    "wasserstein": ["a.json", "b.json", "--p", "1"],
    "ugw": ["x.json", "y.json", "--p", "1"],
    "ugw-inf": ["x.json", "y.json"],
    "ugh": ["x.json", "y.json"],
    "usturm": ["x.json", "y.json", "--p", "1"],
    "bounds": ["x.json", "y.json", "--p", "1"],
    "matrix": ["--dir", "corpus", "--method", "uslb"],
    "mds": ["m.csv"],
}
_SHARED_FLAGS = {"--config": "c.json", "--seed": "1", "--threads": "2",
                 "--format": "csv"}
_TAKES = {"--config": {"gen", "ugw", "matrix"},
          "--seed": {"gen", "perturb", "ugw", "matrix"},
          "--threads": {"matrix"},
          "--format": {"matrix", "mds"}}
_PAIRS = [(cmd, flag) for cmd in _BASE_ARGV for flag in _SHARED_FLAGS]


@pytest.mark.parametrize("command,flag", _PAIRS)
def test_command_takes_only_the_flags_it_reads(command, flag):
    argv = [command] + _BASE_ARGV[command]
    parser = cli._build_parser()
    parser.parse_args(argv + ["--out", "o.json"])
    with_flag = argv + [flag, _SHARED_FLAGS[flag]]
    if command in _TAKES[flag]:
        parser.parse_args(with_flag)
    else:
        with pytest.raises(SystemExit) as exc:
            cli.main(with_flag)
        assert exc.value.code == 2


def test_echoed_config_per_command(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_json(a, {"ids": ["x", "y"], "u": [[0, 1], [1, 0]], "mu": [0.5, 0.5]})
    write_json(b, {"ids": ["x", "y"], "u": [[0, 2], [2, 0]], "mu": [0.5, 0.5]})
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    write_json(m1, {"x": [0.5], "m": [1.0]})
    write_json(m2, {"x": [2.0], "m": [1.0]})
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_json(corpus / "a.json", json.load(open(a)))
    write_json(corpus / "b.json", json.load(open(b)))
    fw = {"restarts": 1, "iters": 5, "seed": 2, "step": "exact_line_search",
          "hitrun_steps": 10, "tol": 1e-10}

    def config(args):
        assert run(args) == 0
        return json.loads(capsys.readouterr().out)["config"]

    gen = {"k": 2, "samples_per_block": 100, "subsample": 5, "seed": 4}
    assert config(["gen", "--k", 2, "--subsample", 5, "--seed", 4]) == gen
    out = tmp_path / "g.json"
    assert run(["gen", "--k", 2, "--subsample", 5, "--seed", 4,
                "--out", out]) == 0
    text = out.read_text()
    assert text.count("\n") == 1  # compact JSON in a file
    assert list(json.loads(text)["config"].items()) == list(gen.items())
    assert config(["perturb", a, "--t", 0.5]) == {"t": 0.5, "seed": 0}
    assert config(["wasserstein", m1, m2, "--p", 1]) == {
        "p": "1", "q": None, "ground": "halfline"}
    assert config(["ugw", a, b, "--p", 1, "--restarts", 1, "--iters", 5,
                   "--seed", 2]) == dict(fw, p="1", classical=False)
    assert config(["usturm", a, b, "--p", 1]) == {"p": "1", "max_n": 7}
    assert config(["bounds", a, b, "--p", 1]) == {"p": "1",
                                                 "which": "uslb,utlb,uflb"}
    assert config(["matrix", "--dir", corpus, "--method", "uslb"]) == {
        "method": "uslb", "p": "1", "seed": 0, "threads_requested": None,
        "format": "json"}
    assert run(["matrix", "--dir", corpus, "--method", "ugw-fw",
                "--restarts", 1, "--iters", 5, "--seed", 2, "--threads", 1,
                "--format", "csv"]) == 0
    cap = capsys.readouterr()
    assert cap.out.splitlines()[0] == ",a,b"
    assert json.loads(cap.err) == dict(
        fw, method="ugw-fw", p="1", threads_requested=1, format="csv")
    m = tmp_path / "m.csv"
    m.write_text(",a,b\na,0,1\nb,1,0\n")
    assert config(["mds", m]) == {"dim": 2}


@pytest.mark.parametrize("command", ["ugw-inf", "matrix"])
def test_unwritable_out_exits_3(tmp_path, capsys, command):
    a = tmp_path / "corpus" / "a.json"
    a.parent.mkdir()
    write_json(a, {"ids": ["x", "y"], "u": [[0, 1], [1, 0]], "mu": [0.5, 0.5]})
    write_json(a.parent / "b.json", json.load(open(a)))
    out = tmp_path / "missing" / "o.json"
    argv = {"ugw-inf": ["ugw-inf", a, a],
            "matrix": ["matrix", "--dir", a.parent, "--method", "uslb",
                       "--format", "csv"]}[command]
    assert run(argv + ["--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def _readme_cli_lines():
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    text = open(readme).read()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("ultragw ")]


def test_readme_cli_lines_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "trees.nwk").write_text("(((A,B),C),D);\n")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for s in range(3):
        assert run(["gen", "--k", 2, "--subsample", 5, "--seed", s,
                    "--out", corpus / ("s%d.json" % s)]) == 0
    lines = _readme_cli_lines()
    assert len(lines) >= 9
    for argv in lines:
        assert run(argv) == 0, argv
        capsys.readouterr()
