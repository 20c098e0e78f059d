import json
import os

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
