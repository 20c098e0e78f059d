"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import sys
import time
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402
import gen  # noqa: E402
import reference as ref  # noqa: E402
import spans  # noqa: E402

child.import_ultragw()

from ultragw import cli, ugw_inf_exact  # noqa: E402
from ultragw.phylo import parse_newick, tree_shape_space  # noqa: E402
from ultragw.spaces import space_from_json, validate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# ---------------------------------------------------------------------------
# generator


def _draw(seed):
    rng = gen.make_rng(seed, 7)
    x = gen.ultrametric_mixture(rng, 12, 3)
    t = gen.top_level(x, 3)
    return [x, gen.relabel(rng, x), gen.perturb_below(rng, x, t),
            gen.random_newick(rng, 15)]


def test_generator_is_deterministic():
    assert _draw(3) == _draw(3)
    assert _draw(3) != _draw(4)


def test_generated_spaces_are_valid_and_perturbation_is_bounded():
    for seed in range(5):
        x, y, z, _ = _draw(seed)
        for sp in (x, y, z):
            assert validate(space_from_json(sp), mode="ultrametric").ok
        t = gen.top_level(x, 3)
        assert ugw_inf_exact(space_from_json(x), space_from_json(y)).value == 0
        assert ugw_inf_exact(space_from_json(x),
                             space_from_json(z)).value <= t + 1e-9


def test_workload_inputs_are_deterministic(tmp_path):
    for name, cls in WORKLOADS.items():
        a = cls(str(tmp_path / "a"), 5, tiny=True).make_cycle(1)
        b = cls(str(tmp_path / "b"), 5, tiny=True).make_cycle(1)
        assert list(a.spaces.values()) == list(b.spaces.values())


# ---------------------------------------------------------------------------
# references


def test_halfline_closed_form_matches_linear_program():
    rng = np.random.default_rng(0)
    for _ in range(40):
        na, nb = rng.integers(1, 6, size=2)
        xa = rng.choice([0.0, 0.5, 1.0, 2.0, 3.0], na)
        xb = rng.choice([0.0, 0.5, 1.5, 2.0, 3.0], nb)
        ma = rng.uniform(0.1, 1, na)
        mb = rng.uniform(0.1, 1, nb)
        ma, mb = ma / ma.sum(), mb / mb.sum()
        cost = np.array([[0.0 if a == b else max(a, b) for b in xb]
                         for a in xa])
        for p in (1, 2, np.inf):
            want = ref.ot_value(cost, ma, mb, p)
            got = ref.halfline_w(xa, ma, xb, mb, p)
            assert got == pytest.approx(want, abs=1e-9)


def test_tree_shape_reference_matches_ingest():
    rng = gen.make_rng(1)
    for tips in (2, 5, 13):
        text = gen.random_newick(rng, tips)
        want = tree_shape_space(parse_newick(text)).u
        assert np.array_equal(ref.tree_shape_u(text), want)


# ---------------------------------------------------------------------------
# output checks reject corrupted outputs


def _ran_cycle(tmp_path, name):
    wl = WORKLOADS[name](str(tmp_path), 2, tiny=True)
    cyc = wl.make_cycle(0)
    for call in cyc.calls:
        assert cli.main(call.argv) == 0
    assert cyc.check() == {}
    return cyc


def _rewrite_json(path, edit):
    obj = ref.load_json(path)
    edit(obj)
    with open(path, "w") as f:
        json.dump(obj, f)


def test_check_rejects_asymmetric_matrix(tmp_path):
    cyc = _ran_cycle(tmp_path, "corpus-bounds")
    path = cyc.calls[2].out
    with open(path) as f:
        lines = f.read().splitlines()
    cells = lines[1].split(",")
    cells[2] = repr(float(cells[2]) + 0.5)
    lines[1] = ",".join(cells)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    assert any("asymmetric" in m for m in cyc.check()[2])


def test_check_rejects_ugw_inf_above_level(tmp_path):
    cyc = _ran_cycle(tmp_path, "ugw-inf-sweep")
    _rewrite_json(cyc.calls[2].out,
                  lambda o: o.update(value=cyc.t + 1e-6))
    assert any("above the perturbation level" in m for m in cyc.check()[2])


def test_check_rejects_wrong_marginals(tmp_path):
    cyc = _ran_cycle(tmp_path, "fw-restarts")

    def shift(obj):
        plan = np.asarray(obj["coupling"])
        plan[0, 0] += 1e-6
        obj["coupling"] = plan.tolist()

    _rewrite_json(cyc.calls[0].out, shift)
    assert any("marginals" in m for m in cyc.check()[0])


def test_check_rejects_thread_dependent_csv(tmp_path):
    cyc = _ran_cycle(tmp_path, "fw-restarts")
    with open(cyc.calls[-1].out, "a") as f:
        f.write("\n")
    assert any("differs" in m for m in cyc.check()[len(cyc.calls) - 1])


# ---------------------------------------------------------------------------
# tracing


def test_self_time_of_nested_spans():
    # a: [0, 10] with children b: [2, 5] and c: [4, 8] on another thread;
    # c has a child d: [5, 6]
    recs = spans.summarise([("a", 0.0, 10.0, None, 1),
                            ("b", 2.0, 5.0, 0, 1),
                            ("c", 4.0, 8.0, 0, 2),
                            ("d", 5.0, 6.0, 2, 2)])
    assert recs["a"]["self_s"] == pytest.approx(10 - 6)
    assert recs["b"]["self_s"] == pytest.approx(3)
    assert recs["c"]["self_s"] == pytest.approx(4 - 1)
    assert recs["a"]["s"] == pytest.approx(10)


def test_tracer_patches_every_binding_and_counts_recursion_once():
    pkg = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")

    def rec(k):
        time.sleep(0.001)
        return 0 if k == 0 else inner.rec(k - 1)

    inner.rec = rec
    pkg.rec = rec
    pkg.table = {"r": rec}
    sys.modules.update({"fakepkg": pkg, "fakepkg.inner": inner})
    try:
        tracer = spans.Tracer()
        tracer.install([(rec, "rec")], "fakepkg")
        assert pkg.rec is not rec and pkg.table["r"] is not rec
        assert inner.rec is pkg.rec
        pkg.table["r"](3)
        tracer.uninstall()
        assert pkg.rec is rec and pkg.table["r"] is rec and inner.rec is rec
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.inner"]
    recs = spans.summarise(tracer.spans)
    assert recs["rec"]["calls"] == 1
    assert recs["rec"]["s"] >= 0.004


# ---------------------------------------------------------------------------
# smoke runs


def _declared():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric(tmp_path, name):
    import run

    decl = _declared()
    assert name in [w["name"] for w in decl["workloads"]]
    assert name in run.WORKLOADS
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        rec = child.run(name, 1, 0.01, trace, str(tmp_path / str(trace)),
                        tiny=True, start=time.perf_counter(),
                        warn=lambda msg: None)
        assert rec["failed"] == 0 and rec["attempted"] > 0
        want = {m["name"]: m["unit"] for m in decl[key]}
        want.pop("setup_s", None)  # added by run.py from several children
        got = {k: v["unit"] for k, v in rec["metrics"].items()}
        assert got == want
        assert not os.path.exists(tmp_path / str(trace))
