"""The benchmark's workloads.

A workload is a fixed list of ``ultragw`` CLI calls (one *cycle*) over
inputs generated for that cycle from the run seed.  Every cycle draws
fresh inputs, so a run averages over several inputs and no call sees the
same files twice.  Each call is tagged with the end-to-end metric it
feeds:

  t1, t2    the workload's ``matrix`` call at --threads 1 and 2
  iso       a CLI call on a space and a relabelled copy of it
  pert      a CLI call on a space and a perturbation of it below level t
  None      counts only towards pairs_per_s

``Cycle.check`` verifies every output of the cycle and returns the
problems found, keyed by call index.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from ultragw.spaces import space_from_json, validate

import gen
import reference as ref


@dataclass
class Call:
    argv: list
    pairs: int
    kind: str | None = None
    out: str = ""


class Cycle:
    """One cycle's calls, the spaces written for them (by path), and the
    facts its checks need, which each workload sets as attributes."""

    def __init__(self, checks):
        self.calls = []
        self.spaces = {}
        self.checks = checks
        self.tensor_mb = 0.0

    def check(self):
        """Problems per call index, from the files the calls wrote."""
        problems = {}
        for idx, msg in self.checks(self):
            problems.setdefault(idx, []).append(msg)
        return problems


def _u(space):
    return np.asarray(space["u"], float)


def _mu(space):
    return np.asarray(space["mu"], float)


class Workload:
    """Shared plumbing: per-cycle directories, seeded generators and the
    validation of every generated space before it is written."""

    key = 0
    SIZES = {}
    TINY = {}

    def __init__(self, workdir, seed, tiny=False):
        self.workdir = workdir
        self.seed = int(seed)
        self.sizes = self.TINY if tiny else self.SIZES

    def rng(self, cycle, *keys):
        return gen.make_rng(self.seed, self.key, cycle, *keys)

    def cycle_dir(self, cycle):
        return gen.ensure_dir(os.path.join(self.workdir, "c%d" % cycle))

    def write(self, cyc, path, space, mode="ultrametric"):
        rep = validate(space_from_json(space), mode=mode)
        if not rep.ok:
            raise RuntimeError("generated space %s failed validation: %r"
                               % (path, rep.violations[:3]))
        gen.write_space(path, space)
        cyc.spaces[path] = space
        return path

    def matrix(self, d, names, out, method, p, threads, kind=None,
               extra=(), newick=False):
        k = len(names)
        argv = ["matrix", "--newick-dir" if newick else "--dir", d,
                "--method", method, "--p", p, "--threads", str(threads),
                "--format", "csv", "--out", out] + list(extra)
        return Call(argv, k * (k - 1) // 2, kind, out)


def _matrix_checks(cyc, idx, names):
    with open(cyc.calls[idx].out) as f:
        ids, mat = ref.read_csv_matrix(f.read())
    return mat, ["matrix: " + m for m in ref.check_matrix(ids, mat, names)]


def _same_bytes(cyc, a, b):
    with open(cyc.calls[a].out, "rb") as fa, open(cyc.calls[b].out, "rb") as fb:
        return fa.read() == fb.read()


class CorpusBounds(Workload):
    """Lower-bound matrices over a corpus of ultrametric spaces and one of
    Newick tree shapes, plus the ``bounds`` command on isomorphic and
    perturbed pairs."""

    key = 1
    SIZES = {"corpus": [20, 22, 24, 26, 28, 30], "tips": [20, 24, 28, 32, 36],
             "pair_n": 24, "pairs": 5}
    TINY = {"corpus": [6, 7, 8], "tips": [5, 6, 7], "pair_n": 6, "pairs": 1}

    def make_cycle(self, c):
        z = self.sizes
        d = self.cycle_dir(c)
        cdir = gen.ensure_dir(os.path.join(d, "corpus"))
        tdir = gen.ensure_dir(os.path.join(d, "trees"))
        cyc = Cycle(self._checks)
        rng = self.rng(c, 0)
        cyc.names = []
        for i, n in enumerate(z["corpus"]):
            name = "s%02d" % i
            self.write(cyc, os.path.join(cdir, name + ".json"),
                       gen.ultrametric_mixture(rng, n, 2 + i % 3))
            cyc.names.append(name)
        cyc.trees = []
        for i, tips in enumerate(z["tips"]):
            text = gen.random_newick(rng, tips)
            gen.write_text(os.path.join(tdir, "t%02d.nwk" % i), text)
            cyc.trees.append(("t%02d" % i, text))
        pairs = []
        for j in range(z["pairs"]):
            x = gen.ultrametric_mixture(rng, z["pair_n"], 3)
            level = gen.top_level(x, 4)
            for kind, y, t in (("iso", gen.relabel(rng, x), 0.0),
                               ("pert", gen.perturb_below(rng, x, level),
                                level)):
                a = self.write(cyc, os.path.join(d, "%s%dx.json" % (kind, j)), x)
                b = self.write(cyc, os.path.join(d, "%s%dy.json" % (kind, j)), y)
                pairs.append((kind, a, b, t))
        out = lambda tag: os.path.join(d, tag)
        cyc.calls = [
            self.matrix(cdir, cyc.names, out("utlb1_t1.csv"), "utlb", "1", 1, "t1"),
            self.matrix(cdir, cyc.names, out("utlb1_t2.csv"), "utlb", "1", 2, "t2"),
            self.matrix(cdir, cyc.names, out("uslb1.csv"), "uslb", "1", 1),
            self.matrix(cdir, cyc.names, out("uflb2.csv"), "uflb", "2", 1),
            self.matrix(cdir, cyc.names, out("utlbinf.csv"), "utlb", "inf", 1),
            self.matrix(tdir, [n for n, _ in cyc.trees], out("trees.csv"),
                        "utlb", "1", 1, newick=True),
        ]
        cyc.pairs = []
        for i, (kind, a, b, t) in enumerate(pairs):
            o = out("bounds%d.json" % i)
            cyc.calls.append(Call(["bounds", a, b, "--p", "1", "--which",
                                   "uslb,utlb,uflb", "--out", o], 1, kind, o))
            cyc.pairs.append((len(cyc.calls) - 1, kind, a, b, t))
        cyc.rng = self.rng(c, 1)
        return cyc

    @staticmethod
    def _checks(cyc):
        mats = {}
        spaces = [cyc.spaces[p] for p in sorted(cyc.spaces)
                  if os.sep + "corpus" + os.sep in p]
        trees = [ref.tree_shape_u(text) for _, text in cyc.trees]
        tree_spaces = [{"u": u, "mu": np.full(len(u), 1.0 / len(u))}
                       for u in trees]
        plan = [(0, "utlb", 1, spaces), (1, "utlb", 1, spaces),
                (2, "uslb", 1, spaces), (3, "uflb", 2, spaces),
                (4, "utlb", np.inf, spaces), (5, "utlb", 1, tree_spaces)]
        for idx, method, p, corpus in plan:
            names = cyc.names if corpus is spaces else [n for n, _ in cyc.trees]
            mat, problems = _matrix_checks(cyc, idx, names)
            mats[idx] = mat
            for msg in problems:
                yield idx, msg
            if not problems:
                # one sampled off-diagonal entry against the reference
                i, j = sorted(cyc.rng.choice(len(names), 2, replace=False))
                x, y = corpus[i], corpus[j]
                want = ref.BOUNDS[method](_u(x), _mu(x), _u(y), _mu(y), p)
                for msg in ref.check_close("%s[%d,%d]" % (method, i, j),
                                           mat[i, j], want):
                    yield idx, msg
        if not _same_bytes(cyc, 0, 1):
            yield 1, "CSV at 2 threads differs from the CSV at 1 thread"
        if mats[2].shape == mats[0].shape and np.any(mats[2] > mats[0] + 1e-9):
            yield 2, "uslb exceeds utlb"
        for idx, kind, a, b, t in cyc.pairs:
            vals = ref.load_json(cyc.calls[idx].out)["values"]
            if vals["uslb"] > vals["utlb"] + 1e-9:
                yield idx, "uslb exceeds utlb"
            # uslb <= utlb <= ugw_1 <= ugw_inf, which is 0 on an isomorphic
            # pair and at most t on a perturbed one.  uflb is not a lower
            # bound at finite p (it can exceed the distance), so it is only
            # required to vanish on isomorphic pairs.
            limit = 1e-9 if kind == "iso" else t + 1e-9
            for name, v in sorted(vals.items()):
                top = limit if (kind == "iso" or name != "uflb") else np.inf
                if not (0.0 <= v <= top):
                    yield idx, "%s = %r outside [0, %r] on a %s pair" % (
                        name, v, top, kind)
            x, y = cyc.spaces[a], cyc.spaces[b]
            want = ref.uslb(_u(x), _mu(x), _u(y), _mu(y), 1)
            for msg in ref.check_close("uslb", vals["uslb"], want):
                yield idx, msg


class UgwInfSweep(Workload):
    """Exact order-infinity distance and ultrametric Gromov-Hausdorff
    distance on isomorphic pairs (the sweep visits every level) and on
    perturbed pairs (it stops after a few levels, so loading and
    validation dominate), plus ``matrix --method ugw-inf``."""

    key = 2
    SIZES = {"iso_n": 34, "iso_pairs": 2, "pert_n": 200, "pert_blocks": 5,
             "corpus": [24, 22], "rounds": 3}
    TINY = {"iso_n": 8, "iso_pairs": 1, "pert_n": 12, "pert_blocks": 3,
            "corpus": [6, 5], "rounds": 1}

    def make_cycle(self, c):
        z = self.sizes
        d = self.cycle_dir(c)
        rng = self.rng(c, 0)
        cyc = Cycle(self._checks)
        o = lambda tag: os.path.join(d, tag)
        # (kind, x, y, level): ugw-inf is 0 on an isomorphic pair and at
        # most the level on a perturbed one
        jobs = []
        for j in range(z["iso_pairs"]):
            x = gen.ultrametric_mixture(rng, z["iso_n"], 3)
            jobs.append(("iso", x, gen.relabel(rng, x), 0.0))
        x = gen.ultrametric_mixture(rng, z["pert_n"], 3)
        cyc.t = gen.top_level(x, z["pert_blocks"])
        jobs.append(("pert", x, gen.perturb_below(rng, x, cyc.t), cyc.t))
        cyc.pairs = []
        for j, (kind, x, y, level) in enumerate(jobs):
            pair = (self.write(cyc, o("%s%dx.json" % (kind, j)), x),
                    self.write(cyc, o("%s%dy.json" % (kind, j)), y))
            for cmd in ("ugw-inf", "ugh"):
                out = o("%s%d_%s.json" % (kind, j, cmd))
                cyc.calls.append(Call([cmd, pair[0], pair[1], "--out", out],
                                      1, kind, out))
            cyc.pairs.append((len(cyc.calls) - 2, pair, level))
        # matrix rounds, each on a fresh corpus: every base space with a
        # relabelled and a perturbed copy
        cyc.rounds = []
        for r in range(z["rounds"]):
            mdir = gen.ensure_dir(os.path.join(d, "corpus%d" % r))
            names, expect = [], {}
            for b, n in enumerate(z["corpus"]):
                base = gen.ultrametric_mixture(rng, n, 2 + b % 3)
                tb = gen.top_level(base, 3)
                k = len(names)
                for tag, sp in (("a", base), ("b", gen.relabel(rng, base)),
                                ("c", gen.perturb_below(rng, base, tb))):
                    name = "m%d%s" % (b, tag)
                    self.write(cyc, os.path.join(mdir, name + ".json"), sp)
                    names.append(name)
                expect[(k, k + 1)] = 0.0
                expect[(k, k + 2)] = tb
                expect[(k + 1, k + 2)] = tb
            for tag, threads in (("t1", 1), ("t2", 2)):
                cyc.calls.append(self.matrix(
                    mdir, names, o("m%d_%s.csv" % (r, tag)), "ugw-inf", "inf",
                    threads, tag))
            cyc.rounds.append((len(cyc.calls) - 2, names, expect))
        return cyc

    @staticmethod
    def _checks(cyc):
        for i_inf, pair, limit in cyc.pairs:
            i_gh = i_inf + 1
            r_inf = ref.load_json(cyc.calls[i_inf].out)
            r_gh = ref.load_json(cyc.calls[i_gh].out)
            if limit == 0.0:
                if r_inf["value"] != 0.0:
                    yield i_inf, "ugw-inf = %r on an isomorphic pair" % r_inf["value"]
                if r_gh["value"] != 0.0:
                    yield i_gh, "ugh = %r on an isomorphic pair" % r_gh["value"]
            elif not r_inf["value"] <= limit + 1e-9:
                yield i_inf, "ugw-inf = %r above the perturbation level %r" % (
                    r_inf["value"], limit)
            if not r_gh["value"] <= r_inf["value"]:
                yield i_gh, "ugh %r exceeds ugw-inf %r" % (r_gh["value"],
                                                           r_inf["value"])
            x, y = cyc.spaces[pair[0]], cyc.spaces[pair[1]]
            for msg in ref.check_matching(r_inf["matching"], x["mu"], y["mu"]):
                yield i_inf, msg
        for t1, names, expect in cyc.rounds:
            for idx in (t1, t1 + 1):
                mat, problems = _matrix_checks(cyc, idx, names)
                for msg in problems:
                    yield idx, msg
                if problems:
                    continue
                for (i, j), limit in sorted(expect.items()):
                    if limit == 0.0 and mat[i, j] != 0.0:
                        yield idx, "entry %d,%d = %r on an isomorphic pair" % (
                            i, j, mat[i, j])
                    elif mat[i, j] > limit + 1e-9:
                        yield idx, "entry %d,%d = %r above level %r" % (
                            i, j, mat[i, j], limit)
            if not _same_bytes(cyc, t1, t1 + 1):
                yield t1 + 1, "CSV at 2 threads differs from the CSV at 1 thread"


class FwRestarts(Workload):
    """Frank-Wolfe upper bounds with hit-and-run restarts on pairs of
    unequal size and shape, on isomorphic and perturbed pairs, and
    ``matrix --method ugw-fw``."""

    key = 3
    SIZES = {"unequal": [(20, 28), (24, 32), (30, 38)], "pair_n": 16,
             "pairs": 4, "restarts": "3", "corpus": [12, 14, 16],
             "matrix_restarts": "2", "rounds": 3}
    TINY = {"unequal": [(4, 5), (5, 6), (4, 6)], "pair_n": 4, "pairs": 1,
            "restarts": "2", "corpus": [3, 4, 5], "matrix_restarts": "1",
            "rounds": 1}
    VARIANTS = (["--p", "1"], ["--p", "2"], ["--p", "2", "--classical"])

    def make_cycle(self, c):
        z = self.sizes
        d = self.cycle_dir(c)
        rng = self.rng(c, 0)
        fw_seed = str(int(self.rng(c, 1).integers(2 ** 31)))
        cyc = Cycle(self._checks)
        cyc.fw = []
        o = lambda tag: os.path.join(d, tag)
        jobs = []
        for i, ((n, m), variant) in enumerate(zip(z["unequal"], self.VARIANTS)):
            jobs.append((None, gen.ultrametric_mixture(rng, n, 2 + i % 2),
                         gen.ultrametric_mixture(rng, m, 3 - i % 2), variant))
        for j in range(z["pairs"]):
            x = gen.ultrametric_mixture(rng, z["pair_n"], 3)
            jobs.append(("iso", x, gen.relabel(rng, x), ["--p", "2"]))
            jobs.append(("pert", x, gen.perturb_below(rng, x, gen.top_level(x, 3)),
                         ["--p", "2"]))
        for i, (kind, x, y, variant) in enumerate(jobs):
            a = self.write(cyc, o("f%dx.json" % i), x)
            b = self.write(cyc, o("f%dy.json" % i), y)
            out = o("f%d.json" % i)
            cyc.calls.append(Call(["ugw", a, b, "--restarts", z["restarts"],
                                   "--seed", fw_seed, "--out", out] + variant,
                                  1, kind, out))
            cyc.fw.append((len(cyc.calls) - 1, a, b, float(variant[1]),
                           "--classical" in variant))
            cyc.tensor_mb = max(cyc.tensor_mb,
                                8.0 * (len(x["mu"]) * len(y["mu"])) ** 2 / 1e6)
        # matrix rounds, each on a fresh corpus
        extra = ["--restarts", z["matrix_restarts"], "--seed", fw_seed]
        cyc.rounds = []
        for r in range(z["rounds"]):
            mdir = gen.ensure_dir(os.path.join(d, "corpus%d" % r))
            names = []
            for i, n in enumerate(z["corpus"]):
                name = "g%02d" % i
                self.write(cyc, os.path.join(mdir, name + ".json"),
                           gen.ultrametric_mixture(rng, n, 2 + i % 2))
                names.append(name)
            for tag, threads in (("t1", 1), ("t2", 2)):
                cyc.calls.append(self.matrix(
                    mdir, names, o("m%d_%s.csv" % (r, tag)), "ugw-fw", "2",
                    threads, tag, extra))
            cyc.rounds.append((len(cyc.calls) - 2, names))
        return cyc

    @staticmethod
    def _checks(cyc):
        for idx, a, b, p, classical in cyc.fw:
            x, y = cyc.spaces[a], cyc.spaces[b]
            obj = ref.load_json(cyc.calls[idx].out)
            for msg in ref.check_coupling(obj, _u(x), _mu(x), _u(y), _mu(y),
                                          p, classical):
                yield idx, msg
        for t1, names in cyc.rounds:
            for idx in (t1, t1 + 1):
                for msg in _matrix_checks(cyc, idx, names)[1]:
                    yield idx, msg
            if not _same_bytes(cyc, t1, t1 + 1):
                yield t1 + 1, "CSV at 2 threads differs from the CSV at 1 thread"


WORKLOADS = {"corpus-bounds": CorpusBounds, "ugw-inf-sweep": UgwInfSweep,
             "fw-restarts": FwRestarts}
