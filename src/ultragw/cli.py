"""Command-line front end.

Subcommands: validate, ingest, gen, perturb, quotient, wasserstein, ugw,
ugw-inf, ugh, usturm, bounds, matrix, mds.

Exit codes: 0 success, 2 validation failure, 3 parse or I/O error,
4 infeasible input / size-cap refusal.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import glob
import json
import os
import sys

import numpy as np

from . import bounds as bounds_mod
from .gw import (FwConfig, SizeCapError, dgw_fw, ugh_exact, ugw_fw,
                 ugw_inf_exact, usturm_bruteforce)
from .phylo import NewickError, parse_newick_multi, tree_shape_space
from .spaces import (load_space, quotient, save_space, space_from_json,
                     space_to_json, validate)
from .synth import GenSpec, gen_ultrametric, perturb
from .transport import (ScalarMeasure, w_halfline, w_line_classical,
                        w_quantile, w_ultrametric)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARSE = 3
EXIT_INFEASIBLE = 4


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _write(text, out):
    """Write text to the file `out`, or to stdout when no file is given."""
    if out:
        with open(out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _emit(obj, out):  # strict JSON: NaN or inf raises a ValueError
    _write(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n",
           out)


def _csv(corner, columns, ids, rows):
    lines = [",".join([corner] + columns)]
    lines += [",".join([i] + ["%.17g" % v for v in row])
              for i, row in zip(ids, rows)]
    return "\n".join(lines) + "\n"


def _load_space_checked(path, mode="ultra_dissimilarity", skip_diag=False):
    try:
        space = load_space(path)
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise CliError("cannot parse %s: %s" % (path, exc), EXIT_PARSE)
    except (OSError, ValueError) as exc:
        raise CliError("cannot load %s: %s" % (path, exc), EXIT_VALIDATION)
    if not skip_diag:
        rep = validate(space, mode=mode)
        if not rep.ok:
            raise CliError("%s failed %s validation: %r"
                           % (path, mode, rep.violations[:5]), EXIT_VALIDATION)
    return space


def _load_measure(path):
    try:
        with open(path) as f:
            obj = json.load(f)
        if isinstance(obj, list):
            return np.array(obj, dtype=float)
        if "x" not in obj:
            return np.array(obj["m"], dtype=float)
        x, m = np.array(obj["x"], float), np.array(obj["m"], float)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise CliError("cannot parse %s: %s" % (path, exc), EXIT_PARSE)
    return ScalarMeasure(x, m)


# Settings a --config file may also give; a flag beats the file, which beats
# the GenSpec or FwConfig default (seed 0 in both).  FwConfig's, by CLI name:
_FW_FIELDS = {"restarts": "restarts", "iters": "iterations",
              "step": "step_rule", "hitrun_steps": "hitrun_steps",
              "tol": "tol_stationarity"}
_DEFAULTS = dict(vars(GenSpec()), **{key: getattr(FwConfig(), name)
                                     for key, name in _FW_FIELDS.items()})


def _settings(args, *keys):
    """The values of `keys`, in that order, each from its flag, else from
    the command's --config file (if it takes one), else from _DEFAULTS."""
    path, cfg = getattr(args, "config", None), {}
    if path:
        try:
            with open(path) as f:
                cfg = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError("cannot read config %s: %s" % (path, exc),
                           EXIT_PARSE)
        if not isinstance(cfg, dict):
            raise CliError("config %s must hold a JSON object" % path,
                           EXIT_PARSE)
    out = {}
    for key in keys:
        val = getattr(args, key, None)
        out[key] = cfg.get(key, _DEFAULTS[key]) if val is None else val
    return out


def _fw_config(vals, seed):
    """FwConfig of the settings, each cast to the type of its default."""
    return FwConfig(seed=seed, **{name: type(_DEFAULTS[key])(vals[key])
                                  for key, name in _FW_FIELDS.items()})


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_validate(args):
    space = _load_space_checked(args.space, skip_diag=True)
    rep = validate(space, mode=args.mode)
    _emit({"ok": rep.ok, "mode": rep.mode,
           "violations": [list(v) for v in rep.violations]}, args.out)
    return EXIT_OK if rep.ok else EXIT_VALIDATION


def _cmd_ingest(args):
    try:
        with open(args.newick) as f:
            trees = parse_newick_multi(f.read())
    except NewickError as exc:
        raise CliError("newick parse error in %s: %s" % (args.newick, exc),
                       EXIT_PARSE)
    spaces = [tree_shape_space(t, unit_edges=args.unit_edges,
                               measure=args.measure) for t in trees]
    if len(spaces) == 1:
        if args.out:
            save_space(spaces[0], args.out, kind="ultra_dissimilarity")
        else:
            _emit(space_to_json(spaces[0], kind="ultra_dissimilarity"), None)
    else:
        base = args.out or "tree"
        stem, ext = os.path.splitext(base)
        for i, sp in enumerate(spaces):
            save_space(sp, "%s_%d%s" % (stem, i, ext or ".json"),
                       kind="ultra_dissimilarity")


def _cmd_gen(args):
    vals = _settings(args, "k", "samples_per_block", "subsample", "seed")
    space = gen_ultrametric(GenSpec(**{k: int(v) for k, v in vals.items()}))
    obj = space_to_json(space, kind="ultrametric")
    obj["config"] = vals
    if args.out:  # a file gets compact JSON, stdout the indented form
        _write(json.dumps(obj) + "\n", args.out)
    else:
        _emit(obj, None)


def _cmd_perturb(args):
    space = _load_space_checked(args.space, mode="ultrametric")
    seed = _settings(args, "seed")["seed"]
    out = perturb(space, args.t, seed=seed)
    obj = space_to_json(out, kind="ultrametric")
    obj["config"] = {"t": args.t, "seed": seed}
    _emit(obj, args.out)


def _cmd_quotient(args):
    space = _load_space_checked(args.space)
    q = quotient(space, args.t)
    obj = space_to_json(q.quotient)
    obj["level"] = q.level
    obj["blocks"] = [list(b) for b in q.blocks]
    _emit(obj, args.out)


def _cmd_wasserstein(args):
    if args.q is not None and args.ground != "halfline":
        raise CliError("--q needs --ground halfline", EXIT_VALIDATION)
    p = float(args.p)
    a = _load_measure(args.alpha)
    b = _load_measure(args.beta)
    if args.ground in ("halfline", "line"):
        if not isinstance(a, ScalarMeasure) or not isinstance(b, ScalarMeasure):
            raise CliError("%s ground needs ScalarMeasure files "
                           '({"x": [...], "m": [...]})' % args.ground,
                           EXIT_VALIDATION)
        if args.ground == "line":
            value = w_line_classical(a, b, p)
        elif args.q is not None:
            value = w_quantile(a, b, p, float(args.q))
        else:
            value = w_halfline(a, b, p)
    else:
        space = _load_space_checked(args.ground, mode="ultrametric")
        if isinstance(a, ScalarMeasure) or isinstance(b, ScalarMeasure):
            raise CliError("ultrametric ground needs plain mass vectors",
                           EXIT_VALIDATION)
        value = w_ultrametric(space, a, b, p)
    _emit({"value": value, "method": "wasserstein",
           "config": {"p": args.p, "q": args.q, "ground": args.ground}},
          args.out)


def _cmd_ugw(args):
    x = _load_space_checked(args.a, mode="ultrametric")
    y = _load_space_checked(args.b, mode="ultrametric")
    p = float(args.p)
    vals = _settings(args, "seed", *_FW_FIELDS)
    cfg = _fw_config(vals, int(vals["seed"]))
    if p == np.inf:
        raise CliError("use ugw-inf for p=inf", EXIT_INFEASIBLE)
    res = dgw_fw(x, y, p, cfg) if args.classical else ugw_fw(x, y, p, cfg)
    _emit({"value": res.value, "method": res.method,
           "coupling": res.coupling.tolist(), "trace": res.trace,
           "config": dict(vals, p=args.p, classical=bool(args.classical))},
          args.out)


def _cmd_ugw_inf(args):
    x = _load_space_checked(args.a, mode="ultrametric")
    y = _load_space_checked(args.b, mode="ultrametric")
    res = ugw_inf_exact(x, y)
    _emit({"value": res.value, "method": res.method, "level": res.level,
           "matching": [[list(a), list(b)] for a, b in res.matching]},
          args.out)


def _cmd_ugh(args):
    x = _load_space_checked(args.a, mode="ultrametric")
    y = _load_space_checked(args.b, mode="ultrametric")
    _emit({"value": ugh_exact(x, y), "method": "ugh"}, args.out)


def _cmd_usturm(args):
    x = _load_space_checked(args.a, mode="ultrametric")
    y = _load_space_checked(args.b, mode="ultrametric")
    res = usturm_bruteforce(x, y, float(args.p), max_n=args.max_n)
    _emit({"value": res.value, "method": res.method,
           "matching": [list(m) for m in res.matching],
           "config": {"p": args.p, "max_n": args.max_n}}, args.out)


_BOUND_FNS = {
    "uslb": bounds_mod.uslb, "utlb": bounds_mod.utlb, "uflb": bounds_mod.uflb,
    "slb": bounds_mod.slb, "tlb": bounds_mod.tlb, "flb": bounds_mod.flb,
}


def _cmd_bounds(args):
    x = _load_space_checked(args.a)
    y = _load_space_checked(args.b)
    p = float(args.p)
    which = [w.strip() for w in args.which.split(",") if w.strip()]
    bad = [w for w in which if w not in _BOUND_FNS]
    if bad:
        raise CliError("unknown bounds: %s" % ",".join(bad), EXIT_VALIDATION)
    values = {w: _BOUND_FNS[w](x, y, p) for w in which}
    _emit({"values": values, "config": {"p": args.p, "which": args.which}},
          args.out)


def _matrix_method(method, p, fw_vals):
    if method in _BOUND_FNS:
        fn = _BOUND_FNS[method]
        return lambda x, y, seed: fn(x, y, p)
    if method == "ugw-inf":
        return lambda x, y, seed: ugw_inf_exact(x, y).value
    if method == "ugh":
        return lambda x, y, seed: ugh_exact(x, y)
    if method == "ugw-fw":
        return lambda x, y, seed: ugw_fw(x, y, p,
                                         _fw_config(fw_vals, seed)).value
    raise CliError("unknown matrix method %r" % method, EXIT_VALIDATION)


def _tree_shapes(path, name):
    """(name, tree-shape space) of each tree of a Newick file, the name
    suffixed _0, _1, ... when it holds several."""
    try:
        with open(path) as f:
            trees = parse_newick_multi(f.read())
    except (NewickError, OSError, UnicodeDecodeError) as exc:
        raise CliError("newick parse error in %s: %s" % (path, exc),
                       EXIT_PARSE)
    return [(name + ("" if len(trees) == 1 else "_%d" % i),
             tree_shape_space(t, unit_edges=True))
            for i, t in enumerate(trees)]


def _cmd_matrix(args):
    fw_vals = _settings(args, "seed", *_FW_FIELDS)
    seed = int(fw_vals["seed"])
    p = float(args.p)
    if not (args.dir or args.newick_dir):
        raise CliError("matrix needs --dir or --newick-dir", EXIT_VALIDATION)
    pattern = (os.path.join(args.dir, "*.json") if args.dir
               else os.path.join(args.newick_dir, "*"))
    spaces = []
    for path in sorted(glob.glob(pattern)):
        name = os.path.splitext(os.path.basename(path))[0]
        try:  # a file that does not load is left out with --skip-invalid
            spaces += ([(name, _load_space_checked(path))] if args.dir
                       else _tree_shapes(path, name))
        except CliError:
            if not args.skip_invalid:
                raise
    if len(spaces) < 2:
        raise CliError("matrix needs at least 2 spaces", EXIT_VALIDATION)
    run = _matrix_method(args.method, p, fw_vals)
    n = len(spaces)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def job(k):
        i, j = pairs[k]
        pair_seed = int(np.random.SeedSequence(seed, spawn_key=(k,))
                        .generate_state(1)[0])
        return run(spaces[i][1], spaces[j][1], pair_seed)

    threads = args.threads or os.cpu_count() or 1
    mat = np.zeros((n, n))
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as ex:
        for k, val in enumerate(ex.map(job, range(len(pairs)))):
            i, j = pairs[k]
            mat[i, j] = mat[j, i] = val
    ids = [name for name, _ in spaces]
    config = {"method": args.method, "p": args.p, "seed": seed,
              "threads_requested": args.threads, "format": args.format}
    if args.method == "ugw-fw":
        config.update({k: fw_vals[k] for k in _FW_FIELDS})
    if args.format == "csv":
        _write(_csv("", ids, ids, mat), args.out)
        # resolved run configuration goes to stderr to keep the CSV clean
        sys.stderr.write(json.dumps(config, sort_keys=True) + "\n")
    else:
        _emit({"ids": ids, "matrix": mat.tolist(), "config": config}, args.out)


def classical_mds(matrix, dim):
    """Classical MDS: double-center the squared distances, take the top
    eigenpairs, scale eigenvectors by root eigenvalues.  Negative
    eigenvalues are clamped to zero (with a warning on stderr).  Signs are
    fixed so each coordinate's largest-magnitude entry is positive."""
    d = np.asarray(matrix, dtype=float)
    n = d.shape[0]
    if dim > n:
        raise ValueError("dim cannot exceed the number of points")
    j = np.eye(n) - np.full((n, n), 1.0 / n)
    b = -0.5 * j @ (d ** 2) @ j
    vals, vecs = np.linalg.eigh(b)
    order = np.argsort(vals)[::-1][:dim]
    vals = vals[order]
    vecs = vecs[:, order]
    if np.any(vals < -1e-12):
        sys.stderr.write("warning: negative eigenvalues clamped to 0 "
                         "(matrix is not Euclidean-embeddable)\n")
    vals = np.clip(vals, 0.0, None)
    coords = vecs * np.sqrt(vals)
    for c in range(coords.shape[1]):
        k = np.argmax(np.abs(coords[:, c]))
        if coords[k, c] < 0:
            coords[:, c] = -coords[:, c]
    return coords


def _read_matrix(path):
    try:
        if path.endswith(".json"):
            with open(path) as f:
                obj = json.load(f)
            return obj["ids"], np.array(obj["matrix"], dtype=float)
        with open(path) as f:
            rows = [line.rstrip("\n").split(",") for line in f
                    if line.strip() and not line.startswith("#")]
        ids = rows[0][1:]
        mat = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        return ids, mat
    except (OSError, ValueError, KeyError, IndexError,
            json.JSONDecodeError) as exc:
        raise CliError("cannot read matrix %s: %s" % (path, exc), EXIT_PARSE)


def _cmd_mds(args):
    ids, mat = _read_matrix(args.matrix)
    if not np.isfinite(mat).all():
        raise CliError("mds needs a finite matrix (no NaN or inf)",
                       EXIT_VALIDATION)
    if mat.shape[0] != mat.shape[1] or np.max(np.abs(mat - mat.T)) > 1e-9:
        raise CliError("mds needs a square symmetric matrix", EXIT_VALIDATION)
    coords = classical_mds(mat, args.dim)
    if args.format == "csv":
        columns = ["c%d" % k for k in range(args.dim)]
        _write(_csv("id", columns, ids, coords), args.out)
    else:
        _emit({"ids": list(ids), "coords": coords.tolist(),
               "config": {"dim": args.dim}}, args.out)


# ---------------------------------------------------------------------------
# argument parsing


_COMMANDS = {
    "validate": (_cmd_validate, "check the metric axioms of a space"),
    "ingest": (_cmd_ingest, "Newick file to tree-shape space(s)"),
    "gen": (_cmd_gen, "random ultrametric space"),
    "perturb": (_cmd_perturb, "perturb a space below a level"),
    "quotient": (_cmd_quotient, "level quotient of a space"),
    "wasserstein": (_cmd_wasserstein, "exact 1-d / ultrametric OT"),
    "ugw": (_cmd_ugw, "Frank-Wolfe GW upper bound"),
    "ugw-inf": (_cmd_ugw_inf, "exact order-infinity ultrametric GW"),
    "ugh": (_cmd_ugh, "exact ultrametric Gromov-Hausdorff"),
    "usturm": (_cmd_usturm, "brute-force Sturm ultrametric GW"),
    "bounds": (_cmd_bounds, "lower bounds for a pair of spaces"),
    "matrix": (_cmd_matrix, "pairwise matrix over a corpus"),
    "mds": (_cmd_mds, "classical MDS coordinates of a matrix"),
}
_PAIR = "ugw ugw-inf ugh usturm bounds"  # the commands on two spaces

# Every option once: its argparse names and keywords, and the commands that
# take it.  A command gets its options in table order.  An option without a
# default is None when not given, and _settings then reads --config and
# _DEFAULTS.  The two --p rows differ: the order p is required everywhere
# but on matrix, which defaults it to 1.
_OPTIONS = [
    (("space",), {}, "validate perturb quotient"),
    (("alpha",), {}, "wasserstein"),
    (("beta",), {}, "wasserstein"),
    (("a",), {}, _PAIR),
    (("b",), {}, _PAIR),
    (("matrix",), {}, "mds"),
    (("--mode",), dict(choices=["ultrametric", "ultra_dissimilarity"],
                       default="ultrametric"), "validate"),
    (("--newick",), dict(required=True), "ingest"),
    (("--unit-edges",), dict(action=argparse.BooleanOptionalAction,
                             default=True), "ingest"),
    (("--measure",), dict(choices=["uniform", "length-weighted"],
                          default="uniform"), "ingest"),
    (("--k",), dict(type=int), "gen"),
    (("--samples-per-block",), dict(type=int), "gen"),
    (("--subsample",), dict(type=int), "gen"),
    (("--t",), dict(type=float, required=True), "perturb quotient"),
    (("--p",), dict(required=True), "wasserstein ugw usturm bounds"),
    (("--q",), {}, "wasserstein"),
    (("--ground",), dict(default="halfline",
                         help="'halfline', 'line', or a path to an "
                              "ultrametric space JSON"), "wasserstein"),
    (("--classical",), dict(action="store_true"), "ugw"),
    (("--max-n",), dict(type=int, default=7), "usturm"),
    (("--which",), dict(default="uslb,utlb,uflb"), "bounds"),
    (("--dir",), {}, "matrix"),
    (("--newick-dir",), {}, "matrix"),
    (("--method", "--which"), dict(
        dest="method", required=True,
        choices=["ugw-inf", "ugh", "ugw-fw", "uslb", "utlb", "uflb", "slb",
                 "tlb", "flb"]), "matrix"),
    (("--p",), dict(default="1"), "matrix"),
    (("--skip-invalid",), dict(action="store_true"), "matrix"),
    (("--restarts",), dict(type=int), "ugw matrix"),
    (("--iters",), dict(type=int), "ugw matrix"),
    (("--step",), dict(choices=["exact_line_search", "harmonic"]),
     "ugw matrix"),
    (("--hitrun-steps",), dict(type=int), "ugw matrix"),
    (("--tol",), dict(type=float), "ugw matrix"),
    (("--dim",), dict(type=int, default=2), "mds"),
    (("--out",), {}, " ".join(_COMMANDS)),
    (("--config",), {}, "gen ugw matrix"),
    (("--seed",), dict(type=int), "gen perturb ugw matrix"),
    (("--threads",), dict(type=int), "matrix"),
    (("--format",), dict(choices=["json", "csv"], default="json"),
     "matrix mds"),
]


def _build_parser():
    top = argparse.ArgumentParser(
        prog="ultragw",
        description="Ultrametric Gromov-Wasserstein toolbox")
    sub = top.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, (fn, text) in _COMMANDS.items():
        parsers[name] = sub.add_parser(name, help=text)
        parsers[name].set_defaults(fn=fn)
    for names, kwargs, commands in _OPTIONS:
        for name in commands.split():
            parsers[name].add_argument(*names, **kwargs)
    return top


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:  # a command returns nothing on success, or its own exit code
        code = args.fn(args)
        return EXIT_OK if code is None else code
    except CliError as exc:
        code, message = exc.code, str(exc)
    except SizeCapError as exc:  # ahead of ValueError, its base class
        code, message = EXIT_INFEASIBLE, str(exc)
    except ValueError as exc:  # NewickError is one too
        code, message = EXIT_VALIDATION, str(exc)
    except OSError as exc:
        code, message = EXIT_PARSE, str(exc)
    sys.stderr.write("error: %s\n" % message)
    return code


if __name__ == "__main__":
    sys.exit(main())
