"""One benchmark run in a fresh process: import ultragw from the
checkout's ``src/``, generate the workload's inputs, drive
``ultragw.cli.main`` in closed loop for the requested seconds, check every
output, and print one JSON record as the last line of stdout.

``run.py`` starts this file; it is not meant to be run by hand.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# wall-clock guard: a run must end well inside its 180 s limit
WALL_LIMIT_S = 140.0

# traced functions: (module, attribute, span name).  Solver entry points
# without a metric of their own (ugh_exact, dgw_fw, uslb, ...) are traced
# so that their time is not counted as self time of their caller.
TARGETS = [
    ("spaces", "validate", "spaces.validate"),
    ("spaces", "load_space", "spaces.load_space"),
    ("spaces", "quotient", "spaces.quotient"),
    ("spaces", "to_dendrogram", "spaces.to_dendrogram"),
    ("transport", "w_halfline", "transport.w_halfline"),
    ("transport", "exact_ot", None),  # named by p_mode, see _ot_span
    ("gw", "canonical_signature", "gw.canonical_signature"),
    ("gw", "ugw_inf_exact", "gw.ugw_inf_exact"),
    ("gw", "ugh_exact", "gw.ugh_exact"),
    ("gw", "ugw_fw", "gw.ugw_fw"),
    ("gw", "dgw_fw", "gw.dgw_fw"),
    ("gw", "hitrun_couplings", "gw.hitrun_couplings"),
    ("gw", "dis_ult", "gw.dis_ult"),
    ("gw", "dis_classical", "gw.dis_classical"),
    ("bounds", "uslb", "bounds.uslb"),
    ("bounds", "utlb", "bounds.utlb"),
    ("bounds", "uflb", "bounds.uflb"),
    ("phylo", "parse_newick_multi", "phylo.parse_newick_multi"),
    ("phylo", "tree_shape_space", "phylo.tree_shape_space"),
    ("cli", "main", "cli.main"),
]

# per-layer metrics: (name, unit, span, field); field is s, self_s or calls
SPAN_METRICS = [
    ("spaces.validate.s", "s", "spaces.validate", "s"),
    ("spaces.validate.calls", "count", "spaces.validate", "calls"),
    ("spaces.load_space.s", "s", "spaces.load_space", "s"),
    ("spaces.quotient.s", "s", "spaces.quotient", "s"),
    ("spaces.quotient.calls", "count", "spaces.quotient", "calls"),
    ("spaces.to_dendrogram.s", "s", "spaces.to_dendrogram", "s"),
    ("spaces.to_dendrogram.calls", "count", "spaces.to_dendrogram", "calls"),
    ("gw.canonical_signature.s", "s", "gw.canonical_signature", "s"),
    ("gw.canonical_signature.calls", "count", "gw.canonical_signature",
     "calls"),
    ("gw.ugw_inf_exact.self_s", "s", "gw.ugw_inf_exact", "self_s"),
    ("transport.w_halfline.s", "s", "transport.w_halfline", "s"),
    ("transport.w_halfline.calls", "count", "transport.w_halfline", "calls"),
    ("bounds.utlb.self_s", "s", "bounds.utlb", "self_s"),
    ("transport.exact_ot_sum.s", "s", "transport.exact_ot_sum", "s"),
    ("transport.exact_ot_sum.calls", "count", "transport.exact_ot_sum",
     "calls"),
    ("transport.exact_ot_max.s", "s", "transport.exact_ot_max", "s"),
    ("transport.exact_ot_max.calls", "count", "transport.exact_ot_max",
     "calls"),
    ("gw.hitrun_couplings.s", "s", "gw.hitrun_couplings", "s"),
    ("gw.hitrun_couplings.calls", "count", "gw.hitrun_couplings", "calls"),
    ("gw.ugw_fw.self_s", "s", "gw.ugw_fw", "self_s"),
    ("gw.dis_ult.s", "s", "gw.dis_ult", "s"),
    ("phylo.parse_newick_multi.s", "s", "phylo.parse_newick_multi", "s"),
    ("phylo.tree_shape_space.s", "s", "phylo.tree_shape_space", "s"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
]
# spans each workload is expected to record; a zero count is a warning
EXPECTED = {
    "corpus-bounds": ["spaces.validate", "spaces.load_space",
                      "transport.w_halfline", "bounds.utlb",
                      "transport.exact_ot_sum", "transport.exact_ot_max",
                      "phylo.parse_newick_multi", "phylo.tree_shape_space",
                      "cli.main"],
    "ugw-inf-sweep": ["spaces.validate", "spaces.load_space",
                      "spaces.quotient", "spaces.to_dendrogram",
                      "gw.canonical_signature", "gw.ugw_inf_exact",
                      "cli.main"],
    "fw-restarts": ["spaces.validate", "spaces.load_space", "gw.ugw_fw",
                    "gw.hitrun_couplings", "transport.exact_ot_sum",
                    "gw.dis_ult", "cli.main"],
}


def _ot_span(args, kwargs):
    mode = kwargs.get("p_mode", args[3] if len(args) > 3 else "sum")
    return "transport.exact_ot_%s" % mode


def import_ultragw():
    """Import ultragw from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import ultragw

    where = os.path.dirname(os.path.abspath(ultragw.__file__))
    if os.path.dirname(where) != SRC:
        raise ImportError("ultragw imported from %s, not from %s"
                          % (where, SRC))
    from ultragw import cli

    return cli


def src_lines():
    total = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "ultragw")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as f:
                    total += sum(1 for _ in f)
    return total


def run_calls(cli, cycle):
    """Run one pass over the cycle's calls; return (seconds, rc, stderr)
    per call.  Only cli.main itself is inside the timed section."""
    out = []
    for call in cycle.calls:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            rc = cli.main(call.argv)
            dt = time.perf_counter() - t0
        out.append((dt, rc, err.getvalue()))
    return out


def trace_targets(warn):
    """(function, span name) for every traced function that exists."""
    import importlib

    targets = []
    for mod, attr, span in TARGETS:
        fn = getattr(importlib.import_module("ultragw." + mod), attr, None)
        if fn is None:
            warn("warning: ultragw.%s.%s not found, not traced" % (mod, attr))
            continue
        targets.append((fn, span or _ot_span))
    return targets


def traced_pass(cli, cycle, targets):
    """run_calls, with spans recorded when targets is not None."""
    if targets is None:
        return run_calls(cli, cycle), None
    from spans import Tracer

    tracer = Tracer()
    tracer.install(targets, "ultragw")
    try:
        return run_calls(cli, cycle), tracer.spans
    finally:
        tracer.uninstall()


class Tally:
    """Per-call results and failures of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.pairs = 0
        self.seconds = 0.0
        self.by_kind = {}
        self.messages = []

    def add(self, cycle, results):
        try:
            problems = cycle.check() if all(rc == 0 for _, rc, _ in results) \
                else {}
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = {0: ["output could not be checked: %r" % (exc,)]}
        for idx, (call, (dt, rc, err)) in enumerate(zip(cycle.calls, results)):
            self.attempted += 1
            if rc != 0:
                problems.setdefault(idx, []).append(
                    "exit code %d: %s" % (rc, err.strip()[-300:]))
            if idx in problems:
                self.failed += 1
                self.messages.append("%s: %s" % (" ".join(call.argv[:1]),
                                                 "; ".join(problems[idx])))
            self.pairs += call.pairs
            self.seconds += dt
            if call.kind:
                self.by_kind.setdefault(call.kind, []).append((dt, call.pairs))


def end_to_end(tally):
    def throughput(kind):
        rows = tally.by_kind[kind]
        return sum(p for _, p in rows) / sum(dt for dt, _ in rows)

    def mean_s(kind):
        # a mean, not a median: call times here are bimodal (the host
        # switches between a fast and a slow state for seconds at a time),
        # and the median of a bimodal sample jumps between the two modes
        rows = tally.by_kind[kind]
        return sum(dt for dt, _ in rows) / len(rows)

    return {
        "pairs_per_s": (tally.pairs / tally.seconds, "1/s"),
        "pairs_per_s_t1": (throughput("t1"), "1/s"),
        "pairs_per_s_t2": (throughput("t2"), "1/s"),
        "iso_pair_s": (mean_s("iso"), "s"),
        "pert_pair_s": (mean_s("pert"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(name, spans_per_cycle, overheads, tensor_mb, warn):
    from spans import count_children, summarise

    cycles = len(spans_per_cycle)
    totals = {}
    lmo = 0
    for spans in spans_per_cycle:
        for span, rec in summarise(spans).items():
            acc = totals.setdefault(span, {"s": 0.0, "self_s": 0.0,
                                           "calls": 0})
            for k in acc:
                acc[k] += rec[k]
        lmo += count_children(spans, "transport.exact_ot_sum", "gw.ugw_fw")
    for span in EXPECTED[name]:
        if totals.get(span, {}).get("calls", 0) == 0:
            warn("warning: no calls recorded at %s on %s" % (span, name))
    out = {}
    for metric, unit, span, field in SPAN_METRICS:
        out[metric] = (totals.get(span, {}).get(field, 0) / cycles, unit)
    out["gw.fw_lmo_calls"] = (lmo / cycles, "count")
    out["gw.cost_tensor_mb"] = (tensor_mb, "MB")
    out["trace_overhead_s"] = (statistics.median(overheads), "s")
    out["src_lines"] = (src_lines(), "lines")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    record = run(args.workload, args.seed, args.seconds, args.trace,
                 args.workdir, setup_only=args.setup_only)
    print(json.dumps(record, sort_keys=True))
    return 0


def run(name, seed, seconds, trace, workdir, setup_only=False, tiny=False,
        start=None, warn=None):
    """One run; returns the record the parent reads."""
    start = START if start is None else start
    warn = warn or (lambda msg: sys.stderr.write(msg + "\n"))
    cli = import_ultragw()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    wl = WORKLOADS[name](workdir, seed, tiny=tiny)
    try:
        cycle = wl.make_cycle(0)
        setup_s = time.perf_counter() - start
        if setup_only:
            return {"setup_s": setup_s}
        tally = Tally()
        targets = trace_targets(warn) if trace else None
        spans_per_cycle, overheads, tensor_mb = [], [], 0.0
        c = 0
        while True:
            if trace:
                # the same inputs untraced and traced, alternating which
                # goes first; the difference is the tracing overhead
                seconds_by_pass = {}
                for traced in (False, True) if c % 2 == 0 else (True, False):
                    results, spans = traced_pass(cli, cycle,
                                                 targets if traced else None)
                    if traced:
                        spans_per_cycle.append(spans)
                    seconds_by_pass[traced] = sum(r[0] for r in results)
                    tally.add(cycle, results)
                overheads.append(seconds_by_pass[True]
                                 - seconds_by_pass[False])
            else:
                tally.add(cycle, run_calls(cli, cycle))
            tensor_mb = max(tensor_mb, cycle.tensor_mb)
            shutil.rmtree(wl.cycle_dir(c), ignore_errors=True)
            c += 1
            if (tally.seconds >= seconds
                    or time.perf_counter() - start > WALL_LIMIT_S):
                break
            cycle = wl.make_cycle(c)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for msg in tally.messages[:10]:
        warn("failed: " + msg)
    if trace:
        metrics = per_layer(name, spans_per_cycle, overheads, tensor_mb, warn)
    else:
        metrics = end_to_end(tally)
    samples = {k: len(v) for k, v in sorted(tally.by_kind.items())}
    return {"setup_s": setup_s, "cycles": c, "attempted": tally.attempted,
            "failed": tally.failed, "timed_s": tally.seconds,
            "samples": samples,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


if __name__ == "__main__":
    sys.exit(main())
