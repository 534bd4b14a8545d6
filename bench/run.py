"""Benchmark of probeint's recognizers, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Instances come from the seed; every
output is checked against truth known by construction (see checks.py).
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

import checks
import instances as ins
import workloads as wl
from checks import CheckFailed, KnownFault
from tracing import Tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

BUDGET_S = 30.0  # per call; a call past it counts as failed
MIN_CALLS = 100  # so that at least ten calls lie beyond the 90th percentile
PARTS = 2  # processes per round in interval-graphs and probe-routes
CHILD_TIMEOUT_S = 170.0  # a share of a round in one child
SETUP_SAMPLES = 15  # fresh interpreters; one set-up varies by 20% and more

END_TO_END_UNITS = {
    "setup_s": "s",
    "calls_per_s": "calls/s",
    "yes_ms_p50": "ms",
    "no_ms_p50": "ms",
    "call_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (source, span or count name, unit); times and counts
# are per round of the traced half, so they do not depend on run length
PER_LAYER = {
    "intervals.order_search_s": ("inclusive", "intervals.order_search", "s/round"),
    "intervals.read_off_s": ("inclusive", "intervals.read_off", "s/round"),
    "intervals.verify_s": ("inclusive", "intervals.verify", "s/round"),
    "ferrers.couple_graph_s": ("inclusive", "ferrers.couple_graph", "s/round"),
    "ferrers.couple_zeros": ("count", "ferrers.couple_zeros", "count/round"),
    "ferrers.couples": ("count", "ferrers.couples", "count/round"),
    "ferrers.two_color_s": ("inclusive", "ferrers.two_color", "s/round"),
    "ferrers.decompose_self_s": ("self", "ferrers.decompose", "s/round"),
    "ferrers.validate_s": ("inclusive", "ferrers.validate", "s/round"),
    "ferrers.dim3_self_s": ("self", "ferrers.dim3", "s/round"),
    "bigraphs.rc_search_s": ("inclusive", "bigraphs.rc_search", "s/round"),
    "bigraphs.diagonalize_s": ("inclusive", "bigraphs.diagonalize", "s/round"),
    "bigraphs.read_off_s": ("inclusive", "bigraphs.read_off", "s/round"),
    "bigraphs.verify_s": ("inclusive", "bigraphs.verify", "s/round"),
    "bigraphs.rc_check_calls": ("count", "bigraphs.rc_check_calls", "count/round"),
    "probes.qxl_self_s": ("self", "probes.qxl", "s/round"),
    "probes.char1_self_s": ("self", "probes.char1", "s/round"),
    "probes.char2_self_s": ("self", "probes.char2", "s/round"),
    "probes.reduced_graph_self_s": ("self", "probes.reduced_graph", "s/round"),
    "probes.align_self_s": ("self", "probes.align", "s/round"),
    "probes.scan_forbidden_s": ("inclusive", "probes.scan_forbidden", "s/round"),
    "probes.scan_forbidden_calls": ("count", "probes.scan_forbidden_calls", "count/round"),
    "probes.representation_self_s": ("self", "probes.representation", "s/round"),
    "probes.verify_s": ("inclusive", "probes.verify", "s/round"),
    "matrices.entry_calls": ("count", "matrices.entry_calls", "count/round"),
    "matrices.permuted_calls": ("count", "matrices.permuted_calls", "count/round"),
    "matrices.built": ("count", "matrices.built", "count/round"),
    "graphs.build_s": ("setup", "graphs.build", "s"),
    "graphs.matrix_build_s": ("inclusive", "graphs.matrix_build", "s/round"),
    "cli.import_s": ("import", "probeint", "s"),
    "cli.numpy_import_s": ("import", "numpy", "s"),
    "cli.dispatch_s": ("inclusive", "cli.dispatch", "s/round"),
    "io.parse_s": ("inclusive", "io.parse", "s/round"),
    "io.emit_s": ("inclusive", "io.emit", "s/round"),
    "sweeps.classes_s": ("inclusive", "sweeps.classes", "s/round"),
    "oracles.oracle_s": ("inclusive", "oracles.oracle", "s/round"),
    "trace.overhead_pct": ("overhead", None, "%"),
}


class BudgetExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def import_probeint(with_cli: bool):
    if not os.path.isfile(os.path.join(SRC, "probeint", "__init__.py")):
        raise SystemExit(f"error: no probeint sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import probeint

    if with_cli:
        import probeint.cli  # noqa: F401  (also loads io and sweeps)
    return probeint


def _dispatch_in_process(argv):
    cli = sys.modules["probeint.cli"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch(argv)
    return code, out.getvalue().encode("utf-8")


class Setup:
    """Import, instances and input files of one workload."""

    def __init__(self, workload: str, seed: int, workdir: str, in_process_cli: bool = False,
                 only_round=None):
        self.child_rss_kb = []
        spec = wl.WORKLOADS[workload]
        is_cli = workload == "cli-processes"
        self.pb = import_probeint(with_cli=is_cli)
        self.rounds, self.no_instances = [], []
        for r in range(spec["pool"]) if only_round is None else (only_round,):
            rng = ins.round_rng(seed, workload, r)
            if is_cli:
                specs, nos = wl.cli_round(rng, workdir, r)
                self.rounds.append(self._cli_calls(specs, workdir, in_process_cli))
            else:
                calls, nos = spec["round"](self.pb, rng)
                self.rounds.append(calls)
            self.no_instances += nos

    def _cli_calls(self, specs, workdir, in_process):
        env = dict(os.environ, PYTHONPATH=SRC)
        calls = []
        for label, truth, argv, check in specs:
            if in_process:
                def run(argv=argv):
                    return _dispatch_in_process(argv)
            else:
                def run(argv=argv):
                    code, out, rss = wl.run_child(
                        [sys.executable, "-c", wl.CLI_BOOT] + argv, env, workdir, BUDGET_S
                    )
                    self.child_rss_kb.append(rss)
                    if code is None:
                        raise BudgetExceeded()
                    return code, out

            first = {}

            def check_first(out, check=check, first=first):
                first["stdout"] = out[1]
                check(out)

            def check_again(out, check=check, first=first):
                check(out)
                if out[1] != first.get("stdout"):
                    raise CheckFailed("the same command printed other bytes")

            calls.append(wl.Call(label, truth, run, check_first))
            calls.append(wl.Call(label + " (again)", truth, run, check_again))
        return calls


def precheck(no_instances) -> None:
    """Each no-instance holds a gadget that the brute force rejects."""
    verdicts = {}
    for inst in no_instances:
        if isinstance(inst, ins.MatrixInstance):
            data = ins.MATRIX_GADGETS[inst.gadget]
            if ("m", inst.gadget) not in verdicts:
                verdicts[("m", inst.gadget)] = checks.brute_force_matrix(data)
            checks.check_contains_matrix_gadget(inst, data)
            member = verdicts[("m", inst.gadget)]
        else:
            gadget = ins.gadget_instance(inst.gadget)
            if ("g", inst.gadget) not in verdicts:
                verdicts[("g", inst.gadget)] = checks.brute_force_graph(gadget)
            checks.check_contains_gadget(inst, gadget)
            member = verdicts[("g", inst.gadget)]
        if member:
            raise CheckFailed(f"gadget {inst.gadget} is not a no-instance")


def _empty_result() -> dict:
    return {"attempted": 0, "failed": 0, "unexpected": 0, "failures": Counter(),
            "total": 0.0, "rounds": 0, "yes": [], "no": [], "all": []}


def _merge(into: dict, part: dict) -> None:
    for key in ("attempted", "failed", "unexpected", "total", "rounds"):
        into[key] += part[key]
    for key in ("yes", "no", "all"):
        into[key] += part[key]
    into["failures"].update(part["failures"])


def run_pass(pool, guarded: bool) -> dict:
    """Make every call of every round of the pool once.

    `guarded` calls enforce their own budget (CLI children are killed);
    other calls are stopped by an interval timer.
    """
    result = _empty_result()
    for call in (c for calls in pool for c in calls):
        err, known, out, elapsed = None, False, None, BUDGET_S
        try:
            if not guarded:
                signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
            t0 = time.perf_counter()
            try:
                out = call.run()
            finally:
                elapsed = time.perf_counter() - t0
                if not guarded:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except BudgetExceeded:
            err = f"over the {BUDGET_S:.0f} s budget"
        except Exception as e:  # a fault in the program is a failed call
            err = f"raised {type(e).__name__}: {e}"
        if err is None:
            try:
                call.check(out)
            except CheckFailed as e:
                err, known = str(e), isinstance(e, KnownFault)
            except (KeyError, ValueError, TypeError, IndexError) as e:
                err = f"malformed output: {type(e).__name__}: {e}"
        result["attempted"] += 1
        result["total"] += elapsed
        result["all"].append(elapsed)
        result["yes" if call.truth else "no"].append(elapsed)
        if err is not None:
            result["failed"] += 1
            result["unexpected"] += not known
            result["failures"][(call.label, err, known)] += 1
    result["rounds"] = len(pool)
    return result


def measure(run_one_pass, seconds: float, min_calls: int) -> dict:
    """Make whole passes until `seconds` of call time and `min_calls` calls.

    Every pass makes the same calls, so a faster program times the same
    instances, only more often.
    """
    result = _empty_result()
    while result["rounds"] == 0 or result["total"] < seconds or len(result["all"]) < min_calls:
        _merge(result, run_one_pass())
    return result


def round_in_child(args, r: int, part: int) -> dict:
    """Every PARTS-th call of round `r` from `part` on, set up and run in a
    fresh interpreter (see --round)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--round", str(r), "--part", str(part),
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: round {r} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["failures"] = Counter({tuple(key): count for key, count in result["failures"]})
    return result


def _p90(values) -> float:
    ordered = sorted(values)
    rank = -(-9 * len(ordered) // 10)  # nearest rank, ceil(0.9 n)
    return ordered[rank - 1]


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def import_times() -> dict:
    """Cumulative import seconds of probeint.cli and of numpy, by -X importtime."""
    probe, numpy = [], []
    env = dict(os.environ, PYTHONPATH=SRC)
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import probeint.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        total_probe = total_numpy = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            parts = line.split("|")
            try:
                cumulative = int(parts[1])
            except ValueError:
                continue  # the header line
            name = parts[2]
            if name.startswith(" probeint") and not name.startswith("  "):
                total_probe += cumulative
            if name.strip() == "numpy" and not total_numpy:
                total_numpy = cumulative
        probe.append(total_probe / 1e6)
        numpy.append(total_numpy / 1e6)
    return {"probeint": statistics.median(probe), "numpy": statistics.median(numpy)}


def report_failures(workload: str, result: dict) -> None:
    sys.stderr.write(
        f"{workload}: {result['rounds']} rounds, {result['attempted']} calls, "
        f"{result['failed']} failed, {result['unexpected']} of them unexpected\n"
    )
    for (label, err, known), count in sorted(result["failures"].items()):
        kind = "known fault" if known else "UNEXPECTED"
        sys.stderr.write(f"  failed x{count} ({kind}): {label}: {err}\n")


def run_untraced(args, workdir: str, setup_s: float):
    if args.workload == "cli-processes":
        # every call is a fresh interpreter already
        setup = Setup(args.workload, args.seed, workdir)
        precheck(setup.no_instances)
        result = measure(lambda: run_pass(setup.rounds, guarded=True), args.seconds, MIN_CALLS)
        rss_kb = max(setup.child_rss_kb)
    else:
        # Each round runs in PARTS fresh interpreters.  The same calls run
        # 30% slower in some interpreters than in others, started a second
        # apart; more processes per pass spread that over the pass.
        rss = []

        def one_pass():
            result = _empty_result()
            for r in range(wl.WORKLOADS[args.workload]["pool"]):
                for part in range(PARTS):
                    share = round_in_child(args, r, part)
                    rss.append(share.pop("rss_kb"))
                    _merge(result, share)
            result["rounds"] = wl.WORKLOADS[args.workload]["pool"]
            return result

        result = measure(one_pass, args.seconds, MIN_CALLS)
        rss_kb = max(rss)
    report_failures(args.workload, result)
    rss_mb = rss_kb / 1024
    metrics = {
        "setup_s": setup_s,
        "calls_per_s": result["attempted"] / result["total"],
        "yes_ms_p50": statistics.median(result["yes"]) * 1000,
        "no_ms_p50": statistics.median(result["no"]) * 1000,
        "call_ms_p90": _p90(result["all"]) * 1000,
        "peak_rss_mb": rss_mb,
    }
    return result, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def run_traced(args, workdir: str):
    """Half the time untraced, half traced, on the same rounds."""
    tracer = Tracer()
    import_probeint(with_cli=True)
    # only build_graph is wrapped during set-up, so no call made at set-up
    # can hold a wrapper into the untraced half
    tracer.install(only={"graphs.build"})
    try:
        setup = Setup(args.workload, args.seed, workdir, in_process_cli=True)
    finally:
        tracer.uninstall()
    build_s = tracer.layer_times()["inclusive"]["graphs.build"]
    tracer.reset()
    precheck(setup.no_instances)

    plain = measure(lambda: run_pass(setup.rounds, guarded=False), args.seconds / 2, 0)
    if tracer.spans or tracer.counts:
        raise SystemExit("error: the untraced half recorded spans or counts")
    tracer.install()
    try:
        traced = measure(lambda: run_pass(setup.rounds, guarded=False), args.seconds / 2, 0)
    finally:
        tracer.uninstall()
    report_failures(f"{args.workload} (untraced half)", plain)
    report_failures(f"{args.workload} (traced half)", traced)
    traced["unexpected"] += plain["unexpected"]
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"))

    times = tracer.layer_times()
    imports = import_times() if args.workload == "cli-processes" else {}
    rounds = traced["rounds"]
    overhead = (plain["attempted"] / plain["total"]) / (traced["attempted"] / traced["total"]) - 1
    metrics = {}
    for name, (source, key, unit) in PER_LAYER.items():
        if source in ("inclusive", "self"):
            value = times[source][key] / rounds
        elif source == "count":
            value = tracer.counts[key] / rounds
        elif source == "setup":
            value = build_s
        elif source == "import":
            value = imports.get(key, 0.0)
        else:
            value = overhead * 100
        metrics[name] = {"value": value, "unit": unit}
    return traced, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--round", type=int, help=argparse.SUPPRESS)  # in a child: the round
    parser.add_argument("--part", type=int, default=0, help=argparse.SUPPRESS)  # and its share
    args = parser.parse_args()

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.setup_only:
            t0 = time.perf_counter()
            Setup(args.workload, args.seed, workdir)
            print(time.perf_counter() - t0)
            return 0
        import_probeint(with_cli=False)  # fail before any run without sources
        signal.signal(signal.SIGALRM, _on_alarm)
        if args.round is not None:
            setup = Setup(args.workload, args.seed, workdir, only_round=args.round)
            precheck(setup.no_instances)
            part = run_pass([setup.rounds[0][args.part::PARTS]], guarded=False)
            part["failures"] = [[list(key), count] for key, count in part["failures"].items()]
            part["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print(json.dumps(part))
            return 0
        if args.trace:
            result, metrics = run_traced(args, workdir)
        else:
            result, metrics = run_untraced(args, workdir, setup_seconds(args.workload, args.seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": result["unexpected"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
