"""spindefect benchmark: one seeded workload, timed end to end or traced per layer.

Run from the repository root::

    python3 bench/run.py --workload small-spaces --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

It imports ``spindefect`` from ``src/`` of the tree it sits in (nothing to
build) and fails with exit code 2 when that tree has no ``src/spindefect``.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones, taken from
spans the benchmark records around its own calls into each module.  Each run
also writes a record (seed, item counts, Python, platform, CPU count, git
commit, every metric) to ``.bench_out/``, and a traced run its spans too.

``--smoke`` runs every workload for one round in both modes and asserts
that every metric named in ``BENCHMARK.json`` is reported with its unit and
that no item failed.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import Tracer, bind, layer_metrics, quantile_pair
from workloads import WORKLOADS, CliSession

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SRC = ROOT / "src"

# Untraced runs repeat every slot at least 8 times, so that its best time is
# a best of 8; the smallest round has 14 items, so at least 11 item times lie
# beyond the 90th percentile.  Traced runs need only a few spans per layer.
MIN_ROUNDS = 8
MIN_TRACED_ROUNDS = 2
PROBES = 15  # set-ups timed between rounds, per run
FLOOR_REPS = 5  # processes each for the interpreter-start and import floors
SELFTEST_REPS = 3
CLI_TIMEOUT_S = 60
# read by delta_engine to widen its search; the benchmark runs the default
SEARCH_BOUND_ENV = "SPINDEFECT_SEARCH_BOUND"
# The reference loop, run between items every REFERENCE_EVERY_S, is fixed
# pure-Python work that no change to the program can touch.  End-to-end
# times are scaled to a machine on which it takes REFERENCE_S at its fastest.
REFERENCE_STEPS = 3_000
REFERENCE_S = 1e-3
REFERENCE_EVERY_S = 0.05


def import_package():
    """Import ``spindefect`` afresh from ``src/`` (modules already loaded are dropped)."""
    for name in [m for m in sys.modules if m == "spindefect" or m.startswith("spindefect.")]:
        del sys.modules[name]
    return importlib.import_module("spindefect")


def run_cli(argv, stdin=None):
    """One ``python -m spindefect.cli`` process; (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "spindefect.cli", *argv],
        input=stdin, capture_output=True, text=True, cwd=ROOT,
        env=_child_env(), timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def _process_seconds(argv) -> float:
    start = perf_counter()
    subprocess.run(argv, capture_output=True, cwd=ROOT, env=_child_env(),
                   timeout=CLI_TIMEOUT_S, check=True)
    return perf_counter() - start


class Pass:
    """Items run through one binding of the layers (bare or traced).

    Keeps counts, not outputs: each output is checked as soon as its item
    returns, outside the item's timed span, so memory does not grow with
    the number of items run.
    """

    def __init__(self, api, check, tracer=None):
        self.api = api
        self.check = check
        self.tracer = tracer
        self.count = 0
        self.busy = 0.0
        self.slots = {}  # slot in round -> [items run, fastest time]
        self.failed = 0
        self.messages = []

    def run(self, workload, slot, item):
        call = functools.partial(workload.run, self.api, item)
        t0 = perf_counter()
        try:
            out = self.tracer.item(item, call) if self.tracer else call()
        except Exception as exc:  # a failed item is counted, not fatal
            dt = perf_counter() - t0
            message = f"{type(exc).__name__}: {exc}"
        else:
            dt = perf_counter() - t0
            message = _check(self.check, item, out)
        self.count += 1
        self.busy += dt
        entry = self.slots.setdefault(slot, [0, dt])
        entry[0] += 1
        entry[1] = min(entry[1], dt)
        if message is not None:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(message)

    def best_times(self) -> list[float]:
        """Each item's time replaced by the fastest time of its slot in the run.

        Every round holds the same kind of input in each slot, so a slot's
        fastest repetition is that kind's cost with the least interference.
        On a shared machine whose speed drifts by tens of percent over
        seconds, these best times repeat from run to run far more closely
        than medians do, and percentiles and rates are taken from them.
        Every round draws fresh inputs, so a slot's best time is that of the
        cheapest input drawn for it.
        """
        return [best for count, best in self.slots.values() for _ in range(count)]


def _check(check, item, out):
    try:
        return check(item, out)
    except Exception as exc:  # a check that raises is a failed output
        return f"check raised {type(exc).__name__}: {exc}"


def reference_seconds() -> float:
    """Wall time of the reference loop: the machine's speed at this moment.

    Builtin calls and short-lived objects, like the package's own code: on
    a VM whose speed drifts, this loop's time followed the workloads' about
    twice as closely as a loop of bare integer arithmetic did.
    """
    t0 = perf_counter()
    total = 0
    for i in range(REFERENCE_STEPS):
        total += len(str(i)) + max(i, 7) + (i & 3)
    return perf_counter() - t0


def timed_loop(workload, rounds, passes, seconds, min_rounds, probe=None, probes=0):
    """Run whole rounds until ``seconds`` of item time and ``min_rounds`` rounds.

    ``rounds`` yields fresh inputs; drawing them is not item time.  Each
    round goes through every pass in turn, so a traced pass and a bare pass
    see the same inputs under the same machine conditions.  ``probe`` runs
    between rounds, ``probes`` times spread evenly over the item time (the
    rest after the loop), so that measurements taken outside the items
    sample the whole run rather than one moment of it.  Returns the number
    of rounds run and the times of the reference loop.
    """
    done_probes = 0
    reference = []
    next_reference = 0.0
    for count, items in enumerate(rounds, 1):
        for p in passes:
            for slot, item in enumerate(items):
                if perf_counter() >= next_reference:
                    reference.append(reference_seconds())
                    next_reference = perf_counter() + REFERENCE_EVERY_S
                p.run(workload, slot, item)
        busy = sum(p.busy for p in passes)
        while done_probes < probes and busy >= seconds * (done_probes + 1) / (probes + 1):
            probe()
            done_probes += 1
        if busy >= seconds and count >= min_rounds:
            break
    for _ in range(probes - done_probes):
        probe()
    return count, reference


def measure(name, seed, seconds, trace, *, min_rounds=None, probes=PROBES):
    """Set up, run and check one workload; returns (metrics, record)."""
    workload = WORKLOADS[name]

    def set_up():
        t0 = perf_counter()
        sd = import_package()
        rounds = workload.rounds(sd, seed)
        first = next(rounds)
        setup_times.append(perf_counter() - t0)
        gc.collect()
        return sd, itertools.chain([first], rounds)

    setup_times = []
    # the first set-up's modules serve the whole run; later ones are timed only
    sd, rounds = set_up()
    check = workload.checker(sd)
    if min_rounds is None:
        min_rounds = MIN_TRACED_ROUNDS if trace else MIN_ROUNDS
    metrics = {}
    if trace:
        # the command-line processes count against the run's seconds
        t0 = perf_counter()
        tracer = Tracer()
        cli_pass = _cli_session(sd, seed, tracer)
        metrics.update(_cli_floors())
        loop_seconds = max(0.0, seconds - (perf_counter() - t0))
        passes = [Pass(bind(run_cli, tracer), check, tracer), Pass(bind(run_cli), check)]
        probes = 0
    else:
        loop_seconds = seconds
        passes = [Pass(bind(run_cli), check)]

    round_count, reference = timed_loop(workload, rounds, passes, loop_seconds, min_rounds,
                                        set_up, probes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if trace:
        traced, bare = passes
        passes.append(cli_pass)
        metrics.update(layer_metrics(tracer, workload.is_growth_item))
        metrics["trace.overhead_frac"] = (traced.busy / bare.busy - 1, "frac")
        _write_json(OUT_DIR / f"spans-{name}-seed{seed}.json", tracer.to_json())
    else:
        (bare,) = passes
        times = bare.best_times()
        p50, p90 = quantile_pair(times)
        unscaled = {
            "items_per_s": len(times) / math.fsum(times),
            "item_p50_ms": p50 * 1e3,
            "item_p90_ms": p90 * 1e3,
            "setup_s": statistics.median(setup_times),
        }
        # The items' best times and the loop's best time both come from the
        # fastest state the machine reached in the run, so their ratio holds
        # when a whole run falls in a slow phase; the set-up median is scaled
        # by the same factor.
        speed = min(reference) / REFERENCE_S
        metrics.update({
            "items_per_s": (unscaled["items_per_s"] * speed, "1/s"),
            "item_p50_ms": (unscaled["item_p50_ms"] / speed, "ms"),
            "item_p90_ms": (unscaled["item_p90_ms"] / speed, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (unscaled["setup_s"] / speed, "s"),
        })
    attempted = sum(p.count for p in passes)
    failed = sum(p.failed for p in passes)
    if trace:
        metrics["failed_frac"] = (failed / attempted, "frac")
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "loop": "closed, one thread, one item at a time",
        "items": {"attempted": attempted, "failed": failed, "timed": passes[0].count,
                  "per_pass": [p.count for p in passes],
                  "rounds": round_count, "per_round": len(passes[0].slots)},
        "item_seconds": sum(p.busy for p in passes),
        "setup_reps": len(setup_times),
        "reference_s": {"best": min(reference), "median": statistics.median(reference),
                        "runs": len(reference)},
        "failures": [m for p in passes for m in p.messages],
        "python": sys.version,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "metrics": _metrics_json(metrics),
    }
    if not trace:
        record["unscaled"] = unscaled
    return metrics, record


def _metrics_json(metrics) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _cli_session(sd, seed, tracer):
    """One traced round of ``python -m spindefect.cli`` processes, checked.

    The round holds all 12 subcommands in text and ``--json`` form, exit-1
    verdicts and exit-2 bad inputs.  A process's wall time swings with the
    machine's speed far more than in-process work does, too much for a
    gated end-to-end metric, so the command-line layer is measured here, in
    every traced run, as per-layer metrics.
    """
    session = CliSession()
    items = next(session.rounds(sd, seed))
    p = Pass(bind(run_cli, tracer), session.checker(sd), tracer)
    for slot, item in enumerate(items):
        p.run(session, slot, item)
    return p


def _cli_floors():
    """Interpreter start, ``import spindefect.cli`` above it, and the selftest."""
    bare, imported = [], []
    for _ in range(FLOOR_REPS):
        bare.append(_process_seconds([sys.executable, "-c", "pass"]))
        imported.append(_process_seconds([sys.executable, "-c", "import spindefect.cli"]))
    floor = statistics.median(bare)
    selftest = min(_process_seconds([sys.executable, "-m", "spindefect.cli", "selftest"])
                   for _ in range(SELFTEST_REPS))
    return {
        "cli.interp_start_ms": (floor * 1e3, "ms"),
        "cli.import_ms": ((statistics.median(imported) - floor) * 1e3, "ms"),
        "selftest_s": (selftest, "s"),
    }


def _git_commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)), timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip()


def _write_json(path, doc):
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc))


def result_line(metrics, record) -> str:
    items = record["items"]
    return json.dumps({
        "correct": items["failed"] == 0,
        "attempted": items["attempted"],
        "failed": items["failed"],
        "metrics": _metrics_json(metrics),
    })


def report(metrics, record) -> None:
    items = record["items"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{items['attempted']} items ({items['per_round']} per round), "
          f"{items['failed']} failed, {record['item_seconds']:.2f} s of item time")
    print(f"python {record['python'].split()[0]}, {record['platform']}, "
          f"nproc {record['nproc']}, commit {record['git_commit']}")
    print(f"reference loop: best {record['reference_s']['best'] * 1e3:.4f} ms, "
          f"median {record['reference_s']['median'] * 1e3:.4f} ms of {record['reference_s']['runs']} runs")
    for message in record["failures"]:
        print(f"  failure: {message}")
    for k, (v, u) in metrics.items():
        note = f"  (of {items['timed']} item times)" if k.startswith("item_p") else ""
        print(f"{k:44s} {v:14.6g} {u}{note}")


def smoke() -> int:
    """Every workload once at one round, both modes; every named metric present."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            metrics, record = measure(w["name"], 1, 0, trace, min_rounds=1, probes=1)
            report(metrics, record)
            for m in names:
                got = metrics.get(m["name"])
                if got is None or got[1] != m["unit"] or not isinstance(got[0], (int, float)) \
                        or not math.isfinite(got[0]):
                    problems.append(f"{w['name']} trace {trace}: {m['name']} missing or wrong unit: {got}")
            if record["items"]["failed"]:
                problems.append(f"{w['name']} trace {trace}: failed_frac is not 0: {record['failures']}")
    for problem in problems:
        print("SMOKE FAIL", problem)
    print("smoke:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "spindefect" / "__init__.py").is_file():
        print(f"error: no spindefect package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # dropped here, so that neither this process nor its children see it
    os.environ.pop(SEARCH_BOUND_ENV, None)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    metrics, record = measure(args.workload, args.seed, args.seconds, args.trace)
    _write_json(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
    report(metrics, record)
    print(result_line(metrics, record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
