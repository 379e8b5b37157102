"""Layer bindings and the in-memory span recorder of the traced mode.

The benchmark never traces inside ``src/``: it times its own calls into the
public functions of each ``spindefect`` module.  ``bind`` returns those
functions either bare (untraced runs, zero added cost) or wrapped so that each
call appends one span to a ``Tracer``.  Calls the package makes internally,
such as ``delta_engine`` calling ``sigma``, are not seen.
"""

from __future__ import annotations

import importlib
import math
import statistics
from time import perf_counter
from types import SimpleNamespace

# metric prefix -> (module, public function, size of one call or None)
LAYERS = {
    "sigma.sigma": ("sigma", "sigma", lambda q, p, eps: abs(p)),
    "seifert.spin_enumerate": ("seifert", "spin_enumerate", None),
    "seifert.delta_engine": ("seifert", "delta_engine", None),
    "catalog.classify": ("catalog", "classify", None),
    "catalog.delta_table": ("catalog", "delta_table", None),
    "plumbing.seifert_to_plumbing": ("plumbing", "seifert_to_plumbing", None),
    "plumbing.wu_solutions": ("plumbing", "wu_solutions", None),
    "plumbing.plumbing_delta": ("plumbing", "plumbing_delta", lambda g, w: len(g)),
    "obstruction.spin_filling_feasible": ("obstruction", "spin_filling_feasible", None),
}

CLI_SUBCOMMANDS = (
    "sigma", "evencf", "spin-list", "delta", "plumbing", "seifert-to-plumbing",
    "feasible", "definite", "cobordism", "rp2", "char-sphere", "selftest",
)


class Tracer:
    """Spans (id, name, start, end, parent id, item id, ok, size), kept in memory."""

    def __init__(self):
        self.spans = []
        self.items = []  # the input of each item id
        self._next_id = 0
        self._item = None  # (span id, item id) of the open item span

    def _reserve(self) -> int:
        self._next_id += 1
        return self._next_id

    def item(self, item, call):
        """Run ``call()`` inside a root span named ``item``."""
        span_id = self._reserve()
        item_id = len(self.items)
        self.items.append(item)
        self._item = (span_id, item_id)
        start = perf_counter()
        ok = False
        try:
            result = call()
            ok = True
            return result
        finally:
            self.spans.append((span_id, "item", start, perf_counter(), None, item_id, ok, None))
            self._item = None

    def wrap(self, name, fn, size_of=None):
        spans = self.spans

        def traced(*args, **kwargs):
            span_id = self._reserve()
            parent, item_id = self._item or (None, None)
            start = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                size = size_of(*args, **kwargs) if size_of else None
                spans.append((span_id, name, start, end, parent, item_id, ok, size))

        return traced

    def to_json(self) -> list[dict]:
        keys = ("id", "name", "start", "end", "parent", "item", "ok", "size")
        return [dict(zip(keys, span)) for span in self.spans]


def bind(run_cli, tracer: Tracer | None = None) -> SimpleNamespace:
    """The functions a workload may call, by function name, plus ``cli``.

    Takes them from the ``spindefect`` modules imported last.  ``cli`` maps
    each subcommand to ``run_cli``, so that a traced run records one
    ``cli.<subcommand>`` span per process.
    """
    api = SimpleNamespace()
    api.FourManifoldShape = importlib.import_module("spindefect.obstruction").FourManifoldShape
    for name, (module, fn_name, size_of) in LAYERS.items():
        fn = getattr(importlib.import_module(f"spindefect.{module}"), fn_name)
        setattr(api, fn_name, tracer.wrap(name, fn, size_of) if tracer else fn)
    api.cli = {sub: tracer.wrap(f"cli.{sub}", run_cli) if tracer else run_cli
               for sub in CLI_SUBCOMMANDS}
    return api


def quantile_pair(values) -> tuple[float, float]:
    """(median, 90th percentile) of ``values``; 0.0 for an empty list."""
    if not values:
        return 0.0, 0.0
    if len(values) == 1:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def growth_exponent(samples) -> float:
    """Least-squares slope of log(time) on log(size) over per-bucket medians.

    ``samples`` are (size, seconds) pairs.  Buckets are half-octaves of
    size, so a sweep spread geometrically gives one point per size step and
    no bucket outweighs another by its sample count.  Returns 0.0 when fewer
    than two buckets hold samples.
    """
    buckets = {}
    for size, seconds in samples:
        if size > 0 and seconds > 0:
            buckets.setdefault(round(2 * math.log2(size)), []).append((size, seconds))
    points = [
        (math.log(statistics.median(s for s, _ in b)), math.log(statistics.median(t for _, t in b)))
        for b in buckets.values()
    ]
    if len(points) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def layer_metrics(tracer: Tracer, is_growth_item) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans: counts, busy time, percentiles, growth.

    ``is_growth_item(item)`` selects the items whose ``sigma`` calls enter
    ``sigma.sigma.growth_exp`` (the run-heavy ones on ``long-cf``).
    """
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[1], []).append(span)
    out = {}
    for name in list(LAYERS) + [f"cli.{sub}" for sub in CLI_SUBCOMMANDS]:
        spans = by_name.get(name, [])
        durations = [end - start for _, _, start, end, *_ in spans]
        if name.startswith("cli."):
            out[f"{name}.p50_ms"] = (quantile_pair(durations)[0] * 1e3, "ms")
            continue
        p50, p90 = quantile_pair(durations)
        out[f"{name}.calls"] = (len(spans), "count")
        out[f"{name}.busy_s"] = (math.fsum(durations), "s")
        out[f"{name}.p50_us"] = (p50 * 1e6, "us")
        out[f"{name}.p90_us"] = (p90 * 1e6, "us")
        out[f"{name}.failed"] = (sum(1 for span in spans if not span[6]), "count")
    sigma_spans = by_name.get("sigma.sigma", [])
    out["sigma.sigma.growth_exp"] = (growth_exponent(
        (s[7], s[3] - s[2]) for s in sigma_spans if is_growth_item(tracer.items[s[5]])), "1")
    pd_spans = by_name.get("plumbing.plumbing_delta", [])
    out["plumbing.plumbing_delta.growth_exp"] = (growth_exponent(
        (s[7], s[3] - s[2]) for s in pd_spans), "1")
    out["plumbing.vertices"] = (sum(s[7] for s in pd_spans), "count")
    return out
