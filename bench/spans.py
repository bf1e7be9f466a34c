"""Span tracer that times sptcrank's layers from outside the program.

`Tracer.install()` replaces each public function named in TARGETS by a
wrapper that records a span (name, start, end, parent span) and, for a
few functions, counts work and distinct argument keys.  The wrapper is
bound under every name that pointed at the original in a loaded sptcrank
module, so `from .series import divide_by_one_minus_qk` in qseries and
`from .qseries import euler_product` in bivariate are traced too.
References held inside containers (qseries._BUILDERS, cli._COEFF_FAMILIES)
stay unwrapped; no benchmark workload reaches them.

A layer's self time is the duration of its spans minus the time covered
by their child spans, so the self times of one invocation sum to the
duration of its root span, `cli.run_cli`.  Spans stay in memory and are
written out by `Tracer.write` when the invocation ends.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("cli", "verify", "qseries", "series", "divisors", "lattice", "bounds", "bivariate")

# Public functions traced per layer; "Class.method" names a class attribute.
TARGETS = {
    "cli": ("run_cli",),
    "verify": ("run_checks",),
    "qseries": (
        "euler_product", "x_inner_series", "x_series", "y_series", "z_series",
        "mc1_series", "mc5_series", "t_series", "t1", "t3", "t5", "t7", "t9",
        "tprime", "r1", "r2",
    ),
    "series": (
        "divide_by_one_minus_qk", "sum_series", "geometric_term",
        "TruncatedSeries.__post_init__", "TruncatedSeries.__add__",
        "TruncatedSeries.__sub__", "TruncatedSeries.__neg__",
    ),
    "divisors": (
        "census", "y_direct", "z_direct", "containment_violation",
        "OddPartDecomposition.of",
    ),
    "lattice": (
        "count_region", "geometry_figures", "parity_lemma_check",
        "m1_upper_bound", "m2_lower_bound",
    ),
    "bounds": (
        "classify_strict", "f_of_m", "threshold_profile",
        "theorem2_lower_bound", "m2_minus_m1_bound_check",
    ),
    "bivariate": ("spt_crank_bivariate", "extract_m"),
}

# Work counters and distinct-key sets, fed by (tracer, args, result) after a call.
OBSERVERS = {
    "series.TruncatedSeries.__post_init__":
        lambda t, a, r: t.add("series.coeffs_validated", len(a[0].coeffs)),
    "qseries.mc1_series": lambda t, a, r: t.key("qseries.mc", ("mc1", abs(a[0]), a[1])),
    "qseries.mc5_series": lambda t, a, r: t.key("qseries.mc", ("mc5", abs(a[0]), a[1])),
    "divisors.census": lambda t, a, r: t.key("divisors.census", (a[0], a[1])),
    "lattice.count_region":
        lambda t, a, r: (t.key("lattice.count", a[0]), t.add("lattice.points", r.total)),
    "bounds.classify_strict":
        lambda t, a, r: t.add("bounds.near_ties", r.value == "near-tie"),
}


class Tracer:
    """Spans and counters of one traced invocation."""

    def __init__(self) -> None:
        self.names: list = []  # span name per name id
        self.layer_of: list = []  # layer per name id
        self.self_ns: list = []  # per name id
        self.calls: list = []  # per name id
        self.parent = array("q")  # per span: index of the parent span, or -1
        self.name = array("q")  # per span: name id
        self.start = array("q")  # per span: perf_counter_ns at entry
        self.end = array("q")  # per span: perf_counter_ns at exit
        self.counters: Counter = Counter()
        self.keys: defaultdict = defaultdict(set)
        self._stack: list = []  # [span index, ns covered by children]

    def add(self, counter: str, amount: int) -> None:
        self.counters[counter] += amount

    def key(self, keyset: str, key) -> None:
        self.keys[keyset].add(key)

    def install(self) -> None:
        """Wrap every TARGETS function of the loaded sptcrank package."""
        import sptcrank.cli  # noqa: F401  (loads every layer)

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "sptcrank"]
        for layer, attrs in TARGETS.items():
            home = sys.modules[f"sptcrank.{layer}"]
            for attr in attrs:
                owner_name, _, fname = attr.rpartition(".")
                name = f"{layer}.{attr}"
                if owner_name:
                    owner = getattr(home, owner_name)
                    raw = vars(owner)[fname]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, layer, raw.__func__))
                    else:
                        wrapped = self._wrap(name, layer, raw)
                    setattr(owner, fname, wrapped)
                    continue
                original = getattr(home, fname)
                wrapper = self._wrap(name, layer, original)
                for mod in modules:
                    for bound, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, bound, wrapper)

    def _wrap(self, name: str, layer: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self.self_ns.append(0)
        self.calls.append(0)
        observe = OBSERVERS.get(name)
        parents, names, starts, ends = self.parent, self.name, self.start, self.end
        stack, self_ns, calls, clock = self._stack, self.self_ns, self.calls, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1][0] if stack else -1)
            names.append(nid)
            ends.append(0)
            frame = [idx, 0]
            stack.append(frame)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                ends[idx] = end
                stack.pop()
                dur = end - starts[idx]
                self_ns[nid] += dur - frame[1]
                calls[nid] += 1
                if stack:
                    stack[-1][1] += dur
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def summary(self) -> dict:
        """Self time per layer, calls per traced name, counters and distinct keys."""
        self_s = dict.fromkeys(LAYERS, 0.0)
        for layer, ns in zip(self.layer_of, self.self_ns):
            self_s[layer] += ns / 1e9
        return {
            "self_s": self_s,
            "calls": dict(zip(self.names, self.calls)),
            "counters": dict(self.counters),
            "unique": {k: len(v) for k, v in self.keys.items()},
        }

    def write(self, path: str, run_id: str) -> None:
        """Write the spans as tab-separated lines, span i on data line i.

        The header gives the run id, the name table that the name column
        indexes, and the clock origin; start and end are ns after it.
        """
        t0 = self.start[0] if self.start else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# run\t{run_id}\n# names\t" + "\t".join(self.names) + "\n")
            fh.write(f"# origin_ns\t{t0}\n# parent\tname\tstart_ns\tend_ns\n")
            fh.writelines(
                f"{p}\t{n}\t{s - t0}\t{e - t0}\n"
                for p, n, s, e in zip(self.parent, self.name, self.start, self.end)
            )


def layer_metrics(summaries: list) -> dict:
    """Per-layer metrics of one sample from its invocations' summaries.

    A layer's self_s is the self time of its traced functions.  A unique
    ratio is distinct keys over calls, and 0 for a layer not called.
    """

    def total(section: str, key: str):
        return sum(s[section].get(key, 0) for s in summaries)

    def ratio(keyset: str, calls: int) -> float:
        return total("unique", keyset) / calls if calls else 0.0

    mc = total("calls", "qseries.mc1_series") + total("calls", "qseries.mc5_series")
    census = total("calls", "divisors.census")
    counts = total("calls", "lattice.count_region")
    metrics = {f"{layer}.self_s": total("self_s", layer) for layer in LAYERS}
    metrics.update({
        "series.divide_calls": total("calls", "series.divide_by_one_minus_qk"),
        "series.ctor_count": total("calls", "series.TruncatedSeries.__post_init__"),
        "series.coeffs_validated": total("counters", "series.coeffs_validated"),
        "qseries.mc_calls": mc,
        "qseries.mc_unique_ratio": ratio("qseries.mc", mc),
        "divisors.census_calls": census,
        "divisors.census_unique_ratio": ratio("divisors.census", census),
        "lattice.count_calls": counts,
        "lattice.count_unique_ratio": ratio("lattice.count", counts),
        "lattice.points": total("counters", "lattice.points"),
        "bounds.classify_calls": total("calls", "bounds.classify_strict"),
        "bounds.near_ties": total("counters", "bounds.near_ties"),
    })
    return metrics
