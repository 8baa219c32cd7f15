"""Per-layer tracing from outside the package.

`Tracer.install()` replaces each function in `WRAPPED` by a wrapper that
records one span per call, in memory: (name, tag, parent span, start, end) in
nanoseconds.  A function is patched under every name that binds it in any
pwlannulus module, because a module that imported the name for itself keeps
calling the original otherwise: `cli` binds `to_canonical` and
`from_canonical`, `classifier` binds `derive_invariants`, and the package
namespace binds them all.  `uninstall()` puts the originals back.

Leaf helpers cheaper than a wrapper are left out on purpose (halfmap.exists,
wpoly, q_value, displacement.f_value, oracle.flow); their time is counted as
the self time of the function that calls them.
"""

from __future__ import annotations

import json
import sys
import time

from pwlannulus.cli import COMMANDS
from pwlannulus.displacement import DEFAULT_GRID

WRAPPED = {
    "params": ("derive_invariants", "to_canonical", "from_canonical"),
    "halfmap": ("domain", "evaluate", "derivative"),
    "displacement": ("make_context", "delta", "find_crossing_orbits",
                     "sign_delta_prime_at_zero"),
    "classifier": ("classify",),
    "oracle": ("next_crossing", "sample_trajectory", "verify_periodic", "oracle_halfmap"),
    "cli": ("run",),
}
LAYERS = tuple(WRAPPED)
EVALUATE_BRANCHES = ("lam_solve", "a_neg", "a_zero", "a_pos")


def evaluate_branch(h) -> str:
    """The formula branch halfmap.evaluate takes for half-system h."""
    a, T, D = h.forward_triple()
    if a == 0.0:
        return "a_zero"
    if a > 0.0:
        return "a_pos"
    return "lam_solve" if T < 0.0 and 4.0 * D - T * T > 0.0 else "a_neg"


def _scan_tag(args, kwargs, result):
    grid = args[1] if len(args) > 1 else kwargs.get("grid_n", DEFAULT_GRID)
    return grid, sum(1 for o in result if o.kind.value == "isolated")


# Tags attach what a metric needs to know about a call: (args, kwargs, result) -> tag
TAGS = {
    "halfmap.evaluate": lambda args, kwargs, result: evaluate_branch(args[0]),
    "displacement.find_crossing_orbits": _scan_tag,
    "cli.run": lambda args, kwargs, result: (args[0].command, args[0].grid),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._patches = []   # (module, attribute, original)

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tag = TAGS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, tag(args, kwargs, result) if tag and result is not None
                              else None, parent, start, end)

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "pwlannulus" or n.startswith("pwlannulus."))]
        for layer, names in WRAPPED.items():
            home = sys.modules["pwlannulus." + layer]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patches.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        """One JSON line per span: name, tag, parent index, start and end in ns."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def _ancestor(spans, i, name):
    """Index of the nearest enclosing span called `name`, or -1."""
    p = spans[i][2]
    while p >= 0 and spans[p][0] != name:
        p = spans[p][2]
    return p


def per_layer_metrics(spans, overhead: float) -> dict:
    """Per-layer figures of the traced passes, normalised per op or per call.

    Root spans are named "op": one per benchmark operation.
    """
    child = [0] * len(spans)
    for name, tag, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {}   # (name, tag) -> [calls, total ns, self ns]
    for i, (name, tag, parent, start, end) in enumerate(spans):
        st = stats.setdefault((name, tag), [0, 0, 0])
        st[0] += 1
        st[1] += end - start
        st[2] += end - start - child[i]

    def agg(name, keep=lambda tag: True):
        """[calls, total ns, self ns] of `name` over the tags `keep` accepts."""
        out = [0, 0, 0]
        for (n, tag), st in stats.items():
            if n == name and keep(tag):
                out = [a + b for a, b in zip(out, st)]
        return out

    def per(num, den):
        return num / den if den else 0.0

    def per_call_us(name, which, keep=lambda tag: True):
        st = agg(name, keep)
        return per(st[which], st[0]) / 1e3

    TOTAL, SELF = 1, 2
    ops, op_ns = agg("op")[:2]
    scans = [(tag, st[0]) for (n, tag), st in stats.items()
             if n == "displacement.find_crossing_orbits" and tag is not None]
    grid_points = sum(tag[0] * c for tag, c in scans)
    zeros = sum(tag[1] * c for tag, c in scans)
    # delta evaluations made by the zero scan: grid points plus bisection
    scan_delta = sum(1 for s in spans if s[0] == "displacement.delta"
                     and s[2] >= 0 and spans[s[2]][0] == "displacement.find_crossing_orbits")
    # evaluate calls under each cli command, against the rows it printed
    evals = {}
    for i, s in enumerate(spans):
        if s[0] == "halfmap.evaluate":
            j = _ancestor(spans, i, "cli.run")
            if j >= 0 and spans[j][1] is not None:
                evals[spans[j][1][0]] = evals.get(spans[j][1][0], 0) + 1

    m = {
        "halfmap.domain.calls_per_evaluate": (per(agg("halfmap.domain")[0],
                                                  agg("halfmap.evaluate")[0]), "count"),
        "halfmap.domain.self_us": (per_call_us("halfmap.domain", SELF), "us"),
        "halfmap.evaluate.self_us": (per_call_us("halfmap.evaluate", SELF), "us"),
    }
    for branch in EVALUATE_BRANCHES:
        m[f"halfmap.evaluate.us.{branch}"] = (
            per_call_us("halfmap.evaluate", TOTAL, lambda tag, b=branch: tag == b), "us")
    m.update({
        "halfmap.derivative.calls_per_op": (per(agg("halfmap.derivative")[0], ops), "count"),
        "halfmap.derivative.self_us": (per_call_us("halfmap.derivative", SELF), "us"),
        "displacement.make_context.us": (per_call_us("displacement.make_context", TOTAL), "us"),
        "displacement.delta.calls_per_op": (per(agg("displacement.delta")[0], ops), "count"),
        "displacement.delta.calls_per_zero": (per(scan_delta - grid_points, zeros), "count"),
        "displacement.delta.grid_share": (per(grid_points, scan_delta), "ratio"),
        "oracle.next_crossing.calls_per_op": (per(agg("oracle.next_crossing")[0], ops), "count"),
        "oracle.next_crossing.self_us": (per_call_us("oracle.next_crossing", SELF), "us"),
        "oracle.verify_periodic.us": (per_call_us("oracle.verify_periodic", TOTAL), "us"),
        "oracle.sample_trajectory.self_us": (per_call_us("oracle.sample_trajectory", SELF), "us"),
        "classifier.classify.us": (per_call_us("classifier.classify", TOTAL), "us"),
        "params.to_canonical.us": (per_call_us("params.to_canonical", TOTAL), "us"),
    })
    for cmd in COMMANDS:
        def is_cmd(tag, cmd=cmd):
            return tag is not None and tag[0] == cmd
        m[f"cli.run.ms.{cmd}"] = (per_call_us("cli.run", TOTAL, is_cmd) / 1e3, "ms")
        m[f"cli.run.self_ms.{cmd}"] = (per_call_us("cli.run", SELF, is_cmd) / 1e3, "ms")
    for cmd in ("halfmap", "displacement"):
        rows = sum(tag[1] * st[0] for (n, tag), st in stats.items()
                   if n == "cli.run" and tag is not None and tag[0] == cmd)
        m[f"cli.evaluate_calls_per_row.{cmd}"] = (per(evals.get(cmd, 0), rows), "count")
    for layer in LAYERS:
        layer_self = sum(st[SELF] for (n, _), st in stats.items()
                         if n.partition(".")[0] == layer)
        m[f"{layer}.share"] = (per(layer_self, op_ns), "ratio")
    m["trace.overhead"] = (overhead, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
