"""Out-of-program tracing of infnet's public functions.

`Tracer.install` replaces each traced function with a timing wrapper and
rebinds it under every name any infnet module holds it by: `geometry` and
`freeparticle` import `forward_project` by name, `cli` imports
`quantify_event`, and the package re-exports most names.  Nothing inside
`src/` changes.

Three kinds of wrapper:

  span     one record per call (name, op, start, end, self time, parent),
           for calls made a few thousand times per pass at most;
  leaf     per-(name, op) counters of calls, total and self time, for
           calls made per event or per word;
  counted  a bare call counter, for `influences`, called millions of times.

Self time is a call's duration minus the time of the traced calls nested
in it.  Each op runs under a root span, so over a traced pass the self
times of every name plus the roots' own self time add up to the traced
wall time; `self_time_error` checks that.
"""

from __future__ import annotations

import sys
from time import perf_counter

SPANS = {
    "cli": ("main", "cmd_validate", "cmd_quantify", "cmd_interval", "cmd_distance",
            "cmd_enumerate", "cmd_simulate", "cmd_propagate", "cmd_hasse"),
    "netformat": ("parse", "dumps"),
    "network.InfluenceNetwork": ("from_parts", "validate", "transitive_reduction"),
    "geometry": ("is_coordinated", "distance", "quantify_interval"),
    "checkerboard": ("step_field",),
    "checkerboard.SpinorField": ("norm", "mean_position", "sites"),
    "freeparticle": ("sample_sequences", "enumerate_sequences"),
    "svg": ("hasse_svg",),
}
LEAVES = {
    "projection": ("forward_project", "backward_project", "quantify_event"),
    "geometry": ("is_between",),
    "checkerboard": ("path_amplitude",),
    "network.InfluenceNetwork": ("add_event", "add_influence"),
}
COUNTED = {"network.InfluenceNetwork": ("influences",)}
SIZES = {"netformat.parse": lambda text: len(text.encode())}  # work counted per span


def _trace_name(owner: str, attr: str) -> str:
    module = owner.split(".")[0]
    return f"{module}.{attr.removeprefix('cmd_')}"


class Tracer:
    def __init__(self):
        self.op = -1
        self.spans: list = []  # (name, op, start, end, self_s, parent index)
        self.leaves: dict[tuple[str, int], list] = {}  # -> [calls, total, self, scans]
        self.sizes: dict[str, int] = {}
        self.missing: list[str] = []
        self._influences = [0]
        self._stack: list[list] = []  # [time of traced children, enclosing span index]

    @property
    def influences(self) -> int:
        return self._influences[0]

    # -- wrappers -------------------------------------------------------------

    def span(self, name: str, fn, size=None):
        spans, stack, tracer = self.spans, self._stack, self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [0.0, index]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                spans[index] = (name, tracer.op, start, end, duration - frame[0], parent)
                if stack:
                    stack[-1][0] += duration
                if size is not None:
                    tracer.sizes[name] = tracer.sizes.get(name, 0) + size(*args, **kwargs)

        return traced

    def leaf(self, name: str, fn):
        leaves, stack, tracer, count = self.leaves, self._stack, self, self._influences

        def traced(*args, **kwargs):
            frame = [0.0, stack[-1][1] if stack else -1]
            stack.append(frame)
            scans = count[0]
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                key = (name, tracer.op)
                record = leaves.get(key)
                if record is None:
                    record = leaves[key] = [0, 0.0, 0.0, 0]
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[0]
                record[3] += count[0] - scans
                if stack:
                    stack[-1][0] += duration

        return traced

    def counted(self, fn):
        count = self._influences

        def traced(*args, **kwargs):
            count[0] += 1
            return fn(*args, **kwargs)

        return traced

    def root(self, op_index: int, kind: str, thunk):
        """Run one op under a root span named `op.<kind>`."""
        self.op = op_index
        return self.span(f"op.{kind}", thunk)()

    # -- installation -----------------------------------------------------------

    def install(self, package: str = "infnet") -> None:
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for table, make in ((SPANS, "span"), (LEAVES, "leaf"), (COUNTED, "counted")):
            for owner, attrs in table.items():
                module_name, _, cls_name = owner.partition(".")
                target = sys.modules.get(f"{package}.{module_name}")
                if cls_name:
                    target = getattr(target, cls_name, None)
                for attr in attrs:
                    name = _trace_name(owner, attr)
                    raw = vars(target).get(attr) if target is not None else None
                    if raw is None:
                        self.missing.append(name)
                        continue
                    is_classmethod = isinstance(raw, classmethod)
                    fn = raw.__func__ if is_classmethod else raw
                    if make == "counted":
                        wrapped = self.counted(fn)
                    elif make == "leaf":
                        wrapped = self.leaf(name, fn)
                    else:
                        wrapped = self.span(name, fn, SIZES.get(name))
                    if cls_name:
                        setattr(target, attr, classmethod(wrapped) if is_classmethod else wrapped)
                        continue
                    for module in modules:
                        for key, value in list(vars(module).items()):
                            if value is fn:
                                setattr(module, key, wrapped)

    # -- results ----------------------------------------------------------------

    def aggregate(self) -> dict[str, dict]:
        """Per name: calls, total and self seconds, scans, per-op totals."""
        out: dict[str, dict] = {}

        def slot(name):
            return out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "scans": 0, "per_op": {}})

        for name, op, start, end, self_s, _ in self.spans:
            record = slot(name)
            record["calls"] += 1
            record["total"] += end - start
            record["self"] += self_s
            record["per_op"][op] = record["per_op"].get(op, 0.0) + end - start
        for (name, op), (calls, total, self_s, scans) in self.leaves.items():
            record = slot(name)
            record["calls"] += calls
            record["total"] += total
            record["self"] += self_s
            record["scans"] += scans
            record["per_op"][op] = record["per_op"].get(op, 0.0) + total
        return out

    def wall(self) -> float:
        """Summed duration of the root op spans."""
        return sum(end - start for name, _, start, end, _, parent in self.spans if parent == -1)

    def self_time_error(self) -> float:
        """|sum of all self times - traced wall| as a share of the wall."""
        total_self = sum(s[4] for s in self.spans) + sum(r[2] for r in self.leaves.values())
        wall = self.wall()
        return abs(total_self - wall) / wall if wall else 0.0

