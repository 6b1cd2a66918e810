"""Per-layer metrics derived from a traced run.

Times (`_s`) and counts are per pass of the op list; rates divide a time by
the work it did.  Layer times are raw wall-clock times of the traced
passes, so compare them with each other within one run; `cli.<cmd>.p50_s`
comes from the untraced passes, rescaled like the end-to-end latencies.
A layer a workload never enters reads 0.  Work counts
that are properties of the input (sites stepped, symbols sampled, edges
loaded) come from the op list, not from the program, so a later change to
the program's data structures cannot move them.
"""

from __future__ import annotations

from statistics import median

from measure import growth_exponent, percentile
from workloads import Op

COMMANDS = ("validate", "quantify", "distance", "interval", "propagate", "simulate", "enumerate", "hasse")

UNITS = {
    "checkerboard.step_field_s": "s",
    "checkerboard.step_field.ns_per_site": "ns",
    "checkerboard.sites_stepped": "count",
    "checkerboard.step_field.growth_exp": "1",
    "checkerboard.norm_s": "s",
    "checkerboard.mean_position_s": "s",
    "checkerboard.sites_s": "s",
    "checkerboard.path_amplitude.us_per_call": "us",
    "checkerboard.norm_drift_max": "1",
    "cli.propagate.self_s": "s",
    "cli.simulate.self_s": "s",
    **{f"cli.{cmd}.p50_s": "s" for cmd in COMMANDS},
    "cli.output_bytes": "B",
    "freeparticle.sample_sequences.ns_per_symbol": "ns",
    "freeparticle.symbols_sampled": "count",
    "freeparticle.enumerate_sequences_s": "s",
    "netformat.parse.self_s": "s",
    "netformat.parse.bytes": "B",
    "network.from_parts.us_per_edge": "us",
    "network.from_parts.edges": "count",
    "network.from_parts.growth_exp": "1",
    "network.add_influence.us_per_call": "us",
    "network.add_influence.calls": "count",
    "network.add_influence.growth_exp": "1",
    "netformat.dumps_s": "s",
    "network.validate_s": "s",
    "network.transitive_reduction_s": "s",
    "svg.hasse_svg.self_s": "s",
    "network.influences.calls": "count",
    "network.closure_density": "ratio",
    "projection.forward_project.calls": "count",
    "projection.forward_project.us_per_call": "us",
    "projection.backward_project.calls": "count",
    "projection.backward_project.us_per_call": "us",
    "projection.scan_per_call": "count",
    "geometry.is_coordinated.self_s": "s",
    "geometry.is_coordinated.growth_exp": "1",
    "geometry.is_between.us_per_call": "us",
    "geometry.distance_s": "s",
    "geometry.quantify_interval_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def derive(agg: dict, influences: int, ops: list[Op], passes: int, extra: dict) -> dict[str, float]:
    """Every per-layer metric, by name.

    agg        Tracer.aggregate() over the traced passes
    influences calls of `influences` over the traced passes
    ops        the op list of one pass; per-op totals are keyed by index
    extra      untraced facts: latencies by kind, output bytes, health
               signals, walls of the untraced and traced passes
    """
    empty = {"calls": 0, "total": 0.0, "self": 0.0, "scans": 0, "per_op": {}}

    def get(name: str) -> dict:
        return agg.get(name, empty)

    def per_pass(name: str, key: str = "total") -> float:
        return get(name)[key] / passes

    def per_call_us(name: str) -> float:
        return 1e6 * _ratio(get(name)["total"], get(name)["calls"])

    def growth(name: str) -> float:
        return growth_exponent([(ops[i].size, t) for i, t in get(name)["per_op"].items()])

    def input_work(name: str, work) -> float:
        """Work of the ops that called `name`, per pass."""
        return sum(work(ops[i]) for i in get(name)["per_op"])

    sites = input_work("checkerboard.step_field", lambda op: op.size * (op.size + 1) // 2)
    symbols = input_work("freeparticle.sample_sequences", lambda op: op.size)
    edges = input_work("network.from_parts", lambda op: len(op.expect["net"].edges()))
    fwd, bwd = get("projection.forward_project"), get("projection.backward_project")
    latencies = extra["latencies"]
    metrics = {
        "checkerboard.step_field_s": per_pass("checkerboard.step_field"),
        "checkerboard.step_field.ns_per_site": 1e9 * _ratio(per_pass("checkerboard.step_field"), sites),
        "checkerboard.sites_stepped": sites,
        "checkerboard.step_field.growth_exp": growth("checkerboard.step_field"),
        "checkerboard.norm_s": per_pass("checkerboard.norm"),
        "checkerboard.mean_position_s": per_pass("checkerboard.mean_position"),
        "checkerboard.sites_s": per_pass("checkerboard.sites"),
        "checkerboard.path_amplitude.us_per_call": per_call_us("checkerboard.path_amplitude"),
        "checkerboard.norm_drift_max": extra["norm_drift_max"],
        "cli.propagate.self_s": per_pass("cli.propagate", "self"),
        "cli.simulate.self_s": per_pass("cli.simulate", "self"),
        **{f"cli.{cmd}.p50_s": percentile(latencies[cmd], 50) if latencies.get(cmd) else 0.0
           for cmd in COMMANDS},
        "cli.output_bytes": extra["output_bytes"],
        "freeparticle.sample_sequences.ns_per_symbol":
            1e9 * _ratio(per_pass("freeparticle.sample_sequences"), symbols),
        "freeparticle.symbols_sampled": symbols,
        "freeparticle.enumerate_sequences_s": per_pass("freeparticle.enumerate_sequences"),
        "netformat.parse.self_s": per_pass("netformat.parse", "self"),
        "netformat.parse.bytes": extra["parse_bytes"] / passes,
        "network.from_parts.us_per_edge": 1e6 * _ratio(per_pass("network.from_parts"), edges),
        "network.from_parts.edges": edges,
        "network.from_parts.growth_exp": growth("network.from_parts"),
        "network.add_influence.us_per_call": per_call_us("network.add_influence"),
        "network.add_influence.calls": per_pass("network.add_influence", "calls"),
        "network.add_influence.growth_exp": growth("network.add_influence"),
        "netformat.dumps_s": per_pass("netformat.dumps"),
        "network.validate_s": per_pass("network.validate"),
        "network.transitive_reduction_s": per_pass("network.transitive_reduction"),
        "svg.hasse_svg.self_s": per_pass("svg.hasse_svg", "self"),
        "network.influences.calls": influences / passes,
        "network.closure_density": extra["closure_density"],
        "projection.forward_project.calls": per_pass("projection.forward_project", "calls"),
        "projection.forward_project.us_per_call": per_call_us("projection.forward_project"),
        "projection.backward_project.calls": per_pass("projection.backward_project", "calls"),
        "projection.backward_project.us_per_call": per_call_us("projection.backward_project"),
        "projection.scan_per_call": _ratio(fwd["scans"] + bwd["scans"], fwd["calls"] + bwd["calls"]),
        "geometry.is_coordinated.self_s": per_pass("geometry.is_coordinated", "self"),
        "geometry.is_coordinated.growth_exp": growth("geometry.is_coordinated"),
        "geometry.is_between.us_per_call": per_call_us("geometry.is_between"),
        "geometry.distance_s": per_pass("geometry.distance"),
        "geometry.quantify_interval_s": per_pass("geometry.quantify_interval"),
        "trace.overhead_ratio": _ratio(median(extra["traced_walls"]), median(extra["untraced_walls"])),
    }
    return metrics
