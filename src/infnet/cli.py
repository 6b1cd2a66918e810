"""Command-line front end.

Commands: validate, quantify, interval, distance, transform, kinematics,
enumerate, simulate, propagate, hasse, paths.  Exit codes: 0 ok, 1 domain
violation, 2 usage or parse error.  All numeric output is produced by the
owning module and printed at full precision; the environment variable
INFNET_SEED overrides --seed wherever sampling is involved.  numpy is
imported only inside the library functions that make arrays, so only
simulate and propagate load it; every other command starts without it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import nullcontext
from fractions import Fraction
from itertools import repeat
from typing import ContextManager, Optional, TextIO

from . import checkerboard, freeparticle, geometry, kinematics, netformat, svg, transforms
from .geometry import PairQuantification
from .netformat import NetworkParseError, ViolationsError


def _fmt(value) -> str:
    """Locale-independent full-precision rendering of one number."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, complex):
        return f"{value.real!r}{value.imag:+}j"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _fmt_pair(pair: PairQuantification) -> str:
    return f"({_fmt(pair.dp)}, {_fmt(pair.dq)})"


def _emit(label: str, value) -> None:
    print(f"{label} {_fmt(value)}")


def _open_text(path: Optional[str]) -> ContextManager[TextIO]:
    """The file at `path` opened for writing, or stdout (left open) when path is None."""
    if path is None:
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _write_text(path: Optional[str], text: str) -> None:
    with _open_text(path) as handle:
        handle.write(text)


# -------------------------
# Commands
# -------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        netformat.load_path(args.file)
    except ViolationsError as exc:
        print("\n".join(exc.report))
        return 1
    print("ok")
    return 0


def cmd_quantify(args: argparse.Namespace) -> int:
    net = netformat.load_path(args.file, force=args.force)
    tables = net._view(args.chain)
    pair_tables = net._view(args.pair) if args.pair else None
    if pair_tables is not None and not geometry.is_coordinated(net, args.chain, args.pair):
        print(
            f"warning: chains {args.chain!r} and {args.pair!r} are not "
            "coordinated; classification skipped"
        )
        pair_tables = None
    rows = []
    for i, event in enumerate(net.event_ids()):
        forward, backward = tables.forward[i], tables.backward[i]
        row = f"{event} {'-' if forward is None else forward} {'-' if backward is None else backward}"
        if pair_tables is not None:
            between = "between" if geometry._between(i, tables, pair_tables) else "outside"
            pairable = forward is not None and pair_tables.forward[i] is not None
            row += f" {between} {'pairable' if pairable else 'unpairable'}"
        rows.append(row + "\n")
    sys.stdout.write("".join(rows))
    return 0


def _rational(text: str) -> Fraction:
    """argparse type: exact rationals from '4', '0.5', or '1/3'."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        # A ValueError makes argparse report a usage error, as for 'nan'.
        raise ValueError(f"zero denominator in {text!r}") from None


def _count(text: str) -> int:
    """argparse type: a non-negative integer (symbols, steps, words, seeds, caps)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _cap(text: str) -> int:
    """argparse type: an enumeration cap, at most checkerboard.KERNEL_CAP."""
    value = _count(text)
    if value > checkerboard.KERNEL_CAP:
        raise argparse.ArgumentTypeError(f"must not exceed {checkerboard.KERNEL_CAP}")
    return value


def cmd_interval(args: argparse.Namespace) -> int:
    if args.pair is not None:
        pair = PairQuantification(*args.pair)
    else:
        if args.file is None or args.a is None or args.b is None:
            print("interval needs either --pair DP DQ or FILE with --a and --b", file=sys.stderr)
            return 2
        net = netformat.load_path(args.file, force=args.force)
        quantified = geometry.quantify_interval(
            net, args.a, args.b, args.chain_p, args.chain_q
        )
        _emit("quadruple", " ".join(str(v) for v in quantified.quadruple))
        pair = quantified.pair
    scalar, dt, dx = geometry.minkowski_scalar(pair)
    split = geometry.decompose(pair)
    _emit("pair", _fmt_pair(pair))
    _emit("scalar", scalar)
    _emit("dt", dt)
    _emit("dx", dx)
    _emit("symmetric", _fmt_pair(split.symmetric))
    _emit("antisymmetric", _fmt_pair(split.antisymmetric))
    return 0


def cmd_distance(args: argparse.Namespace) -> int:
    net = netformat.load_path(args.file, force=args.force)
    value = geometry.distance(net, args.chain_p, args.chain_q, args.p_label, args.q_label)
    _emit("distance", value)
    return 0


def cmd_transform(args: argparse.Namespace) -> int:
    rel = transforms.FrameRelation(args.m, args.n)
    pair = PairQuantification(args.pair[0], args.pair[1])
    moved = transforms.pair_transform(rel, pair)
    boost = transforms.beta_gamma(args.m, args.n)
    _emit("pair", _fmt_pair(moved))
    _emit("k", rel.k)
    _emit("beta", boost.beta)
    _emit("gamma", boost.gamma)
    _emit("scalar", moved.scalar)
    return 0


def cmd_kinematics(args: argparse.Namespace) -> int:
    rates = kinematics.rates_from_counts(args.count, args.dp, args.dq)
    state = kinematics.kinematics_from_rates(rates)
    _emit("r_p", rates.r_p)
    _emit("r_q", rates.r_q)
    _emit("m", state.mass)
    _emit("E", state.energy)
    _emit("p", state.momentum)
    _emit("beta", state.beta)
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    words = freeparticle.enumerate_sequences(args.p, args.q, cap=args.cap)
    if args.amplitudes is None:
        for word in words:
            print(word or "-")
        return 0
    theta = args.amplitudes
    totals = {"P": 0j, "Q": 0j}
    for word in words:
        amplitude = checkerboard.path_amplitude(word, args.initial, theta)
        final = word[-1] if word else args.initial
        totals[final] += amplitude
        print(f"{word or '-'} {_fmt(amplitude)}")
    for final in ("P", "Q"):
        _emit(f"sum_final_{final}", totals[final])
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    seed = args.seed
    env_seed = os.environ.get("INFNET_SEED")
    if env_seed is not None:
        try:
            seed = _count(env_seed)
        except (ValueError, argparse.ArgumentTypeError):
            print(f"INFNET_SEED must be a non-negative integer, got {env_seed!r}", file=sys.stderr)
            return 2
    if args.emit_words:
        total_p = 0
        for mask in freeparticle.sample_masks(args.steps, args.prob_p, seed, args.count):
            total_p += int(mask.sum())
            print("\n".join(freeparticle.decode_words(mask)))
    else:
        total_p = freeparticle.count_p(args.steps, args.prob_p, seed, args.count)
    total_q = args.steps * args.count - total_p
    dp, dq = total_q, total_p  # crossed light-cone bookkeeping
    _emit("seed", seed)
    _emit("words", args.count)
    _emit("steps", args.steps)
    _emit("dp", dp)
    _emit("dq", dq)
    if dp + dq > 0:
        beta = kinematics.beta_consistency(dp, dq)
        _emit("beta", beta)
        _emit("beta_expected", 1.0 - 2.0 * args.prob_p)
    return 0


def cmd_propagate(args: argparse.Namespace) -> int:
    tm = checkerboard.TransferMatrices(args.theta)
    initial = checkerboard.SpinorField.delta(args.initial)
    # Each field is formatted a column at a time.  x_text[x2 + steps] is the
    # x column's text for doubled position x2; the run never leaves [-steps, steps].
    x_text = [repr(x2 / 2) for x2 in range(-args.steps, args.steps + 1)]
    trace_rows = ["t,mean_x,norm"]
    with _open_text(args.out) as out:
        out.write("t,x,probP,probQ,total\n")
        for field in checkerboard.evolve(initial, args.steps, tm):
            probs_p, probs_q = field.probabilities()
            norm, mean_x = checkerboard.norm_and_mean(field.x2_lo, probs_p, probs_q)
            t, norm_text = str(field.t), repr(norm)
            start = field.x2_lo + args.steps
            xs = x_text[start : start + 2 * len(probs_p) : 2]
            columns = (repeat(t), xs, map(repr, probs_p), map(repr, probs_q), repeat(norm_text))
            out.write("\n".join(map(",".join, zip(*columns))) + "\n")
            trace_rows.append(f"{t},{mean_x!r},{norm_text}")
    if args.trace is not None:
        _write_text(args.trace, "\n".join(trace_rows) + "\n")
    return 0


def cmd_hasse(args: argparse.Namespace) -> int:
    net = netformat.load_path(args.file, force=args.force)
    _write_text(args.svg, svg.hasse_svg(net))
    return 0


def cmd_paths(args: argparse.Namespace) -> int:
    path = freeparticle.sequence_to_path(
        args.word, (Fraction(args.start_x), Fraction(args.start_t))
    )
    _write_text(args.svg, svg.path_svg(path))
    return 0


# -------------------------
# Parser
# -------------------------


def _add_force(p: argparse.ArgumentParser) -> None:
    p.add_argument("--force", action="store_true", help="load files that fail validation")


def _validate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")


def _quantify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--chain", required=True)
    p.add_argument("--pair", default=None, help="second chain for betweenness classification")
    _add_force(p)


def _interval_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--pair", nargs=2, type=_rational, default=None, metavar=("DP", "DQ"))
    p.add_argument("--a", type=int, default=None, help="first event id")
    p.add_argument("--b", type=int, default=None, help="second event id")
    p.add_argument("--chain-p", default="P")
    p.add_argument("--chain-q", default="Q")
    _add_force(p)


def _distance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--chain-p", default="P")
    p.add_argument("--chain-q", default="Q")
    p.add_argument("--p-label", type=int, default=1)
    p.add_argument("--q-label", type=int, default=1)
    _add_force(p)


def _transform_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=_rational, required=True)
    p.add_argument("--n", type=_rational, required=True)
    p.add_argument("--pair", nargs=2, type=_rational, required=True, metavar=("DP", "DQ"))


def _kinematics_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--count", type=float, required=True)
    p.add_argument("--dp", type=float, required=True)
    p.add_argument("--dq", type=float, required=True)


def _enumerate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", type=_count, required=True)
    p.add_argument("--q", type=_count, required=True)
    p.add_argument(
        "--amplitudes",
        nargs="?",
        type=float,
        const=math.pi / 4,
        default=None,
        metavar="THETA",
        help="append per-word amplitudes at this angle (default pi/4)",
    )
    p.add_argument("--initial", choices=("P", "Q"), default="P")
    p.add_argument("--cap", type=_cap, default=freeparticle.DEFAULT_CAP)


def _simulate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--steps", type=_count, required=True)
    p.add_argument("--prob-p", type=float, required=True)
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--count", type=_count, default=1)
    p.add_argument("--emit-words", action="store_true")


def _propagate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--steps", type=_count, required=True)
    p.add_argument("--theta", type=float, default=math.pi / 4)
    p.add_argument("--initial", choices=("P", "Q"), default="P")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.add_argument("--trace", default=None, help="write the <x>/norm trace CSV here")


def _hasse_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument("--svg", default=None, help="output path (default stdout)")
    _add_force(p)


def _paths_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--word", required=True)
    p.add_argument("--svg", default=None, help="output path (default stdout)")
    p.add_argument("--start-x", type=int, default=0)
    p.add_argument("--start-t", type=int, default=0)


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The `infnet` parser: only `command`'s subparser when that names one, else all.

    Building every subparser costs several times building one.  Usage
    lines must still list every command, as the "unrecognized arguments"
    error prints, so a selected command carries that list as its metavar.
    The full parser keeps argparse's default, which names the positional
    "command" in the missing- and unknown-command errors only it can raise.
    """
    # name, help, handler, and the function that adds the command's
    # arguments.  Made per call, so a handler rebound in this module (as
    # bench/tracer.py does) is the one the parser dispatches to.
    commands = (
        ("validate", "check a network file against all invariants", cmd_validate, _validate_args),
        ("quantify", "per-event chain coordinates", cmd_quantify, _quantify_args),
        ("interval", "quantify an interval pair", cmd_interval, _interval_args),
        ("distance", "separation of two coordinated chains", cmd_distance, _distance_args),
        ("transform", "re-quantify a pair in another frame", cmd_transform, _transform_args),
        ("kinematics", "mass/energy/momentum from counts and spans", cmd_kinematics, _kinematics_args),
        ("enumerate", "all influence words with given symbol counts", cmd_enumerate, _enumerate_args),
        ("simulate", "sample random influence words and report rates", cmd_simulate, _simulate_args),
        ("propagate", "run the lattice propagator from a point source", cmd_propagate, _propagate_args),
        ("hasse", "render a network file as a Hasse diagram", cmd_hasse, _hasse_args),
        ("paths", "render a word as a zig-zag spacetime path", cmd_paths, _paths_args),
    )
    parser = argparse.ArgumentParser(
        prog="infnet", description="Influence-network construction, geometry, and propagation."
    )
    selected = [entry for entry in commands if entry[0] == command]
    metavar = "{" + ",".join(entry[0] for entry in commands) + "}" if selected else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_text, handler, add_arguments in selected or commands:
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except NetworkParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ViolationsError as exc:
        print("\n".join(exc.report), file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
