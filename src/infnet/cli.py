"""Command-line front end.

Commands: validate, quantify, interval, distance, transform, kinematics,
enumerate, simulate, propagate, hasse, paths.  Exit codes: 0 ok, 1 domain
violation, 2 usage or parse error.  All numeric output is produced by the
owning module and printed at full precision; the environment variable
INFNET_SEED overrides --seed wherever sampling is involved.  numpy is
imported only inside the library functions that make arrays, so only
simulate and propagate load it; every other command starts without it.
A call that names a command builds one argument parser, that command's,
and prints the help, usage and errors the full parser would; the parser
of all commands is built only for a call that names none, or to report
arguments the command's parser left over.  quantify's rows read each
chain's label tables by event index, with no per-event projection call.
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


# The most digits int() reads from a string and str() writes of an int, so
# also an id's limit.
_DIGITS = 4300


def _fmt(value) -> str:
    """Locale-independent full-precision rendering of one number or pair."""
    if isinstance(value, PairQuantification):
        return f"({_fmt(value.dp)}, {_fmt(value.dq)})"
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, complex):
        return f"{value.real!r}{value.imag:+}j"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(*rows: tuple[str, object]) -> None:
    """Print one `label value` line per row, all rendered before the first is written.

    So a value that cannot be printed leaves stdout empty: str() refuses
    an int of more than _DIGITS digits, and that is reported in its place.
    """
    lines = []
    for label, value in rows:
        try:
            lines.append(f"{label} {_fmt(value)}\n")
        except ValueError:
            message = f"{label} has more than {_DIGITS} digits, too many to print"
            raise ValueError(message) from None
    sys.stdout.write("".join(lines))


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


_TOO_BIG = 10**_DIGITS


def _rational(text: str) -> Fraction:
    """argparse type: exact rationals from '4', '0.5', '1/3' or '2e-400'.

    A numerator or denominator of more than _DIGITS digits is refused.
    Fraction(text) builds 10**exponent first, in time that grows without
    bound, so an exponent that alone passes the limit (by more than the
    digits written) is refused before it; that also refuses a zero
    written with such an exponent.
    """
    # A ValueError makes argparse report a usage error, as for 'nan'.
    mantissa, _, exponent = text.lower().partition("e")
    if exponent and abs(int(exponent)) > _DIGITS + sum(map(str.isdecimal, mantissa)):
        raise ValueError(f"more than {_DIGITS} digits in {text!r}")
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    if abs(value.numerator) >= _TOO_BIG or value.denominator >= _TOO_BIG:
        raise ValueError(f"more than {_DIGITS} digits in {text!r}")
    return value


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
    rows = []
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
        rows = [("quadruple", " ".join(map(str, quantified.quadruple)))]
        pair = quantified.pair
    split = geometry.decompose(pair)
    _emit(*rows, ("pair", pair), ("scalar", pair.scalar), ("dt", split.dt), ("dx", split.dx),
          ("symmetric", split.symmetric), ("antisymmetric", split.antisymmetric))
    return 0


def cmd_distance(args: argparse.Namespace) -> int:
    net = netformat.load_path(args.file, force=args.force)
    value = geometry.distance(net, args.chain_p, args.chain_q, args.p_label, args.q_label)
    _emit(("distance", value))
    return 0


def cmd_transform(args: argparse.Namespace) -> int:
    rel = transforms.FrameRelation(args.m, args.n)
    moved = transforms.pair_transform(rel, PairQuantification(*args.pair))
    boost = transforms.beta_gamma(args.m, args.n)
    _emit(("pair", moved), ("k", rel.k), ("beta", boost.beta), ("gamma", boost.gamma),
          ("scalar", moved.scalar))
    return 0


def cmd_kinematics(args: argparse.Namespace) -> int:
    rates = kinematics.rates_from_counts(args.count, args.dp, args.dq)
    state = kinematics.kinematics_from_rates(rates)
    _emit(("r_p", rates.r_p), ("r_q", rates.r_q), ("m", state.mass), ("E", state.energy),
          ("p", state.momentum), ("beta", state.beta))
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
    _emit(*((f"sum_final_{final}", total) for final, total in totals.items()))
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
    rows = [("seed", seed), ("words", args.count), ("steps", args.steps), ("dp", dp), ("dq", dq)]
    if dp + dq > 0:
        rows += [("beta", kinematics.beta_consistency(dp, dq)),
                 ("beta_expected", 1.0 - 2.0 * args.prob_p)]
    _emit(*rows)
    return 0


def cmd_propagate(args: argparse.Namespace) -> int:
    tm = checkerboard.TransferMatrices(args.theta)
    initial = checkerboard.SpinorField.delta(args.initial)
    # Each field is formatted a column at a time and written before the next
    # step, so memory grows with the steps, not with the rows of the CSV.
    # x_text[x2 + steps] is the x column's text for doubled position x2; the
    # run never leaves [-steps, steps].
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


# name -> (help, the function that adds the command's arguments).  Handlers
# are not held here: main looks up cmd_<name> in this module when it
# dispatches, so a handler rebound in the module (as bench/tracer.py does)
# is the one that runs.
_COMMANDS = {
    "validate": ("check a network file against all invariants", _validate_args),
    "quantify": ("per-event chain coordinates", _quantify_args),
    "interval": ("quantify an interval pair", _interval_args),
    "distance": ("separation of two coordinated chains", _distance_args),
    "transform": ("re-quantify a pair in another frame", _transform_args),
    "kinematics": ("mass/energy/momentum from counts and spans", _kinematics_args),
    "enumerate": ("all influence words with given symbol counts", _enumerate_args),
    "simulate": ("sample random influence words and report rates", _simulate_args),
    "propagate": ("run the lattice propagator from a point source", _propagate_args),
    "hasse": ("render a network file as a Hasse diagram", _hasse_args),
    "paths": ("render a word as a zig-zag spacetime path", _paths_args),
}


def build_parser() -> argparse.ArgumentParser:
    """The full `infnet` parser: a subparser for every command.

    `main` uses it only when argv names no command, or to report arguments
    that a command's own parser left over; a named command is parsed by
    that command's parser alone (see `_parse`).
    """
    parser = argparse.ArgumentParser(
        prog="infnet", description="Influence-network construction, geometry, and propagation."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed as the full parser would, building one parser where argv[0] names a command.

    That parser is the one the full parser's subparsers action would build
    and hand argv[1:] to, so help, usage and errors are its own.  Leftover
    arguments are an error only the full parser reports, with a usage line
    listing every command, so it parses them again.
    """
    entry = _COMMANDS.get(argv[0]) if argv else None
    if entry is not None:
        parser = argparse.ArgumentParser(prog=f"infnet {argv[0]}")
        entry[1](parser)
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return globals()[f"cmd_{args.command}"](args)
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
