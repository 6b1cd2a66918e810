"""Line-oriented text format for influence networks.

    # comment (also allowed at end of line)
    mode restricted
    chain P: 0 1 2 3
    chain Q: 4 5 6
    influence 0 -> 4

Serialization is canonical: one mode line, chains sorted by name, edges
sorted numerically, chain-implied edges omitted.

A load reads the text in one scan: one compiled pattern matches each line.
A plain influence line (ASCII digits, spaces or tabs, an optional comment)
is read straight from its match; every other line (mode, chain, comment,
or an influence in another form int() reads, such as `+1`, `1_0` or other
digits and spaces) goes through per-record code.  An id that int() refuses,
one past Python's int-string digit limit included, is a parse error at its
line.  parse() keeps each chain's line; the lines of the influences are
needed only to cite them, so ParsedNetwork finds them on first use, by
scanning again.  load_path() validates what it reads and, unless forced,
raises ViolationsError with the report `validate` prints: each violation
citing the line that breaks its rule.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .network import GENERAL, RESTRICTED, InfluenceNetwork, Violation


class NetworkParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ViolationsError(ValueError):
    """A file broke network invariants without --force; `report` is what validate prints."""

    def __init__(self, violations: list[Violation], report: list[str]):
        super().__init__("; ".join(report))
        self.violations = violations
        self.report = report


@dataclass
class ParsedNetwork:
    """A parsed network, with the lines that `validate`'s report cites.

    `chain_lines` holds each chain's line.  `edge_lines` holds each
    influence's first line, in file order.  Only a report on violations
    reads it, so it is built on first read, by scanning `text` (the file's
    text with every line end made a \\n) a second time.
    """

    net: InfluenceNetwork
    chain_lines: dict[str, int]
    text: str

    @cached_property
    def edge_lines(self) -> dict[tuple[int, int], int]:
        return _scan(self.text, cite=True)[4]

    def _report(self, violations: list[Violation]) -> list[str]:
        """Each violation plus the line that breaks its rule, where one exists."""
        edges_of: dict[int, list[tuple[int, int]]] = {}
        for edge in self.edge_lines:
            for event in set(edge):
                edges_of.setdefault(event, []).append(edge)
        report = []
        for violation in violations:
            line = self._cited_line(edges_of, violation)
            report.append(str(violation) if line is None else f"{violation} (see line {line})")
        return report

    def _cited_line(self, edges_of: dict, violation: Violation) -> Optional[int]:
        """The source line that breaks the violated rule, where one exists."""
        if violation.chain is not None:
            return self.chain_lines[violation.chain]
        if violation.rule == "cycle-would-form":
            lines = self.edge_lines.items()
            return next((line for (s, t), line in lines if self.net.influences(t, s)), None)
        (event,) = violation.events
        edges = edges_of.get(event, [])
        if "cross-chain" in violation.detail:
            # A degree breach: the first cross edge is legal, the second is not.
            edges = [edge for edge in edges if self.net._is_cross(*edge)][1:]
        return self.edge_lines[edges[0]] if edges else None


def _check_ids(lineno: int, ids) -> None:
    for event in ids:
        if event < 0:
            raise NetworkParseError(lineno, f"event ids are non-negative, got {event}")


_INFLUENCE_FORM = "expected 'influence <src> -> <dst>'"

# One match per line of a text whose lines all end in \n, so findall's index
# is the line number.  A plain influence line (ASCII digits, spaces or tabs,
# an optional comment) fills the first two groups; any other line, blank
# ones included, fills the third.
_LINE = re.compile(
    r"^[ \t]*influence[ \t]+([0-9]+)[ \t]*->[ \t]*([0-9]+)[ \t]*(?:#.*)?$|^(.*)$", re.M
)


def _scan(text: str, cite: bool = False):
    """The records of a text whose lines all end in \\n, in one pass.

    Returns the mode (None if unset), the chains, their lines, the
    influences in file order and, if `cite`, each influence's first line
    (else an empty dict).  A plain influence line is read from its match;
    every other line goes through the per-record code below.
    """
    mode = None
    chains: dict[str, list[int]] = {}
    chain_lines: dict[str, int] = {}
    influences: list[tuple[int, int]] = []
    edge_lines: dict[tuple[int, int], int] = {}
    for lineno, (source, target, raw) in enumerate(_LINE.findall(text), start=1):
        if source:
            try:
                edge = int(source), int(target)
            except ValueError:  # an id past Python's int-string digit limit
                raise NetworkParseError(lineno, _INFLUENCE_FORM) from None
        else:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            keyword = line.split(None, 1)[0]
            if keyword == "influence":
                try:
                    source, target = map(int, line[9:].split("->"))  # 9 == len("influence")
                except ValueError:
                    raise NetworkParseError(lineno, _INFLUENCE_FORM) from None
                edge = source, target
                if source < 0 or target < 0:
                    _check_ids(lineno, edge)
            elif keyword == "mode":
                tokens = line.split()
                if len(tokens) != 2 or tokens[1] not in (RESTRICTED, GENERAL):
                    raise NetworkParseError(lineno, f"expected 'mode restricted|general', got {raw.strip()!r}")
                if mode is not None:
                    raise NetworkParseError(lineno, "duplicate mode line")
                mode = tokens[1]
                continue
            elif keyword == "chain":
                rest = line[len("chain") :].strip()
                if ":" not in rest:
                    raise NetworkParseError(lineno, "expected 'chain <name>: <id> ...'")
                name, _, members = rest.partition(":")
                name = name.strip()
                if not name:
                    raise NetworkParseError(lineno, "chain name is empty")
                if name in chains:
                    raise NetworkParseError(lineno, f"duplicate chain {name!r}")
                try:
                    chains[name] = [int(tok) for tok in members.split()]
                except ValueError:
                    raise NetworkParseError(lineno, f"chain members must be integers: {members.strip()!r}") from None
                _check_ids(lineno, chains[name])
                chain_lines[name] = lineno
                continue
            else:
                raise NetworkParseError(lineno, f"unknown record {keyword!r}")
        influences.append(edge)
        if cite:
            edge_lines.setdefault(edge, lineno)
    return mode, chains, chain_lines, influences, edge_lines


def parse(text: str) -> ParsedNetwork:
    # Only \n, \r\n and \r end a line; splitlines() would also break at
    # form feeds and other separators a user sees inside a line.
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    mode, chains, chain_lines, influences, _ = _scan(text)
    net = InfluenceNetwork.from_parts(mode or GENERAL, chains, influences)
    net.finalize()
    return ParsedNetwork(net, chain_lines, text)


def loads(text: str) -> InfluenceNetwork:
    return parse(text).net


def dumps(net: InfluenceNetwork) -> str:
    """Canonical text form.

    Fully isolated events have no representation, and neither has a chain
    name that parse() would not read back unchanged: an empty one, one
    with surrounding whitespace, or one holding ':', '#' or a line break.
    """
    covered = set()
    lines = [f"mode {net.mode}"]
    for name in net.chain_names():
        if not name or name != name.strip() or any(c in name for c in ":#\r\n"):
            raise ValueError(f"chain name {name!r} cannot be written in the text format")
        members = net._members(name)
        covered.update(members)
        lines.append(f"chain {name}: " + " ".join(map(str, members)))
    links = net.chain_links()
    edges = sorted(
        [(s, t) for s, targets in net._succ.items() for t in targets if (s, t) not in links]
    )
    covered.update(itertools.chain.from_iterable(edges))
    lines += [f"influence {source} -> {target}" for source, target in edges]
    isolated = [e for e in net.event_ids() if e not in covered]
    if isolated:
        raise ValueError(
            f"events {isolated} lie on no chain and touch no edge; "
            "the text format cannot represent them"
        )
    return "\n".join(lines) + "\n"


def load_path(path: str, force: bool = False) -> InfluenceNetwork:
    """Read and validate a network file; violations abort unless forced."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        message = f"byte {data[exc.start]:#04x} is not UTF-8 ({exc.reason})"
        raise NetworkParseError(before.count(b"\n") + 1, message) from None
    parsed = parse(text)
    violations = parsed.net.validate()
    if violations and not force:
        raise ViolationsError(violations, parsed._report(violations))
    return parsed.net
