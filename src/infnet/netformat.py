"""Line-oriented text format for influence networks.

    # comment (also allowed at end of line)
    mode restricted
    chain P: 0 1 2 3
    chain Q: 4 5 6
    influence 0 -> 4

Serialization is canonical: one mode line, chains sorted by name, edges
sorted numerically, chain-implied edges omitted.

A load reads the text in one scan.  Each maximal run of influence lines in
exactly the form dumps() writes (`influence <id> -> <id>`, ASCII digits,
single spaces, no comment) is read in bulk.  Every other line (mode, chain,
comment, or an influence in another form int() reads, such as `+1`, `1_0`,
other digits and spaces or a comment) goes through per-record code, in file
order.  An id that int() refuses, one past Python's int-string digit limit
included, is a parse error at its line.  parse() keeps each chain's line;
the lines of the influences are needed only to cite them, so ParsedNetwork
finds them on first use, by scanning again.  load_path() validates what it
reads and, unless forced, raises ViolationsError with the report `validate`
prints: each violation citing the line that breaks its rule.
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
            # The first influence line on a cycle, else the first chain line with a link on one.
            chain_links = self.net.chain_links()
            links = ((pair, line) for name, line in self.chain_lines.items()
                     for pair in itertools.pairwise(self.net._members(name)) if pair in chain_links)
            lines = itertools.chain(self.edge_lines.items(), links)
            return next(line for (s, t), line in lines if self.net.influences(t, s))
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

# A maximal run of influence lines in exactly the form dumps() writes.  The
# group makes re.split() return the text as [other, run, other, ..., other];
# every piece but the last ends in \n or is empty.
_RUN = re.compile(r"^((?:influence [0-9]+ -> [0-9]+\n)+)", re.M)


def _scan(text: str, cite: bool = False):
    """The records of a text whose line ends are all \\n, in one pass.

    Returns the mode (None if unset), the chains, their lines, the
    influences in file order and, if `cite`, each influence's first line
    (else an empty dict).  Each run of lines in dumps() form is read in
    bulk: its ids go through int() as one list, and its k-th line is the
    run's first line plus k.  Every other line goes through the per-record
    code below, in file order, so the first bad line is the one reported;
    so does a run holding an id int() refuses, to name that id's line.
    """
    mode = None
    chains: dict[str, list[int]] = {}
    chain_lines: dict[str, int] = {}
    influences: list[tuple[int, int]] = []
    edge_lines: dict[tuple[int, int], int] = {}
    lineno = 1  # the line each piece starts on
    for index, piece in enumerate(_RUN.split(text)):
        if index % 2:
            # Each line is exactly "influence <id> -> <id>\n": two ids a line.
            ids = map(int, piece.replace("influence ", "").replace(" -> ", " ").split())
            try:
                edges = list(zip(ids, ids))
            except ValueError:  # an id past Python's int-string digit limit
                pass
            else:
                influences += edges
                if cite:
                    for line, edge in enumerate(edges, start=lineno):
                        edge_lines.setdefault(edge, line)
                lineno += len(edges)
                continue
        # The piece ends in \n, is empty or ends the text, so its last item
        # leaves lineno on the line the next piece starts on.
        for lineno, raw in enumerate(piece.split("\n"), start=lineno):
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
                influences.append(edge)
                if cite:
                    edge_lines.setdefault(edge, lineno)
            elif keyword == "mode":
                tokens = line.split()
                if len(tokens) != 2 or tokens[1] not in (RESTRICTED, GENERAL):
                    raise NetworkParseError(lineno, f"expected 'mode restricted|general', got {raw.strip()!r}")
                if mode is not None:
                    raise NetworkParseError(lineno, "duplicate mode line")
                mode = tokens[1]
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
                    chains[name] = list(map(int, members.split()))
                except ValueError:
                    raise NetworkParseError(lineno, f"chain members must be integers: {members.strip()!r}") from None
                _check_ids(lineno, chains[name])
                chain_lines[name] = lineno
            else:
                raise NetworkParseError(lineno, f"unknown record {keyword!r}")
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
    edges = sorted([(s, t) for s, targets in net._non_links() for t in targets])
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
