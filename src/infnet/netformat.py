"""Line-oriented text format for influence networks.

    # comment (also allowed at end of line)
    mode restricted
    chain P: 0 1 2 3
    chain Q: 4 5 6
    influence 0 -> 4

Serialization is canonical: one mode line, chains sorted by name, edges
sorted numerically, chain-implied edges omitted.  parse() keeps the source
line of every record.  load_path() validates what it reads and, unless
forced, raises ViolationsError with the report `validate` prints: each
violation citing the line that breaks its rule, from one index per file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """A parsed network; `edge_lines` holds each influence's first line, in file order."""

    net: InfluenceNetwork
    edge_lines: dict[tuple[int, int], int] = field(default_factory=dict)
    chain_lines: dict[str, int] = field(default_factory=dict)

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
        homes = self.net.chains_of(event)
        if "lies on" in violation.detail and homes:
            # On several chains: the first listing is legal, the second is not.
            return self.chain_lines[homes[1]]
        edges = edges_of.get(event, [])
        if "cross-chain" in violation.detail:
            # A degree breach: the first cross edge is legal, the second is not.
            edges = [edge for edge in edges if self.net._is_cross(*edge)][1:]
        return self.edge_lines[edges[0]] if edges else None


def _check_ids(lineno: int, ids) -> None:
    for event in ids:
        if event < 0:
            raise NetworkParseError(lineno, f"event ids are non-negative, got {event}")


def parse(text: str) -> ParsedNetwork:
    mode = None
    chains: dict[str, list[int]] = {}
    influences: list[tuple[int, int]] = []
    edge_lines: dict[tuple[int, int], int] = {}
    chain_lines: dict[str, int] = {}

    # Only \n, \r\n and \r end a line; splitlines() would also break at
    # form feeds and other separators a user sees inside a line.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword = line.split(None, 1)[0]
        # Influences far outnumber the other records, so they are tested first.
        if keyword == "influence":
            try:
                source, target = map(int, line[9:].split("->"))  # 9 == len("influence")
            except ValueError:
                raise NetworkParseError(lineno, "expected 'influence <src> -> <dst>'") from None
            if source < 0 or target < 0:
                _check_ids(lineno, (source, target))
            influences.append((source, target))
            edge_lines.setdefault((source, target), lineno)
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
                chains[name] = [int(tok) for tok in members.split()]
            except ValueError:
                raise NetworkParseError(lineno, f"chain members must be integers: {members.strip()!r}") from None
            _check_ids(lineno, chains[name])
            chain_lines[name] = lineno
        else:
            raise NetworkParseError(lineno, f"unknown record {keyword!r}")

    net = InfluenceNetwork.from_parts(mode or GENERAL, chains, influences)
    net.finalize()
    return ParsedNetwork(net=net, edge_lines=edge_lines, chain_lines=chain_lines)


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
        lines.append(f"chain {name}: " + " ".join(str(e) for e in members))
    for source, target in sorted(net.edges() - net.chain_links()):
        covered.update((source, target))
        lines.append(f"influence {source} -> {target}")
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
