"""The text format and the command-line front end.

Covered claims:
    - parse/dumps round-trip to a canonical form, broken networks included;
      bad lines carry numbers, and malformed influence and mode lines give
      pinned error text and exit codes, over-long ids included; parse reads
      what the former line loop (the oracle reference_parse) reads on drawn
      files of plain and odd lines, errors included; influence lines are
      scanned a second time only to cite them in a report
    - validate exits 0/1/2 for clean/violating/unparseable files, on any
      one-line mutation of a valid file, and cites the breaking record: a
      repeated member's chain line, the first influence line on a cycle, a
      degree breach's second cross-edge line, the second chain line that
      lists an event on several chains; a chain that lists an event twice
      still counts as one of its chains
    - quantify, distance, interval and hasse refuse a file that fails
      validation with exit 1 and validate's report, line hints included, on
      stderr; hasse --force draws an invalid but acyclic file by fixed rules
    - enumerate prints "-" for the empty word; --cap above 24 is a usage error
    - quantify prints what the per-event public API (quantify_event,
      is_between) gives, byte for byte: coordinated ladders, the
      uncoordinated warning, no --pair, --force-loaded invalid networks
    - quantify (with and without --pair), distance and interval on
      tests/data/ladder.net, validate on the broken files beside it (a
      cycle, a degree breach, a repeated member, events on two chains and
      on none), hasse on ladder.net, two_particles.net and
      restricted.net, and propagate and simulate (words, and totals
      across many chunks), print or write the checked-in expected files
      that CI also diffs against
    - restricted.net (240 events on 6 chains, 8 redundant cross edges) is
      the dumps() text of its conftest parts, loaded whole, built edge by
      edge or read back from the file
    - every numeric command reproduces the owning module's output
    - simulate honours --seed and the INFNET_SEED override; a negative or
      non-integer seed from either is a usage error
    - simulate totals match an independent recount of the same draws, across
      chunk boundaries, and need no word strings; one word of 10**7 symbols
      holds under 4 MiB; --emit-words prints exactly sample_sequences()
      ahead of the same totals
    - propagate CSV and SVG outputs are deterministic; the field CSV and the
      trace equal a row-by-row reference read from SpinorField.sites(),
      through --out/--trace and on stdout, and the (x, p, q) row loops of
      conftest
    - every `infnet` line of the README's command block runs and exits 0
    - a call naming a command builds only that command's subparser, and
      prints the same help, usage and error bytes as the full parser; the
      network, geometry and frame commands and enumerate run without
      importing numpy, and so does `from infnet import *`, which binds the
      checkerboard names
    - enumerate --amplitudes prints the checked-in expected file
"""

from __future__ import annotations

import argparse
import math
import re
import shlex
import shutil
import subprocess
import sys
import tracemalloc
from itertools import repeat
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from infnet import (
    InfluenceNetwork,
    SpinorField,
    TransferMatrices,
    freeparticle,
    is_between,
    is_coordinated,
    netformat,
    quantify_event,
    step_field,
)
from infnet import cli
from infnet.checkerboard import evolve
from infnet.cli import main
from infnet.netformat import NetworkParseError, ViolationsError

from conftest import (
    density_rows,
    mean_position_of,
    network_parts,
    norm_of,
    recount_p,
    restricted_file_parts,
    seeded_ladder_parts,
)

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# == 1. Text format ===========================================================


class TestNetFormat:
    def test_round_trip_is_canonical(self):
        text = (DATA / "ladder.net").read_text()
        once = netformat.dumps(netformat.loads(text))
        twice = netformat.dumps(netformat.loads(once))
        assert once == twice
        assert once.startswith("mode general\n")

    def test_chain_lines_imply_links(self):
        net = netformat.loads("chain P: 0 1 2\n")
        assert (0, 1) in net.edges() and (1, 2) in net.edges()

    def test_comments_and_blanks_ignored(self):
        net = netformat.loads("# heading\n\nchain P: 0 1  # trailing\n")
        assert net.chain("P").events == (0, 1)

    def test_mode_defaults_to_general(self):
        assert netformat.loads("chain P: 0\n").mode == "general"

    def test_unknown_record_has_line_number(self):
        with pytest.raises(NetworkParseError) as exc:
            netformat.loads("chain P: 0\nbogus stuff\n")
        assert exc.value.line == 2

    def test_bad_influence_line(self):
        with pytest.raises(NetworkParseError):
            netformat.loads("influence 1 into 2\n")

    def test_duplicate_chain_rejected(self):
        with pytest.raises(NetworkParseError):
            netformat.loads("chain P: 0\nchain P: 1\n")

    def test_load_path_refuses_violations(self, tmp_path):
        target = tmp_path / "broken.net"
        target.write_text("mode restricted\nchain A: 0 1\n")
        # event 0 and 1 are fine; but a second cross edge breaks postulate 3
        target.write_text(
            "mode restricted\nchain A: 0 1\nchain B: 2 3\nchain C: 4 5\n"
            "influence 0 -> 2\ninfluence 0 -> 4\n"
        )
        with pytest.raises(ViolationsError):
            netformat.load_path(str(target))
        net = netformat.load_path(str(target), force=True)
        assert net.has_event(0)

    def test_isolated_events_cannot_serialize(self):
        from infnet import InfluenceNetwork

        net = InfluenceNetwork()
        net.add_event()
        with pytest.raises(ValueError):
            netformat.dumps(net)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_round_trip_random_networks(self, data):
        names = data.draw(st.lists(st.text(), min_size=1, max_size=3, unique=True))
        net_events = 0
        chains = {}
        for name in names:
            size = data.draw(st.integers(1, 4))
            chains[name] = list(range(net_events, net_events + size))
            net_events += size
        pairs = [
            (i, j) for i in range(net_events) for j in range(net_events) if i < j
        ]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6)) if pairs else []
        from infnet import InfluenceNetwork

        net = InfluenceNetwork.from_parts("general", chains, edges)
        try:
            text = netformat.dumps(net)
        except ValueError as exc:
            assert any(repr(name) in str(exc) for name in names)
            return
        reloaded = netformat.loads(text)
        assert netformat.dumps(reloaded) == text
        assert reloaded.edges() == net.edges()
        assert reloaded.chain_names() == net.chain_names()

    @pytest.mark.parametrize(
        "name, carried",
        [(name, False) for name in (" P", "P ", "a:b", "a#b", "", "x\ny", "x\ry", "\x85P")]
        + [(name, True) for name in ("P", "a b", "P\x00", "\u00e9t\u00e9", "P\fQ")],
    )
    def test_dumps_writes_only_chain_names_parse_reads_back(self, name, carried):
        net = InfluenceNetwork.from_parts("general", {"Q": [0], name: [1, 2]}, [])
        if carried:
            assert netformat.loads(netformat.dumps(net)).chain(name).events == (1, 2)
        else:
            with pytest.raises(ValueError, match=re.escape(repr(name))):
                netformat.dumps(net)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["general", "restricted"]), network_parts())
    def test_round_trip_fixed_point_on_raw_parts(self, mode, parts):
        # No `events` argument, so every event is on a chain or an edge.
        chains, edges, _ = parts
        net = InfluenceNetwork.from_parts(mode, chains, edges)
        text = netformat.dumps(net)
        reloaded = netformat.loads(text)
        assert netformat.dumps(reloaded) == text
        assert reloaded.validate() == net.validate()

    def test_round_trip_keeps_self_loop_on_repeated_member(self):
        text = "mode general\nchain P: 0 0 1\ninfluence 0 -> 0\n"
        reloaded = netformat.loads(netformat.dumps(netformat.loads(text)))
        assert [v.rule for v in reloaded.validate()] == ["cycle-would-form", "postulate-4"]


def reference_parse(text: str):
    """The records of a network file, read one line at a time.

    The loader's former line loop, kept as an oracle: every line goes
    through str.split and int(), with no pattern.  Returns the mode (general
    if unset), the chains, their lines, the influences in file order and
    each influence's first line, or raises the loader's NetworkParseError.
    """
    mode = None
    chains: dict[str, list[int]] = {}
    influences: list[tuple[int, int]] = []
    edge_lines: dict[tuple[int, int], int] = {}
    chain_lines: dict[str, int] = {}

    def check_ids(lineno, ids):
        for event in ids:
            if event < 0:
                raise NetworkParseError(lineno, f"event ids are non-negative, got {event}")

    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword = line.split(None, 1)[0]
        if keyword == "influence":
            try:
                source, target = map(int, line[9:].split("->"))
            except ValueError:
                raise NetworkParseError(lineno, "expected 'influence <src> -> <dst>'") from None
            check_ids(lineno, (source, target))
            influences.append((source, target))
            edge_lines.setdefault((source, target), lineno)
        elif keyword == "mode":
            tokens = line.split()
            if len(tokens) != 2 or tokens[1] not in ("restricted", "general"):
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
            check_ids(lineno, chains[name])
            chain_lines[name] = lineno
        else:
            raise NetworkParseError(lineno, f"unknown record {keyword!r}")
    return mode or "general", chains, chain_lines, influences, list(edge_lines.items())


def library_parse(text: str):
    """What netformat.parse reads, in reference_parse's shape."""
    parsed = netformat.parse(text)
    net = parsed.net
    influences = netformat._scan(parsed.text)[3]
    chains = {name: list(net.chain(name).events) for name in net.chain_names()}
    return net.mode, chains, parsed.chain_lines, influences, list(parsed.edge_lines.items())


def parse_outcome(read, text: str):
    try:
        return read(text)
    except NetworkParseError as exc:
        return "error", exc.line, str(exc)


# Plain forms (ASCII digits, spaces and tabs) and the odd ones int() and
# str.split() also accept or reject: signs, underscores, other digits and
# spaces, negative ids, ids past Python's 4300-digit int-string limit.  The
# draws lean to well-formed lines, so that most files read past their first
# few lines; one bad line in a file is enough to compare its error.
_SEP = st.sampled_from([" ", " ", "\t", "  ", " \t", "\u00a0", "\u2003", "\x0b", "\x0c", "\x85", ""])
_GAP = st.sampled_from(["", "", "", " ", "\t", "\u00a0", "\x0c"])
_ID = st.sampled_from(
    ([str(i) for i in range(13)] + ["+1", "1_0", "007", "٣", "١٠", "-0"]) * 3
    + ["-1", "1__0", "_1", "x", "", "1" * 4301]
)
_COMMENT = st.sampled_from(["", "", "#", "# note", " # a # b", "#\f x"])


@st.composite
def record_lines(draw) -> str:
    def gap() -> str:
        return draw(_GAP)

    kind = draw(st.sampled_from(["plain"] * 3 + ["influence"] * 3 + ["mode", "chain", "chain", "other"]))
    if kind == "plain":
        body = f"influence {draw(st.integers(0, 12))} -> {draw(st.integers(0, 12))}"
    elif kind == "influence":
        ends = [draw(_ID) for _ in range(draw(st.sampled_from([2] * 8 + [1, 3])))]
        body = f"{gap()}influence{draw(_SEP)}" + f"{gap()}->{gap()}".join(ends)
    elif kind == "mode":
        word = draw(st.sampled_from(["general", "restricted", "bogus", "general x", ""]))
        body = f"{gap()}mode{draw(_SEP)}{word}"
    elif kind == "chain":
        name = draw(st.sampled_from(["P", "Q", "R", "S", "T", "R S", "", "U\x85"]))
        colon = draw(st.sampled_from([":"] * 5 + [""]))
        members = draw(_SEP).join(draw(st.lists(_ID, max_size=4)))
        body = f"{gap()}chain{draw(_SEP)}{name}{gap()}{colon}{gap()}{members}"
    else:
        body = draw(st.sampled_from(["", "  ", "\t", "bogus", "influences 1 -> 2", "influence 1 2", "influence", "0 -> 1"]))
    return body + gap() + draw(_COMMENT)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(st.tuples(record_lines(), st.sampled_from(["\n", "\r\n", "\r"])), max_size=12),
    st.booleans(),
)
@example([(f"influence 0 -> {'1' * 4301}", "\n")], True)
@example([("influence", "\n"), ("0 -> 1", "\n")], False)
def test_parse_reads_what_the_line_loop_reads(lines, last_line_ends):
    text = "".join(line + end for line, end in lines)
    if lines and not last_line_ends:
        text = text[: -len(lines[-1][1])]
    assert parse_outcome(library_parse, text) == parse_outcome(reference_parse, text)


@pytest.mark.parametrize(
    "text",
    [
        "mode general\nchain P: 0 1 2\nchain Q: 3 4 5\ninfluence 0 -> 4\ninfluence\t1\t->\t5 # c\n"
        "influence 0 -> 4\ninfluence +2 -> 3\ninfluence 1_0 -> ٣\n\n# end",
        "chain P: 0 1\r\ninfluence 1 -> 0\r\ninfluence 0->1#x\rinfluence  1 -> 0  \r",
        "influence 0 -> 1\ninfluence 0 -> 1\ninfluence 1 -> 2 \n",
    ],
    ids=["odd-forms", "crlf-and-cr", "repeats"],
)
def test_parse_reads_what_the_line_loop_reads_on_fixed_files(text):
    got = library_parse(text)
    assert got == reference_parse(text)
    assert got[4]  # every file above has influence lines to cite


# == 2. validate ==============================================================


class TestValidateCommand:
    def test_clean_file_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "validate", str(DATA / "two_particles.net"))
        assert code == 0
        assert out.strip() == "ok"

    def test_cycle_exits_one_with_rule_name(self, capsys):
        code, out, _ = run_cli(capsys, "validate", str(DATA / "cyclic.net"))
        assert code == 1
        assert "cycle-would-form" in out
        assert "line" in out

    def test_empty_file_is_ok(self, capsys, tmp_path):
        empty = tmp_path / "empty.net"
        empty.write_text("")
        code, out, _ = run_cli(capsys, "validate", str(empty))
        assert code == 0

    def test_parse_error_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.net"
        bad.write_text("chain P 0 1\n")
        code, _, err = run_cli(capsys, "validate", str(bad))
        assert code == 2
        assert "line 1" in err

    @pytest.mark.parametrize(
        "text, line",
        [
            ("chain P: 0 -1\n", 1),
            ("chain P: 0 1\ninfluence 0 -> -1\n", 2),
        ],
    )
    def test_negative_id_is_parse_error(self, capsys, tmp_path, text, line):
        bad = tmp_path / "negative.net"
        bad.write_text(text)
        code, _, err = run_cli(capsys, "validate", str(bad))
        assert code == 2
        assert f"line {line}" in err
        assert "-1" in err

    @pytest.mark.parametrize(
        "line, code, err",
        [
            ("influence 1 -> 2 -> 3", 2, "parse error: line 4: expected 'influence <src> -> <dst>'\n"),
            ("influence 1 2", 2, "parse error: line 4: expected 'influence <src> -> <dst>'\n"),
            ("influence a -> 2", 2, "parse error: line 4: expected 'influence <src> -> <dst>'\n"),
            ("influence -> 2", 2, "parse error: line 4: expected 'influence <src> -> <dst>'\n"),
            ("influence 1 ->", 2, "parse error: line 4: expected 'influence <src> -> <dst>'\n"),
            ("influence", 2, "parse error: line 4: expected 'influence <src> -> <dst>'\n"),
            ("influence 0 -> -1", 2, "parse error: line 4: event ids are non-negative, got -1\n"),
            ("influence -3 -> -4", 2, "parse error: line 4: event ids are non-negative, got -3\n"),
            (
                "mode general extra",
                2,
                "parse error: line 4: expected 'mode restricted|general', got 'mode general extra'\n",
            ),
            ("influence 1->2", 0, ""),
            ("influence\t1\t->\t2", 0, ""),
            ("\tinfluence  1 -> 2\t", 0, ""),
            ("influence 1 -> 2  # comment", 0, ""),
            # Ids past Python's 4300-digit int-string limit, on the plain
            # influence form and on a chain line.
            pytest.param(
                f"influence 0 -> {'1' * 4301}",
                2,
                "parse error: line 4: expected 'influence <src> -> <dst>'\n",
                id="influence-4301-digits",
            ),
            pytest.param(
                f"chain R: 7 {'1' * 4301}",
                2,
                f"parse error: line 4: chain members must be integers: '7 {'1' * 4301}'\n",
                id="chain-4301-digits",
            ),
        ],
    )
    def test_malformed_line_table(self, capsys, tmp_path, line, code, err):
        text = f"# header\nchain P: 0 1\nchain Q: 2 3\n{line}\ninfluence 0 -> 3\n"
        source = tmp_path / "line.net"
        source.write_text(text)
        assert run_cli(capsys, "validate", str(source)) == (code, "" if code else "ok\n", err)
        if code == 0:
            assert netformat.parse(text).edge_lines == {(1, 2): 4, (0, 3): 5}

    def test_influence_lines_are_cited_from_a_second_scan_on_demand(self, capsys, tmp_path, monkeypatch):
        scans = []
        scan = netformat._scan

        def logged_scan(text, cite=False):
            scans.append(cite)
            return scan(text, cite)

        monkeypatch.setattr(netformat, "_scan", logged_scan)
        clean = tmp_path / "clean.net"
        clean.write_text("chain P: 0 1\nchain Q: 2 3\ninfluence 0 -> 3\n")
        parsed = netformat.parse(clean.read_text())
        assert "edge_lines" not in vars(parsed) and scans == [False]
        assert parsed.edge_lines == {(0, 3): 3} == parsed.edge_lines
        assert scans == [False, True]
        assert run_cli(capsys, "validate", str(clean)) == (0, "ok\n", "")
        assert scans == [False, True, False]
        cyclic = tmp_path / "cyclic.net"
        cyclic.write_text("chain P: 0 1\n# loop\ninfluence 1 -> 0\n")
        code, out, _ = run_cli(capsys, "validate", str(cyclic))
        assert (code, out) == (1, "cycle-would-form: events on directed cycles: [0, 1] (see line 3)\n")
        assert scans == [False, True, False, False, True]

    @pytest.mark.parametrize(
        "separator", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_only_newlines_end_a_line(self, capsys, tmp_path, separator, newline):
        source = tmp_path / "separator.net"
        lines = ["mode general", f"# note{separator} page", "chain P: 0 1", "bogus"]
        source.write_bytes(newline.join(lines).encode("utf-8"))
        code, _, err = run_cli(capsys, "validate", str(source))
        assert code == 2
        assert err == "parse error: line 4: unknown record 'bogus'\n"
        source.write_bytes(newline.join(lines[:3]).encode("utf-8"))
        assert run_cli(capsys, "validate", str(source))[:2] == (0, "ok\n")

    @pytest.mark.parametrize(
        "data, line",
        [
            (b"mode general\nchain P: 0 1\n# caf\xff\n", 3),
            (b"mode general\r\nchain P: 0 1\r\n# caf\xe9\r\n", 3),
            (b"mode general\rchain P: 0\x80 1\r", 2),
            (b"chain P: 0 1 \xe2\x82\n", 1),
        ],
    )
    def test_non_utf8_byte_is_parse_error_at_its_line(self, capsys, tmp_path, data, line):
        bad = tmp_path / "bytes.net"
        bad.write_bytes(data)
        code, _, err = run_cli(capsys, "validate", str(bad))
        assert code == 2
        assert err.startswith(f"parse error: line {line}: byte 0x")

    def test_usage_error_exits_two(self, capsys):
        assert main(["validate"]) == 2
        capsys.readouterr()

    def test_repeated_chain_member_cites_chain_line(self, capsys, tmp_path):
        source = tmp_path / "repeat.net"
        source.write_text("mode general\nchain P: 0 1 0\nchain Q: 0 1 0\n")
        code, out, _ = run_cli(capsys, "validate", str(source))
        assert code == 1
        assert "postulate-4: chain 'P' lists an event more than once (see line 2)" in out.splitlines()
        assert "postulate-4: chain 'Q' lists an event more than once (see line 3)" in out.splitlines()

    def test_cycle_cites_an_influence_line_on_the_cycle(self, capsys, tmp_path):
        # Line 4's edge leaves the cycle 0 -> 1 -> 2 -> 0; line 5 closes it.
        source = tmp_path / "cyc.net"
        source.write_text(
            "mode general\nchain P: 0 1 2\nchain Q: 3 4\ninfluence 0 -> 3\ninfluence 2 -> 0\n"
        )
        code, out, _ = run_cli(capsys, "validate", str(source))
        assert code == 1
        assert out.splitlines() == [
            "cycle-would-form: events on directed cycles: [0, 1, 2] (see line 5)"
        ]

    def test_degree_breach_cites_the_second_cross_edge(self, capsys, tmp_path):
        # Event 0's first cross edge (line 4) is legal; the second one is not.
        source = tmp_path / "degree.net"
        source.write_text(
            "mode restricted\nchain P: 0 1\nchain Q: 2 3\ninfluence 0 -> 3\ninfluence 0 -> 2\n"
        )
        code, out, _ = run_cli(capsys, "validate", str(source))
        assert code == 1
        assert out.splitlines() == [
            "postulate-3: event 0 takes part in 2 cross-chain influences; "
            "restricted mode allows one (see line 5)"
        ]

    @pytest.mark.parametrize(
        "chains, homes, line",
        [
            ("chain P: 0 1\nchain Q: 0 2\n", 2, 3),
            ("chain P: 0 1\nchain Q: 2 3\nchain R: 0 4\nchain S: 5 0\n", 3, 4),
        ],
        ids=["two-chains", "three-chains"],
    )
    def test_event_on_several_chains_cites_its_second_chain_line(
        self, capsys, tmp_path, chains, homes, line
    ):
        # The first chain line that lists event 0 is legal; the next one is not.
        source = tmp_path / "homes.net"
        source.write_text("mode restricted\n" + chains)
        code, out, _ = run_cli(capsys, "validate", str(source))
        assert code == 1
        assert out.splitlines() == [
            f"postulate-3: event 0 lies on {homes} chains; restricted mode requires exactly one "
            f"(see line {line})"
        ]
        assert run_cli(capsys, "quantify", str(source), "--chain", "P") == (1, "", out)

    @pytest.mark.parametrize(
        "chains, tail",
        [
            ("chain P: 0 1 0\n", []),
            (
                "chain P: 0 1 0\nchain Q: 0 2\n",
                ["postulate-3: event 0 lies on 2 chains; restricted mode requires exactly one "
                 "(see line 3)"],
            ),
        ],
        ids=["one-chain", "second-chain"],
    )
    def test_repeated_member_counts_its_chain_once(self, capsys, tmp_path, chains, tail):
        source = tmp_path / "repeat.net"
        source.write_text("mode restricted\n" + chains)
        code, out, _ = run_cli(capsys, "validate", str(source))
        assert code == 1
        assert out.splitlines() == [
            "cycle-would-form: events on directed cycles: [0, 1]",
            "postulate-4: chain 'P' lists an event more than once (see line 2)",
            *tail,
        ]

    def test_off_chain_self_loop_is_one_cycle_and_no_chain(self, capsys, tmp_path):
        source = tmp_path / "loop.net"
        source.write_text("mode restricted\nchain P: 0 1\nchain Q: 2 3\ninfluence 4 -> 4\n")
        code, out, _ = run_cli(capsys, "validate", str(source))
        assert code == 1
        assert out.splitlines() == [
            "cycle-would-form: events on directed cycles: [4] (see line 4)",
            "postulate-3: event 4 lies on 0 chains; restricted mode requires exactly one "
            "(see line 4)",
        ]

    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(st.data())
    def test_mutated_file_exits_with_documented_code(self, capsys, tmp_path, data):
        lines = (DATA / "ladder.net").read_text().splitlines()
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        kind = data.draw(st.sampled_from(["drop", "duplicate", "corrupt"]), label="kind")
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        else:
            start = data.draw(st.integers(0, len(lines[i])), label="at")
            cut = data.draw(st.integers(0, 3), label="cut")
            junk = data.draw(st.text(max_size=8), label="junk")
            lines[i] = lines[i][:start] + junk + lines[i][start + cut :]
        source = tmp_path / "mutated.net"
        source.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "validate", str(source))
        assert code in (0, 1, 2)
        assert (out + err).strip()


# The broken files of TestValidateCommand: a repeated member, a cycle, a
# degree breach.
BROKEN = {
    "repeat": "mode general\nchain P: 0 1 0\nchain Q: 0 1 0\n",
    "cycle": "mode general\nchain P: 0 1 2\nchain Q: 3 4\ninfluence 0 -> 3\ninfluence 2 -> 0\n",
    "degree": "mode restricted\nchain P: 0 1\nchain Q: 2 3\ninfluence 0 -> 3\ninfluence 0 -> 2\n",
}


@pytest.mark.parametrize("name", sorted(BROKEN))
@pytest.mark.parametrize("command", ["quantify --chain P", "distance", "interval --a 0 --b 1", "hasse"])
def test_file_commands_print_the_validate_report(capsys, tmp_path, name, command):
    source = tmp_path / f"{name}.net"
    source.write_text(BROKEN[name])
    code, report, _ = run_cli(capsys, "validate", str(source))
    assert code == 1
    verb, *options = command.split()
    code, out, err = run_cli(capsys, verb, str(source), *options)
    assert (code, out, err) == (1, "", report)


# == 3. quantify / interval / distance =======================================


class TestGeometryCommands:
    def test_quantify_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "quantify", str(DATA / "ladder.net"), "--chain", "P"
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "0 1 1"
        assert rows[10] == "10 5 1"  # q_3 seen from P

    def test_quantify_pair_classification(self, capsys):
        code, out, _ = run_cli(
            capsys, "quantify", str(DATA / "ladder.net"), "--chain", "P", "--pair", "Q"
        )
        assert code == 0
        assert "2 3 3 between pairable" in out

    def test_quantify_uncoordinated_warns(self, capsys, tmp_path):
        target = tmp_path / "skew.net"
        target.write_text(
            "mode general\nchain P: 0 1 2\nchain Q: 3 4 5 6\n"
            "influence 0 -> 3\ninfluence 2 -> 6\n"
        )
        code, out, _ = run_cli(capsys, "quantify", str(target), "--chain", "P", "--pair", "Q")
        assert code == 0
        assert out.startswith("warning:")

    def test_interval_from_pair(self, capsys):
        code, out, _ = run_cli(capsys, "interval", "--pair", "4", "2")
        assert code == 0
        assert "scalar 8" in out
        assert "dt 3" in out
        assert "dx 1" in out
        assert "symmetric (3, 3)" in out
        assert "antisymmetric (1, -1)" in out

    def test_interval_from_file(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "interval",
            str(DATA / "ladder.net"),
            "--a", "2", "--b", "13",
            "--chain-p", "P", "--chain-q", "Q",
        )
        assert code == 0
        assert "quadruple 3 5 8 6" in out
        assert "scalar 5" in out

    def test_interval_needs_arguments(self, capsys):
        code, _, err = run_cli(capsys, "interval")
        assert code == 2
        assert "pair" in err.lower()

    def test_distance(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "distance", str(DATA / "ladder.net"),
            "--p-label", "3", "--q-label", "4",
        )
        assert code == 0
        assert out.strip() == "distance 2"


def reference_quantify(net: InfluenceNetwork, chain: str, pair) -> str:
    """quantify's output built event by event from the public API."""
    lines = []
    coordinated = pair is not None and is_coordinated(net, chain, pair)
    if pair is not None and not coordinated:
        lines.append(
            f"warning: chains {chain!r} and {pair!r} are not coordinated; classification skipped"
        )
    for event in net.event_ids():
        coord = quantify_event(net, event, chain)
        row = [
            str(event),
            "-" if coord.forward is None else str(coord.forward),
            "-" if coord.backward is None else str(coord.backward),
        ]
        if coordinated:
            row.append("between" if is_between(net, event, chain, pair) else "outside")
            other = quantify_event(net, event, pair)
            pairable = coord.forward is not None and other.forward is not None
            row.append("pairable" if pairable else "unpairable")
        lines.append(" ".join(row))
    return "".join(line + "\n" for line in lines)


def assert_quantify_matches_reference(capsys, path, chain, pair, force):
    net = netformat.load_path(str(path), force=force)
    argv = ["quantify", str(path), "--chain", chain] + (["--pair", pair] if pair else [])
    expected = reference_quantify(net, chain, pair)
    assert run_cli(capsys, *argv, *(["--force"] if force else [])) == (0, expected, "")


@pytest.mark.parametrize("length", [8, 64, 256])
@pytest.mark.parametrize("moved", [False, True], ids=["coordinated", "uncoordinated"])
@pytest.mark.parametrize("chain, pair", [("P", "Q"), ("Q", "P"), ("P", None), ("Q", "Q")])
def test_quantify_matches_the_per_event_api_on_ladders(capsys, tmp_path, length, moved, chain, pair):
    chains, edges, _ = seeded_ladder_parts(length, moved)
    path = tmp_path / "ladder.net"
    path.write_text(netformat.dumps(InfluenceNetwork.from_parts("general", chains, edges)))
    if pair == "Q" and chain == "P":
        assert is_coordinated(netformat.load_path(str(path)), "P", "Q") is not moved
    assert_quantify_matches_reference(capsys, path, chain, pair, force=False)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(network_parts(), st.data())
def test_quantify_matches_the_per_event_api_on_forced_files(capsys, tmp_path, parts, data):
    # Raw parts: cycles, self-loops, repeated members and ids against
    # influence, loaded with --force whatever validate says.
    chains, edges, _ = parts
    path = tmp_path / "forced.net"
    path.write_text(netformat.dumps(InfluenceNetwork.from_parts("general", chains, edges)))
    chain = data.draw(st.sampled_from(sorted(chains)))
    pair = data.draw(st.sampled_from([None] + sorted(chains)))
    assert_quantify_matches_reference(capsys, path, chain, pair, force=True)


@pytest.mark.parametrize("name", ["cyclic", "degree", "repeated", "two_chains"])
def test_validate_reports_match_the_checked_in_files(capsys, name):
    expected = (DATA / f"{name}.validate.out").read_text()
    assert run_cli(capsys, "validate", str(DATA / f"{name}.net")) == (1, expected, "")


@pytest.mark.parametrize("name", ["ladder", "two_particles", "restricted"])
def test_hasse_drawings_match_the_checked_in_files(capsys, tmp_path, name):
    # The rows of a drawing are the events' longest-path depths.
    target = tmp_path / f"{name}.svg"
    assert run_cli(capsys, "hasse", str(DATA / f"{name}.net"), "--svg", str(target)) == (0, "", "")
    assert target.read_bytes() == (DATA / f"{name}.svg").read_bytes()


def test_restricted_file_is_the_dump_of_its_parts():
    # restricted.net is dumps() of restricted_file_parts(), loaded whole,
    # built edge by edge as the network-build benchmark builds, or read
    # back from the file; its last 8 cross edges are redundant.
    chains, cross = restricted_file_parts()
    text = (DATA / "restricted.net").read_text()
    built = InfluenceNetwork("restricted")
    for name in sorted(chains):
        built.add_chain(name)
    homes = {event: name for name, members in chains.items() for event in members}
    for event in sorted(homes):
        built.add_event(homes[event])
    for source, target in cross:
        built.add_influence(source, target)
    loaded = InfluenceNetwork.from_parts("restricted", chains, cross)
    read = netformat.loads(text)
    for net in (loaded, built.finalize(), read):
        assert netformat.dumps(net) == text
    assert read.validate() == []
    assert not set(cross[-8:]) & read.transitive_reduction()


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["quantify", "--chain", "P", "--pair", "Q"], "ladder.quantify.out"),
        (["quantify", "--chain", "Q"], "ladder.quantify_q.out"),
        (["distance", "--p-label", "3", "--q-label", "4"], "ladder.distance.out"),
        (["interval", "--a", "2", "--b", "5"], "ladder.interval.out"),
    ],
    ids=["quantify", "quantify-q", "distance", "interval"],
)
def test_ladder_outputs_match_the_checked_in_files(capsys, argv, expected):
    command, *options = argv
    assert run_cli(capsys, command, str(DATA / "ladder.net"), *options) == (
        0,
        (DATA / expected).read_text(),
        "",
    )


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["simulate", "--steps", "40", "--prob-p", "0.3", "--seed", "7", "--count", "50",
          "--emit-words"], "simulate.words.out"),
        (["simulate", "--steps", "1000", "--prob-p", "0.3", "--seed", "7", "--count", "3000"],
         "simulate.totals.out"),
    ],
    ids=["words", "totals"],
)
def test_simulate_outputs_match_the_checked_in_files(capsys, monkeypatch, argv, expected):
    monkeypatch.delenv("INFNET_SEED", raising=False)
    assert run_cli(capsys, *argv) == (0, (DATA / expected).read_text(), "")


def test_enumerate_amplitudes_match_the_checked_in_file(capsys):
    argv = ["enumerate", "--p", "3", "--q", "2", "--amplitudes", "0.3", "--initial", "Q"]
    assert run_cli(capsys, *argv) == (0, (DATA / "enumerate.amplitudes.out").read_text(), "")


def test_propagate_outputs_match_the_checked_in_files(capsys, tmp_path):
    out, trace = tmp_path / "propagate.csv", tmp_path / "propagate.trace"
    argv = ["propagate", "--steps", "24", "--theta", "0.3", "--initial", "Q"]
    assert run_cli(capsys, *argv, "--out", str(out), "--trace", str(trace)) == (0, "", "")
    assert out.read_text() == (DATA / "propagate.csv").read_text()
    assert trace.read_text() == (DATA / "propagate.trace").read_text()


# == 4. transform / kinematics ================================================


class TestNumericCommands:
    def test_transform_exact_frame(self, capsys):
        code, out, _ = run_cli(
            capsys, "transform", "--m", "4", "--n", "1", "--pair", "2", "2"
        )
        assert code == 0
        assert "pair (4, 1)" in out
        assert "scalar 4" in out
        assert "beta 0.6" in out
        assert "gamma 1.25" in out

    def test_transform_irrational_frame(self, capsys):
        code, out, _ = run_cli(
            capsys, "transform", "--m", "2", "--n", "1", "--pair", "1", "1"
        )
        assert code == 0
        lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
        assert float(lines["pair"].strip("()").split(",")[0]) == pytest.approx(
            math.sqrt(2), rel=1e-12
        )

    def test_transform_rejects_bad_frame(self, capsys):
        code, _, err = run_cli(
            capsys, "transform", "--m", "0", "--n", "1", "--pair", "1", "1"
        )
        assert code == 1
        assert "positive" in err

    def test_kinematics(self, capsys):
        code, out, _ = run_cli(
            capsys, "kinematics", "--count", "4", "--dp", "8", "--dq", "2"
        )
        assert code == 0
        lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
        assert float(lines["m"]) == pytest.approx(1.0, rel=1e-12)
        assert lines["E"] == "1.25"
        assert lines["p"] == "0.75"
        assert lines["beta"] == "0.6"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--count", "nan", "--dp", "1", "--dq", "1"],
            ["--count", "4", "--dp", "inf", "--dq", "1"],
        ],
    )
    def test_kinematics_rejects_non_finite_inputs(self, capsys, argv):
        code, out, err = run_cli(capsys, "kinematics", *argv)
        assert code == 1
        assert out == ""
        assert err.strip()


# == 5. enumerate / simulate ==================================================


class TestEnumerateCommand:
    def test_35_orderings(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--p", "4", "--q", "3")
        assert code == 0
        words = out.strip().splitlines()
        assert len(words) == 35
        assert words[0] == "PPPPQQQ"
        assert words[-1] == "QQQPPPP"

    def test_pair_words(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--p", "1", "--q", "1")
        assert out.split() == ["PQ", "QP"]

    def test_empty_word_prints_a_dash(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--p", "0", "--q", "0")
        assert (code, out) == (0, "-\n")
        code, out, _ = run_cli(capsys, "enumerate", "--p", "0", "--q", "0", "--amplitudes")
        assert code == 0
        assert out.splitlines()[0].split() == ["-", "1.0+0.0j"]

    def test_amplitude_sums_match_kernel(self, capsys):
        from infnet import path_sum_kernel

        code, out, _ = run_cli(
            capsys, "enumerate", "--p", "2", "--q", "2", "--amplitudes"
        )
        assert code == 0
        lines = out.strip().splitlines()
        sums = {}
        for line in lines:
            if line.startswith("sum_final_"):
                key, value = line.split(" ", 1)
                sums[key[-1]] = complex(value.replace(" ", ""))
        # all 2-2 words end at x = 0 after 4 steps
        for final, total in sums.items():
            kernel = path_sum_kernel("P", 0, final, 0, 4)
            assert total.real == pytest.approx(kernel.real, abs=1e-12)
            assert total.imag == pytest.approx(kernel.imag, abs=1e-12)

    def test_cap_exceeded_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--p", "15", "--q", "15")
        assert code == 1
        assert "cap" in err

    def test_cap_above_kernel_cap_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--p", "13", "--q", "12", "--cap", "25")
        assert code == 2
        assert out == ""
        assert err.strip().endswith("--cap: must not exceed 24")


@pytest.mark.parametrize(
    "argv",
    [
        ("propagate", "--steps", "-1"),
        ("simulate", "--steps", "-1", "--prob-p", "0.5"),
        ("simulate", "--steps", "3", "--prob-p", "0.5", "--count", "-1"),
        ("enumerate", "--p", "-1", "--q", "2"),
        ("enumerate", "--p", "2", "--q", "-1"),
        ("enumerate", "--p", "2", "--q", "2", "--cap", "-1"),
    ],
    ids=[
        "propagate-steps",
        "simulate-steps",
        "simulate-count",
        "enumerate-p",
        "enumerate-q",
        "enumerate-cap",
    ],
)
def test_negative_count_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "non-negative" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("interval", "--pair", "1/0", "2"),
        ("transform", "--m", "1/0", "--n", "1", "--pair", "1", "1"),
    ],
    ids=["interval-pair", "transform-m"],
)
def test_zero_denominator_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "invalid _rational value: '1/0'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "seed, env_seed, named",
    [("-1", None, "--seed"), ("0", "-5", "INFNET_SEED"), ("0", "abc", "INFNET_SEED")],
    ids=["flag-negative", "env-negative", "env-not-integer"],
)
def test_bad_seed_is_usage_error(capsys, monkeypatch, seed, env_seed, named):
    if env_seed is not None:
        monkeypatch.setenv("INFNET_SEED", env_seed)
    code, out, err = run_cli(capsys, "simulate", "--steps", "3", "--prob-p", "0.5", "--seed", seed)
    assert code == 2
    assert out == ""
    assert named in err
    assert "non-negative" in err
    assert "Traceback" not in err


class TestSimulateCommand:
    @pytest.mark.parametrize(
        "steps, count, prob_p, seed",
        [
            (0, 5, 0.3, 1),
            (7, 0, 0.3, 2),
            (50, 40, 0.0, 3),
            (50, 40, 1.0, 4),
            (997, 5000, 0.37, 5),  # 20 chunks
            (2_000_003, 2, 0.61, 6),  # one row per chunk
        ],
        ids=["steps-0", "count-0", "prob-0", "prob-1", "several-chunks", "row-per-chunk"],
    )
    def test_totals_match_recount(self, capsys, steps, count, prob_p, seed):
        code, out, _ = run_cli(
            capsys, "simulate", "--steps", str(steps), "--prob-p", repr(prob_p),
            "--seed", str(seed), "--count", str(count),
        )
        assert code == 0
        total_p = recount_p(seed, prob_p, steps, count)
        lines = out.splitlines()
        assert lines[:5] == [
            f"seed {seed}",
            f"words {count}",
            f"steps {steps}",
            f"dp {steps * count - total_p}",
            f"dq {total_p}",
        ]

    @pytest.mark.parametrize(
        "steps, count",
        [(0, 3), (9, 0), (13, 200_000)],  # the last spans ten chunks
        ids=["steps-0", "count-0", "two-chunks"],
    )
    def test_emit_words_prints_the_sample_ahead_of_the_totals(self, capsys, steps, count):
        args = ("simulate", "--steps", str(steps), "--prob-p", "0.4", "--seed", "5",
                "--count", str(count))
        code, plain, _ = run_cli(capsys, *args)
        assert code == 0
        code, out, _ = run_cli(capsys, *args, "--emit-words")
        assert code == 0
        words = freeparticle.sample_sequences(steps, 0.4, 5, count)
        assert out == "".join(word + "\n" for word in words) + plain
        assert f"dq {sum(word.count('P') for word in words)}" in plain.splitlines()

    def test_totals_need_no_word_strings(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulate decoded words it does not print")

        monkeypatch.setattr(freeparticle, "sample_sequences", refuse)
        monkeypatch.setattr(freeparticle, "decode_words", refuse)
        code, out, _ = run_cli(
            capsys, "simulate", "--steps", "300", "--prob-p", "0.2", "--seed", "8",
            "--count", "7000",
        )
        assert code == 0
        assert f"dq {recount_p(8, 0.2, 300, 7000)}" in out.splitlines()

    def test_totals_of_one_long_word_hold_one_small_piece(self, capsys):
        # One word of 10**7 symbols: counting it word by word held 80 MB of
        # draws and a 10 MB mask at once.
        tracemalloc.start()
        try:
            code, out, _ = run_cli(
                capsys, "simulate", "--steps", "10000000", "--prob-p", "0.3", "--seed", "2",
                "--count", "1",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert f"dq {recount_p(2, 0.3, 10_000_000, 1)}" in out.splitlines()
        assert peak < 4 * 2**20

    def test_bad_probability_prints_nothing(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--steps", "5", "--prob-p", "1.5", "--emit-words"
        )
        assert code == 1
        assert out == ""
        assert "prob_p" in err

    def test_deterministic_given_seed(self, capsys):
        args = ("simulate", "--steps", "100", "--prob-p", "0.4", "--seed", "9",
                "--count", "50")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "beta " in out1

    def test_env_seed_overrides_flag(self, capsys, monkeypatch):
        base = ("simulate", "--steps", "50", "--prob-p", "0.5", "--count", "10")
        _, with_flag, _ = run_cli(capsys, *base, "--seed", "1")
        monkeypatch.setenv("INFNET_SEED", "2")
        _, with_env, _ = run_cli(capsys, *base, "--seed", "1")
        monkeypatch.delenv("INFNET_SEED")
        _, plain_two, _ = run_cli(capsys, *base, "--seed", "2")
        assert with_env == plain_two
        assert with_env != with_flag

    def test_emit_words(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--steps", "5", "--prob-p", "1.0",
            "--seed", "3", "--count", "2", "--emit-words",
        )
        assert code == 0
        assert out.splitlines()[:2] == ["PPPPP", "PPPPP"]


# == 6. propagate / hasse / paths =============================================


def reference_propagate(steps: int, theta: float, initial: str) -> tuple[str, str]:
    """The field CSV and the trace of `propagate`, formatted one row at a time.

    Values come from SpinorField.sites(): densities as abs(z) ** 2 on Python
    complex, norm and <x> summed left to right from 0 in ascending x.
    """
    tm = TransferMatrices(theta)
    field = SpinorField.delta(initial)
    rows, trace_rows = ["t,x,probP,probQ,total"], ["t,mean_x,norm"]
    for t in range(steps + 1):
        if t:
            field = step_field(field, tm)
        densities = [(float(x), abs(s.phi_p) ** 2, abs(s.phi_q) ** 2) for x, s in field.sites()]
        norm = mean_x = 0
        for x, p, q in densities:
            norm += p + q
            mean_x += x * (p + q)
        rows += [f"{t},{x!r},{p!r},{q!r},{norm!r}" for x, p, q in densities]
        trace_rows.append(f"{t},{mean_x!r},{norm!r}")
    return "\n".join(rows) + "\n", "\n".join(trace_rows) + "\n"


def row_loop_propagate(steps: int, theta: float, initial: str) -> tuple[str, str]:
    """The field CSV and the trace of `propagate`, from (x, p, q) density rows.

    Each field becomes conftest's density_rows, summed by its norm_of and
    mean_position_of loops, transposed into columns by zip(*rows) and
    formatted a column at a time.
    """
    rows, trace_rows = ["t,x,probP,probQ,total"], ["t,mean_x,norm"]
    for field in evolve(SpinorField.delta(initial), steps, TransferMatrices(theta)):
        densities = density_rows(field)
        norm_text = repr(norm_of(densities))
        xs, ps, qs = zip(*densities)
        columns = (repeat(str(field.t)), map(repr, xs), map(repr, ps), map(repr, qs), repeat(norm_text))
        rows += map(",".join, zip(*columns))
        trace_rows.append(f"{field.t},{mean_position_of(densities)!r},{norm_text}")
    return "\n".join(rows) + "\n", "\n".join(trace_rows) + "\n"


def first_difference(text: str, expected: str):
    """None if the texts are equal, else the first differing line (1-based) of each.

    Keeps a failure on a long CSV readable and quick to report.
    """
    if text == expected:
        return None
    lines, wanted = text.splitlines(keepends=True), expected.splitlines(keepends=True)
    lines += [""] * (len(wanted) - len(lines))
    wanted += [""] * (len(lines) - len(wanted))
    number = next(i for i, (a, b) in enumerate(zip(lines, wanted), 1) if a != b)
    return number, lines[number - 1], wanted[number - 1]



class TestOutputCommands:
    def test_propagate_one_step(self, capsys):
        code, out, _ = run_cli(capsys, "propagate", "--steps", "1", "--initial", "P")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,x,probP,probQ,total"
        t1 = [line for line in lines if line.startswith("1,")]
        cells = [line.split(",") for line in t1]
        by_x = {row[1]: row for row in cells}
        assert float(by_x["-0.5"][2]) == pytest.approx(0.5, rel=1e-12)
        assert float(by_x["0.5"][3]) == pytest.approx(0.5, rel=1e-12)
        assert float(by_x["0.5"][4]) == pytest.approx(1.0, rel=1e-12)

    def test_propagate_csv_deterministic(self, capsys, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for target in (out_a, out_b):
            code, _, _ = run_cli(
                capsys, "propagate", "--steps", "6", "--out", str(target),
                "--trace", str(target) + ".trace",
            )
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        trace = (tmp_path / "a.csv.trace").read_text().splitlines()
        assert trace[0] == "t,mean_x,norm"
        assert len(trace) == 8

    @pytest.mark.parametrize("initial", ["P", "Q"])
    @pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 4, math.pi / 2])
    @pytest.mark.parametrize("steps", [0, 1, 2, 7, 64, 300])
    def test_propagate_bytes_match_a_row_by_row_reference(
        self, capsys, tmp_path, steps, theta, initial
    ):
        csv, trace = reference_propagate(steps, theta, initial)
        argv = ["propagate", "--steps", str(steps), "--theta", repr(theta), "--initial", initial]
        out, trace_out = tmp_path / "field.csv", tmp_path / "trace.csv"
        assert run_cli(capsys, *argv, "--out", str(out), "--trace", str(trace_out)) == (0, "", "")
        assert first_difference(out.read_text(), csv) is None
        assert first_difference(trace_out.read_text(), trace) is None
        code, stdout, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert first_difference(stdout, csv) is None

    @pytest.mark.parametrize("initial", ["P", "Q"])
    @pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 4, 1.2, math.pi / 2])
    @pytest.mark.parametrize("steps", [0, 1, 2, 64, 300])
    def test_propagate_bytes_match_the_density_row_loop(
        self, capsys, tmp_path, steps, theta, initial
    ):
        csv, trace = row_loop_propagate(steps, theta, initial)
        argv = ["propagate", "--steps", str(steps), "--theta", repr(theta), "--initial", initial]
        out, trace_out = tmp_path / "field.csv", tmp_path / "trace.csv"
        assert run_cli(capsys, *argv, "--out", str(out), "--trace", str(trace_out)) == (0, "", "")
        assert first_difference(out.read_text(), csv) is None
        assert first_difference(trace_out.read_text(), trace) is None

    def test_hasse_svg(self, capsys, tmp_path):
        target = tmp_path / "ladder.svg"
        code, _, _ = run_cli(
            capsys, "hasse", str(DATA / "ladder.net"), "--svg", str(target)
        )
        assert code == 0
        text = target.read_text()
        assert text.count("<polyline") == 2
        assert "<line " in text  # cross influences drawn as arrows

    def test_hasse_forced_cyclic_exits_one(self, capsys, tmp_path):
        target = tmp_path / "cyclic.svg"
        code, _, err = run_cli(
            capsys, "hasse", str(DATA / "cyclic.net"), "--force", "--svg", str(target)
        )
        assert code == 1
        assert "cyclic" in err and "[0, 1, 2]" in err
        assert not target.exists()

    def test_hasse_forced_acyclic_file_has_a_defined_drawing(self, capsys, tmp_path):
        # Event 0 breaks the degree rule and 5 is on no chain; 0 -> 4 is
        # implied by 0 -> 3 -> 4, so it is not drawn.
        source = tmp_path / "forced.net"
        source.write_text(
            "mode restricted\nchain P: 0 1 2\nchain Q: 3 4\n"
            "influence 0 -> 3\ninfluence 0 -> 4\ninfluence 1 -> 5\n"
        )
        assert run_cli(capsys, "hasse", str(source))[0] == 1
        code, text, _ = run_cli(capsys, "hasse", str(source), "--force")
        assert code == 0
        assert text.count("<circle") == 6
        at = {
            (int(x) - 9, int(y) - 4): int(event)
            for x, y, event in re.findall(r'<text x="(\d+)" y="(\d+)" font-size="12">(\d+)<', text)
        }
        arrows = re.findall(r'<line x1="(\d+)" y1="(\d+)" x2="(\d+)" y2="(\d+)"', text)
        drawn = {(at[int(x1), int(y1)], at[int(x2), int(y2)]) for x1, y1, x2, y2 in arrows}
        assert len(arrows) == 2 and drawn == {(0, 3), (1, 5)}
        columns = {event: x for (x, _), event in at.items()}
        assert columns[0] == columns[1] == columns[2] != columns[3] == columns[4]
        assert columns[5] not in (columns[0], columns[3])

    def test_hasse_disjoint_chains_has_no_arrows(self, capsys, tmp_path):
        source = tmp_path / "disjoint.net"
        source.write_text("mode general\nchain A: 0 1 2\nchain B: 3 4\n")
        target = tmp_path / "disjoint.svg"
        run_cli(capsys, "hasse", str(source), "--svg", str(target))
        text = target.read_text()
        assert text.count("<polyline") == 2
        assert "<line " not in text

    def test_paths_svg(self, capsys, tmp_path):
        target = tmp_path / "zigzag.svg"
        code, _, _ = run_cli(capsys, "paths", "--word", "PQPPQPQ", "--svg", str(target))
        assert code == 0
        text = target.read_text()
        polyline = [line for line in text.splitlines() if "<polyline" in line][0]
        points = polyline.split('points="')[1].split('"')[0].split()
        assert len(points) == 8  # seven segments

    def test_paths_bad_word_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "paths", "--word", "PXQ")
        assert code == 1


# == 7. The README's commands =================================================


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = [block.split("```", 1)[0] for block in readme.split("```sh\n")[1:]]
    commands = [
        shlex.split(line, comments=True)
        for block in blocks
        for line in block.splitlines()
        if line.startswith("infnet ")
    ]
    shutil.copy(DATA / "ladder.net", tmp_path / "examples.net")
    monkeypatch.chdir(tmp_path)
    assert len(commands) >= 10
    for argv in commands:
        code, out, _ = run_cli(capsys, *argv[1:])
        assert code == 0, argv
        written = [argv[i + 1] for i, arg in enumerate(argv) if arg in ("--svg", "--out", "--trace")]
        assert all((tmp_path / path).stat().st_size for path in written), argv
        assert written or out, argv


# == 8. The parser ============================================================

COMMANDS = [
    "validate",
    "quantify",
    "interval",
    "distance",
    "transform",
    "kinematics",
    "enumerate",
    "simulate",
    "propagate",
    "hasse",
    "paths",
]


@pytest.fixture
def built_subparsers(monkeypatch):
    """The names passed to add_parser, in order, by every parser built since."""
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    return names


@pytest.mark.parametrize("command", COMMANDS)
def test_a_named_command_builds_only_its_subparser(capsys, built_subparsers, command):
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0
    assert out.startswith(f"usage: infnet {command} ")
    assert built_subparsers == [command]


@pytest.mark.parametrize("argv", [(), ("--help",), ("bogus",), ("val", "x")])
def test_no_command_name_builds_every_subparser(capsys, built_subparsers, argv):
    run_cli(capsys, *argv)
    assert built_subparsers == COMMANDS


PARSER_CASES = [
    *[(command, *tail) for command in COMMANDS for tail in [("--help",), (), ("a", "b", "c"), ("--bogus",)]],
    (),
    ("--help",),
    ("bogus",),
]


@pytest.mark.parametrize("argv", PARSER_CASES, ids=lambda argv: " ".join(argv) or "none")
def test_parser_output_matches_the_full_parser(capsys, monkeypatch, tmp_path, argv):
    """Exit code, stdout and stderr equal those of main() over the parser of all commands.

    `validate a b c` covers the top-level "unrecognized arguments" error,
    whose usage line lists every command; `none` and `bogus` cover the
    missing- and unknown-command errors, which name the positional
    "command".
    """
    monkeypatch.chdir(tmp_path)  # `a` is no file here; outputs would land here
    got = run_cli(capsys, *argv)
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full_parser())
    assert run_cli(capsys, *argv) == got
    if argv[-1:] == ("--help",):
        assert got[0] == 0
    elif argv[-1:] in [("--bogus",), ("bogus",), ("c",)]:
        assert got[0] == 2
        assert "usage: infnet " in got[2]


@pytest.mark.parametrize(
    "argv, message",
    [
        ((), "error: the following arguments are required: command\n"),
        (("bogus",), "error: argument command: invalid choice: 'bogus'"),
    ],
    ids=["none", "bogus"],
)
def test_missing_and_unknown_command_errors_name_the_command_positional(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_network_commands_run_without_numpy(tmp_path):
    """In a fresh interpreter, the commands that make no arrays never import numpy."""
    ladder = str(DATA / "ladder.net")
    calls = [
        ["validate", ladder],
        ["quantify", ladder, "--chain", "P", "--pair", "Q"],
        ["interval", "--pair", "4", "2"],
        ["interval", ladder, "--a", "2", "--b", "13"],
        ["distance", ladder, "--p-label", "3", "--q-label", "3"],
        ["hasse", ladder, "--svg", str(tmp_path / "poset.svg")],
        ["transform", "--m", "4", "--n", "1", "--pair", "2", "2"],
        ["kinematics", "--count", "4", "--dp", "8", "--dq", "2"],
        ["paths", "--word", "PQPPQPQ", "--svg", str(tmp_path / "zigzag.svg")],
    ]
    script = (
        "import sys\n"
        "from infnet.cli import main\n"
        f"codes = [main(argv) for argv in {calls!r}]\n"
        "print(codes, 'numpy' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src, "PATH": ""},
        check=True,
    )
    assert result.stdout.splitlines()[-1] == f"{[0] * len(calls)} False"


def run_fresh(script: str) -> str:
    """The last line a script prints in a fresh interpreter that sees only this infnet."""
    src = str(Path(cli.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src, "PATH": ""},
        check=True,
    )
    return result.stdout.splitlines()[-1]


def test_enumerate_runs_without_numpy():
    """Word listing and path amplitudes are plain Python: enumerate never imports numpy."""
    calls = [
        ["enumerate", "--p", "4", "--q", "3"],
        ["enumerate", "--p", "2", "--q", "2", "--amplitudes"],
        ["enumerate", "--p", "2", "--q", "1", "--amplitudes", "0.3", "--initial", "Q"],
    ]
    script = (
        "import sys\n"
        "from infnet.cli import main\n"
        f"codes = [main(argv) for argv in {calls!r}]\n"
        "print(codes, 'numpy' in sys.modules)\n"
    )
    assert run_fresh(script) == f"{[0] * len(calls)} False"


CHECKERBOARD_NAMES = (
    "Spinor",
    "SpinorField",
    "TransferMatrices",
    "one_step_probability_total",
    "path_amplitude",
    "path_sum_kernel",
    "propagate",
    "step_field",
    "zitterbewegung_trace",
)


def test_star_import_binds_the_checkerboard_names_without_numpy():
    """`from infnet import *` binds the checkerboard names like any other, and loads no numpy."""
    script = (
        "import sys\n"
        "from infnet import *\n"
        f"names = {CHECKERBOARD_NAMES!r}\n"
        "bound = [name for name in names if name in globals()]\n"
        "module = sys.modules.get('infnet.checkerboard')\n"
        "import infnet\n"
        "same = all(globals().get(name) is getattr(module, name, None) for name in names)\n"
        "listed = [name for name in names if name in dir(infnet)]\n"
        "try:\n"
        "    infnet.nosuch\n"
        "except AttributeError as exc:\n"
        "    error = str(exc)\n"
        "print([bound, infnet.checkerboard is module, same, listed, error, 'numpy' in sys.modules])\n"
    )
    names = list(CHECKERBOARD_NAMES)
    error = "module 'infnet' has no attribute 'nosuch'"
    assert run_fresh(script) == str([names, True, True, names, error, False])
