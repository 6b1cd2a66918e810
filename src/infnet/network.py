"""Append-only influence networks: finite event sets partially ordered by influence.

An influence network is a DAG of events together with named *chains*:
totally ordered event sequences modelling particle or observer world lines.
Consecutive chain members are linked by a direct influence edge, so any two
events on a chain are comparable under reachability.  This holds by
construction: `add_event` links a new member to its chain's tail and
`from_parts` inserts every chain link, so no network has a gapped chain.

Two connectivity modes are supported:

  restricted -- every event lies on exactly one chain and takes part in at
      most one cross-chain influence edge.  This is the particle regime:
      each influence consists of one act event and one response event.
  general -- events may lie on any number of chains or on none, and may
      connect freely.  Off-chain events are tracked as isolated.

Only this module reads a network's storage; other modules and the tests
go through its methods.  The edges are stored once, as each event's set of
successors; nothing keeps the predecessors.  Event indices follow ids
(`from_parts` indexes sorted ids, `add_event` appends the next one).
Reachability is kept as per-event ancestor bitsets, so `influences()` is
O(1) after the first read.

Lifecycle.  `from_parts`, `add_event` and `add_influence` record edges in
the successor sets; `finalize()` only freezes the network.  The first read
that needs reachability builds the bitsets whole (`_closure`): in index
order while every edge runs from a lower index to a higher one, else in
one Kahn order, and the events that order cannot place, on or below a
cycle, take their edges one at a time.  From then on each insert spreads
its edge s -> t: it ORs the ancestors of s, and s, into t and below,
stopping at every event that already has s (Italiano, TCS 48, 1986).  Both
give the same exact closure, cycles included.  While every edge runs
upward, index order is topological, so no upward insert can close a cycle
and `_cyclic` knows there is none without a bitset: a build whose ids
rise with influence, as `add_event` numbers them, costs O(1) per edge,
and `validate` and `dumps` of an upward network build no bitsets.

Storage.  The closure and each chain's view are built whole by the first
read that needs them and stored on the network; nothing builds them
earlier.  A view is the `ChainRef` that `chain()` returns plus the chain's
forward and backward projection labels of every event (the chain-indexed
closure of Jagadish, ACM TODS 15, 1990, computed once rather than kept up
edge by edge); it is never invalidated.  A finalized network is immutable
and safe to share across threads for read-only queries: threads racing on
a first read may each build a copy, the copies are equal, and a view's
first stored copy is the one every caller gets.  `validate()`,
`transitive_reduction()`, `dumps` and `hasse_svg` build no view.

Influence is reflexive by convention: every event influences itself, which
lets chain members project onto themselves without special cases
downstream.  The closure pass also answers the order questions: only the
events its Kahn order could not place can lie on a cycle, so `_cyclic`,
which `validate` and `hasse_svg` share, tests only those; and index order
while every edge runs upward, else ancestor count, gives `hasse_svg` its
depths.  The bitsets also reduce: `_covering` ORs a source's successor
bits into one mask, and an edge s -> t is redundant exactly when t's
ancestors meet that mask without t's own bit.  `transitive_reduction` runs
that rule on every edge, `hasse_svg` only on the edges that are not chain
links.  `_non_links` is the one statement of which edges those are, exact
for an event on several chains: `dumps` writes them and `hasse_svg` tests
them.  `_is_cross` is the one test of whether an edge joins two chains.
In restricted mode each event's count of cross-chain edges is kept where
edges enter: `from_parts` counts over its distinct influences only,
because a chain link joins two members of one chain and is never cross,
and `add_influence` refuses an edge at an event that already has one, so
an edge it accepts sets both ends' counts from 0 to 1.  `validate` reads
that count.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Union

RESTRICTED = "restricted"
GENERAL = "general"
_MODES = (RESTRICTED, GENERAL)


class NetworkError(ValueError):
    """Base class for influence-network domain errors."""


class UnknownEventError(NetworkError):
    pass


class UnknownChainError(NetworkError):
    pass


class DuplicateEdgeError(NetworkError):
    pass


class CycleError(NetworkError):
    """Raised when an insertion would create a directed cycle."""


class DegreeViolationError(NetworkError):
    """Raised in restricted mode when an event would gain a second cross-chain edge."""


class FinalizedError(NetworkError):
    """Raised on mutation of a finalized network."""


class NotFinalizedError(NetworkError):
    """Raised by queries that require a finalized network."""


@dataclass(frozen=True)
class ChainRef:
    """Immutable view of one chain: its name, events, and integer labels.

    Labels run 1..n in chain order, so label order is isomorphic to the
    chain order by construction: the member with label k is events[k - 1].
    """

    name: str
    events: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.events)

    def labels(self) -> range:
        return range(1, len(self.events) + 1)

    def event_at(self, label: int) -> int:
        if not 1 <= label <= len(self.events):
            raise UnknownEventError(f"chain {self.name!r} has no label {label}")
        return self.events[label - 1]


@dataclass(frozen=True)
class Violation:
    """One broken invariant: the rule name plus the offending events.

    `chain` names the chain whose line breaks the rule, where one does.
    """

    rule: str
    events: tuple[int, ...]
    detail: str
    chain: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.rule}: {self.detail}"


class _View(NamedTuple):
    """A finalized network's chain and its projection labels (see `InfluenceNetwork._view`)."""

    ref: ChainRef
    forward: list[Optional[int]]
    backward: list[Optional[int]]
    at: list[int]  # at[label - 1]: the event index of the member with that label


class InfluenceNetwork:
    """Finite poset of influence events with embedded chains."""

    def __init__(self, mode: str = GENERAL):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self._mode = mode
        self._ids: list[int] = []
        self._index: dict[int, int] = {}
        self._succ: dict[int, set[int]] = {}
        self._chains: dict[str, list[int]] = {}
        # Each event's chains, in listing order.  from_parts shares one
        # (name,) tuple among the members of a chain.
        self._chains_of: dict[int, tuple[str, ...]] = {}
        # Restricted mode only: each event's cross-chain edges, a self-loop
        # counted once, kept where edges enter (from_parts, add_influence).
        self._cross: Counter[int] = Counter()
        # _anc[i] is a bitmask over the indices of the events that reach
        # event i through one or more edges (non-reflexive closure); read it
        # through _closure().  It is None until the first read builds it.
        # _upward holds while every edge runs from a lower index to a
        # higher one.
        self._anc: Optional[list[int]] = None
        # The indices the first read's Kahn pass could not place, in index
        # order: the only events that can lie on a cycle (see _cyclic).
        self._unplaced: list[int] = []
        self._upward = True
        self._finalized = False
        self._views: dict[str, _View] = {}

    # -------------------------
    # Introspection
    # -------------------------

    @property
    def mode(self) -> str:
        return self._mode

    def event_ids(self) -> tuple[int, ...]:
        return tuple(self._ids)

    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((s, t) for s, targets in self._succ.items() for t in targets)

    def chain_links(self) -> set[tuple[int, int]]:
        """Consecutive distinct member pairs of every chain: the implied edges."""
        return set(self._links())

    def _links(self) -> Iterator[tuple[int, int]]:
        """The chain links chain by chain, in chain order, once per listing."""
        for members in self._chains.values():
            for a, b in zip(members, members[1:]):
                if a != b:
                    yield a, b

    def chain_names(self) -> list[str]:
        return sorted(self._chains)

    def chain(self, name: str) -> ChainRef:
        """The chain as a view; a finalized network returns the same one each call."""
        if self._finalized:
            return self._view(name).ref
        return ChainRef(name, tuple(self._members(name)))

    def chains_of(self, event: int) -> tuple[str, ...]:
        self._require_event(event)
        return self._chains_of.get(event, ())

    # -------------------------
    # Mutation
    # -------------------------

    def add_chain(self, name: str) -> None:
        """Declare an empty chain; events are attached via add_event."""
        self._require_mutable()
        if name in self._chains:
            raise NetworkError(f"chain {name!r} already exists")
        self._chains[name] = []

    def add_event(self, chain: Optional[str] = None) -> int:
        """Append a fresh event; if a chain is named, link it to the chain tail."""
        self._require_mutable()
        if chain is not None and chain not in self._chains:
            raise UnknownChainError(f"unknown chain {chain!r}")
        event = self._ids[-1] + 1 if self._ids else 0
        self._index[event] = len(self._ids)
        self._ids.append(event)
        self._succ[event] = set()
        if self._anc is not None:
            self._anc.append(0)
        if chain is not None:
            members = self._chains[chain]
            self._chains_of[event] = (chain,)
            if members:
                # The new event has no successors, so its tail link closes
                # no cycle and spreads to nothing below it.
                self._record(members[-1], event)
            members.append(event)
        return event

    def add_influence(self, source: int, target: int) -> None:
        """Insert the edge source -> target, rejecting cycles and duplicates."""
        self._require_mutable()
        isrc = self._require_event(source)
        itgt = self._require_event(target)
        if source == target:
            raise CycleError(f"cycle-would-form: self influence at event {source}")
        if target in self._succ[source]:
            raise DuplicateEdgeError(f"duplicate influence {source} -> {target}")
        # While index order is topological, an upward edge cannot close a cycle.
        upward = self._upward and isrc < itgt
        if not upward and self._closure()[isrc] >> itgt & 1:
            raise CycleError(f"cycle-would-form: {target} already influences {source}")
        if self._mode == RESTRICTED and self._is_cross(source, target):
            cross = self._cross
            for end in (source, target):
                if cross.get(end):
                    raise DegreeViolationError(
                        f"degree-violation: event {end} already takes part in a cross-chain influence"
                    )
            cross[source] = cross[target] = 1  # both ends were at 0
        self._upward = upward
        self._record(source, target)

    def finalize(self) -> "InfluenceNetwork":
        """Freeze the network; further mutation raises FinalizedError.

        It builds nothing: the closure and the chain views wait for the
        first read that needs them.
        """
        self._finalized = True
        return self

    # -------------------------
    # Queries
    # -------------------------

    def influences(self, a: int, b: int) -> bool:
        """Reflexive-transitive reachability: a == b or a directed path a -> b."""
        ia = self._require_event(a)
        ib = self._require_event(b)
        if ia == ib:
            return True
        return bool(self._closure()[ib] >> ia & 1)

    def transitive_reduction(self) -> set[tuple[int, int]]:
        """Minimal edge set with the same reachability (Hasse covering edges).

        An edge s -> t is redundant when another successor of s reaches t;
        `_covering` states the test.
        """
        return set(self._covering(self._succ.items()))

    def validate(self) -> list[Violation]:
        """Check every structural invariant; violations are data, not errors."""
        found: list[Violation] = []
        cyclic = self._cyclic()
        if cyclic:
            found.append(
                Violation("cycle-would-form", cyclic, f"events on directed cycles: {list(cyclic)}")
            )
        for name, members in sorted(self._chains.items()):
            if len(set(members)) != len(members):
                detail = f"chain {name!r} lists an event more than once"
                found.append(Violation("postulate-4", tuple(members), detail, name))
        if self._mode == RESTRICTED:
            chains_of = self._chains_of
            for event in [e for e in self._ids if len(chains_of.get(e, ())) != 1]:
                homes = chains_of.get(event, ())
                detail = (
                    f"event {event} lies on {len(homes)} chains; "
                    "restricted mode requires exactly one"
                )
                chain = homes[1] if homes else None  # the first listing is legal, the second is not
                found.append(Violation("postulate-3", (event,), detail, chain))
            # Filter, then sort: a load fills _cross in hash order.
            for event, count in sorted(item for item in self._cross.items() if item[1] > 1):
                detail = (
                    f"event {event} takes part in {count} cross-chain influences; "
                    "restricted mode allows one"
                )
                found.append(Violation("postulate-3", (event,), detail))
        return found

    # -------------------------
    # Bulk construction
    # -------------------------

    @classmethod
    def from_parts(
        cls,
        mode: str,
        chains: dict[str, Iterable[int]],
        influences: Iterable[tuple[int, int]],
        events: Iterable[int] = (),
    ) -> "InfluenceNetwork":
        """Build a network from raw parts without per-edge legality checks.

        Chain links are always inserted.  The result may violate other
        invariants (cycles, degree breaches, repeated chain members, ...);
        run validate() to find out.
        Used by the file loader, which must be able to represent a broken
        file in order to report on it.

        The successor sets are built whole in one pass; like every
        network's, the closure waits for the first read (see `_closure`).
        The other tables come from bulk calls: each chain's members map to
        its one (name,) tuple through one `dict.fromkeys`, and only when
        the key count shows an event on two chains are the homes collected
        event by event; the index is `dict(zip(ids, range(n)))`.  The order
        of the ids sets `_upward`, which stays set only if every edge runs
        from a lower id to a higher one: every chain's members never fall
        (equal neighbours make no link) and every influence rises.  It picks
        the first read's pass, index order or Kahn, and a later
        `add_influence` keeps the cycle test it needs.  The order also sets
        each ancestor's bit, so when ids fall against influence every
        bitset reaches the top index: a falling chain of 4000 events closes
        into about twice the bytes of a rising one.  In restricted mode
        one more pass, over the distinct influences alone, counts each
        event's cross-chain edges for `add_influence` and `validate`: a
        chain link is never cross, so the links, most of a restricted
        network's edges, need no test.
        """
        net = cls(mode)
        net._chains = {name: list(members) for name, members in chains.items()}
        chains_of = net._chains_of
        homes = [dict.fromkeys(members, (name,)) for name, members in net._chains.items()]
        for home in homes:
            chains_of.update(home)
        if len(chains_of) < sum(map(len, homes)):
            # An event lies on two chains: collect its homes one by one.
            chains_of.clear()
            for name, members in net._chains.items():
                home = (name,)  # () + home is home itself: one tuple for the whole chain
                for event in dict.fromkeys(members):
                    chains_of[event] = chains_of.get(event, ()) + home
        influences = list(influences)
        ids = sorted({*events, *chains_of, *itertools.chain.from_iterable(influences)})
        if ids and ids[0] < 0:
            raise NetworkError(f"event ids are non-negative, got {ids[0]}")
        succ: dict[int, set[int]] = {event: set() for event in ids}
        # Chain links in chain order, not as the chain_links() set: hash
        # order would scatter these writes over memory.
        for source, target in itertools.chain(net._links(), influences):
            succ[source].add(target)
        net._ids, net._index, net._succ = ids, dict(zip(ids, range(len(ids)))), succ
        # Indices follow the sorted ids, so an edge runs upward iff its ids
        # rise.  A chain's links skip equal neighbours, hence le, not lt.
        net._upward = all(
            all(map(operator.le, members, members[1:])) for members in net._chains.values()
        ) and all(itertools.starmap(operator.lt, influences))
        if mode == RESTRICTED:
            # Each distinct cross edge counts at both ends, a self-loop once.
            cross = [edge for edge in set(influences) if net._is_cross(*edge)]
            net._cross.update(itertools.chain.from_iterable(map(set, cross)))
        return net

    # -------------------------
    # Internals
    # -------------------------

    def _require_event(self, event: int) -> int:
        try:
            return self._index[event]
        except KeyError:
            raise UnknownEventError(f"unknown event {event}") from None

    def _members(self, name: str) -> list[int]:
        try:
            return self._chains[name]
        except KeyError:
            raise UnknownChainError(f"unknown chain {name!r}") from None

    def _view(self, chain: Union[str, ChainRef]) -> _View:
        """A finalized network's view of a chain, built whole on first use.

        Every chain query reaches its chain here, by name or by `ChainRef`.
        It checks that the network is finalized before it looks up the name,
        so an unfinalized network is reported before an unknown chain.

        The view is the chain's `ChainRef`, its members' indices (`at`) and,
        by event index, each event's forward and backward label on it, None
        where there is none.  The forward labels come from one walk along
        the chain: the events that influence its k-th member only grow with
        k, and each event takes the label at which it first appears.  The
        chain events that influence x form a prefix, so x's backward label
        counts them: the members among x's reflexive ancestors, each
        weighted by how often the chain lists it.  Both are exact on cycles
        and repeated members.
        """
        name = chain.name if isinstance(chain, ChainRef) else chain
        view = self._views.get(name)
        if view is None:
            self._require_finalized()
            ref = ChainRef(name, tuple(self._members(name)))
            at = [self._index[member] for member in ref.events]
            anc = self._closure()
            forward: list[Optional[int]] = [None] * len(anc)
            seen = 0
            for label, i in enumerate(at, 1):
                new = (anc[i] | 1 << i) & ~seen
                seen |= new
                while new:
                    j = new.bit_length() - 1
                    forward[j] = label
                    new ^= 1 << j
            masks: dict[int, int] = {}
            for member, times in Counter(ref.events).items():
                masks[times] = masks.get(times, 0) | 1 << self._index[member]
            # One pass over the events per multiplicity; 0 reads as None.
            backward: list[Optional[int]] = [None] * len(anc)
            for times, mask in masks.items():
                backward = [
                    times * ((bits | 1 << i) & mask).bit_count() + (count or 0) or None
                    for i, (count, bits) in enumerate(zip(backward, anc))
                ]
            # setdefault: threads racing to make the view all get the same one.
            view = self._views.setdefault(name, _View(ref, forward, backward, at))
        return view

    def _require_mutable(self) -> None:
        if self._finalized:
            raise FinalizedError("network is finalized; mutation is not allowed")

    def _require_finalized(self) -> None:
        if not self._finalized:
            raise NotFinalizedError("network must be finalized before this query")

    def _cyclic(self) -> tuple[int, ...]:
        """Events among their own ancestors, i.e. on directed cycles, in id order.

        While `_upward` holds, no edge runs back down the index order, so
        there is no cycle and no bitset is read.  Otherwise only events that
        the Kahn pass of `_closure` could not place can lie on a cycle, and
        every later insert refuses cycles, so only those events are tested:
        none in an acyclic network.
        """
        if self._upward:
            return ()
        anc, ids = self._closure(), self._ids
        return tuple(ids[i] for i in self._unplaced if anc[i] >> i & 1)

    def _depths(self) -> dict[int, int]:
        """Longest-path depth of every event of an acyclic network; sources sit at 0.

        Events go in a topological order: index order while every edge runs
        upward, else ancestor count, since without cycles an event has
        strictly more ancestors than each of its predecessors.  So each
        event's depth is final when its turn comes, and it pushes that
        depth + 1 to its successors.
        """
        ids, succ = self._ids, self._succ
        if self._upward:
            order: Iterable[int] = ids
        else:
            counts = [bits.bit_count() for bits in self._closure()]
            order = [ids[i] for i in sorted(range(len(ids)), key=counts.__getitem__)]
        depth = dict.fromkeys(ids, 0)
        for event in order:
            deeper = depth[event] + 1
            for target in succ[event]:
                if depth[target] < deeper:
                    depth[target] = deeper
        return depth

    def _covering(self, sources: Iterable[tuple[int, Iterable[int]]]) -> Iterator[tuple[int, int]]:
        """The covering edges source -> t, for each (source, among).

        `among` are the source's successors to test.  A source covers its
        successor t when no other successor reaches t, so a source with one
        successor covers it without a test.  Otherwise, with `mask` the OR
        of the bits of all its successors, the test is one AND per edge:
        t's ancestors miss `mask` without t's own bit.  The bit is left out
        so that t's own successor bit does not count when t lies on a cycle
        and is its own ancestor.  `transitive_reduction` tests every edge
        through here, `hasse_svg` those of `_non_links`.
        """
        closure, index, succ = self._closure(), self._index, self._succ
        for source, among in sources:
            targets = succ[source]
            if len(targets) == 1:
                for target in among:
                    yield source, target
                continue
            mask = 0
            for target in targets:
                mask |= 1 << index[target]
            for target in among:
                i = index[target]
                if not closure[i] & (mask ^ 1 << i):
                    yield source, target

    def _non_links(self) -> Iterator[tuple[int, list[int]]]:
        """Each event with successors that are not chain links, and those successors.

        An event's one possible link is its next member, `nxt`, while every
        event is listed once over the chains (a `chain_links()` lookup per
        edge cost network-build 2.5% of its wall time).  Else an event may
        have several links, or none between equal neighbours: look each up.
        """
        chains = self._chains.values()
        if len(self._chains_of) < sum(map(len, chains)):
            links = self.chain_links()
            for source, targets in self._succ.items():
                rest = [target for target in targets if (source, target) not in links]
                if rest:
                    yield source, rest
            return
        nxt: dict[int, int] = {}
        for members in chains:
            nxt.update(zip(members, members[1:]))
        for source, targets in self._succ.items():
            link = nxt.get(source)
            if len(targets) > (link in targets):  # a successor other than the link
                yield source, [target for target in targets if target != link]

    def _is_cross(self, source: int, target: int) -> bool:
        """True when no chain holds both events: a cross-chain influence.

        Two events that each lie on one chain are cross exactly when their
        home tuples differ, which needs no set.
        """
        homes, other = self._chains_of.get(source, ()), self._chains_of.get(target, ())
        if len(homes) == 1 == len(other):
            return homes != other
        return set(homes).isdisjoint(other)

    def _closure(self) -> list[int]:
        """The ancestor bitsets, built whole by the first read that needs them.

        Each event, once all its predecessors are done, ORs its ancestors
        and itself into each successor: in index order while `_upward`
        holds, with no bookkeeping, else in one Kahn order (CACM 5(11),
        1962), which places an event when its last predecessor is done.
        An event's first incoming bitset is its source's own int, which
        later ORs rebind rather than change.  The events never placed lie
        on or below a cycle and hold the OR of their placed predecessors;
        the edges among them go back one at a time into a table of their
        own, `back`, each spread over it as an insert is, which is exact on
        cycles and keeps each walk among the edges put back so far.

        The pass reads `_succ`, `_ids` and `_index` and writes none of them.
        It stores `_unplaced` and then, last, `_anc`, so a read racing on a
        finalized network builds an equal copy, and whoever finds `_anc`
        finds `_unplaced` with it.
        """
        anc = self._anc
        if anc is not None:
            return anc
        ids, index, succ = self._ids, self._index, self._succ
        anc = [0] * len(ids)
        unplaced: list[int] = []
        if self._upward:
            # Index order is topological: no Kahn bookkeeping.
            for i, event in enumerate(ids):
                targets = succ[event]
                if targets:
                    gained = anc[i] | 1 << i
                    for target in targets:
                        j = index[target]
                        bits = anc[j]
                        anc[j] = bits | gained if bits else gained
        else:
            indegree = Counter(itertools.chain.from_iterable(succ.values()))
            waiting = [indegree[event] for event in ids]
            order = [i for i, count in enumerate(waiting) if not count]
            for i in order:  # grows as events are placed
                gained = anc[i] | 1 << i
                for target in succ[ids[i]]:
                    j = index[target]
                    bits = anc[j]
                    anc[j] = bits | gained if bits else gained
                    waiting[j] -= 1
                    if not waiting[j]:
                        order.append(j)
            # A placed event has only placed predecessors, so the events left
            # waiting are closed under successors, and so is `back`.
            unplaced = [i for i, count in enumerate(waiting) if count]
            back: dict[int, set[int]] = {ids[i]: set() for i in unplaced}
            for i in unplaced:
                source = ids[i]
                for target in succ[source]:
                    back[source].add(target)
                    self._spread(anc, back, i, target)
        self._unplaced = unplaced
        self._anc = anc
        return anc

    def _record(self, source: int, target: int) -> None:
        """Add the edge source -> target; once a closure exists, spread it there."""
        self._succ[source].add(target)
        if self._anc is not None:
            self._spread(self._anc, self._succ, self._index[source], target)

    def _spread(self, anc: list[int], succ: dict[int, set[int]], isrc: int, target: int) -> None:
        """OR the ancestors of the event at isrc, and itself, into target and below.

        `succ` holds the edges the bitsets already close, plus the new one.
        An event that already has the source as an ancestor holds all of
        `gained` by transitivity, and so does everything below it, so the
        walk stops there (Italiano, TCS 48, 1986).  Exact even when the
        edge closes a cycle: the source then gains only itself.
        """
        index = self._index
        gained = anc[isrc] | 1 << isrc
        stack = [target]
        while stack:
            event = stack.pop()
            i = index[event]
            if not anc[i] >> isrc & 1:
                anc[i] |= gained
                stack.extend(succ[event])
