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

The edges are stored once, as each event's set of successors; nothing
keeps the predecessors.  Reachability is kept as per-event ancestor
bitsets, so `influences()` is O(1) after `finalize()`.  Event indices
follow ids (`from_parts` indexes sorted ids, `add_event` appends the next
one).  Every network closes the same way.  Until its first read
(`finalize()` included), `from_parts`, `add_event` and `add_influence`
only record edges in the successor sets, so a build whose ids rise with
influence, as `add_event` numbers them, costs O(1) per edge until then.
The first read computes the bitsets whole in one Kahn order (CACM 5(11),
1962), whatever order the ids run in.  The events it cannot place lie on
or below a cycle; they start from the OR of their placed predecessors,
and the edges among them go in one at a time through the walk below.
After the first read every insert walks:
inserting s -> t ORs the ancestors of s, and s, into t and walks down from
t, stopping at every event that already has s as an ancestor, so each
event is updated at most once and only events that gain bits are touched
(Italiano, TCS 48, 1986).  Both give the same exact closure, cycles
included.  `add_influence` reads the closure for its cycle test, except
while every edge runs from a lower index to a higher one: index order is
then topological, and no upward edge can close a cycle.
Influence is reflexive by convention: every event influences itself, which
lets chain members project onto themselves without special cases
downstream.  The bitsets also answer the order questions: the events on
cycles are those among their own ancestors (`validate` and `hasse_svg`
share that test), and sorting events by ancestor count orders an acyclic
network topologically, which gives `hasse_svg` its depths.  They also
reduce: `transitive_reduction` ORs each source's successor bits into one
mask, and an edge s -> t is redundant exactly when t's ancestors meet that
mask without t's own bit.  `_is_cross` is the one test of whether an edge
joins two chains.  In restricted mode each event's count of cross-chain
edges is kept where edges enter: `from_parts` counts over its distinct
influences only, because a chain link joins two members of one chain and
is never cross, and `add_influence` refuses an edge at an event that
already has one and counts the edges it accepts.  `validate` reads that
count.

Networks are append-only.  `finalize()` freezes the structure; a finalized
network is immutable and safe to share across threads for read-only
queries, because `finalize()` brings the closure up to date and no read
then writes it.  It keeps one view per chain, made on first use and never
invalidated: the `ChainRef` that `chain()` returns, plus the chain's
forward and backward projection labels of every event.  The first
`chain()` call or projection onto a chain builds its view whole from the
ancestor bitsets (the chain-indexed closure of Jagadish, ACM TODS 15,
1990, computed once rather than kept up edge by edge).  Threads racing on
a first query share one view; each may build its own copy, the copies are
equal, and the first one stored is the one every caller gets.
`validate()`, `transitive_reduction()`, `dumps` and `hasse_svg` build no
view.
"""

from __future__ import annotations

import itertools
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
    chain order by construction.
    """

    name: str
    events: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.events)

    def labels(self) -> range:
        return range(1, len(self.events) + 1)

    def label_of(self, event: int) -> int:
        """1-based label of an event on this chain; a repeated member's first."""
        try:
            return self.events.index(event) + 1
        except ValueError:
            raise UnknownEventError(f"event {event} is not on chain {self.name!r}") from None

    def event_at(self, label: int) -> int:
        if not 1 <= label <= len(self.events):
            raise UnknownEventError(f"chain {self.name!r} has no label {label}")
        return self.events[label - 1]


@dataclass(frozen=True)
class Violation:
    """One broken invariant: the rule name plus the offending events.

    `chain` names the chain at fault for rules about one chain.
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
        # through _closure().  While _stale, before the first read, inserts
        # only record edges and _anc is not kept.  _upward holds while
        # every edge runs from a lower index to a higher one.
        self._anc: list[int] = []
        self._upward = True
        self._stale = True
        self._finalized = False
        self._views: dict[str, _View] = {}

    # -------------------------
    # Introspection
    # -------------------------

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def is_finalized(self) -> bool:
        return self._finalized

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

    def has_event(self, event: int) -> bool:
        return event in self._index

    def has_chain(self, name: str) -> bool:
        return name in self._chains

    def chain(self, name: str) -> ChainRef:
        """The chain as a view; a finalized network returns the same one each call."""
        if self._finalized:
            return self._view(name).ref
        return ChainRef(name, tuple(self._members(name)))

    def chains_of(self, event: int) -> tuple[str, ...]:
        self._require_event(event)
        return self._chains_of.get(event, ())

    def off_chain_events(self) -> tuple[int, ...]:
        """Events on no chain at all (isolated in general mode)."""
        return tuple(e for e in self._ids if not self._chains_of.get(e))

    def successors(self, event: int) -> frozenset[int]:
        self._require_event(event)
        return frozenset(self._succ[event])

    def predecessors(self, event: int) -> frozenset[int]:
        """The events with an edge into event; scans every edge."""
        self._require_event(event)
        return frozenset(s for s, targets in self._succ.items() if event in targets)

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
        self._anc.append(0)
        if chain is not None:
            # Membership first, so the tail link is classified as a chain
            # edge rather than a cross-chain one.
            members = self._chains[chain]
            self._chains_of[event] = (chain,)
            if members:
                self._insert_edge(members[-1], event)
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
        if not upward and self.influences(target, source):
            raise CycleError(f"cycle-would-form: {target} already influences {source}")
        if self._mode == RESTRICTED and self._is_cross(source, target):
            for end in (source, target):
                if self._cross[end]:
                    raise DegreeViolationError(
                        f"degree-violation: event {end} already takes part in a cross-chain influence"
                    )
            self._cross.update((source, target))
        self._upward = upward
        self._insert_edge(source, target)

    def finalize(self) -> "InfluenceNetwork":
        """Freeze the network; further mutation raises FinalizedError."""
        self._closure()
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

        An edge s -> t is redundant when another successor of s reaches t.
        With `mask` the OR of the bits of all of s's successors, that is one
        AND per edge: t's ancestors meet `mask` without t's own bit.  The
        bit is left out so that t's own successor bit does not count when t
        lies on a cycle and is its own ancestor.
        """
        closure, index = self._closure(), self._index
        reduced = set()
        for source, targets in self._succ.items():
            mask = 0
            for target in targets:
                mask |= 1 << index[target]
            for target in targets:
                i = index[target]
                if not closure[i] & (mask ^ 1 << i):
                    reduced.add((source, target))
        return reduced

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
                homes = len(chains_of.get(event, ()))
                detail = (
                    f"event {event} lies on {homes} chains; restricted mode requires exactly one"
                )
                found.append(Violation("postulate-3", (event,), detail))
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
        The order of the ids decides nothing but `_upward`, which stays set
        only if every edge runs from a lower id to a higher one, so a later
        `add_influence` keeps the cycle test it needs.  In restricted mode
        one more pass, over the distinct influences alone, counts each
        event's cross-chain edges for `add_influence` and `validate`: a
        chain link is never cross, so the links, most of a restricted
        network's edges, need no test.
        """
        net = cls(mode)
        net._chains = {name: list(members) for name, members in chains.items()}
        chains_of = net._chains_of
        for name, members in net._chains.items():
            home = (name,)  # () + home is home itself: one tuple for the whole chain
            for event in dict.fromkeys(members):
                chains_of[event] = chains_of.get(event, ()) + home
        influences = list(influences)
        ids = sorted({*events, *chains_of, *itertools.chain.from_iterable(influences)})
        if ids and ids[0] < 0:
            raise NetworkError(f"event ids are non-negative, got {ids[0]}")
        index = {event: i for i, event in enumerate(ids)}
        succ: dict[int, set[int]] = {event: set() for event in ids}
        # Chain links in chain order, not as the chain_links() set: hash
        # order would scatter these writes over memory.
        for source, target in itertools.chain(net._links(), influences):
            succ[source].add(target)
        net._ids, net._index, net._succ = ids, index, succ
        # Indices follow the sorted ids, so an edge runs upward iff its ids rise.
        net._upward = all(s < t for s, targets in succ.items() for t in targets)
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
            self.require_finalized()
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

    def require_finalized(self) -> None:
        if not self._finalized:
            raise NotFinalizedError("network must be finalized before this query")

    def _cyclic(self) -> tuple[int, ...]:
        """Events among their own ancestors, i.e. on directed cycles, in id order."""
        anc = self._closure()
        return tuple(e for i, e in enumerate(self._ids) if anc[i] >> i & 1)

    def _depths(self) -> dict[int, int]:
        """Longest-path depth of every event of an acyclic network; sources sit at 0.

        Ancestor count orders events topologically: without cycles an event
        has strictly more ancestors than each of its predecessors.  So each
        event's depth is final when its turn comes, and it pushes that
        depth + 1 to its successors.
        """
        counts = [bits.bit_count() for bits in self._closure()]
        ids, succ = self._ids, self._succ
        depth = dict.fromkeys(ids, 0)
        for i in sorted(range(len(ids)), key=counts.__getitem__):
            event = ids[i]
            deeper = depth[event] + 1
            for target in succ[event]:
                if depth[target] < deeper:
                    depth[target] = deeper
        return depth

    def _is_cross(self, source: int, target: int) -> bool:
        """True when no chain holds both events: a cross-chain influence."""
        return set(self._chains_of.get(source, ())).isdisjoint(self._chains_of.get(target, ()))

    def _closure(self) -> list[int]:
        """The ancestor bitsets, computed whole on the first read.

        The first read closes every recorded edge in one Kahn order (CACM
        5(11), 1962): it counts each event's in-degree over the successor
        sets, and each event, once all its predecessors are placed, ORs its
        ancestors and itself into each successor.  The events that are
        never placed lie on or below a cycle; each then holds the OR of its
        placed predecessors, and the edges among them go back in one at a
        time through the walk, which is exact on cycles.  Later reads
        return the bitsets as the walks keep them.
        """
        if self._stale:
            ids, index, succ = self._ids, self._index, self._succ
            anc = self._anc = [0] * len(ids)
            indegree = Counter(itertools.chain.from_iterable(succ.values()))
            waiting = [indegree[event] for event in ids]
            order = [i for i, count in enumerate(waiting) if not count]
            for i in order:  # grows as events are placed
                gained = anc[i] | 1 << i
                for target in succ[ids[i]]:
                    j = index[target]
                    anc[j] |= gained
                    waiting[j] -= 1
                    if not waiting[j]:
                        order.append(j)
            # A placed event has only placed predecessors, so the events left
            # waiting are closed under successors: take out the edges among
            # them, so that each walk below covers only the edges put back.
            rest = [(ids[i], t) for i, count in enumerate(waiting) if count for t in succ[ids[i]]]
            for source, target in rest:
                succ[source].discard(target)
            self._stale = False
            for source, target in rest:
                self._walk(source, target)
        return self._anc

    def _insert_edge(self, source: int, target: int) -> None:
        """Record source -> target before the first read; walk it in after."""
        if self._stale:
            self._succ[source].add(target)
        else:
            self._walk(source, target)

    def _walk(self, source: int, target: int) -> None:
        """Add source -> target to an up-to-date closure and walk down from target."""
        isrc = self._index[source]
        self._succ[source].add(target)
        # An event that already has source as an ancestor holds all of
        # `gained` by transitivity, and so does everything below it.  Exact
        # even when the edge closes a cycle: source then gains only itself.
        anc = self._anc
        gained = anc[isrc] | (1 << isrc)
        stack = [target]
        while stack:
            event = stack.pop()
            i = self._index[event]
            if not anc[i] >> isrc & 1:
                anc[i] |= gained
                stack.extend(self._succ[event])
