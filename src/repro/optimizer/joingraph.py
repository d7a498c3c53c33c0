"""Join graphs over bound queries, with alias sets as integer bitmasks.

The join graph has one node per FROM-clause alias and one edge per join
predicate — equi-joins (``a.x = b.y``, the edges the enumerator puts join
keys on) and *residual* join filters (non-equi predicates such as
``a.x < b.y`` or cross-table ``OR`` trees, which connect their aliases
pairwise so the enumerator can plan them as filtered cross products).  The
optimizer's dynamic-programming enumeration only considers *connected*
sub-sets (no unfiltered Cartesian products, like PostgreSQL's default).  The
deep-dive examples of the paper (Figures 3 and 4) are rendered from this
structure.

**Mask layout.**  The planner works on alias sets as ``int`` bitmasks: bit
``i`` is the ``i``-th alias in *sorted* order (:attr:`JoinGraph.names`), so
ascending bits are ``sorted(subset)`` — the order split enumeration, the
greedy ordering and :meth:`JoinGraph.pick_removable` break ties in.  The
graph precomputes each alias's neighbourhood mask, the equi-joins as
``(join, left bit, right bit)`` in ``query.joins`` order and one mask per
residual, and answers :meth:`~JoinGraph.neighbours`,
:meth:`~JoinGraph.joins_between`, :meth:`~JoinGraph.is_connected` and
:meth:`~JoinGraph.pick_removable` on ints.  Alias sets become ``frozenset``
names (:meth:`~JoinGraph.aliases_of`) only where an injector (estimators
included) or a plan node needs them.

**Connected subsets.**  :meth:`JoinGraph.connected_levels` grows the
connected subsets level by level — each subset of size ``k + 1`` is a
size-``k`` one plus a neighbouring alias (DPccp-style, Moerkotte & Neumann,
VLDB 2006) — so the 2^n subsets that are not connected are never visited.
Each level comes in ``itertools.combinations(query.aliases, k)`` order, the
order the dynamic program estimates subsets in.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, FrozenSet, Iterable, Iterator, List, Set, Tuple

from repro.sql.ast import Expr
from repro.sql.binder import BoundJoin, BoundQuery

AliasSet = FrozenSet[str]


class JoinGraph:
    """Undirected join graph of a bound query."""

    def __init__(self, query: BoundQuery) -> None:
        self.query = query
        self.aliases: Tuple[str, ...] = tuple(query.aliases)
        #: Alias of each bit, in bit order.
        self.names: Tuple[str, ...] = tuple(sorted(self.aliases))
        self.bits: Dict[str, int] = {alias: 1 << i for i, alias in enumerate(self.names)}
        #: Mask of every alias of the query.
        self.full = (1 << len(self.names)) - 1
        # Stands for any alias outside the query: no subset of it ever holds it.
        self._outside = self.full + 1
        #: Neighbourhood mask of each single-alias mask.
        self.adjacent: Dict[int, int] = dict.fromkeys(self.bits.values(), 0)
        #: Equi-joins as ``(join, left bit, right bit)``, in ``query.joins`` order.
        self.joins: List[Tuple[BoundJoin, int, int]] = []
        for join in query.joins:
            left, right = self.bits[join.left_alias], self.bits[join.right_alias]
            self.adjacent[left] |= right
            self.adjacent[right] |= left
            self.joins.append((join, left, right))
        #: Residual join filters with the mask of the aliases they reference.
        self.residuals: List[Tuple[Expr, int]] = []
        for residual in query.residuals:
            mask = self.mask(residual.referenced_aliases())
            known = mask & self.full
            for bit in self.bits_of(known):
                self.adjacent[bit] |= known ^ bit
            self.residuals.append((residual, mask))
        # Combination-order key of each bit: FROM-clause position, first alias highest.
        last = len(self.aliases) - 1
        self._rank = {self.bits[a]: 1 << (last - i) for i, a in enumerate(self.aliases)}

    # -- masks ---------------------------------------------------------------

    def mask(self, aliases: Iterable[str]) -> int:
        """Mask of ``aliases``; one outside the query sets a bit above :attr:`full`."""
        mask = 0
        for alias in aliases:
            mask |= self.bits.get(alias, self._outside)
        return mask

    @staticmethod
    def bits_of(mask: int) -> List[int]:
        """The single-alias masks of ``mask``, ascending (= sorted alias order)."""
        bits = []
        while mask:
            bit = mask & -mask
            bits.append(bit)
            mask ^= bit
        return bits

    def aliases_of(self, mask: int) -> AliasSet:
        """The alias names of ``mask``."""
        return frozenset([self.names[bit.bit_length() - 1] for bit in self.bits_of(mask)])

    def edges(self) -> List[Tuple[str, str]]:
        """All edges as sorted alias pairs (one entry per pair), in sorted order."""
        return [
            (self.names[bit.bit_length() - 1], self.names[other.bit_length() - 1])
            for bit, adjacent in self.adjacent.items()
            for other in self.bits_of(adjacent)
            if other > bit
        ]

    # -- connectivity ------------------------------------------------------

    def neighbours(self, mask: int) -> int:
        """Aliases outside ``mask`` joined to an alias inside it."""
        found = 0
        rest = mask
        while rest:
            bit = rest & -rest
            found |= self.adjacent[bit]
            rest ^= bit
        return found & ~mask

    def joins_between(self, left: int, right: int) -> Tuple[BoundJoin, ...]:
        """Equi-joins with one side in ``left`` and the other in ``right``."""
        return tuple(
            [
                join
                for join, left_bit, right_bit in self.joins
                if (left_bit & left and right_bit & right)
                or (left_bit & right and right_bit & left)
            ]
        )

    def _reach(self, start: int, within: int) -> int:
        """Aliases of ``within`` reachable from ``start`` inside ``within``."""
        seen = frontier = start
        while frontier:
            frontier = self.neighbours(frontier) & within & ~seen
            seen |= frontier
        return seen

    def is_connected(self, mask: int) -> bool:
        """True if the induced subgraph over ``mask`` is connected."""
        return bool(mask) and self._reach(mask & -mask, mask) == mask

    def pick_removable(self, mask: int) -> int:
        """Highest alias whose removal leaves ``mask`` connected and joined to it.

        The cardinality estimator and the true-cardinality oracle decompose
        a subset through it.  A subset with no such alias (disconnected,
        only probed by explicit experiments) peels off its highest alias.
        """
        bits = self.bits_of(mask)
        for bit in reversed(bits):
            rest = mask ^ bit
            if self.adjacent[bit] & rest and self.is_connected(rest):
                return bit
        return bits[-1]

    def connected_components(self) -> List[Set[str]]:
        """Connected components of the whole graph."""
        components: List[Set[str]] = []
        remaining = self.full
        while remaining:
            component = self._reach(remaining & -remaining, remaining)
            components.append(set(self.aliases_of(component)))
            remaining ^= component
        return components

    def connected_levels(self) -> Iterator[List[int]]:
        """Masks of the connected subsets, one list per size from 1 up.

        Level ``k + 1`` is grown from level ``k`` by adding one neighbouring
        alias to each subset, so only connected subsets are produced.  A
        level is listed in ``itertools.combinations(query.aliases, k)``
        order: ``_rank`` numbers the aliases by FROM-clause position, first
        alias highest, and that order is descending rank sum.
        """
        rank = self._rank
        adjacent = self.adjacent
        # mask -> (rank sum, neighbourhood)
        level = {bit: (rank[bit], adjacent[bit]) for bit in adjacent}
        while level:
            yield sorted(level, key=level.get, reverse=True)  # rank sums are unique
            grown: Dict[int, Tuple[int, int]] = {}
            for mask, (key, frontier) in level.items():
                reach = frontier
                while frontier:
                    bit = frontier & -frontier
                    frontier ^= bit
                    wider = mask | bit
                    if wider not in grown:
                        grown[wider] = (key | rank[bit], (reach | adjacent[bit]) & ~wider)
            level = grown

    def connected_subsets_of_size(self, size: int) -> List[AliasSet]:
        """All connected alias subsets of exactly ``size`` tables."""
        return [s for s in self.connected_subsets_up_to(size) if len(s) == size]

    def connected_subsets_up_to(self, max_size: int) -> List[AliasSet]:
        """All connected alias subsets of size 1..``max_size`` (a view of
        :meth:`connected_levels`, in its order)."""
        return [
            self.aliases_of(mask)
            for level in islice(self.connected_levels(), max(0, max_size))
            for mask in level
        ]

    # -- rendering ----------------------------------------------------------

    def to_dot(self) -> str:
        """Render the join graph in Graphviz DOT syntax (for the examples)."""
        lines = [f"graph {self.query.name or 'query'} {{"]
        for alias in self.aliases:
            lines.append(f'  {alias} [label="{alias}"];')
        for left, right in self.edges():
            lines.append(f"  {left} -- {right};")
        lines.append("}")
        return "\n".join(lines)

    def to_text(self) -> str:
        """Human-readable adjacency listing used by the deep-dive example."""
        lines = [f"join graph of {self.query.name or 'query'}:"]
        for alias in self.aliases:
            neighbors = ", ".join(sorted(self.aliases_of(self.adjacent[self.bits[alias]])))
            lines.append(f"  {alias} -- {neighbors or '(isolated)'}")
        return "\n".join(lines)
