"""Join graphs over bound queries.

The join graph has one node per FROM-clause alias and one edge per join
predicate — equi-joins (``a.x = b.y``, the edges the enumerator puts join
keys on) and *residual* join filters (non-equi predicates such as
``a.x < b.y`` or cross-table ``OR`` trees, which connect their aliases
pairwise so the enumerator can plan them as filtered cross products).  The
optimizer's dynamic-programming enumeration only considers *connected*
sub-sets (no unfiltered Cartesian products, like PostgreSQL's default), so
the graph exposes connectivity helpers.  The deep-dive examples of the paper
(Figures 3 and 4) are rendered from this structure.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.sql.binder import BoundJoin, BoundQuery

AliasSet = FrozenSet[str]


class JoinGraph:
    """Undirected join graph of a bound query."""

    def __init__(self, query: BoundQuery) -> None:
        self.query = query
        self.aliases: Tuple[str, ...] = tuple(query.aliases)
        self._adjacency: Dict[str, Set[str]] = {alias: set() for alias in self.aliases}
        self._edges: Dict[FrozenSet[str], List[BoundJoin]] = {}
        for join in query.joins:
            left, right = join.aliases()
            self._adjacency[left].add(right)
            self._adjacency[right].add(left)
            self._edges.setdefault(frozenset((left, right)), []).append(join)
        for residual in getattr(query, "residuals", ()):
            aliases = [a for a in residual.referenced_aliases() if a in self._adjacency]
            for i, left in enumerate(aliases):
                for right in aliases[i + 1 :]:
                    self._adjacency[left].add(right)
                    self._adjacency[right].add(left)
                    self._edges.setdefault(frozenset((left, right)), [])

    # -- basic accessors ---------------------------------------------------

    def neighbors(self, alias: str) -> Set[str]:
        """Aliases directly joined to ``alias``."""
        return set(self._adjacency[alias])

    def edges(self) -> List[Tuple[str, str]]:
        """All edges as sorted alias pairs (one entry per pair)."""
        return [tuple(sorted(pair)) for pair in self._edges]

    def joins_between_sets(
        self, left: Iterable[str], right: Iterable[str]
    ) -> List[BoundJoin]:
        """Join predicates with one side in ``left`` and the other in ``right``."""
        return self.query.joins_between(left, right)

    def degree(self, alias: str) -> int:
        """Number of joins touching ``alias``."""
        return len(self._adjacency[alias])

    # -- connectivity ------------------------------------------------------

    def is_connected(self, aliases: Iterable[str]) -> bool:
        """True if the induced subgraph over ``aliases`` is connected."""
        alias_set = set(aliases)
        if not alias_set:
            return False
        if len(alias_set) == 1:
            return True
        start = next(iter(alias_set))
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for neighbor in self._adjacency[current]:
                if neighbor in alias_set and neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return seen == alias_set

    def connects(self, left: Iterable[str], right: Iterable[str]) -> bool:
        """True if at least one join edge connects the two alias groups."""
        if not isinstance(right, (set, frozenset)):
            right = set(right)
        for alias in left:
            if not self._adjacency[alias].isdisjoint(right):
                return True
        return False

    def connected_components(self) -> List[Set[str]]:
        """Connected components of the whole graph."""
        remaining = set(self.aliases)
        components: List[Set[str]] = []
        while remaining:
            start = next(iter(remaining))
            seen = {start}
            frontier = [start]
            while frontier:
                current = frontier.pop()
                for neighbor in self._adjacency[current]:
                    if neighbor in remaining and neighbor not in seen:
                        seen.add(neighbor)
                        frontier.append(neighbor)
            components.append(seen)
            remaining -= seen
        return components

    def connected_subsets_of_size(self, size: int) -> List[AliasSet]:
        """All connected alias subsets of exactly ``size`` tables.

        Used by the perfect-(n) oracle and by the Table I estimate-count
        experiment.  Enumeration grows the subsets one neighbouring alias at a
        time, so only connected subsets are ever produced.
        """
        if size < 1 or size > len(self.aliases):
            return []
        current: Set[AliasSet] = {frozenset((alias,)) for alias in self.aliases}
        for _ in range(size - 1):
            grown: Set[AliasSet] = set()
            for subset in current:
                for alias in subset:
                    for neighbor in self._adjacency[alias]:
                        if neighbor not in subset:
                            grown.add(subset | {neighbor})
            current = grown
        return sorted(current, key=lambda s: tuple(sorted(s)))

    def connected_subsets_up_to(self, max_size: int) -> List[AliasSet]:
        """All connected alias subsets of size 1..``max_size``."""
        subsets: List[AliasSet] = []
        for size in range(1, max_size + 1):
            subsets.extend(self.connected_subsets_of_size(size))
        return subsets

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
            neighbors = ", ".join(sorted(self._adjacency[alias])) or "(isolated)"
            lines.append(f"  {alias} -- {neighbors}")
        return "\n".join(lines)


def canonical_subset_order(subset: Sequence[str]) -> Tuple[str, ...]:
    """Deterministic ordering of an alias subset (used for memo keys and logs)."""
    return tuple(sorted(subset))
