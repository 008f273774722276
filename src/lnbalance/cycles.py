"""Candidate rebalancing cycle enumeration under four selection strategies.

A candidate is a tuple of ``(sender, receiver, channel id)`` hops that
starts with the hop the initiator wants to drain and returns to the
initiator through distinct nodes and channels.
``cycle4``/``cycle5`` enumerate all simple cycles of at most 4/5 hops;
``foaf`` (and ``mpp``, which shares its cycle set and only splits amounts)
searches up to 6 hops but stays inside the initiator's friend-of-a-friend
node set, the nodes within two hops of it.  Enumeration is a pure read of
the topology: shortest cycles first, lexicographic by hop within a
length, so truncating at a cap is reproducible.  The simulation kernel
validates a candidate as a :class:`~lnbalance.model.RebalanceCycle` only
when it executes.

Storage.  :func:`enumerate_cycles` returns a :class:`CycleRows`, which
keeps no object per candidate.  One flat ``array`` per cycle length holds,
for each cycle of L hops, the ids of its L - 1 hops after the first (see
:meth:`~lnbalance.model.NetworkGraph.hop_table`), cycle after cycle.  The
ids take 2 bytes each (typecode ``"H"``) when the graph has at most 65,536
directed hops, that is at most 32,768 channels, and 4 bytes (``"i"``)
above that; the choice reads only the graph's size, and every reader sees
the same ints either way.
Indexing builds a candidate's hop tuple from the graph's hop table, so the
run builds a tuple only for a cycle it hands to the attempt kernel.
:meth:`CycleRows.first_reaching` reads the hop ids straight from the
arrays, with no tuple at all: a run scans a visit's cycles with it
against two tables of per-hop caps kept by hop id, where a 0 stops every
cycle that reads it, and builds a tuple only for a cycle that reads none.
Both find a cycle's row by one walk down the rows, longest first:
indexing through `_locate`, and `first_reaching` with that walk written
inline, since it runs once per scanned cycle.

Pruning.  The search is one depth-first walk that does only its hop
limit's work:

- The first step out of the peer is not tested: every neighbour of the
  peer lies within two hops of the initiator, and at least two hops are
  left there.
- Any other step that leaves two or more hops to close goes only into
  the initiator's two-hop ball, which for the foaf strategies is also the
  foaf set.  ``cycle4`` takes no such step, so it builds no ball.
- A cycle closes at a node by a lookup in the initiator's hops grouped by
  neighbour.  A last step comes from intersecting the node's neighbours
  with the initiator's (iterating the smaller side), leaving out the peer,
  which is on every path; the step and its closing hop are written
  together without descending.

Each node lists its steps once per call: below the peer, the steps into
the ball are the same whatever the hops left.
"""

from __future__ import annotations

from array import array
from enum import Enum
from typing import Callable, Iterable, Sequence

from .model import NetworkGraph

Hops = tuple[tuple[int, int, int], ...]


class Strategy(Enum):
    CYCLE4 = "cycle4"
    CYCLE5 = "cycle5"
    FOAF = "foaf"
    MPP = "mpp"

    @property
    def splits_amount(self) -> bool:
        return self is Strategy.MPP


DEFAULT_FOAF_MAX_LEN = 6


# _CAP[k](mid, last, ids, j), for k up to DEFAULT_FOAF_MAX_LEN - 1: the cap
# of the cycle whose hops after `first` have the ids ids[j:j + k], that is
# min(mid[d] over its hops d after `first` but the last, last[d] of the
# last), when none of those entries is 0, else 0.  Written out per k,
# because one runs per scanned cycle.  The last hop is tested first, then
# the others in order, and the test stops at the first 0: a band run's
# cycles mostly fail at the sink or at the first middle hop, and the min is
# taken only for the one cycle that passes.
_CAP = (
    None,
    lambda m, t, r, j: t[r[j]],
    lambda m, t, r, j: t[r[j + 1]] and m[r[j]] and min(m[r[j]], t[r[j + 1]]),
    lambda m, t, r, j: (
        t[r[j + 2]] and m[r[j]] and m[r[j + 1]]
        and min(m[r[j]], m[r[j + 1]], t[r[j + 2]])
    ),
    lambda m, t, r, j: (
        t[r[j + 3]] and m[r[j]] and m[r[j + 1]] and m[r[j + 2]]
        and min(m[r[j]], m[r[j + 1]], m[r[j + 2]], t[r[j + 3]])
    ),
    lambda m, t, r, j: (
        t[r[j + 4]] and m[r[j]] and m[r[j + 1]] and m[r[j + 2]] and m[r[j + 3]]
        and min(m[r[j]], m[r[j + 1]], m[r[j + 2]], m[r[j + 3]], t[r[j + 4]])
    ),
)

_Row = tuple[int, int, array, Callable[..., int]]


class CycleRows:
    """The cycles of one `enumerate_cycles` call: a read-only sequence of hop tuples.

    `rows` holds (stride, ids) per cycle length, shortest first: `ids` is
    a flat array that holds, for each cycle of stride + 1 hops, the ids of
    its hops after `first`, cycle after cycle: 2-byte ids (typecode "H")
    when `hop` has at most 65,536 entries, 4-byte ids ("i") above that.
    Both read back as the same ints.  `hop` is the graph's
    `hop_table`.  `len` and integer indexing (negative too) behave as on
    the list of the hop tuples, and so do iteration, `list` and `set`,
    through indexing; each access builds a new tuple.  `first_reaching`
    scans cycles by their hop ids without building any tuple.
    """

    __slots__ = ("_first", "_hop", "_rows", "_len")

    def __init__(self, first: tuple[int, int, int], hop: list[tuple[int, int, int]], rows: list[tuple[int, array]]):
        self._first = first
        self._hop = hop
        # (index of the row's first cycle, stride, ids, cap), longest cycles
        # first, so that an index finds its row from the top
        self._rows: list[_Row] = []
        start = 0
        for stride, ids in rows:
            self._rows.insert(0, (start, stride, ids, _CAP[stride]))
            start += len(ids) // stride
        self._len = start

    def __len__(self) -> int:
        return self._len

    def _locate(self, i: int) -> tuple[_Row, int]:
        """The row of cycle i, 0 <= i < len, and the offset of its ids in the row."""
        for row in self._rows:
            if i >= row[0]:
                return row, (i - row[0]) * row[1]
        raise IndexError("cycle index out of range")

    def __getitem__(self, i: int) -> Hops:
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("cycle index out of range")
        (_, stride, ids, _), j = self._locate(i)
        return (self._first, *map(self._hop.__getitem__, ids[j : j + stride]))

    def first_reaching(self, tries: Iterable[int], mid: Sequence[int], last: Sequence[int]) -> tuple[int, int] | None:
        """The first index in `tries` whose cycle reads no 0, and its cap; None if there is none.

        A cycle reads `mid[d]` of each of its hops d after the first but
        the last, and `last[d]` of its last hop, with `mid` and `last`
        indexed by hop id; its cap is the least of those entries.  The
        first hop is shared by every cycle and is not read.  Each index in
        `tries` is in 0..len - 1; one outside raises `IndexError`.
        """
        rows = self._rows
        # `_locate` written inline: it runs once per scanned index
        for i in tries:
            for start, stride, ids, cap in rows:
                if i >= start:
                    break
            else:
                raise IndexError("cycle index out of range")
            amount = cap(mid, last, ids, (i - start) * stride)
            if amount:
                return i, amount
        return None


def enumerate_cycles(
    g: NetworkGraph,
    initiator: int,
    cid: int,
    strategy: Strategy,
    cap: int,
) -> CycleRows:
    """Simple cycles starting with the hop initiator->peer on channel `cid`.

    Returns at most `cap` cycles, shortest first, as a `CycleRows` of hop
    tuples.  Within each length the order is lexicographic by hop: at each
    hop by (next node, channel id), so with parallel channels the channel
    taken at an earlier hop outranks the nodes reached later.  Length
    counts hops; two-hop cycles exist only through parallel channels.

    One depth-first pass in that order writes each cycle's hop ids
    straight into the array of its length, and stops adding to an array
    once it holds `cap` cycles.  On each step the walk first closes every
    cycle that ends at the node it steps to, then goes deeper; deeper
    cycles are longer, so each length's array stays in order.  It steps
    only to nodes that can still close in the hops left (see the module
    docstring), and those steps are listed once per node and call.  At
    the last node before the initiator it writes the last steps without
    descending.
    """
    if cap < 1:
        raise ValueError("cycle cap must be at least 1")
    v = g.channel(cid).peer(initiator)
    max_len = {Strategy.CYCLE4: 4, Strategy.CYCLE5: 5}.get(strategy, DEFAULT_FOAF_MAX_LEN)
    hop = g.hop_table()
    # the initiator's hops by neighbour: a cycle closes at nb by the hop
    # back, d ^ 1, of each d in around[nb]
    around = g.hops_by_neighbor(initiator)
    ball: set[int] = set()
    if max_len > 4:
        ball.update(around)
        for nb in around:
            ball.update(g.hops_by_neighbor(nb))
    # 2-byte hop ids whenever every hop id fits in them
    typecode = "H" if len(hop) <= 1 << 16 else "i"
    # rows[n]: the cycles of n hops, n - 1 hop ids each, up to full[n] ids
    rows = [array(typecode) for _ in range(max_len + 1)]
    full = [cap * (n - 1) for n in range(max_len + 1)]
    # two-hop cycles close at the peer over a parallel channel
    rows[2].extend(d ^ 1 for d in around[v] if hop[d][2] != cid)
    path = array(typecode)  # hop ids after the first hop
    on_path = {initiator, v}
    # steps_at[node]: (next node, hop id) for each step from `node` that can
    # still close: every step from the peer, and from any other node the
    # steps into the ball, whatever the hops left
    steps_at: dict[int, list[tuple[int, int]]] = {v: [(nb, d) for nb, out in g.hops_by_neighbor(v).items() for d in out]}
    # last_at[node]: (next node, its tail) for each last step, the tail an
    # array of the step's hop id and its closing hop id, so that a cycle is
    # written by two extends; none returns to the peer
    last_at: dict[int, list[tuple[int, array]]] = {}

    def extend(current: int, budget: int) -> None:
        # steps from `current`, with `budget` >= 2 hops left after each; a
        # cycle closed at the next node has n hops
        n = max_len - budget + 1
        steps = steps_at.get(current)
        if steps is None:
            steps = [(nb, d) for nb, out in g.hops_by_neighbor(current).items() if nb in ball for d in out]
            steps_at[current] = steps
        row = rows[n]
        last_row = rows[n + 1]
        for nb, d in steps:
            if nb in on_path:
                continue
            path.append(d)
            if len(row) < full[n]:
                for c in around.get(nb, ()):
                    row += path
                    row.append(c ^ 1)
            if budget > 2:
                on_path.add(nb)
                extend(nb, budget - 1)
                on_path.discard(nb)
            elif len(last_row) < full[n + 1]:
                # nb is the last node before the initiator: its last steps
                # close at once and never return to nb.  The array may
                # pass `cap` by this one batch, which the cut below drops.
                last = last_at.get(nb)
                if last is None:
                    out = g.hops_by_neighbor(nb)
                    small, large = (around, out) if len(around) < len(out) else (out, around)
                    last = [
                        (nb2, array(typecode, (d2, c ^ 1)))
                        for nb2 in small
                        if nb2 in large and nb2 != v
                        for d2 in out[nb2]
                        for c in around[nb2]
                    ]
                    last_at[nb] = last
                for nb2, tail in last:
                    if nb2 not in on_path:
                        last_row += path
                        last_row += tail
            path.pop()

    extend(v, max_len - 2)
    # `extend` refers to itself through its closure: drop it, so that the
    # call's memos are freed now rather than at the next cyclic collection
    del extend
    kept = []
    left = cap
    for n in range(2, max_len + 1):
        count = min(len(rows[n]) // (n - 1), left)
        if count:
            del rows[n][count * (n - 1):]
            kept.append((n - 1, rows[n]))
            left -= count
    return CycleRows((initiator, v, cid), hop, kept)
