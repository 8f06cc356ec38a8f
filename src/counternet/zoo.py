"""A zoo of reference counter nets with independent language oracles.

Every machine here comes with a hand-written decision procedure for its
language, so machine behaviour and oracle can be swept against each other
over bounded parameter boxes.  The word shapes:

  segmented      a^{m_1} # a^{m_2} # ... # a^{m_t} # b^{m_b} c^{m_c}
  shared budget  a^m # b^n # c^k
  selector       a_1^{n_1} ... a_k^{n_k} b_i c^m
  paired blocks  a_1^{m_1} ... a_k^{m_k} b_1^{n_1} ... b_k^{n_k}
  partition-k    a^{m_1} # ... # a^{m_t} # b_1^{n_1} # ... # b_k^{n_k}
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, replace
from operator import index
from typing import Callable, Collection, Optional, Sequence

from .core import CounterNet, Transition, Vector, Word, _collected_order, _spell, validate

SEGMENT_ALPHABET = frozenset({"a", "b", "c", "#"})


# ---------------------------------------------------------------------------
# word families

@dataclass(frozen=True)
class SegmentedWord:
    """Parameters of a segmented word.  Each segment, including the last,
    is terminated by '#'; t = 0 means the word is just b^{m_b} c^{m_c}."""

    segments: tuple[int, ...]
    m_b: int
    m_c: int

    def __post_init__(self):
        segments = tuple(map(index, self.segments))
        m_b, m_c = index(self.m_b), index(self.m_c)
        if min(segments, default=0) < 0 or m_b < 0 or m_c < 0:
            raise ValueError("segmented word parameters must be non-negative")
        object.__setattr__(self, "segments", segments)
        # index returns an int itself; storing m_b and m_c anyway adds about a fifth to each word's cost
        if m_b is not self.m_b or m_c is not self.m_c:
            object.__setattr__(self, "m_b", m_b)
            object.__setattr__(self, "m_c", m_c)


@dataclass(frozen=True)
class SelectorWord:
    """a_1^{n_1}...a_k^{n_k} b_i c^m: blocks, chosen index (1-based), tail."""

    blocks: tuple[int, ...]
    choice: int
    tail: int


@dataclass(frozen=True)
class PairedBlockWord:
    """a-blocks (supplies) followed by b-blocks (demands), equal arity."""

    supplies: tuple[int, ...]
    demands: tuple[int, ...]


@dataclass(frozen=True)
class PartitionKWord:
    """Segments plus k block demands for the k-counter partition family."""

    segments: tuple[int, ...]
    demands: tuple[int, ...]


def segmented_runs(w: SegmentedWord) -> tuple[tuple[str, int], ...]:
    """The segmented word as (letter, count) runs: each segment's a-run and
    its '#', then the b run and the c run, with zero counts kept."""
    segments = [run for m in w.segments for run in (("a", m), ("#", 1))]
    return (*segments, ("b", w.m_b), ("c", w.m_c))


def render_segmented(w: SegmentedWord) -> Word:
    return _spell(segmented_runs(w))


# the segmented shape, and the longest prefix some segmented word extends
_SEGMENTED = re.compile(r"((?:a*#)*)(b*)(c*)")
_SEGMENTED_PREFIX = re.compile(r"(?:a*#)*(?:a+|b*c*)")
# what a letter that ends the prefix means, by the letter before it
_MISPLACED = {"a": "segment not closed by '#'", "b": "{!r} after the b block",
              "c": "{!r} after the c block"}


def parse_segmented(word: Sequence[str]) -> SegmentedWord:
    """Inverse of render_segmented.  Raises ValueError with the offending
    position for words not of the segmented shape."""
    # a letter outside the alphabet becomes '?', which no shape holds
    text = "".join(x if x in SEGMENT_ALPHABET else "?" for x in word)
    match = _SEGMENTED.fullmatch(text)
    if match is None:
        pos = _SEGMENTED_PREFIX.match(text).end()
        if pos == len(text):
            raise ValueError(f"position {pos}: unterminated segment")
        if text[pos] == "?":
            raise ValueError(f"position {pos}: letter {word[pos]!r} outside a/b/c/#")
        raise ValueError(f"position {pos}: " + _MISPLACED[text[pos - 1]].format(word[pos]))
    segments, bs, cs = match.groups()
    return SegmentedWord(tuple(map(len, segments.split("#")[:-1])), len(bs), len(cs))


def render_selector(k: int, w: SelectorWord) -> Word:
    if len(w.blocks) != k or not 1 <= w.choice <= k:
        raise ValueError("selector word does not match k")
    blocks = ((f"a_{i}", n) for i, n in enumerate(w.blocks, start=1))
    return _spell([*blocks, (f"b_{w.choice}", 1), ("c", w.tail)])


def render_paired(k: int, w: PairedBlockWord) -> Word:
    if len(w.supplies) != k or len(w.demands) != k:
        raise ValueError("paired block word does not match k")
    supplies = ((f"a_{i}", n) for i, n in enumerate(w.supplies, start=1))
    demands = ((f"b_{i}", n) for i, n in enumerate(w.demands, start=1))
    return _spell([*supplies, *demands])


def render_partition_k(k: int, w: PartitionKWord) -> Word:
    """Segments each '#'-terminated, then k demand blocks separated by '#'."""
    if len(w.demands) != k:
        raise ValueError("partition word does not match k")
    # each demand block after a '#', less the first '#'
    demands = [run for i, n in enumerate(w.demands, start=1) for run in (("#", 1), (f"b_{i}", n))]
    return _spell([*segmented_runs(SegmentedWord(w.segments, 0, 0)), *demands[1:]])


# ---------------------------------------------------------------------------
# oracles

def partition_oracle(w: SegmentedWord) -> bool:
    """Some subset of the segments covers m_b while the rest covers m_c.

    Subset-sum over a bitset: bit s of reachable is set iff some subset of
    segments sums to s.
    """
    total = sum(w.segments)
    if w.m_b + w.m_c > total:
        return False
    reachable = 1
    for m in w.segments:
        reachable |= reachable << m
    lo, hi = w.m_b, total - w.m_c
    mask = ((1 << (hi - lo + 1)) - 1) << lo
    return bool(reachable & mask)


def shared_budget_oracle(m: int, n: int, k: int) -> bool:
    return m >= n and m >= k


def selector_oracle(k: int, w: SelectorWord) -> bool:
    if len(w.blocks) != k or not 1 <= w.choice <= k:
        raise ValueError("selector word does not match k")
    return w.blocks[w.choice - 1] >= w.tail


def paired_oracle(k: int, w: PairedBlockWord) -> bool:
    if len(w.supplies) != k or len(w.demands) != k:
        raise ValueError("paired block word does not match k")
    return all(m >= n for m, n in zip(w.supplies, w.demands))


def partition_k_oracle(k: int, w: PartitionKWord) -> bool:
    """Disjoint subsets I_1..I_k of the segments with sum(I_i) >= demand i.

    Dynamic programme over demand-capped sum tuples; segments may also go
    unused, although assigning them anywhere never hurts.
    """
    if len(w.demands) != k:
        raise ValueError("partition word does not match k")
    caps = w.demands
    states = {(0,) * k}
    for m in w.segments:
        nxt = set(states)
        for s in states:
            for i in range(k):
                bumped = list(s)
                bumped[i] = min(caps[i], s[i] + m)
                nxt.add(tuple(bumped))
        states = nxt
    return tuple(caps) in states


def partition_k_oracle_bruteforce(k: int, w: PartitionKWord) -> bool:
    """Same language by trying all k^t assignments of segments to demands."""
    if len(w.demands) != k:
        raise ValueError("partition word does not match k")
    t = len(w.segments)
    if k == 0:
        return True  # no demands to satisfy
    for assignment in itertools.product(range(k), repeat=t):
        sums = [0] * k
        for seg, owner in zip(w.segments, assignment):
            sums[owner] += seg
        if all(s >= d for s, d in zip(sums, w.demands)):
            return True
    return False


# ---------------------------------------------------------------------------
# machines

def _net(name: str, initial: Sequence[str], accepting: Collection[str],
         transitions: Sequence[Transition]) -> CounterNet:
    """The validated net of these transitions, its dimension, alphabet and
    state order taken from them, the order as a machine file without a
    states line collects it."""
    states = _collected_order(initial, transitions, accepting)
    alphabet = {t.letter for t in transitions}
    return validate(CounterNet(name, len(transitions[0].effect), alphabet, states, initial, accepting,
                               transitions))


def build_partition_net() -> CounterNet:
    """2-counter net for the segmented partition language: each a-segment
    is banked on counter 1 or counter 2, b drains counter 1, c counter 2."""
    T = Transition
    ts = (
        T("hub", "a", (1, 0), "bank1"),
        T("hub", "a", (0, 1), "bank2"),
        T("bank1", "a", (1, 0), "bank1"),
        T("bank2", "a", (0, 1), "bank2"),
        T("bank1", "#", (0, 0), "hub"),
        T("bank2", "#", (0, 0), "hub"),
        T("hub", "#", (0, 0), "hub"),
        T("hub", "b", (-1, 0), "drain_b"),
        T("drain_b", "b", (-1, 0), "drain_b"),
        T("hub", "c", (0, -1), "drain_c"),
        T("drain_b", "c", (0, -1), "drain_c"),
        T("drain_c", "c", (0, -1), "drain_c"),
    )
    return _net("partition", ("hub",), ("hub", "drain_b", "drain_c"), ts)


def build_shared_budget() -> tuple[CounterNet, CounterNet, CounterNet]:
    """The a^m#b^n#c^k budget family: a 2-counter net for m >= n and
    m >= k, plus the two 1-counter factors checking each bound alone."""

    def chain(name: str, ea: tuple[int, ...], eb: tuple[int, ...], ec: tuple[int, ...]) -> CounterNet:
        zero = (0,) * len(ea)
        T = Transition
        ts = (
            T("q0", "a", ea, "q0"),
            T("q0", "#", zero, "q1"),
            T("q1", "b", eb, "q1"),
            T("q1", "#", zero, "q2"),
            T("q2", "c", ec, "q2"),
        )
        return _net(name, ("q0",), ("q2",), ts)

    main = chain("budget", (1, 1), (-1, 0), (0, -1))
    factor_b = chain("budget_b", (1,), (-1,), (0,))
    factor_c = chain("budget_c", (1,), (0,), (-1,))
    return main, factor_b, factor_c


def build_coarse_factors() -> tuple[CounterNet, CounterNet]:
    """Two 1-counter nets over segmented words that only check the total:
    the first accepts when the summed segment lengths cover the b block,
    the second when they cover the c block.  Their intersection strictly
    exceeds the partition language (no subset split is enforced), which
    makes them the standard demonstration input for the refuter."""

    def total_checker(name: str, eb: int, ec: int) -> CounterNet:
        T = Transition
        ts = (
            T("seg", "a", (1,), "seg"),
            T("seg", "#", (0,), "seg"),
            T("seg", "b", (eb,), "bs"),
            T("bs", "b", (eb,), "bs"),
            T("bs", "c", (ec,), "cs"),
            T("seg", "c", (ec,), "cs"),
            T("cs", "c", (ec,), "cs"),
        )
        return _net(name, ("seg",), ("seg", "bs", "cs"), ts)

    return total_checker("coarse_b", -1, 0), total_checker("coarse_c", 0, -1)


def _unit(k: int, i: int, sign: int) -> Vector:
    """The k-vector that holds sign at index i and 0 elsewhere."""
    return tuple(sign if j == i else 0 for j in range(k))


def build_selector_dcn(k: int) -> CounterNet:
    """Deterministic k-counter net for the selector language: counter i
    counts a_i, the b_i letter picks which counter the c tail drains."""
    if k < 1:
        raise ValueError("k must be >= 1")
    zero = (0,) * k
    ts: list[Transition] = []
    for j in range(1, k + 1):
        for l in range(j, k + 1):
            ts.append(Transition(f"blk{j}", f"a_{l}", _unit(k, l - 1, 1), f"blk{l}"))
        for i in range(1, k + 1):
            ts.append(Transition(f"blk{j}", f"b_{i}", zero, f"sel{i}"))
    for i in range(1, k + 1):
        ts.append(Transition(f"sel{i}", "c", _unit(k, i - 1, -1), f"sel{i}"))
    return _net(f"selector_dcn_{k}", ("blk1",), [f"sel{i}" for i in range(1, k + 1)], ts)


def build_selector_ncn(k: int) -> CounterNet:
    """One-counter net for the same language: guess the selected index up
    front (one initial state per guess), count only that a-block, drain on
    c.  Nondeterministic for k >= 2."""
    if k < 1:
        raise ValueError("k must be >= 1")
    states = [f"g{i}_blk{j}" for i in range(1, k + 1) for j in range(1, k + 1)] + ["drain"]
    ts: list[Transition] = []
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            for l in range(j, k + 1):
                ts.append(Transition(f"g{i}_blk{j}", f"a_{l}", (1,) if l == i else (0,), f"g{i}_blk{l}"))
            ts.append(Transition(f"g{i}_blk{j}", f"b_{i}", (0,), "drain"))
    ts.append(Transition("drain", "c", (-1,), "drain"))
    # the states stay guess-major (g1_blk1 ... g1_blkk, g2_blk1 ...), where
    # the collected order would put the k initial states g1_blk1 ... gk_blk1
    # first, and state order is output (emitted files, the order runs are
    # enumerated in)
    net = _net(f"selector_ncn_{k}", [f"g{i}_blk1" for i in range(1, k + 1)], ("drain",), ts)
    return replace(net, states=tuple(states))


def build_paired_dcn(k: int) -> CounterNet:
    """Deterministic k-counter net for paired blocks: counter i banks
    a_i and pays b_i, so runs survive exactly when every supply covers
    its demand.  All states accept; the counters do the rejecting."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ts: list[Transition] = []
    for j in range(1, k + 1):
        for l in range(j, k + 1):
            ts.append(Transition(f"sup{j}", f"a_{l}", _unit(k, l - 1, 1), f"sup{l}"))
        for l in range(1, k + 1):
            ts.append(Transition(f"sup{j}", f"b_{l}", _unit(k, l - 1, -1), f"dem{l}"))
    for j in range(1, k + 1):
        for l in range(j, k + 1):
            ts.append(Transition(f"dem{j}", f"b_{l}", _unit(k, l - 1, -1), f"dem{l}"))
    return _net(f"paired_dcn_{k}", ("sup1",), {t.source for t in ts}, ts)


def build_partition_k(k: int) -> CounterNet:
    """k-counter generalisation of the partition net.  Segments bank one
    of k counters; demand block i drains counter i; blocks are separated
    by '#'.  At the hub a '#' either closes a segment or, by guess, opens
    the demand phase with an empty first block."""
    if k < 1:
        raise ValueError("k must be >= 1")
    zero = (0,) * k
    ts: list[Transition] = []
    for i in range(1, k + 1):
        ts.append(Transition("hub", "a", _unit(k, i - 1, 1), f"bank{i}"))
        ts.append(Transition(f"bank{i}", "a", _unit(k, i - 1, 1), f"bank{i}"))
        ts.append(Transition(f"bank{i}", "#", zero, "hub"))
    ts.append(Transition("hub", "#", zero, "hub"))
    ts.append(Transition("hub", "b_1", _unit(k, 0, -1), "blk1"))
    if k >= 2:
        ts.append(Transition("hub", "#", zero, "blk2"))
    for i in range(1, k + 1):
        ts.append(Transition(f"blk{i}", f"b_{i}", _unit(k, i - 1, -1), f"blk{i}"))
        if i < k:
            ts.append(Transition(f"blk{i}", "#", zero, f"blk{i+1}"))
    accepting = (f"blk{k}",) if k >= 2 else ("hub", "blk1")
    return _net(f"partition_{k}", ("hub",), accepting, ts)


# ---------------------------------------------------------------------------
# the family table

# Each family builds its members, in order, from the parameter k; only a
# family whose name holds "k" reads it.  The first member is the family's
# default.
FAMILIES: dict[str, Callable[[Optional[int]], dict[str, CounterNet]]] = {
    "P": lambda k: {"main": build_partition_net()},
    "fig1": lambda k: dict(zip(("main", "b1", "b2"), build_shared_budget())),
    "Lk": lambda k: {"dcn": build_selector_dcn(k), "ncn": build_selector_ncn(k)},
    "Hk": lambda k: {"main": build_paired_dcn(k)},
    "PkConj": lambda k: {"main": build_partition_k(k)},
    "coarse": lambda k: dict(zip(("b", "c"), build_coarse_factors())),
}
