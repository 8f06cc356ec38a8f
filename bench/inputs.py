"""Seeded inputs for the benchmark and the input-side arithmetic its
checks and counts rest on.

The net generators draw the same shapes as the test suite's random nets
(states, letters, effects, initial and accepting sets), so the library
sees ordinary validated nets.  Everything else here is computed from the
inputs alone, never from the library's answers: run counts by dynamic
programming, prefix counts by set arithmetic, and the partition language
by subset sums.  That keeps the expected answers fixed when an
optimisation changes how the library reaches them.
"""

from __future__ import annotations

import functools
import random
from typing import Iterable, Sequence

LETTERS = ("x", "y")


def random_cn(core, rng: random.Random, dim: int, max_states: int = 5,
              letters: tuple[str, ...] = LETTERS, effect_range=(-2, 2), name: str = "rnd"):
    n = rng.randint(1, max_states)
    states = tuple(f"q{i}" for i in range(n))
    ts = []
    for s in states:
        for letter in letters:
            for _ in range(rng.randint(0, 2)):
                effect = tuple(rng.randint(*effect_range) for _ in range(dim))
                ts.append(core.Transition(s, letter, effect, rng.choice(states)))
    initial = tuple(rng.sample(states, rng.randint(1, n)))
    accepting = tuple(s for s in states if rng.random() < 0.5)
    return core.validate(core.CounterNet(name, dim, frozenset(letters), states,
                                         frozenset(initial), frozenset(accepting), tuple(ts)))


def random_unary_1cn(core, rng: random.Random, max_states: int = 4, max_update: int = 2,
                     name: str = "unary"):
    """One-counter net over the single letter 's'; every state has an
    outgoing transition, so runs die only of negative counters."""
    n = rng.randint(1, max_states)
    states = tuple(f"q{i}" for i in range(n))
    ts = []
    for s in states:
        for _ in range(rng.randint(1, 2)):
            effect = (rng.randint(-max_update, max_update),)
            ts.append(core.Transition(s, "s", effect, rng.choice(states)))
    initial = tuple(rng.sample(states, rng.randint(1, n)))
    accepting = tuple(s for s in states if rng.random() < 0.5)
    return core.validate(core.CounterNet(name, 1, frozenset({"s"}), states,
                                         frozenset(initial), frozenset(accepting), tuple(ts)))


def padded(core, net, extra: int):
    """The same net with `extra` unreachable states appended: the language
    is unchanged, only the state count (and so |Q|!) grows."""
    pad = tuple(f"pad{i}" for i in range(1, extra + 1))
    return core.validate(core.CounterNet(net.name, net.dimension, net.alphabet, net.states + pad,
                                         net.initial, net.accepting, net.transitions))


# ---------------------------------------------------------------------------
# answers fixed by the inputs

@functools.lru_cache(maxsize=None)
def count_unary_runs(net, start: str, initial: int, length: int) -> tuple[int, int]:
    """(N-runs of a one-counter net on s^length from (start, initial),
    non-negative partial runs of every length up to it), by dynamic
    programming over configurations.  The second number is the node count
    of a depth-first enumeration of the whole tree.  Cached, so repeated
    set-ups of one seed count once."""
    moves: dict[str, list[tuple[int, str]]] = {}
    for t in net.transitions:
        moves.setdefault(t.source, []).append((t.effect[0], t.target))
    layer = {(start, initial): 1}
    nodes = 1
    for _ in range(length):
        nxt: dict[tuple[str, int], int] = {}
        for (q, c), ways in layer.items():
            for e, r in moves.get(q, ()):
                if c + e >= 0:
                    nxt[(r, c + e)] = nxt.get((r, c + e), 0) + ways
        layer = nxt
        nodes += sum(layer.values())
    return sum(layer.values()), nodes


def prefix_arithmetic(words: Iterable[Sequence[str]]) -> tuple[int, int, int]:
    """(words, letters, distinct non-empty prefixes) of a word list: the
    letter-steps a sweep makes when every word starts from the empty
    prefix, against the steps a prefix-sharing sweep needs."""
    count = letters = 0
    prefixes: set = set()
    for w in words:
        w = tuple(w)
        count += 1
        letters += len(w)
        prefixes.update(w[:i] for i in range(1, len(w) + 1))
    return count, letters, len(prefixes)


def subset_sums(values: Sequence[int]) -> set[int]:
    sums = {0}
    for v in values:
        sums |= {s + v for s in sums}
    return sums


def in_partition_language(segments: Sequence[int], m_b: int, m_c: int) -> bool:
    """Some subset of the segments covers m_b while the rest covers m_c."""
    total = sum(segments)
    return any(s >= m_b and total - s >= m_c for s in subset_sums(segments))


def split(rng: random.Random, values: Sequence[int], parts: int) -> tuple[int, ...]:
    """Random assignment of values to parts; returns the part sums."""
    sums = [0] * parts
    for v in values:
        sums[rng.randrange(parts)] += v
    return tuple(sums)
