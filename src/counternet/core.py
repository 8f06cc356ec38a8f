"""Counter nets: finite automata whose transitions add integer vectors to
a fixed number of counters that must never drop below zero.

A net of dimension k is an NFA when k = 0.  Words are tuples of letters,
letters are opaque string tokens, so "#", "$" and subscripted tokens such
as "b_1" are ordinary alphabet members.  Membership is decided with a
per-state frontier of counter vectors kept as a Pareto antichain: larger
counters can only enable more behaviour, so dominated vectors are dropped.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from operator import add, ge
from typing import Iterator, Optional, Sequence

Word = tuple[str, ...]
Vector = tuple[int, ...]
Frontier = dict[str, frozenset[Vector]]


class InvalidNetError(ValueError):
    """Raised by validate() on the first violated structural invariant."""


class EnumerationCapError(RuntimeError):
    """Raised when a naive path enumeration exceeds its node budget."""


@dataclass(frozen=True)
class Transition:
    source: str
    letter: str
    effect: Vector
    target: str

    def __post_init__(self):
        object.__setattr__(self, "effect", tuple(int(x) for x in self.effect))


@dataclass(frozen=True)
class CounterNet:
    """A k-dimensional counter net.

    states is an ordered tuple (declaration order matters for run
    enumeration and canonical file emission); initial and accepting are
    subsets of it.  Construction does not validate, call validate().
    """

    name: str
    dimension: int
    alphabet: frozenset[str]
    states: tuple[str, ...]
    initial: frozenset[str]
    accepting: frozenset[str]
    transitions: tuple[Transition, ...]

    def __post_init__(self):
        object.__setattr__(self, "alphabet", frozenset(self.alphabet))
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "initial", frozenset(self.initial))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        object.__setattr__(self, "transitions", tuple(self.transitions))

    @cached_property
    def step_table(self) -> dict[tuple[str, str], tuple[Transition, ...]]:
        """(state, letter) -> the transitions leaving state on letter, in
        declaration order, built on first use and kept on the instance (not
        a field: equality and hashing ignore it)."""
        table: dict[tuple[str, str], list[Transition]] = {}
        for t in self.transitions:
            table.setdefault((t.source, t.letter), []).append(t)
        return {k: tuple(v) for k, v in table.items()}


@dataclass(frozen=True)
class Config:
    """One point of a run: a control state plus a counter valuation."""

    state: str
    counters: Vector


@dataclass(frozen=True)
class Run:
    """A sequence of configurations joined by transitions.

    configs has one more entry than transitions.  regime "N" means every
    valuation stays non-negative; "Z" marks a run allowed to dip below
    zero (produced only on request, e.g. when pumping negative cycles).
    """

    configs: tuple[Config, ...]
    transitions: tuple[Transition, ...]
    regime: str = "N"

    def word(self) -> Word:
        return tuple(t.letter for t in self.transitions)

    def __len__(self) -> int:
        return len(self.transitions)


@dataclass(frozen=True)
class RunEnumeration:
    runs: tuple[Run, ...]
    truncated: bool


def validate(net: CounterNet) -> CounterNet:
    """Return net unchanged, or raise InvalidNetError on the first problem."""
    if net.dimension < 0:
        raise InvalidNetError(f"{net.name}: dimension must be >= 0")
    if len(set(net.states)) != len(net.states):
        raise InvalidNetError(f"{net.name}: duplicate state ids")
    for tok in net.alphabet:
        if not tok or any(ch.isspace() for ch in tok):
            raise InvalidNetError(f"{net.name}: bad alphabet token {tok!r}")
    if not net.initial:
        raise InvalidNetError(f"{net.name}: empty initial set")
    declared = set(net.states)
    for q in net.initial:
        if q not in declared:
            raise InvalidNetError(f"{net.name}: initial state {q!r} not declared")
    for q in net.accepting:
        if q not in declared:
            raise InvalidNetError(f"{net.name}: accepting state {q!r} not declared")
    for i, t in enumerate(net.transitions):
        if t.source not in declared:
            raise InvalidNetError(f"{net.name}: transition {i} source {t.source!r} not declared")
        if t.target not in declared:
            raise InvalidNetError(f"{net.name}: transition {i} target {t.target!r} not declared")
        if t.letter not in net.alphabet:
            raise InvalidNetError(f"{net.name}: transition {i} letter {t.letter!r} not in alphabet")
        if len(t.effect) != net.dimension:
            raise InvalidNetError(
                f"{net.name}: transition {i} effect length {len(t.effect)} != dimension {net.dimension}"
            )
    return net


def is_deterministic(net: CounterNet) -> bool:
    """Single initial state and at most one transition per (state, letter)."""
    return len(net.initial) == 1 and len(net.step_table) == len(net.transitions)


def max_positive_update(net: CounterNet) -> int:
    """Largest positive coordinate over all transition effects, 0 if none."""
    best = 0
    for t in net.transitions:
        for x in t.effect:
            if x > best:
                best = x
    return best


def run_effect(run: Run) -> Vector:
    """Counter change from the first configuration to the last."""
    first = run.configs[0].counters
    last = run.configs[-1].counters
    return tuple(b - a for a, b in zip(first, last))


def is_valid_n_run(net: CounterNet, run: Run, initial: Sequence[int]) -> bool:
    """Check run starts at the given vector, takes net transitions only,
    stays state-consistent, and never drops a counter below zero."""
    if len(run.configs) != len(run.transitions) + 1:
        return False
    if run.configs[0].counters != tuple(initial):
        return False
    declared = set(net.states)
    known = set(net.transitions)
    for c in run.configs:
        if c.state not in declared:
            return False
        if len(c.counters) != net.dimension:
            return False
        if any(x < 0 for x in c.counters):
            return False
    for i, t in enumerate(run.transitions):
        if t not in known:
            return False
        before, after = run.configs[i], run.configs[i + 1]
        if before.state != t.source or after.state != t.target:
            return False
        if tuple(a + e for a, e in zip(before.counters, t.effect)) != after.counters:
            return False
    return True


# ---------------------------------------------------------------------------
# antichain frontier search

def _maximal(vectors: set[Vector]) -> frozenset[Vector]:
    """The vectors of the set that no other one dominates.

    In descending lexicographic order every earlier vector has a first
    coordinate at least as large, and no later one can dominate a vector,
    so a vector is dominated exactly when its tail (v[1], ...) is dominated
    by the tail of a vector already kept.  The sweep after the sort depends
    on the length of the vectors:
      0 or 1  the first vector dominates the rest;
      2       keep v when v[1] beats the largest v[1] so far;
      3       the kept (y, z) tails form a staircase, y ascending and z
              descending; a candidate is dominated when the first tail
              with y' >= y has z' >= z, and a kept one replaces the tails
              it dominates;
      4+      check each candidate against every kept vector.
    """
    if len(vectors) <= 1:
        return frozenset(vectors)
    order = sorted(vectors, reverse=True)
    dim = len(order[0])
    if dim <= 1:
        return frozenset(order[:1])
    if dim == 2:
        kept, best = [order[0]], order[0][1]
        for v in order:
            if v[1] > best:
                kept.append(v)
                best = v[1]
        return frozenset(kept)
    if dim == 3:
        kept, ys, zs = [], [], []
        for v in order:
            _, y, z = v
            i = bisect_left(ys, y)
            if i < len(ys) and zs[i] >= z:
                continue
            kept.append(v)
            j = i + 1 if i < len(ys) and ys[i] == y else i
            while i and zs[i - 1] <= z:
                i -= 1
            ys[i:j], zs[i:j] = [y], [z]
        return frozenset(kept)
    kept = []
    for v in order:
        if not any(all(map(ge, u, v)) for u in kept):
            kept.append(v)
    return frozenset(kept)


def step_frontier(net: CounterNet, frontier: Frontier, letter: str) -> Frontier:
    """Image of a frontier under one letter, pruned back to antichains.

    A letter without transitions (including letters outside the alphabet)
    produces an empty frontier.
    """
    table = net.step_table
    out: dict[str, set[Vector]] = {}
    for state, vectors in frontier.items():
        for t in table.get((state, letter), ()):
            bucket, effect = out.setdefault(t.target, set()), t.effect
            for v in vectors:
                w = tuple(map(add, v, effect))
                if not w or min(w) >= 0:
                    bucket.add(w)
    return {q: _maximal(vs) for q, vs in out.items() if vs}


def initial_frontier(net: CounterNet, initial: Optional[Sequence[int]] = None) -> Frontier:
    v0 = _initial_vector(net, initial)
    return {q: frozenset({v0}) for q in net.initial}


def _initial_vector(net: CounterNet, initial: Optional[Sequence[int]]) -> Vector:
    if initial is None:
        return (0,) * net.dimension
    v0 = tuple(int(x) for x in initial)
    if len(v0) != net.dimension:
        raise ValueError(f"initial vector has length {len(v0)}, net dimension is {net.dimension}")
    if any(x < 0 for x in v0):
        raise ValueError("initial vector must be non-negative")
    return v0


def frontier_accepts(net: CounterNet, frontier: Frontier) -> bool:
    return any(frontier.get(q) for q in net.accepting)


def accepts(net: CounterNet, word: Sequence[str], initial: Optional[Sequence[int]] = None) -> bool:
    """Membership via the antichain frontier.  The empty word is accepted
    iff some initial state is accepting."""
    frontier = initial_frontier(net, initial)
    for letter in word:
        frontier = step_frontier(net, frontier, letter)
        if not frontier:
            return False
    return frontier_accepts(net, frontier)


class FrontierGraph:
    """The frontiers a net reaches from one start vector, each kept once.

    A frontier gets an integer id on first sight, the start being 0;
    frontiers[i] and accepting[i] describe it, and step(i, letter) is
    memoised, so a sweep steps each (frontier, letter) pair once however
    many prefixes reach it.  Counters that grow with the word give
    unboundedly many frontiers, yet never more than the distinct prefixes
    decided.  The graph lives as long as the object.
    """

    def __init__(self, net: CounterNet, initial: Optional[Sequence[int]] = None):
        self.net = net
        self.frontiers: list[Frontier] = []
        self.accepting: list[bool] = []
        self._ids: dict[frozenset, int] = {}
        self._edges: dict[tuple[int, str], int] = {}
        self._intern(initial_frontier(net, initial))

    def _intern(self, frontier: Frontier) -> int:
        key = frozenset(frontier.items())
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self.frontiers)
            self.frontiers.append(frontier)
            self.accepting.append(frontier_accepts(self.net, frontier))
        return i

    def step(self, i: int, letter: str) -> int:
        j = self._edges.get((i, letter))
        if j is None:
            j = self._edges[i, letter] = self._intern(step_frontier(self.net, self.frontiers[i], letter))
        return j

    def accepts(self, word: Sequence[str]) -> bool:
        """accepts(net, word, initial), never stepping past an empty frontier."""
        i = 0
        for letter in word:
            if not self.frontiers[i]:
                return False
            i = self.step(i, letter)
        return self.accepting[i]

    def words(self, max_len: int) -> set[Word]:
        """Every accepted word of at most max_len letters, depth first over
        the graph without extending an empty frontier."""
        if max_len < 0:
            raise ValueError(f"word length bound must be >= 0, got {max_len}")
        letters = sorted(self.net.alphabet)
        found: set[Word] = set()
        stack: list[tuple[int, Word]] = [(0, ())]
        while stack:
            i, word = stack.pop()
            if self.accepting[i]:
                found.add(word)
            if len(word) < max_len and self.frontiers[i]:
                stack.extend((self.step(i, x), word + (x,)) for x in letters)
        return found


def accepts_naive(
    net: CounterNet,
    word: Sequence[str],
    initial: Optional[Sequence[int]] = None,
    cap: int = 1_000_000,
) -> bool:
    """Membership by exhaustive path enumeration, no pruning.

    Kept deliberately independent of the frontier machinery so the two can
    cross-check each other.  Raises EnumerationCapError past cap nodes.
    """
    w = tuple(word)
    v0 = _initial_vector(net, initial)
    budget = cap
    # children go on in reverse declaration order, so nodes come off in
    # depth-first preorder by ascending declaration index: initial states
    # as in net.states, then transitions
    stack = [(q, 0, v0) for q in reversed(net.states) if q in net.initial]
    backwards = net.transitions[::-1]
    while stack:
        state, pos, counters = stack.pop()
        budget -= 1
        if budget < 0:
            raise EnumerationCapError(f"more than {cap} enumeration nodes")
        if pos == len(w):
            if state in net.accepting:
                return True
            continue
        letter = w[pos]
        for t in backwards:
            if t.source != state or t.letter != letter:
                continue
            nxt = tuple(a + e for a, e in zip(counters, t.effect))
            if any(x < 0 for x in nxt):
                continue
            stack.append((t.target, pos + 1, nxt))
    return False


def enumerate_runs(
    net: CounterNet,
    word: Sequence[str],
    start_state: str,
    initial: Sequence[int],
    accepting_only: bool = True,
    cap: int = 1000,
) -> RunEnumeration:
    """All N-runs on word from (start_state, initial), depth first by
    ascending transition declaration index, up to cap runs."""
    w = tuple(word)
    v0 = tuple(int(x) for x in initial)
    if any(x < 0 for x in v0):
        raise ValueError("initial vector must be non-negative")
    table = net.step_table
    runs: list[Run] = []
    configs = [Config(start_state, v0)]  # the path to the current node
    transitions: list[Transition] = []
    stack: list[Iterator[Transition]] = []  # untried moves of each node on the path
    while configs:
        here, depth = configs[-1], len(transitions)
        if len(stack) < len(configs):  # first visit
            if depth == len(w) and (not accepting_only or here.state in net.accepting):
                if len(runs) >= cap:
                    return RunEnumeration(tuple(runs), True)
                runs.append(Run(tuple(configs), tuple(transitions)))
            stack.append(iter(table.get((here.state, w[depth]), ()) if depth < len(w) else ()))
        for t in stack[-1]:
            nxt = tuple(a + e for a, e in zip(here.counters, t.effect))
            if all(x >= 0 for x in nxt):
                configs.append(Config(t.target, nxt))
                transitions.append(t)
                break
        else:
            stack.pop()
            configs.pop()
            del transitions[-1:]  # the root has no incoming transition
    return RunEnumeration(tuple(runs), False)


def enumerate_accepting_runs(
    net: CounterNet,
    word: Sequence[str],
    initial: Optional[Sequence[int]] = None,
    cap: int = 1000,
) -> RunEnumeration:
    """Accepting N-runs from every initial state, deterministic order:
    initial states in declaration order, then lexicographic by transition
    declaration index."""
    v0 = _initial_vector(net, initial)
    runs: list[Run] = []
    for q in net.states:
        if q in net.initial:
            sub = enumerate_runs(net, word, q, v0, accepting_only=True, cap=cap - len(runs))
            runs.extend(sub.runs)
            if sub.truncated:
                return RunEnumeration(tuple(runs), True)
    return RunEnumeration(tuple(runs), False)


def replay(
    start_state: str,
    initial: Sequence[int],
    transitions: Sequence[Transition],
    regime: str = "N",
) -> Run:
    """Fold a transition sequence into a Run, checking state consistency.

    regime "N" raises ValueError if any counter dips below zero; "Z"
    records the dip and tags the run accordingly.
    """
    state = start_state
    counters = tuple(int(x) for x in initial)
    configs = [Config(state, counters)]
    for t in transitions:
        if t.source != state:
            raise ValueError(f"transition source {t.source!r} does not match state {state!r}")
        counters = tuple(a + e for a, e in zip(counters, t.effect))
        if regime == "N" and any(x < 0 for x in counters):
            raise ValueError("run drops a counter below zero")
        state = t.target
        configs.append(Config(state, counters))
    return Run(tuple(configs), tuple(transitions), regime=regime)
