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
from functools import cached_property, lru_cache
from itertools import chain, groupby, repeat, starmap
from operator import add, countOf, ge, index
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

Word = tuple[str, ...]
Vector = tuple[int, ...]
Frontier = dict[str, frozenset[Vector]]
Row = tuple[str, Optional[Callable[[frozenset[Vector]], frozenset[Vector]]]]  # (target, translate): _run_row


class InvalidNetError(ValueError):
    """Raised by validate() on the first violated structural invariant."""


class EnumerationCapError(RuntimeError):
    """Raised when a naive path enumeration exceeds its node budget."""


class SweepLimitError(RuntimeError):
    """A word generator or search was refused because its size exceeds its
    cap or letter budget."""


# the most letters of prefixes one FrontierGraph.words call visits; what
# that costs depends on the net (CPython 3.11, x86-64): `vasify zoo:Hk --k 1
# --report --max-len 260`, just under it, peaks at 91 MB, and `vasify zoo:Hk
# --k 12 --report` passes it in the flat walk and exits 2 after 4 s at 171 MB
_WORDS_BUDGET = 3 * 10**6
# the most vector entries (a vector counts 1 + dimension) of the frontiers
# one FrontierGraph.words call interns: counters that grow with the word
# give a frontier per prefix (`vasify zoo:Hk --k 40 --report`)
_FRONTIERS_BUDGET = 10**6
# the most nodes one accepts_naive call enumerates; past it, EnumerationCapError
_NAIVE_NODES = 1_000_000
# the widest row whose translate _row_translate makes as generated code
# (_row_code); wider rows get a map over each vector.  Compiling one row
# shape takes time superlinear in its dimension (CPython 3.11, x86-64:
# 0.07-0.9 ms at dimensions 1 to 64, 20 ms at 1,024, 0.15 s at 4,096), and
# lift allows 10^6 effect entries
_CODE_DIM = 64


@dataclass(frozen=True)
class Transition:
    source: str
    letter: str
    effect: Vector
    target: str

    def __post_init__(self):
        object.__setattr__(self, "effect", tuple(map(index, self.effect)))


@dataclass(frozen=True)
class CounterNet:
    """A k-dimensional counter net.

    states is an ordered tuple (declaration order matters for run
    enumeration and canonical file emission); initial and accepting are
    subsets of it.  Construction (dataclasses.replace too) calls validate().
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
        validate(self)

    @cached_property
    def step_table(self) -> dict[tuple[str, str], tuple[Transition, ...]]:
        """(state, letter) -> the transitions leaving state on letter, in
        declaration order, built on first use and kept on the instance (not
        a field: equality and hashing ignore it)."""
        table: dict[tuple[str, str], list[Transition]] = {}
        for t in self.transitions:
            table.setdefault((t.source, t.letter), []).append(t)
        return {k: tuple(v) for k, v in table.items()}

    @cached_property
    def _step_rows(self) -> dict[str, dict[str, tuple[Row, ...]]]:
        """step_table as the rows (_run_row with no loop turns) step_frontier
        reads, letter first (letter -> state -> rows), built on first use."""
        rows: dict[str, dict[str, tuple]] = {}
        for (state, letter), ts in self.step_table.items():
            rows.setdefault(letter, {})[state] = tuple(_run_row(t.target, t.effect, t.effect, 0) for t in ts)
        return rows

    @cached_property
    def _loop_states(self) -> dict[str, dict[str, tuple[tuple[str, Vector, Vector], ...]]]:
        """letter -> state -> one (target, effect, loop effect) per
        transition of the state on the letter, for the states that enter
        self-loops on it, built on first use.  A state enters self-loops on
        x when it has a transition on x and each one leads to a state whose
        only transition on x is a self-loop, the loop effect being that
        loop's; a state that only loops on x is the case where the target is
        the state itself.  A frontier on such states alone takes a run of x
        in one jump (accepts)."""
        table = self.step_table
        loops: dict[str, dict[str, tuple]] = {}
        for (state, letter), ts in table.items():
            ends = [table.get((t.target, letter), ()) for t in ts]
            if all(len(e) == 1 and e[0].target == t.target for t, e in zip(ts, ends)):
                loops.setdefault(letter, {})[state] = tuple(
                    (t.target, t.effect, e[0].effect) for t, e in zip(ts, ends))
        return loops

    @cached_property
    def _run_rows(self) -> Callable[[str, int, str], tuple[Row, ...]]:
        """(letter, n, state) -> the rows (_run_row) that take a run of n
        copies of the letter in one jump from a state that enters self-loops
        on it; the 4096 latest are kept, since a row costs at least as much
        to build as a step, and the first row of a shape the process meets
        costs a compile (_row_translate)."""
        @lru_cache(maxsize=4096)
        def rows(letter: str, n: int, state: str) -> tuple[Row, ...]:
            return tuple(_run_row(*entry, n - 1) for entry in self._loop_states[letter][state])
        return rows


class Config(NamedTuple):
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


def _collected_order(init, transitions, accept) -> tuple[str, ...]:
    """The state order of a net that lists no states (a machine file without
    a states line, a zoo builder): init states, then transition sources and
    targets, then accept states, each where it first appears."""
    return tuple(dict.fromkeys([*init, *(s for t in transitions for s in (t.source, t.target)),
                                *accept]))


def _runs(word: Iterable[str]) -> Iterator[tuple[str, int]]:
    """The runs of word, (letter, count) per longest block of one letter:
    no count is 0 and no two neighbours share a letter.  groupby finds
    each run and countOf counts it, in C and without a list of the run."""
    for x, group in groupby(word):
        yield x, countOf(group, x)  # a run's letters all equal x


def _spell(pairs: Iterable[tuple[str, int]]) -> Word:
    """The word of (letter, count) pairs, the inverse of _runs; a count of
    0 spells nothing and neighbours may share a letter."""
    return tuple(chain.from_iterable(starmap(repeat, pairs)))


def validate(net: CounterNet) -> CounterNet:
    """Return net unchanged, or raise InvalidNetError on the first problem."""
    if net.dimension < 0:
        raise InvalidNetError(f"{net.name}: dimension must be >= 0")
    if len(set(net.states)) != len(net.states):
        raise InvalidNetError(f"{net.name}: duplicate state ids")
    for tok in net.alphabet:
        # '^' is the repeat mark of the word notation (fileformat.parse_word)
        if not tok or "^" in tok or any(ch.isspace() for ch in tok):
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
    stays state-consistent, and never drops a counter below zero: its
    configs must be those replay builds from its first state."""
    if not run.configs or run.configs[0].state not in net.states or not set(run.transitions) <= set(net.transitions):
        return False
    try:  # a bad start vector, a broken chain or a counter below zero
        replayed = replay(run.configs[0].state, _initial_vector(net, initial), run.transitions)
    except ValueError:
        return False
    return tuple(run.configs) == replayed.configs


# ---------------------------------------------------------------------------
# antichain frontier search

def _maximal(vectors: set[Vector]) -> frozenset[Vector]:
    """The vectors of the set that no other one dominates.

    A vector that dominates another one has a larger coordinate sum, so a
    set whose vectors share one sum is already an antichain.  By length:
      0 or 1  the largest vector dominates the rest (max, no sort);
      2, 3    a set of one sum is returned whole; the partition nets give
              every letter one effect sum, so their merges all take this
              path;
      4+      no sum test: merges of the random product walks hold a few
              vectors of mixed sums, and the test only added to them.
    Otherwise, in descending lexicographic order every earlier vector has
    a first coordinate at least as large, and no later one can dominate a
    vector, so a vector is dominated exactly when its tail (v[1], ...) is
    dominated by the tail of a vector already kept.  The sweep after the
    sort depends on the length of the vectors:
      2       keep v when v[1] beats the largest v[1] so far;
      3       the kept (y, z) tails form a staircase, y ascending and z
              descending; a candidate is dominated when the first tail
              with y' >= y has z' >= z, and a kept one replaces the tails
              it dominates;
      4+      check each candidate against every kept vector.
    """
    if len(vectors) <= 1:
        return frozenset(vectors)
    dim = len(next(iter(vectors)))
    if dim <= 1:
        return frozenset([max(vectors)])
    if dim <= 3 and len(set(map(sum, vectors))) == 1:
        return frozenset(vectors)
    order = sorted(vectors, reverse=True)
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

    Every value of frontier must be a frozenset antichain of non-negative
    vectors, as those of initial_frontier and of earlier steps are.  Each
    (state, transition) image then does only what its effect needs: a
    zero effect reuses the source set, a non-negative one translates every
    vector, and one with a negative coordinate translates only the vectors
    at or above its floor.  Translation keeps dominance and a subset of an
    antichain is an antichain, so a target reached by one image takes it
    as is; only targets where two or more images merge go to _maximal,
    which keeps a merge whose vectors share one coordinate sum whole and
    filters the others.

    A letter no state reads (including letters outside the alphabet)
    produces an empty frontier at once.
    """
    rows = net._step_rows.get(letter)
    if rows is None:
        return {}
    return _image(frontier, rows)


def _image(frontier: Frontier, rows: dict[str, tuple[Row, ...]]) -> Frontier:
    """The frontier the rows (_run_row) of each state take frontier to, as
    step_frontier describes: each row's translate (_row_translate) moves
    the vectors, and a row with none keeps them."""
    out: Frontier = {}
    merged: dict[str, set[Vector]] = {}  # targets reached by two or more images
    for state, vectors in frontier.items():
        for target, translate in rows.get(state, ()):
            image = vectors if translate is None else translate(vectors)
            if not image:
                continue
            if target in merged:
                merged[target].update(image)
            elif target in out:
                merged[target] = {*out[target], *image}
            else:
                out[target] = image
    for target, vectors in merged.items():
        out[target] = _maximal(vectors)
    return out


def _run_row(target: str, effect: Vector, loop: Vector, more: int) -> Row:
    """The (target, translate) row of one transition followed by more
    turns of the self-loop at its target: translate (_row_translate) moves
    by effect + more*loop the vectors v with v + effect >= 0 and v + effect
    + more*loop >= 0, and is None when the row keeps every vector as it
    is; a zero shift with a floor still gets one, so that the floor still
    filters.  With more = 0, whatever the loop, it is the transition's
    step row: the only code that encodes a row."""
    shift = tuple(e + more * f for e, f in zip(effect, loop))
    floor = tuple(max(0, more * max(0, -f) - e) for e, f in zip(effect, loop))
    if not any(floor):
        if not any(shift):
            return target, None
        floor = None
    return target, _row_translate(shift, floor)


@lru_cache(maxsize=1024)
def _row_translate(shift: Vector, floor: Optional[Vector]) -> Callable[[frozenset[Vector]], frozenset[Vector]]:
    """The function that takes a frozenset of vectors to the frozenset of
    v + shift over those with v_i >= floor_i wherever floor_i > 0 (floor
    None: all of them): the only code that makes one.  Rows of at most
    _CODE_DIM coordinates get the code of their shape (_row_code), wider
    ones a map over each vector.  Rows with the same shift and floor share
    it, since nets repeat small effects; the 1024 latest are kept."""
    if len(shift) <= _CODE_DIM:
        return _row_code(tuple(map(bool, shift)), tuple(map(bool, floor or ())))(shift, floor)
    tested = [(i, f) for i, f in enumerate(floor or ()) if f]
    return lambda vs: frozenset([tuple(map(add, v, shift)) for v in vs if all(v[i] >= f for i, f in tested)])


@lru_cache(maxsize=1024)
def _row_code(moves: tuple[bool, ...], tests: tuple[bool, ...]) -> Callable[..., Callable]:
    """make(shift, floor), compiled once per row shape: moves[i] tells
    whether coordinate i shifts, tests[i] whether it has a floor (tests is
    empty when none has).  make returns the function that takes a
    frozenset of non-negative vectors to the frozenset of v + shift over
    those with v_i >= floor_i where tests[i].  Only the shape reaches the
    source (_row_source), so run lengths and effects never cause a
    compile; the 1024 latest shapes are kept."""
    namespace = {"frozenset": frozenset}
    exec(_row_source(moves, tests), namespace)
    return namespace["make"]


def _row_source(moves: tuple[bool, ...], tests: tuple[bool, ...]) -> str:
    """The source of _row_code's make, which names nothing but its own
    parameters and coordinates, e.g. for moves (False, True) and tests
    (False, True):
        def make(shift, floor):
            (_, e1, ) = shift
            (_, f1, ) = floor
            return lambda vs: frozenset([(a0, a1 + e1, ) for (a0, a1, ) in vs if a1 >= f1])
    """
    coords = "".join(f"a{i}, " for i in range(len(moves)))
    image = "".join(f"a{i} + e{i}, " if m else f"a{i}, " for i, m in enumerate(moves))
    shifts = "".join(f"e{i}, " if m else "_, " for i, m in enumerate(moves))
    floors = "".join(f"f{i}, " if t else "_, " for i, t in enumerate(tests))
    where = " and ".join(f"a{i} >= f{i}" for i, t in enumerate(tests) if t)
    return "".join([
        "def make(shift, floor):\n",
        f"    ({shifts}) = shift\n" if any(moves) else "",
        f"    ({floors}) = floor\n" if tests else "",
        f"    return lambda vs: frozenset([({image}) for ({coords}) in vs{' if ' if where else ''}{where}])\n"])


def initial_frontier(net: CounterNet, initial: Optional[Sequence[int]] = None) -> Frontier:
    v0 = _initial_vector(net, initial)
    return {q: frozenset({v0}) for q in net.initial}


def _initial_vector(net: CounterNet, initial: Optional[Sequence[int]]) -> Vector:
    if initial is None:
        return (0,) * net.dimension
    v0 = tuple(map(index, initial))
    if len(v0) != net.dimension:
        raise ValueError(f"initial vector has length {len(v0)}, net dimension is {net.dimension}")
    if any(x < 0 for x in v0):
        raise ValueError("initial vector must be non-negative")
    return v0


def frontier_accepts(net: CounterNet, frontier: Frontier) -> bool:
    return any(frontier.get(q) for q in net.accepting)


def accepts(net: CounterNet, word: Sequence[str], initial: Optional[Sequence[int]] = None) -> bool:
    """Membership via the antichain frontier.  The empty word is accepted
    iff some initial state is accepting.

    A run of n >= 2 copies of one letter x is taken in one jump when every
    state of the frontier enters self-loops on x (CounterNet._loop_states):
    each of its transitions on x, with effect e, leads to a state whose
    only transition on x is a self-loop, with effect f.  The run then acts
    as one row per transition (_run_row): effect e + (n-1)*f, applied to
    the vectors v with v + e >= 0 and v + e + (n-1)*f >= 0, and these rows
    go through step_frontier's image code.  The jump is exact.  After the
    first letter every state only loops, and a coordinate with f >= 0
    never falls while one with f < 0 is lowest at the end of the run, so
    the n-1 loop turns keep exactly the vectors whose end point is >= 0.
    Translating a set, and keeping its vectors at or above a floor, both
    commute with taking its maximal vectors, so merging the run images of
    two states that enter one loop with _maximal gives the frontier that
    stepping and then looping gives.  Any other letter is stepped with
    step_frontier, and the test is made again at the next one.
    """
    frontier = initial_frontier(net, initial)
    loops, run_rows = net._loop_states, net._run_rows
    for x, n in _runs(word):
        while n:
            if n > 1 and x in loops and frontier.keys() <= loops[x].keys():
                frontier = _image(frontier, {state: run_rows(x, n, state) for state in frontier})
                n = 0
            else:
                frontier = step_frontier(net, frontier, x)
                n -= 1
            if not frontier:
                return False
    return frontier_accepts(net, frontier)


class FrontierGraph:
    """The frontiers a net reaches from one start vector, each kept once.

    A frontier gets an integer id on first sight, the start being 0;
    frontiers[i] and accepting[i] describe it, reads[i] holds the letters
    some state of it has a transition on (any other letter steps it to the
    empty frontier), and step(i, letter) is memoised in the successor table
    of frontier i, so a sweep steps each (frontier, letter) pair once
    however many prefixes reach it.  accepting[i] and reads[i] depend only
    on the states of frontier i (no frontier holds an empty vector set), so
    they are derived once per state set and frontiers with the same states
    share one reads object.  Counters that grow with the word give
    unboundedly many frontiers, yet never more than the distinct prefixes
    decided.  The graph lives as long as the object.  held counts the
    vector entries of the frontiers interned so far, a vector counting 1 +
    dimension: the measure of the budgets on a graph's memory.
    """

    def __init__(self, net: CounterNet, initial: Optional[Sequence[int]] = None):
        self.net = net
        self.frontiers: list[Frontier] = []
        self.accepting: list[bool] = []
        self.reads: list[frozenset[str]] = []
        self._ids: dict[frozenset, int] = {}
        self._succ: list[dict[str, int]] = []
        self._by_states: dict[frozenset[str], tuple[bool, frozenset[str]]] = {}
        self.held, self._width = 0, 1 + net.dimension  # _width: the entries of one vector
        self._intern(initial_frontier(net, initial))

    def _intern(self, frontier: Frontier) -> int:
        key = frozenset(frontier.items())
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self.frontiers)
            self.frontiers.append(frontier)
            for vectors in frontier.values():
                self.held += self._width * len(vectors)
            states = frozenset(frontier)
            derived = self._by_states.get(states)
            if derived is None:
                derived = self._by_states[states] = (
                    not self.net.accepting.isdisjoint(states),
                    frozenset(x for x, rows in self.net._step_rows.items() if not states.isdisjoint(rows)))
            self.accepting.append(derived[0])
            self.reads.append(derived[1])
            self._succ.append({})
        return i

    def step(self, i: int, letter: str) -> int:
        succ = self._succ[i]
        j = succ.get(letter)
        if j is None:
            j = succ[letter] = self._intern(step_frontier(self.net, self.frontiers[i], letter))
        return j

    def accepts(self, word: Sequence[str]) -> bool:
        """accepts(net, word, initial), never stepping past an empty frontier."""
        frontiers, succ = self.frontiers, self._succ
        i = 0
        for letter in word:
            if not frontiers[i]:
                return False
            j = succ[i].get(letter)
            i = self.step(i, letter) if j is None else j
        return self.accepting[i]

    def words(self, max_len: int) -> set[Word]:
        """Every accepted word of at most max_len letters, depth first over
        the graph's live edges: a frontier is extended only by the letters
        it reads whose successor frontier is not empty.  Each frontier's
        live edges are listed once per call, in sorted letter order, and
        kept only for the call.  Raises SweepLimitError once the prefixes
        visited hold more than _WORDS_BUDGET letters, or held grows by more
        than _FRONTIERS_BUDGET vector entries in the call."""
        if max_len < 0:
            raise ValueError(f"word length bound must be >= 0, got {max_len}")
        letters = sorted(self.net.alphabet)
        live: dict[int, list[tuple[str, int]]] = {}
        found: set[Word] = set()
        stack: list[tuple[int, Word]] = [(0, ())]
        visited = 0  # letters of the prefixes popped so far
        start = self.held  # vector entries held when the call began
        while stack:
            i, word = stack.pop()
            visited += len(word)
            if visited > _WORDS_BUDGET:
                raise SweepLimitError(f"the words up to length {max_len} pass the budget of "
                                      f"{_WORDS_BUDGET} letters")
            if self.accepting[i]:
                found.add(word)
            if len(word) < max_len:
                edges = live.get(i)
                if edges is None:
                    reads = self.reads[i]
                    steps = ((x, self.step(i, x)) for x in letters if x in reads)
                    edges = live[i] = [(x, j) for x, j in steps if self.frontiers[j]]
                    if self.held - start > _FRONTIERS_BUDGET:
                        raise SweepLimitError(f"the frontiers of the words up to length {max_len} pass "
                                              f"the budget of {_FRONTIERS_BUDGET} vector entries")
                stack.extend((j, word + (x,)) for x, j in edges)
        return found


def accepts_naive(
    net: CounterNet,
    word: Sequence[str],
    initial: Optional[Sequence[int]] = None,
) -> bool:
    """Membership by exhaustive path enumeration, no pruning.

    Kept deliberately independent of the frontier machinery so the two can
    cross-check each other.  Raises EnumerationCapError past _NAIVE_NODES
    nodes.
    """
    w = tuple(word)
    v0 = _initial_vector(net, initial)
    budget = _NAIVE_NODES
    # children go on in reverse declaration order, so nodes come off in
    # depth-first preorder by ascending declaration index: initial states
    # as in net.states, then transitions
    stack = [(q, 0, v0) for q in reversed(net.states) if q in net.initial]
    backwards = net.transitions[::-1]
    while stack:
        state, pos, counters = stack.pop()
        budget -= 1
        if budget < 0:
            raise EnumerationCapError(f"more than {_NAIVE_NODES} enumeration nodes")
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
    ascending transition declaration index, up to cap runs.  Raises
    ValueError for an undeclared start state or a bad initial vector."""
    if start_state not in net.states:
        raise ValueError(f"start state {start_state!r} not declared")
    w = tuple(word)
    v0 = _initial_vector(net, initial)
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
            nxt = tuple(map(add, here.counters, t.effect))
            if min(nxt, default=0) >= 0:
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
    counters = tuple(map(index, initial))
    configs = [Config(state, counters)]
    for t in transitions:
        if t.source != state:
            raise ValueError(f"transition source {t.source!r} does not match state {state!r}")
        counters = tuple(map(add, counters, t.effect))
        if regime == "N" and min(counters, default=0) < 0:
            raise ValueError("run drops a counter below zero")
        state = t.target
        configs.append(Config(state, counters))
    return Run(tuple(configs), tuple(transitions), regime=regime)
