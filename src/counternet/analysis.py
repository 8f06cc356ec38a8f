"""Cycle analysis, pumping, bounded language comparison, and refutation
of proposed decompositions of the segmented partition language.

The pumping side works on one-counter nets running over repeated letters:
short runs that revisit a state contain simple cycles that can be repeated
without breaking non-negativity, provided their effect has the right sign.
The comparison side sweeps finite word generators, or walks two nets in
lockstep over their joint frontier space, which is exact for all words up
to a length bound without enumerating the words themselves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .core import (
    CounterNet,
    FrontierGraph,
    Run,
    Transition,
    Vector,
    Word,
    accepts,
    enumerate_accepting_runs,
    replay,
)
from . import zoo
from .constructions import product_all, trim
from .zoo import (
    PairedBlockWord,
    SegmentedWord,
    SelectorWord,
    partition_oracle,
    render_paired,
    render_segmented,
    render_selector,
)

SIGN_POSITIVE = "strictly-positive"
SIGN_NONNEGATIVE = "non-negative"
SIGN_NEGATIVE = "negative"
SIGN_MIXED = "mixed"

FORM_SEGMENT_POSITIVE = "segment-positive"
FORM_ALL_NONNEGATIVE = "all-nonnegative"
FORM_B_POSITIVE = "b-positive"
FORM_NONE = "none"


class SweepLimitError(RuntimeError):
    """A word generator was refused because its size exceeds the hard cap."""


# ---------------------------------------------------------------------------
# bounds

def pump_period(nets: Sequence[CounterNet]) -> int:
    """Factorial of the largest state count among the nets.  Every cycle
    length occurring in any of them divides this number."""
    if not nets:
        raise ValueError("need at least one net")
    return math.factorial(max(len(n.states) for n in nets))


def counter_ceiling(initial: int, max_update: int, state_count: int) -> int:
    """Largest value a counter can reach on a unary run that never
    completes a strictly positive cycle."""
    return initial + max_update * state_count


def forcing_length(state_count: int, max_update: int, initial: int) -> int:
    """Length of a unary run from counter value `initial` beyond which the
    run must traverse a cycle with non-negative effect."""
    return state_count * (initial + state_count * max_update)


# ---------------------------------------------------------------------------
# cycles in runs

@dataclass(frozen=True)
class CycleWitness:
    """A simple cycle occurring as a contiguous infix of a run.

    start/end are configuration indices, effect is the counter change over
    the cycle.
    """

    start: int
    end: int
    effect: Vector
    sign_class: str


def classify_effect(effect: Vector) -> str:
    if effect and all(x > 0 for x in effect):
        return SIGN_POSITIVE
    if all(x >= 0 for x in effect):
        return SIGN_NONNEGATIVE
    if effect and all(x < 0 for x in effect):
        return SIGN_NEGATIVE
    return SIGN_MIXED


# the sign classes that meet each sign a pumpable cycle can be required to have
_MEETS = {
    SIGN_POSITIVE: frozenset({SIGN_POSITIVE}),
    SIGN_NONNEGATIVE: frozenset({SIGN_POSITIVE, SIGN_NONNEGATIVE}),
}


def find_cycles(run: Run, scope: Optional[tuple[int, int]] = None) -> list[CycleWitness]:
    """All simple cycles whose endpoints both lie in the scope (a pair of
    configuration indices, inclusive; default: the whole run)."""
    lo, hi = scope if scope is not None else (0, len(run.configs) - 1)
    if not 0 <= lo <= hi < len(run.configs):
        raise ValueError("scope out of range")
    states = [c.state for c in run.configs]
    out: list[CycleWitness] = []
    for i in range(lo, hi):
        # a simple cycle from i can only close at the first repeated state
        seen = {states[i]}
        for j in range(i + 1, hi + 1):
            if states[j] == states[i]:
                effect = tuple(b - a for a, b in zip(run.configs[i].counters, run.configs[j].counters))
                out.append(CycleWitness(i, j, effect, classify_effect(effect)))
            if states[j] in seen:
                break
            seen.add(states[j])
    return out


@dataclass(frozen=True)
class PumpableCycle:
    """A simple cycle assembled from transitions of a run, insertable at
    the anchor configuration index any number of times.  indices are the
    original configuration indices of the surviving cycle entries; the
    anchor is the first of them."""

    transitions: tuple[Transition, ...]
    effect: Vector
    anchor: int
    indices: tuple[int, ...] = ()

    @property
    def entry_state(self) -> str:
        return self.transitions[0].source


def extract_pumpable_cycle(
    run: Run,
    scope: Optional[tuple[int, int]] = None,
    required: str = SIGN_NONNEGATIVE,
) -> Optional[PumpableCycle]:
    """Reduce an enclosing unary cycle to a simple cycle of the required
    sign ("strictly-positive" or "non-negative"), insertable at its own
    entry index without breaking non-negativity.

    The scope (default: the whole run) must read a single repeated
    letter.  Returns None unless the scope endpoints close a cycle whose
    total effect has the required sign.  The working copy shrinks
    monotonically: the latest-starting inner repetition is simple; it is
    returned if its effect has the right sign, else spliced out, which
    only raises the counters after the splice point.  Entry points of
    later repetitions stay in the unchanged prefix, so the returned
    anchor carries its original counter value and insertion there is
    safe.  Meaningful for one-counter runs, where effect signs are
    totally ordered.
    """
    lo, hi = scope if scope is not None else (0, len(run.configs) - 1)
    if not 0 <= lo <= hi < len(run.configs):
        raise ValueError("scope out of range")
    if len({t.letter for t in run.transitions[lo:hi]}) > 1:
        raise ValueError("scope must read a single repeated letter")
    if required not in _MEETS:
        raise ValueError(f"unknown required sign {required!r}")
    meets = _MEETS[required]
    if lo == hi or run.configs[lo].state != run.configs[hi].state:
        return None  # scope does not close a cycle
    total = tuple(b - a for a, b in zip(run.configs[lo].counters, run.configs[hi].counters))
    if classify_effect(total) not in meets:
        return None

    width = len({c.state for c in run.configs[lo:hi + 1]})
    trans = list(run.transitions[lo:hi])
    orig = list(range(lo, hi + 1))  # original config index of each working config
    while True:
        # any width + 1 configs repeat a state, so the latest-starting
        # repetition lies in the tail window and is its last witness;
        # regime Z as effects are differences and a splice can lower a coordinate
        off = max(0, len(trans) - width)
        tail = trans[off:]
        w = find_cycles(replay(tail[0].source, run.configs[lo].counters, tail, "Z"))[-1]
        i, j = off + w.start, off + w.end
        if w.sign_class in meets:
            return PumpableCycle(tuple(trans[i:j]), w.effect, orig[i], tuple(orig[i:j + 1]))
        if (i, j) == (0, len(trans)):
            # splicing preserves the required sign of the total, so for
            # one-counter runs this branch cannot be reached
            return None
        del trans[i:j]
        del orig[i:j]


def pump_run(
    run: Run,
    cycle: Union[PumpableCycle, CycleWitness],
    times: int,
    factorial_of: Optional[int] = None,
    regime: str = "N",
) -> Run:
    """Insert `times` copies of the cycle at its anchor (PumpableCycle) or
    at its own start (CycleWitness).

    With factorial_of = q, each unit of `times` inserts q!/len(cycle)
    copies, so one unit contributes a cycle block of length exactly q!.
    regime "N" raises if the pumped run dips below zero; "Z" permits it.
    """
    if times < 0:
        raise ValueError("times must be >= 0")
    if isinstance(cycle, PumpableCycle):
        where = cycle.anchor
        piece = cycle.transitions
    else:
        where = cycle.start
        piece = run.transitions[cycle.start:cycle.end]
    if run.configs[where].state != piece[0].source:
        raise ValueError("cycle does not start at the insertion state")
    copies = times
    if factorial_of is not None:
        period = math.factorial(factorial_of)
        if period % len(piece) != 0:
            raise ValueError("cycle length does not divide the factorial period")
        copies = times * (period // len(piece))
    new_transitions = run.transitions[:where] + tuple(piece) * copies + run.transitions[where:]
    start = run.configs[0]
    # replay checks state chaining and, for regime N, non-negativity
    return replay(start.state, start.counters, new_transitions, regime)


# ---------------------------------------------------------------------------
# run forms over segmented words

@dataclass(frozen=True)
class SpanColour:
    """Cycle colours present in one letter block of a run."""

    has_positive: bool
    has_nonnegative: bool


@dataclass(frozen=True)
class RunForm:
    """Colour summary of an accepting run on a segmented word, plus which
    pumping forms it matches for a candidate segment.

    segment-positive: a strictly positive cycle in the candidate segment,
    non-negative cycles in every earlier segment.  all-nonnegative:
    non-negative cycles in every segment including the b and c blocks.
    b-positive: non-negative cycles in all segments and a strictly
    positive cycle in the b block.
    """

    segments: tuple[SpanColour, ...]
    b_block: SpanColour
    c_block: SpanColour
    candidate: int
    matched: tuple[str, ...]
    form: str


def _span_colour(run: Run, lo: int, hi: int) -> SpanColour:
    signs = {w.sign_class for w in find_cycles(run, (lo, hi))}
    return SpanColour(SIGN_POSITIVE in signs, not signs.isdisjoint(_MEETS[SIGN_NONNEGATIVE]))


def segment_spans(word: SegmentedWord) -> tuple[list[tuple[int, int]], tuple[int, int], tuple[int, int]]:
    """Configuration index ranges of each a-segment, the b block and the
    c block, with the '#' delimiters excluded from every span."""
    spans: list[tuple[int, int]] = []
    pos = 0
    for m in word.segments:
        spans.append((pos, pos + m))
        pos += m + 1  # the '#'
    b_span = (pos, pos + word.m_b)
    pos += word.m_b
    c_span = (pos, pos + word.m_c)
    return spans, b_span, c_span


def classify_run_form(run: Run, word: SegmentedWord, candidate: int) -> RunForm:
    """Colour every block of the run and decide which pumping forms hold
    for the 1-based candidate segment.  Strongest first: all-nonnegative,
    then b-positive, then segment-positive."""
    spans, b_span, c_span = segment_spans(word)
    if not 1 <= candidate <= len(spans):
        raise ValueError("candidate segment out of range")
    seg_colours = tuple(_span_colour(run, lo, hi) for lo, hi in spans)
    b_colour = _span_colour(run, *b_span)
    c_colour = _span_colour(run, *c_span)
    matched: list[str] = []
    all_seg_nonneg = all(c.has_nonnegative for c in seg_colours)
    if all_seg_nonneg and b_colour.has_nonnegative and c_colour.has_nonnegative:
        matched.append(FORM_ALL_NONNEGATIVE)
    if all_seg_nonneg and b_colour.has_positive:
        matched.append(FORM_B_POSITIVE)
    if seg_colours[candidate - 1].has_positive and \
            all(c.has_nonnegative for c in seg_colours[:candidate - 1]):
        matched.append(FORM_SEGMENT_POSITIVE)
    form = matched[0] if matched else FORM_NONE
    return RunForm(seg_colours, b_colour, c_colour, candidate, tuple(matched), form)


# ---------------------------------------------------------------------------
# bad segments and pump families

@dataclass(frozen=True)
class BadSegmentWitness:
    """An accepting run showing the candidate segment of a segmented word
    is pumpable in one of the three forms.  All word parameters are
    multiples of the period."""

    segment: int
    word: SegmentedWord
    run_index: int
    form: str
    period: int


@dataclass(frozen=True)
class WitnessSearch:
    witness: Optional[BadSegmentWitness]
    inconclusive: bool
    words_tried: int


def _nonnegative(**bounds: int) -> None:
    for name, value in bounds.items():
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class SearchCaps:
    """Budgets for witness and pump family searches."""

    max_multiple: int = 2          # word parameters sweep 1..max_multiple times the period
    run_cap: int = 512             # accepting runs examined per word
    coefficient_cap: int = 4       # pump coefficients sweep 1..coefficient_cap times the period
    horizon: int = 5               # pump families are membership-checked for n <= horizon
    n_cap: int = 8                 # refuter grows n up to this

    def __post_init__(self) -> None:
        _nonnegative(**asdict(self))


def find_bad_segment_witness(
    net: CounterNet,
    segment: int,
    t: int,
    period: int,
    caps: SearchCaps = SearchCaps(),
) -> WitnessSearch:
    """Search words with t segments, all parameters multiples of period,
    for an accepting run matching a pumping form at the candidate segment.

    Returns the first witness in graded parameter order.  A missing
    witness only means nothing was found within the caps.  Truncated run
    enumerations mark the search inconclusive.
    """
    if not 1 <= segment <= t:
        raise ValueError("candidate segment out of range")
    tried = 0
    inconclusive = False
    for params in _graded_tuples(t + 2, caps.max_multiple):
        word = SegmentedWord(
            tuple(p * period for p in params[:t]),
            params[t] * period,
            params[t + 1] * period,
        )
        tried += 1
        enum = enumerate_accepting_runs(net, render_segmented(word), cap=caps.run_cap)
        inconclusive = inconclusive or enum.truncated
        for idx, run in enumerate(enum.runs):
            rf = classify_run_form(run, word, segment)
            if rf.form != FORM_NONE:
                return WitnessSearch(
                    BadSegmentWitness(segment, word, idx, rf.form, period), inconclusive, tried)
    return WitnessSearch(None, inconclusive, tried)


def _graded_tuples(arity: int, cap: int) -> list[tuple[int, ...]]:
    """Tuples over 1..cap ordered by coordinate sum, then lexicographic."""
    return sorted(itertools.product(range(1, cap + 1), repeat=arity), key=lambda t: (sum(t), t))


@dataclass(frozen=True)
class PumpFamily:
    """Verified coefficients (x, y, z), multiples of the period: for every
    n up to the checked horizon the witness word grown by (x n, y n, z n)
    at (candidate segment, b block, c block) stays accepted."""

    witness: BadSegmentWitness
    x: int
    y: int
    z: int
    horizon: int


def grow_word(word: SegmentedWord, segment: int, dx: int, dy: int, dz: int) -> SegmentedWord:
    segs = list(word.segments)
    segs[segment - 1] += dx
    return SegmentedWord(tuple(segs), word.m_b + dy, word.m_c + dz)


def find_pump_family(
    net: CounterNet,
    witness: BadSegmentWitness,
    caps: SearchCaps = SearchCaps(),
) -> Optional[PumpFamily]:
    """Search pump coefficients for a witness, fixing z to one period
    first, then raising y, then x, and membership-checking every candidate
    family up to the horizon."""
    period = witness.period
    for zc in range(1, caps.coefficient_cap + 1):
        for yc in range(1, caps.coefficient_cap + 1):
            for xc in range(1, caps.coefficient_cap + 1):
                x, y, z = xc * period, yc * period, zc * period
                if _family_holds(net, witness, x, y, z, caps.horizon):
                    return PumpFamily(witness, x, y, z, caps.horizon)
    return None


def _family_holds(net: CounterNet, witness: BadSegmentWitness, x: int, y: int, z: int, horizon: int) -> bool:
    for n in range(1, horizon + 1):
        grown = grow_word(witness.word, witness.segment, x * n, y * n, z * n)
        if not accepts(net, render_segmented(grown)):
            return False
    return True


# ---------------------------------------------------------------------------
# bounded comparison

@dataclass(frozen=True)
class GenItem:
    word: Word
    params: object = None


@dataclass(frozen=True)
class AllWords:
    """Generator of every word up to max_len, graded lexicographic."""

    alphabet: tuple[str, ...]
    max_len: int

    def size(self) -> int:
        a = len(self.alphabet)
        return sum(a ** i for i in range(self.max_len + 1))

    def __iter__(self) -> Iterator[GenItem]:
        letters = sorted(self.alphabet)
        for length in range(self.max_len + 1):
            for combo in itertools.product(letters, repeat=length):
                yield GenItem(combo)


def all_words(alphabet: Iterable[str], max_len: int) -> AllWords:
    if max_len < 0:
        raise ValueError(f"word length bound must be >= 0, got {max_len}")
    return AllWords(tuple(sorted(set(alphabet))), max_len)


@dataclass(frozen=True)
class WordBox:
    """A finite word generator of `count` words; every pass calls items()
    for a fresh iterator."""

    count: int
    items: Callable[[], Iterator[GenItem]]

    def size(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[GenItem]:
        return self.items()


def segmented_box(t_max: int, seg_max: int, b_max: Optional[int] = None, c_max: Optional[int] = None) -> WordBox:
    """Every SegmentedWord with at most t_max segments and parameters up
    to the caps, ordered by rendered length then parameters."""
    b_max = seg_max if b_max is None else b_max
    c_max = seg_max if c_max is None else c_max
    _nonnegative(t_max=t_max, seg_max=seg_max, b_max=b_max, c_max=c_max)

    def items() -> Iterator[GenItem]:
        # per t, each segment tuple with its length t + sum(segs), in lexicographic order
        tuples = [[(segs, t + sum(segs)) for segs in itertools.product(range(seg_max + 1), repeat=t)]
                  for t in range(t_max + 1)]
        for length in range(t_max * (seg_max + 1) + b_max + c_max + 1):
            for segs_t in tuples:
                for segs, base in segs_t:
                    rest = length - base  # m_b + m_c
                    for m_b in range(max(0, rest - c_max), min(b_max, rest) + 1):
                        sw = SegmentedWord(segs, m_b, rest - m_b)
                        yield GenItem(render_segmented(sw), sw)

    count = sum((seg_max + 1) ** t for t in range(t_max + 1)) * (b_max + 1) * (c_max + 1)
    return WordBox(count, items)


def triple_box(cap: int) -> WordBox:
    """Words a^m # b^n # c^k for all parameters up to cap, by m + n + k."""
    _nonnegative(cap=cap)

    def items() -> Iterator[GenItem]:
        for total in range(3 * cap + 1):
            for m in range(min(cap, total) + 1):
                for n in range(min(cap, total - m) + 1):
                    k = total - m - n
                    if k > cap:
                        continue
                    word = ("a",) * m + ("#",) + ("b",) * n + ("#",) + ("c",) * k
                    yield GenItem(word, (m, n, k))

    return WordBox((cap + 1) ** 3, items)


def selector_box(k: int, block_max: int, tail_max: Optional[int] = None) -> WordBox:
    """Every SelectorWord with k blocks up to block_max and a tail up to
    tail_max."""
    tail_max = block_max if tail_max is None else tail_max
    _nonnegative(block_max=block_max, tail_max=tail_max)
    if k < 1:  # a selector word chooses one of blocks 1..k, so k = 0 leaves the box empty
        raise ValueError(f"k must be >= 1, got {k}")

    def items() -> Iterator[GenItem]:
        for blocks in itertools.product(range(block_max + 1), repeat=k):
            for choice in range(1, k + 1):
                for tail in range(tail_max + 1):
                    sw = SelectorWord(blocks, choice, tail)
                    yield GenItem(render_selector(k, sw), sw)

    return WordBox((block_max + 1) ** k * k * (tail_max + 1), items)


def paired_box(k: int, cap: int) -> WordBox:
    """Every PairedBlockWord with k supplies and k demands up to cap."""
    _nonnegative(k=k, cap=cap)

    def items() -> Iterator[GenItem]:
        for supplies in itertools.product(range(cap + 1), repeat=k):
            for demands in itertools.product(range(cap + 1), repeat=k):
                pw = PairedBlockWord(supplies, demands)
                yield GenItem(render_paired(k, pw), pw)

    return WordBox((cap + 1) ** (2 * k), items)


# The word box families by name, each with the argument counts its
# constructor takes; all_words also takes the alphabet first.
BOXES: dict[str, tuple[Callable[..., Iterable[GenItem]], tuple[int, ...]]] = {
    "words": (all_words, (1,)),
    "segmented": (segmented_box, (2, 4)),
    "triple": (triple_box, (1,)),
    "selector": (selector_box, (2, 3)),
    "paired": (paired_box, (2,)),
}


# A side of a comparison: a net, a callable oracle, or a sequence of nets
# standing for the intersection of their languages (empty: every word).
Side = Union[CounterNet, Callable, Sequence[CounterNet]]


@dataclass(frozen=True)
class ComparisonReport:
    """verdict: equal (no mismatch on the whole generator), left-only or
    right-only (with the first counterexample in generator order), or
    exhausted (a cap stopped the sweep early, nothing found so far)."""

    verdict: str
    counterexample: Optional[Word]
    params: object
    checked: int


def _side_decider(side: Side, acceptor: Callable) -> Callable[[GenItem], bool]:
    """One side's verdict on a generator item, each of its nets deciding
    through acceptor(net)."""
    if callable(side):
        return lambda item: bool(side(item.word if item.params is None else item.params))
    deciders = [acceptor(net) for net in ((side,) if isinstance(side, CounterNet) else side)]
    return lambda item: all(d(item.word) for d in deciders)


def bounded_compare(
    left: Side,
    right: Side,
    generator: Iterable[GenItem],
    hard_cap: int = 2_000_000,
) -> ComparisonReport:
    """Compare two membership deciders over a finite word generator.

    Each side is a net (decided on the rendered word), a callable (called
    with the generator's parameter object when present, else the word),
    or a sequence of nets (the intersection of their languages; an empty
    sequence accepts every word).  When the generator is AllWords and
    neither side is a callable or empty, the sweep runs as a joint
    frontier walk, with a sequence replaced by its product, which covers
    the same words exactly.  Otherwise words are decided in generator
    order, each net through one FrontierGraph, so a frontier reached by
    many prefixes is stepped once per letter.  A counterexample is
    re-verified with plain accepts from the empty prefix before it is
    reported.
    """
    if isinstance(generator, AllWords) and not any(callable(s) or not s for s in (left, right)):
        a, b = (s if isinstance(s, CounterNet) else product_all(s) for s in (left, right))
        return compare_nets_walk(a, b, generator.max_len)
    sized = getattr(generator, "size", None)
    if sized is not None and sized() > hard_cap:
        raise SweepLimitError(f"generator holds {sized()} words, cap is {hard_cap}")
    decide_left, decide_right = (_side_decider(s, lambda net: FrontierGraph(net).accepts) for s in (left, right))
    checked = 0
    for item in generator:
        checked += 1
        l = decide_left(item)
        r = decide_right(item)
        if l != r:
            # plain accepts is an independent path: a wrong graph verdict must not become a report
            again = [_side_decider(s, lambda net: partial(accepts, net))(item) for s in (left, right)]
            if again != [l, r]:
                raise RuntimeError("membership verdict changed on re-verification")
            verdict = "left-only" if l else "right-only"
            return ComparisonReport(verdict, item.word, item.params, checked)
    return ComparisonReport("equal", None, None, checked)


def compare_nets_walk(a: CounterNet, b: CounterNet, max_len: int, node_cap: int = 500_000) -> ComparisonReport:
    """Exact comparison of two nets on every word up to max_len by a
    breadth-first walk over pairs of frontier ids, one FrontierGraph per net.

    Two prefixes with the same frontier pair behave identically ever
    after, so each pair is expanded once, from its shortest prefix.
    """
    if max_len < 0:
        raise ValueError(f"word length bound must be >= 0, got {max_len}")
    if a.alphabet != b.alphabet:
        raise ValueError("comparison requires a common alphabet")
    letters = sorted(a.alphabet)
    ga, gb = FrontierGraph(a), FrontierGraph(b)
    seen = {(0, 0)}
    queue = [(0, 0, ())]
    checked = 0
    while queue:
        next_queue = []
        for ia, ib, prefix in queue:
            checked += 1
            if checked > node_cap:
                return ComparisonReport("exhausted", None, None, checked)
            la, lb = ga.accepting[ia], gb.accepting[ib]
            if la != lb:
                word = tuple(prefix)
                if accepts(a, word) != la or accepts(b, word) != lb:
                    raise RuntimeError("frontier walk disagrees with membership")
                return ComparisonReport("left-only" if la else "right-only", word, None, checked)
            if len(prefix) == max_len:
                continue
            for letter in letters:
                pair = ga.step(ia, letter), gb.step(ib, letter)
                if not (ga.frontiers[pair[0]] or gb.frontiers[pair[1]]) or pair in seen:
                    continue  # both dead, no extension can mismatch; or expanded already
                seen.add(pair)
                next_queue.append((*pair, prefix + (letter,)))
        queue = next_queue
    return ComparisonReport("equal", None, None, checked)


def check_decomposition(
    target: Side,
    factors: Sequence[CounterNet],
    generator: Iterable[GenItem],
    hard_cap: int = 2_000_000,
) -> ComparisonReport:
    """Compare a target (net or oracle) against the intersection of the
    factor languages.

    left-only: the target accepts a word some factor rejects; right-only:
    every factor accepts a word the target rejects.  An empty factor list
    denotes the universal language.
    """
    return bounded_compare(target, tuple(factors), generator, hard_cap)


# ---------------------------------------------------------------------------
# refuting partition decompositions

@dataclass(frozen=True)
class RefuterResult:
    """verdict "counterexample" carries a verified word: accepted by every
    factor but rejected by the partition oracle, or the other way round
    (side says which).  verdict "exhausted" reports searched volume."""

    verdict: str
    word: Optional[Word]
    params: Optional[SegmentedWord]
    side: Optional[str]
    stats: dict


def _verify_counterexample(factors: Sequence[CounterNet], sw: SegmentedWord) -> Optional[str]:
    word = render_segmented(sw)
    in_factors = all(accepts(f, word) for f in factors)
    in_oracle = partition_oracle(sw)
    if in_factors and not in_oracle:
        return "intersection-only"
    if in_oracle and not in_factors:
        return "target-only"
    return None


def refute_partition_decomposition(
    factors: Sequence[CounterNet],
    strategy: str = "enumerate",
    caps: SearchCaps = SearchCaps(),
    box: int = 6,
) -> RefuterResult:
    """Try to show the factors do not intersect to the segmented partition
    language.

    enumerate: sweep all segmented words with up to k+1 segments and
    parameters up to `box` in graded order, comparing the factor
    conjunction against the subset-sum oracle.  guided: on the trimmed
    factors, find a segment every factor can pump (bad in all factors),
    build per-factor pump families, combine their coefficients by
    products into global pump amounts, and grow n until the oracle
    rejects the pumped word while every factor still accepts.  Both
    re-verify any word they return against the factors as given.
    """
    for f in factors:
        if f.dimension != 1:
            raise ValueError("factors must be 1-counter nets")
        if f.alphabet != zoo.SEGMENT_ALPHABET:
            raise ValueError("factors must run over the a/b/c/# alphabet")
    _nonnegative(box=box)
    k = len(factors)
    if strategy == "enumerate":
        return _refute_enumerate(factors, k, box)
    if strategy == "guided":
        return _refute_guided(factors, k, caps)
    raise ValueError(f"unknown strategy {strategy!r}")


def _refute_enumerate(factors: Sequence[CounterNet], k: int, box: int) -> RefuterResult:
    rep = check_decomposition(partition_oracle, factors, segmented_box(k + 1, box), hard_cap=math.inf)
    stats = {"checked": rep.checked}
    if rep.verdict == "equal":
        return RefuterResult("exhausted", None, None, None, stats)
    side = "target-only" if rep.verdict == "left-only" else "intersection-only"
    return RefuterResult("counterexample", rep.counterexample, rep.params, side, stats)


def _refute_guided(given: Sequence[CounterNet], k: int, caps: SearchCaps) -> RefuterResult:
    # states off every accepting path only inflate the |Q|! period
    factors = [trim(f) for f in given]
    t = k + 1
    period = pump_period(factors)
    stats: dict = {"period": period, "witness_words": 0}
    witnesses: dict[int, list[BadSegmentWitness]] = {}
    cut = False  # a search that found nothing stopped at run_cap
    for segment in range(1, t + 1):
        per_factor = []
        for f in factors:
            search = find_bad_segment_witness(f, segment, t, period, caps)
            stats["witness_words"] += search.words_tried
            if search.witness is None:
                cut = cut or search.inconclusive
                per_factor = []
                break
            per_factor.append(search.witness)
        if per_factor:
            witnesses[segment] = per_factor

    def exhausted(reason: str) -> RefuterResult:
        stats["reason"] = "run_cap cut the witness search" if cut else reason
        return RefuterResult("exhausted", None, None, None, stats)

    if not witnesses:
        return exhausted("no segment is bad in every factor")

    for segment, per_factor in sorted(witnesses.items()):
        families = []
        for f, w in zip(factors, per_factor):
            fam = find_pump_family(f, w, caps)
            if fam is None:
                families = []
                break
            families.append(fam)
        if not families:
            continue
        # base word: componentwise maximum of the witness words
        t_segments = tuple(
            max(fam.witness.word.segments[i] for fam in families) for i in range(t))
        base = SegmentedWord(
            t_segments,
            max(fam.witness.word.m_b for fam in families),
            max(fam.witness.word.m_c for fam in families),
        )
        gx = math.prod(fam.x for fam in families)
        gy = math.prod(fam.y for fam in families)
        gz = math.prod(fam.z for fam in families)
        stats[f"segment_{segment}_pumps"] = (gx, gy, gz)
        for n in range(1, caps.n_cap + 1):
            sw = grow_word(base, segment, gx * n, gy * n, gz * n)
            side = _verify_counterexample(given, sw)
            if side == "intersection-only":
                stats["n"] = n
                stats["segment"] = segment
                return RefuterResult("counterexample", render_segmented(sw), sw, side, stats)
    return exhausted("pumped words stayed inside the oracle language")
