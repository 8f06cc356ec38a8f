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
import sys
from dataclasses import asdict, dataclass
from functools import cache, partial
from operator import sub
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .core import (
    CounterNet,
    FrontierGraph,
    Run,
    SweepLimitError,
    Transition,
    Vector,
    Word,
    accepts,
    enumerate_accepting_runs,
    replay,
)
from . import zoo
from .constructions import product_all, trim
from .fileformat import WORD_BUDGET
from .zoo import (
    PairedBlockWord,
    SegmentedWord,
    SelectorWord,
    partition_oracle,
    render_segmented,
    segmented_runs,
)

SIGN_POSITIVE = "strictly-positive"
SIGN_NONNEGATIVE = "non-negative"
SIGN_NEGATIVE = "negative"
SIGN_MIXED = "mixed"

FORM_SEGMENT_POSITIVE = "segment-positive"
FORM_ALL_NONNEGATIVE = "all-nonnegative"
FORM_B_POSITIVE = "b-positive"
FORM_NONE = "none"


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

class CycleWitness(NamedTuple):
    """A simple cycle occurring as a contiguous infix of a run.

    start/end are configuration indices, effect is the counter change over
    the cycle.
    """

    start: int
    end: int
    effect: Vector
    sign_class: str


def classify_effect(effect: Vector) -> str:
    lo, hi = min(effect, default=0), max(effect, default=0)
    if lo > 0:
        return SIGN_POSITIVE
    if lo >= 0:
        return SIGN_NONNEGATIVE
    if hi < 0:
        return SIGN_NEGATIVE
    return SIGN_MIXED


# the sign classes that meet each sign a pumpable cycle can be required to have
_MEETS = {
    SIGN_POSITIVE: frozenset({SIGN_POSITIVE}),
    SIGN_NONNEGATIVE: frozenset({SIGN_POSITIVE, SIGN_NONNEGATIVE}),
}


def find_cycles(run: Run, scope: Optional[tuple[int, int]] = None) -> list[CycleWitness]:
    """All simple cycles whose endpoints both lie in the scope (a pair of
    configuration indices, inclusive; default: the whole run), by start.

    From index i a simple cycle can only close at the first repeated
    state, and only if that is states[i].  One backward pass keeps each
    state's nearest later index and stop, the first repeat of the window
    after i: the window from i first repeats at the next occurrence of
    states[i] when that comes before stop, and at stop otherwise.
    """
    configs = run.configs
    lo, hi = scope if scope is not None else (0, len(configs) - 1)
    if not 0 <= lo <= hi < len(configs):
        raise ValueError("scope out of range")
    nxt: dict[str, int] = {}
    signs: dict[Vector, str] = {}
    stop = hi + 1
    out: list[CycleWitness] = []
    for i in range(hi, lo - 1, -1):
        state, counters = configs[i]
        j = nxt.get(state, stop)
        if j < stop:
            stop = j
            effect = tuple(map(sub, configs[j].counters, counters))
            sign = signs.get(effect)
            if sign is None:
                sign = signs[effect] = classify_effect(effect)
            out.append(CycleWitness(i, j, effect, sign))
        nxt[state] = i
    out.reverse()
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
    Raises SweepLimitError, before building anything, when the pumped
    word would hold more than WORD_BUDGET letters.
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
    length = len(run.transitions) + copies * len(piece)
    if length > WORD_BUDGET:
        raise SweepLimitError(f"the pumped word would have {length} letters, above the budget of "
                              f"{WORD_BUDGET}")
    new_transitions = run.transitions[:where] + tuple(piece) * copies + run.transitions[where:]
    # replay checks state chaining and, for regime N, non-negativity
    return replay(*run.configs[0], new_transitions, regime)


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
    runs = segmented_runs(word)
    ends = itertools.accumulate(n for _, n in runs)
    *spans, b_span, c_span = [(end - n, end) for (x, n), end in zip(runs, ends) if x != "#"]
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


def _graded_tuples(arity: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Tuples over 1..cap ordered by coordinate sum, then lexicographic:
    for each sum, the first arity - 1 coordinates from one product, the
    last what the sum leaves of them."""
    for total in range(arity, arity * cap + 1):
        for head in itertools.product(range(1, min(cap, total - arity + 1) + 1), repeat=arity - 1):
            last = total - sum(head)
            if 1 <= last <= cap:
                yield head + (last,)


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
    """word with dx more letters in its 1-based segment, dy more b and dz
    more c; ValueError for a segment outside 1..t."""
    if not 1 <= segment <= len(word.segments):
        raise ValueError(f"segment {segment} is outside 1..{len(word.segments)}")
    segs = list(word.segments)
    segs[segment - 1] += dx
    return SegmentedWord(tuple(segs), word.m_b + dy, word.m_c + dz)


def _letters(w: SegmentedWord) -> int:
    """The length of render_segmented(w), without rendering it."""
    return sum(n for _, n in segmented_runs(w))


def find_pump_family(
    net: CounterNet,
    witness: BadSegmentWitness,
    caps: SearchCaps = SearchCaps(),
) -> Optional[PumpFamily]:
    """Search pump coefficients for a witness, fixing z to one period
    first, then raising y, then x, and membership-checking every candidate
    family up to the horizon.  Raises SweepLimitError before checking a
    family whose words up to the horizon hold more than WORD_BUDGET letters."""
    period, h = witness.period, caps.horizon
    coefficients = range(1, caps.coefficient_cap + 1)
    # made as they are tried: itertools.product would list its ranges first
    for zc, yc, xc in ((z, y, x) for z in coefficients for y in coefficients for x in coefficients):
        x, y, z = xc * period, yc * period, zc * period
        # the word at n is n (x + y + z) letters longer than the witness word
        if h * _letters(witness.word) + (x + y + z) * h * (h + 1) // 2 > WORD_BUDGET:
            raise SweepLimitError(f"pump family checks up to horizon {h} pass the budget of "
                                  f"{WORD_BUDGET} letters")
        if all(accepts(net, render_segmented(grow_word(witness.word, witness.segment, x * n, y * n, z * n)))
               for n in range(1, h + 1)):
            return PumpFamily(witness, x, y, z, h)
    return None


# ---------------------------------------------------------------------------
# bounded comparison

class GenItem(NamedTuple):
    """One word of a generator, with the parameter object it was built from
    (None for words with no parameters)."""

    word: Word
    params: object = None


def _geometric(base: int, top: int) -> int:
    """sum(base ** i for i in range(top + 1)), with one power."""
    return top + 1 if base == 1 else (base ** (top + 1) - 1) // (base - 1)


def _log10_geometric(base: int, top: int) -> float:
    """log10 of _geometric(base, top), leaving out the - 1 of its numerator."""
    if base < 2:
        return math.log10(_geometric(base, top))
    return _log10_power(base, top + 1) - math.log10(base - 1)


def _log10_power(base: int, exponent: int) -> float:
    """log10(base ** exponent) for base >= 1, without the power: math.inf
    when base > 1 meets an exponent past the floats, a count of more than
    10^(10^307)."""
    if base == 1:
        return 0.0
    return exponent * math.log10(base) if exponent <= sys.float_info.max else math.inf


# Python refuses to print an integer of more than 4,300 digits, and one of
# millions takes seconds to build: a size() past that is math.inf, the
# count known only by its logarithm
_DIGITS = 4300


@dataclass(frozen=True)
class WordBox:
    """A finite word generator of count() words, a number whose base-10
    logarithm is log10; every pass calls items() for a fresh iterator."""

    log10: float
    count: Callable[[], int]
    items: Callable[[], Iterator[GenItem]]

    def size(self) -> Union[int, float]:
        return self.count() if self.log10 < _DIGITS else math.inf

    def __iter__(self) -> Iterator[GenItem]:
        return self.items()


@dataclass(frozen=True)
class AllWords(WordBox):
    """The box of every word over alphabet (sorted, without repeats) up
    to max_len, graded lexicographic, on which bounded_compare may walk."""

    alphabet: tuple[str, ...]
    max_len: int


def all_words(alphabet: Iterable[str], max_len: int) -> AllWords:
    if max_len < 0:
        raise ValueError(f"word length bound must be >= 0, got {max_len}")
    letters = tuple(sorted(set(alphabet)))

    def items() -> Iterator[GenItem]:
        for length in range(max_len + 1):
            for combo in itertools.product(letters, repeat=length):
                yield GenItem(combo)

    return AllWords(_log10_geometric(len(letters), max_len), lambda: _geometric(len(letters), max_len), items,
                    letters, max_len)


# The boxes join each word from letter blocks, blocks[n] = (letter,) * n
# + end, into the word zoo.render_* gives; segmented_box grows its blocks
# with the rendered length, the other boxes build them once per pass.

def _blocks(letter: str, cap: int, end: Word = ()) -> list[Word]:
    return [(letter,) * n + end for n in range(cap + 1)]


def _joined(blocks: Iterable[list[Word]], counts: Iterable[int]) -> Word:
    return tuple(itertools.chain.from_iterable(b[n] for b, n in zip(blocks, counts)))


def segmented_box(t_max: int, seg_max: int, b_max: Optional[int] = None, c_max: Optional[int] = None) -> WordBox:
    """Every SegmentedWord with at most t_max segments and parameters up
    to the caps, ordered by rendered length then parameters."""
    b_max = seg_max if b_max is None else b_max
    c_max = seg_max if c_max is None else c_max
    _nonnegative(t_max=t_max, seg_max=seg_max, b_max=b_max, c_max=c_max)

    tail_max = b_max + c_max

    def items() -> Iterator[GenItem]:
        a_hash, bs, cs = [], [], []  # the blocks of up to `length` letters, grown with it
        for length in range(t_max * (seg_max + 1) + tail_max + 1):
            if length <= seg_max:
                a_hash.append(("a",) * length + ("#",))
            if length <= b_max:
                bs.append(("b",) * length)
            if length <= c_max:
                cs.append(("c",) * length)
            if length <= tail_max:  # no segments: the tail is the whole word
                for m_b in range(max(0, length - c_max), min(b_max, length) + 1):
                    yield GenItem(bs[m_b] + cs[length - m_b], SegmentedWord((), m_b, length - m_b))
            # t segments take t to t (seg_max + 1) letters and the tail the rest: the
            # first t - 1 sizes from product, the last from the window the tail allows
            for t in range(max(1, -((tail_max - length) // (seg_max + 1))), min(t_max, length) + 1):
                for first in itertools.product(range(min(seg_max, length - t) + 1), repeat=t - 1):
                    room = length - t - sum(first)
                    lasts = range(max(0, room - tail_max), min(seg_max, room) + 1)
                    # concatenated: CPython resizes a tuple built from an iterator,
                    # and its small-tuple free lists then fill (4 MB over the (4, 6) box)
                    prefix = sum(map(a_hash.__getitem__, first), ()) if lasts else ()
                    for last in lasts:
                        segs, head, rest = first + (last,), prefix + a_hash[last], room - last
                        for m_b in range(max(0, rest - c_max), min(b_max, rest) + 1):
                            yield GenItem(head + bs[m_b] + cs[rest - m_b], SegmentedWord(segs, m_b, rest - m_b))

    tails = (b_max + 1) * (c_max + 1)
    return WordBox(_log10_geometric(seg_max + 1, t_max) + math.log10(tails),
                   lambda: _geometric(seg_max + 1, t_max) * tails, items)


def triple_box(cap: int) -> WordBox:
    """Words a^m # b^n # c^k for all parameters up to cap, by m + n + k."""
    _nonnegative(cap=cap)

    def items() -> Iterator[GenItem]:
        a_hash, b_hash, cs = _blocks("a", cap, ("#",)), _blocks("b", cap, ("#",)), _blocks("c", cap)
        for total in range(3 * cap + 1):
            for m in range(min(cap, total) + 1):
                for n in range(max(0, total - m - cap), min(cap, total - m) + 1):
                    k = total - m - n
                    yield GenItem(a_hash[m] + b_hash[n] + cs[k], (m, n, k))

    return WordBox(3 * math.log10(cap + 1), lambda: (cap + 1) ** 3, items)


def selector_box(k: int, block_max: int, tail_max: Optional[int] = None) -> WordBox:
    """Every SelectorWord with k blocks up to block_max and a tail up to
    tail_max."""
    tail_max = block_max if tail_max is None else tail_max
    _nonnegative(block_max=block_max, tail_max=tail_max)
    if k < 1:  # a selector word chooses one of blocks 1..k, so k = 0 leaves the box empty
        raise ValueError(f"k must be >= 1, got {k}")

    def items() -> Iterator[GenItem]:
        blocks_a = [_blocks(f"a_{i}", block_max) for i in range(1, k + 1)]
        chosen = [(f"b_{choice}",) for choice in range(1, k + 1)]
        cs = _blocks("c", tail_max)
        for blocks in itertools.product(range(block_max + 1), repeat=k):
            head = _joined(blocks_a, blocks)
            for choice in range(1, k + 1):
                head_b = head + chosen[choice - 1]
                for tail in range(tail_max + 1):
                    yield GenItem(head_b + cs[tail], SelectorWord(blocks, choice, tail))

    return WordBox(_log10_power(block_max + 1, k) + math.log10(k * (tail_max + 1)),
                   lambda: (block_max + 1) ** k * k * (tail_max + 1), items)


def paired_box(k: int, cap: int) -> WordBox:
    """Every PairedBlockWord with k supplies and k demands up to cap."""
    _nonnegative(k=k, cap=cap)

    def items() -> Iterator[GenItem]:
        if 2 * k > WORD_BUDGET:  # every word holds 2k counts, even at cap 0, where the box is one word
            raise SweepLimitError(f"paired words of k = {k} hold more than {WORD_BUDGET} counts")
        counts = list(itertools.product(range(cap + 1), repeat=k))

        def half(letter: str) -> list[Word]:  # the rendered half for each count tuple
            blocks = [_blocks(f"{letter}_{i}", cap) for i in range(1, k + 1)]
            return [_joined(blocks, c) for c in counts]

        supply_half, demand_half = half("a"), half("b")
        for supplies, supply in zip(counts, supply_half):
            for demands, demand in zip(counts, demand_half):
                yield GenItem(supply + demand, PairedBlockWord(supplies, demands))

    return WordBox(_log10_power(cap + 1, 2 * k), lambda: (cap + 1) ** (2 * k), items)


# The word box families by name, each with the argument counts its
# constructor takes; all_words also takes the alphabet first.
BOXES: dict[str, tuple[Callable[..., WordBox], tuple[int, ...]]] = {
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


def _side_decider(side: Side, acceptor: Callable) -> Callable[[Word, object], bool]:
    """One side's verdict on a generator item's (word, params), each of its
    nets deciding through acceptor(net)."""
    if callable(side):
        return lambda word, params: bool(side(word if params is None else params))
    if isinstance(side, CounterNet):
        decide = acceptor(side)
        return lambda word, params: decide(word)
    deciders = [acceptor(net) for net in side]
    return lambda word, params: all(d(word) for d in deciders)


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
    the same words exactly if the generator holds every letter the nets
    read, and all the nets share one alphabet.  Otherwise words are
    decided in generator order, each distinct net through one
    FrontierGraph shared by both sides, so a frontier reached by many
    prefixes is stepped once per letter.  A counterexample is
    re-verified with plain accepts from the empty prefix before it is
    reported.
    """
    sides = [[s] if isinstance(s, CounterNet) else s for s in (left, right)]
    # the walk and the product need one alphabet: nets over different ones are swept
    if (isinstance(generator, AllWords) and not any(callable(s) or not s for s in sides)
            and len({n.alphabet for s in sides for n in s}) == 1):
        a, b = map(product_all, sides)
        # a letter neither net reads kills both sides, so the walk, over the
        # nets' alphabet, is exact when the generator holds every letter read
        if {t.letter for n in (a, b) for t in n.transitions} <= set(generator.alphabet):
            return compare_nets_walk(a, b, generator.max_len)
    size = generator.size() if hasattr(generator, "size") else 0
    if size > hard_cap:
        held = (size if size < 10**_DIGITS else f"about 10^{generator.log10:.0f}"
                if generator.log10 < math.inf else "more than 10^(10^307)")
        raise SweepLimitError(f"generator holds {held} words, cap is {hard_cap}")
    graph = cache(FrontierGraph)  # one graph per distinct net of both sides
    decide_left, decide_right = (_side_decider(s, lambda net: graph(net).accepts) for s in (left, right))
    checked = 0
    for word, params in generator:
        checked += 1
        l = decide_left(word, params)
        r = decide_right(word, params)
        if l != r:
            # plain accepts is an independent path: a wrong graph verdict must not become a report
            again = [_side_decider(s, lambda net: partial(accepts, net))(word, params) for s in (left, right)]
            if again != [l, r]:
                raise RuntimeError("membership verdict changed on re-verification")
            verdict = "left-only" if l else "right-only"
            return ComparisonReport(verdict, word, params, checked)
    return ComparisonReport("equal", None, None, checked)


# the most vector entries (a vector counts 1 + dimension) the frontier
# graphs of one compare_nets_walk hold before it starts a depth: `eq zoo:P
# zoo:P` holds 1.14 * 10^6 at depth 30 and passes the budget at depth 33,
# about 2 s and 170 MB in
_WALK_BUDGET = 2 * 10**6
# the most nodes one compare_nets_walk expands; past it the walk is "exhausted"
_WALK_NODES = 500_000


def compare_nets_walk(a: CounterNet, b: CounterNet, max_len: int) -> ComparisonReport:
    """Exact comparison of two nets on every word up to max_len by a
    breadth-first walk over pairs of frontier ids, one FrontierGraph per
    distinct net (a net compared with itself steps one graph).

    Two prefixes with the same frontier pair behave identically ever
    after, so each pair is expanded once, from its shortest prefix.  A
    queued node is (ia, ib, parent node, last letter); its prefix is
    spelled out only for a mismatch.  The walk is "exhausted" past
    _WALK_NODES nodes, or when it would start a depth while the graphs hold
    more than _WALK_BUDGET vector entries (FrontierGraph.held, which each
    graph adds to as it interns a frontier).
    """
    if max_len < 0:
        raise ValueError(f"word length bound must be >= 0, got {max_len}")
    if a.alphabet != b.alphabet:
        raise ValueError("comparison requires a common alphabet")
    letters = sorted(a.alphabet)
    ga = FrontierGraph(a)
    gb = ga if b == a else FrontierGraph(b)
    seen = {(0, 0)}
    queue = [(0, 0, None, None)]
    checked = depth = 0
    node_cap = _WALK_NODES
    while queue:
        if ga.held + (gb.held if gb is not ga else 0) > _WALK_BUDGET:
            return ComparisonReport("exhausted", None, None, checked)
        next_queue = []
        for node in queue:
            ia, ib, _, _ = node
            checked += 1
            if checked > node_cap:
                return ComparisonReport("exhausted", None, None, checked)
            la, lb = ga.accepting[ia], gb.accepting[ib]
            if la != lb:
                backwards = []
                while node[2] is not None:
                    backwards.append(node[3])
                    node = node[2]
                word = tuple(reversed(backwards))
                if accepts(a, word) != la or accepts(b, word) != lb:
                    raise RuntimeError("frontier walk disagrees with membership")
                return ComparisonReport("left-only" if la else "right-only", word, None, checked)
            if depth == max_len:
                continue
            ra, rb = ga.reads[ia], gb.reads[ib]
            for letter in letters:
                if letter not in ra and letter not in rb:
                    continue  # neither frontier reads it: both successors are empty
                pair = ga.step(ia, letter), gb.step(ib, letter)
                if not (ga.frontiers[pair[0]] or gb.frontiers[pair[1]]) or pair in seen:
                    continue  # both dead, no extension can mismatch; or expanded already
                seen.add(pair)
                next_queue.append((*pair, node, letter))
        queue = next_queue
        depth += 1
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
        if not factors:
            raise ValueError("the guided strategy needs at least one factor")
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
    # states off every accepting path only inflate the period
    factors = [trim(f) for f in given]
    t = k + 1
    # a simple cycle has at most |Q| transitions, so its length divides
    # lcm(1..|Q|), which equals |Q|! up to three states and is smaller after
    period = math.lcm(*range(1, max(len(f.states) for f in factors) + 1))
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
                break
            per_factor.append(search.witness)
        else:
            witnesses[segment] = per_factor

    pumped = False  # some segment has a pump family in every factor
    for segment, per_factor in witnesses.items():
        families = [find_pump_family(f, w, caps) for f, w in zip(factors, per_factor)]
        if None in families:
            continue
        pumped = True
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
            if _letters(sw) > WORD_BUDGET:
                raise SweepLimitError(f"the pumped word at n = {n} passes the budget of "
                                      f"{WORD_BUDGET} letters")
            # a lone word has no prefix for a FrontierGraph to share: plain accepts, factors as given
            word = render_segmented(sw)
            if not partition_oracle(sw) and all(accepts(f, word) for f in given):
                stats["n"] = n
                stats["segment"] = segment
                return RefuterResult("counterexample", word, sw, "intersection-only", stats)
    stats["reason"] = ("run_cap cut the witness search" if cut
                       else "pumped words stayed inside the oracle language" if pumped
                       else "no pump family holds within the caps" if witnesses
                       else "no segment is bad in every factor")
    return RefuterResult("exhausted", None, None, None, stats)
