import hashlib
import random
import tracemalloc
from dataclasses import replace
from itertools import islice, product as cartesian
from math import inf
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counternet import analysis
from counternet.analysis import (
    FORM_ALL_NONNEGATIVE,
    FORM_B_POSITIVE,
    FORM_NONE,
    FORM_SEGMENT_POSITIVE,
    SIGN_MIXED,
    SIGN_NEGATIVE,
    SIGN_NONNEGATIVE,
    SIGN_POSITIVE,
    BOXES,
    BadSegmentWitness,
    ComparisonReport,
    CycleWitness,
    PumpableCycle,
    SearchCaps,
    SweepLimitError,
    _graded_tuples,
    all_words,
    bounded_compare,
    check_decomposition,
    classify_effect,
    classify_run_form,
    compare_nets_walk,
    counter_ceiling,
    extract_pumpable_cycle,
    find_bad_segment_witness,
    find_cycles,
    find_pump_family,
    forcing_length,
    grow_word,
    paired_box,
    pump_period,
    pump_run,
    refute_partition_decomposition,
    segment_spans,
    segmented_box,
    selector_box,
    triple_box,
)
from counternet.core import (
    CounterNet, FrontierGraph, Run, Transition, accepts, enumerate_runs, replay, validate)
from counternet.constructions import project, trim, union
from counternet.zoo import (
    SEGMENT_ALPHABET,
    PairedBlockWord,
    SegmentedWord,
    SelectorWord,
    build_coarse_factors,
    build_paired_dcn,
    build_partition_net,
    build_selector_dcn,
    build_selector_ncn,
    build_shared_budget,
    partition_oracle,
    render_paired,
    render_segmented,
    render_selector,
    selector_oracle,
)
from randnets import LETTERS, random_cn, random_unary_1cn


def make_run(start_state, start_counters, steps, regime="N"):
    """steps: (letter, effect, target) triples chained from the start."""
    trans = []
    state = start_state
    for letter, effect, target in steps:
        trans.append(Transition(state, letter, effect, target))
        state = target
    return replay(start_state, start_counters, trans, regime)


# --- bounds -----------------------------------------------------------------

def test_pump_period_is_factorial_of_largest_net():
    p = build_partition_net()
    _, bb, bc = build_shared_budget()
    assert pump_period([bb]) == 6
    assert pump_period([p]) == 120
    assert pump_period([bb, p, bc]) == 120
    with pytest.raises(ValueError):
        pump_period([])


def test_ceiling_and_forcing_length_formulas():
    assert counter_ceiling(2, 3, 4) == 14
    assert counter_ceiling(0, 0, 9) == 0
    assert forcing_length(4, 3, 2) == 4 * 14
    assert forcing_length(1, 0, 0) == 0


# --- cycles in runs ----------------------------------------------------------

def test_classify_effect():
    assert classify_effect((2,)) == SIGN_POSITIVE
    assert classify_effect((0, 1)) == SIGN_NONNEGATIVE
    assert classify_effect((-1,)) == SIGN_NEGATIVE
    assert classify_effect((1, -1)) == SIGN_MIXED
    assert classify_effect(()) == SIGN_NONNEGATIVE  # vacuous


@given(st.lists(st.integers(-3, 3), max_size=4))
def test_classify_effect_matches_the_sign_definitions(effect):
    effect = tuple(effect)
    if effect and all(x > 0 for x in effect):
        expected = SIGN_POSITIVE
    elif all(x >= 0 for x in effect):
        expected = SIGN_NONNEGATIVE
    elif all(x < 0 for x in effect):
        expected = SIGN_NEGATIVE
    else:
        expected = SIGN_MIXED
    assert classify_effect(effect) == expected


def test_find_cycles_positive_loop():
    run = make_run("q", (0,), [("s", (2,), "q"), ("s", (2,), "q")])
    cycles = find_cycles(run)
    assert [(c.start, c.end, c.effect, c.sign_class) for c in cycles] == [
        (0, 1, (2,), SIGN_POSITIVE),
        (1, 2, (2,), SIGN_POSITIVE),
    ]


def test_find_cycles_two_state_nonnegative():
    run = make_run("q", (1, 0), [("s", (0, 0), "p"), ("s", (0, 1), "q")])
    cycles = find_cycles(run)
    assert len(cycles) == 1  # p occurs only once, so q..q is the sole cycle
    assert cycles[0].effect == (0, 1)
    assert cycles[0].sign_class == SIGN_NONNEGATIVE
    assert (cycles[0].start, cycles[0].end) == (0, 2)


def test_find_cycles_no_repetition():
    run = make_run("q", (0,), [("s", (1,), "p")])
    assert find_cycles(run) == []


def test_find_cycles_scope_bounds():
    run = make_run("q", (0,), [("s", (2,), "q"), ("s", (2,), "q")])
    assert len(find_cycles(run, (1, 2))) == 1
    with pytest.raises(ValueError):
        find_cycles(run, (0, 3))
    with pytest.raises(ValueError):
        find_cycles(run, (-1, 1))


def test_find_cycles_skips_non_simple():
    # q s q s q: the (0, 2) loop repeats q internally, only unit loops count
    run = make_run("q", (0,), [("s", (1,), "q"), ("s", (1,), "q")])
    assert {(c.start, c.end) for c in find_cycles(run)} == {(0, 1), (1, 2)}


def _cycles_by_definition(run, lo, hi):
    """Reference for find_cycles, cubic in the scope: every i < j with
    states[i] == states[j] and states[i:j] pairwise distinct."""
    states = [c.state for c in run.configs]
    out = []
    for i in range(lo, hi):
        for j in range(i + 1, hi + 1):
            if states[i] != states[j] or len(set(states[i:j])) != j - i:
                continue
            effect = tuple(b - a for a, b in zip(run.configs[i].counters, run.configs[j].counters))
            out.append(CycleWitness(i, j, effect, classify_effect(effect)))
    return out


def test_find_cycles_matches_definition_on_random_runs():
    # random walks whose counters may dip (regime Z), over unary one-counter
    # nets and over two-letter nets of dimension 1 to 3, plus N-runs from
    # enumerate_runs, each on the whole run and on random scopes
    rng = random.Random(2307)
    for case in range(180):
        if case < 60:
            net = random_unary_1cn(rng, max_states=4)
        else:
            net = random_cn(rng, dim=rng.randint(1, 3), max_states=5)
        start = sorted(net.initial)[0]
        state, trail = start, []
        for _ in range(rng.randint(0, 60)):
            moves = [t for t in net.transitions if t.source == state]
            if not moves:
                break
            trail.append(rng.choice(moves))
            state = trail[-1].target
        v0 = tuple(rng.randint(0, 4) for _ in range(net.dimension))
        runs = [replay(start, v0, trail, regime="Z")]
        word = tuple(rng.choice(sorted(net.alphabet)) for _ in range(rng.randint(0, 12)))
        runs += enumerate_runs(net, word, start, v0, accepting_only=False, cap=3).runs
        for run in runs:
            last = len(run.configs) - 1
            assert find_cycles(run) == _cycles_by_definition(run, 0, last)
            for _ in range(5):
                lo = rng.randint(0, last)
                hi = rng.randint(lo, last)
                assert find_cycles(run, (lo, hi)) == _cycles_by_definition(run, lo, hi)


def test_find_cycles_is_linear_in_the_run():
    # twice round 10,000 distinct states: a scan forward from every index
    # walks the whole cycle (about 19 s), one backward pass does not
    n = 10_000
    ring = [Transition(f"s{i}", "a", (1,), f"s{(i + 1) % n}") for i in range(n)]
    run = replay("s0", (0,), ring * 2)
    started = perf_counter()
    cycles = find_cycles(run)
    elapsed = perf_counter() - started
    assert [(c.start, c.end) for c in cycles] == [(i, i + n) for i in range(n + 1)]
    assert {(c.effect, c.sign_class) for c in cycles} == {((n,), SIGN_POSITIVE)}
    assert elapsed < 2


def test_cycle_witness_is_a_named_tuple_with_the_dataclass_repr():
    w = CycleWitness(0, 2, (1,), SIGN_POSITIVE)
    assert repr(w) == "CycleWitness(start=0, end=2, effect=(1,), sign_class='strictly-positive')"
    assert w == (0, 2, (1,), SIGN_POSITIVE) and hash(w) == hash((0, 2, (1,), SIGN_POSITIVE))
    start, end, effect, sign = w
    assert (start, end, effect, sign) == (w.start, w.end, w.effect, w.sign_class)
    with pytest.raises(AttributeError):
        w.start = 1


# --- extracting pumpable cycles ----------------------------------------------

def test_extract_whole_scope_when_already_simple():
    run = make_run("q", (1, 0), [("s", (0, 0), "p"), ("s", (0, 1), "q")])
    cyc = extract_pumpable_cycle(run)
    assert cyc is not None
    assert cyc.effect == (0, 1)
    assert cyc.anchor == 0
    assert cyc.indices == (0, 1, 2)
    assert len(cyc.transitions) == 2
    assert cyc.entry_state == "q"


def test_extract_splices_negative_inner_cycle():
    # outer cycle X..A..A keeps sign; inner B-loop dips and must go
    run = make_run("X", (0,), [
        ("s", (1,), "A"),
        ("s", (2,), "B"),
        ("s", (-1,), "B"),
        ("s", (1,), "A"),
    ])
    cyc = extract_pumpable_cycle(run, scope=(1, 4))
    assert cyc is not None
    assert cyc.effect == (3,)
    assert cyc.anchor == 1          # the entry keeps its original index
    assert cyc.indices == (1, 3, 4)  # the splice drops the first B, keeps the second
    assert [t.effect for t in cyc.transitions] == [(2,), (1,)]
    pumped = pump_run(run, cyc, 2)
    assert pumped.configs[-1].counters == (3 + 2 * 3,)


def test_extract_requires_closed_scope():
    run = make_run("X", (0,), [("s", (1,), "A")])
    assert extract_pumpable_cycle(run) is None
    assert extract_pumpable_cycle(run, (0, 0)) is None


def test_extract_requires_sign():
    run = make_run("A", (5,), [("s", (-1,), "A")])
    assert extract_pumpable_cycle(run) is None
    assert extract_pumpable_cycle(run, required=SIGN_POSITIVE) is None
    run2 = make_run("A", (0,), [("s", (0,), "A")])
    assert extract_pumpable_cycle(run2) is not None
    assert extract_pumpable_cycle(run2, required=SIGN_POSITIVE) is None


def test_extract_input_errors():
    run = make_run("A", (0,), [("s", (1,), "A"), ("t", (1,), "A")])
    with pytest.raises(ValueError):
        extract_pumpable_cycle(run)       # two letters in scope
    with pytest.raises(ValueError):
        extract_pumpable_cycle(run, (0, 9))
    single = make_run("A", (0,), [("s", (1,), "A")])
    with pytest.raises(ValueError):
        extract_pumpable_cycle(single, required="bogus")


def _extract_by_nested_scan(run, scope, required):
    """Reference for extract_pumpable_cycle after its input checks: scan
    the working copy from the end for the latest-starting repeated state,
    return that piece if its summed effect meets the sign, else splice it
    out and scan again."""
    lo, hi = scope if scope is not None else (0, len(run.configs) - 1)
    meets = {SIGN_POSITIVE} if required == SIGN_POSITIVE else {SIGN_POSITIVE, SIGN_NONNEGATIVE}
    if lo == hi or run.configs[lo].state != run.configs[hi].state:
        return None
    total = tuple(b - a for a, b in zip(run.configs[lo].counters, run.configs[hi].counters))
    if classify_effect(total) not in meets:
        return None
    states = [run.configs[i].state for i in range(lo, hi + 1)]
    trans = list(run.transitions[lo:hi])
    orig = list(range(lo, hi + 1))
    while True:
        n = len(trans)
        i = next(i for i in range(n - 1, -1, -1) if states[i] in states[i + 1:])
        j = states.index(states[i], i + 1)
        piece = trans[i:j]
        effect = tuple(sum(col) for col in zip(*(t.effect for t in piece)))
        if classify_effect(effect) in meets:
            return PumpableCycle(tuple(piece), effect, orig[i], tuple(orig[i:j + 1]))
        if (i, j) == (0, n):
            return None
        del states[i:j], trans[i:j], orig[i:j]


def test_extract_matches_nested_scan_on_random_runs():
    # runs of 1 to 3 counters in regime Z over up to 5 states, so splices
    # can lower a coordinate of a multi-counter working copy, and runs
    # longer than the state count, so the latest repetition is not the first
    rng = random.Random(2307)
    found = 0
    for _ in range(1500):
        dim = rng.randint(1, 3)
        states = [f"q{i}" for i in range(rng.randint(1, 5))]
        steps = [("s", tuple(rng.randint(-2, 2) for _ in range(dim)), rng.choice(states))
                 for _ in range(rng.randint(0, 20))]
        run = make_run(rng.choice(states), tuple(rng.randint(0, 3) for _ in range(dim)), steps, "Z")
        last = len(run.configs) - 1
        for _ in range(3):
            lo = rng.randint(0, last)
            scope = rng.choice([None, (lo, rng.randint(lo, last))])
            for required in (SIGN_POSITIVE, SIGN_NONNEGATIVE):
                expected = _extract_by_nested_scan(run, scope, required)
                assert extract_pumpable_cycle(run, scope, required) == expected
                found += expected is not None
    assert found > 500


def test_extract_splices_one_cycle_at_a_time_in_linear_time():
    # 2,999 negative self loops inside a positive p..p cycle are spliced
    # one by one; each splice looks only at the tail of the working copy
    n = 3000
    run = make_run("p", (0,), [("s", (n,), "q")] + [("s", (-1,), "q")] * (n - 1) + [("s", (0,), "p")])
    started = perf_counter()
    cyc = extract_pumpable_cycle(run, required=SIGN_POSITIVE)
    assert perf_counter() - started < 5
    assert (cyc.effect, cyc.indices) == ((n,), (0, n, n + 1))


# --- pumping runs -------------------------------------------------------------

def test_pump_zero_times_is_identity():
    run = make_run("q", (0,), [("s", (2,), "q"), ("s", (2,), "q")])
    cyc = extract_pumpable_cycle(run, required=SIGN_POSITIVE)
    pumped = pump_run(run, cyc, 0)
    assert pumped.configs == run.configs
    assert pumped.transitions == run.transitions


def test_pump_positive_cycle_exact_gain():
    run = make_run("q", (0,), [("s", (2,), "q"), ("s", (2,), "q")])
    cyc = extract_pumpable_cycle(run, required=SIGN_POSITIVE)
    for m in (1, 2, 5):
        pumped = pump_run(run, cyc, m)
        assert len(pumped.transitions) == len(run.transitions) + m * len(cyc.transitions)
        assert pumped.configs[-1].counters == (4 + 2 * m,)


def test_pump_cycle_witness_at_own_start():
    run = make_run("X", (0,), [("s", (1,), "A"), ("s", (0,), "A")])
    w = [c for c in find_cycles(run) if c.effect == (0,)][0]
    pumped = pump_run(run, w, 3)
    assert len(pumped.transitions) == 5
    assert pumped.configs[-1].counters == run.configs[-1].counters


def test_pump_factorial_normalisation():
    run = make_run("q", (0, 0), [("s", (1, 0), "p"), ("s", (0, 1), "q")])
    cyc = extract_pumpable_cycle(run)
    pumped = pump_run(run, cyc, 2, factorial_of=3)
    # each unit inserts 3!/2 = 3 copies, so the block is exactly 2 * 3! long
    assert len(pumped.transitions) == 2 + 2 * 6
    assert pumped.configs[-1].counters == (1 + 6, 1 + 6)


def test_pump_factorial_must_divide():
    run = make_run("a", (0,), [
        ("s", (1,), "b"), ("s", (1,), "c"), ("s", (1,), "d"), ("s", (1,), "a")])
    cyc = extract_pumpable_cycle(run)
    assert len(cyc.transitions) == 4
    with pytest.raises(ValueError):
        pump_run(run, cyc, 1, factorial_of=3)   # 3! is not a multiple of 4
    pumped = pump_run(run, cyc, 1, factorial_of=4)
    assert len(pumped.transitions) == 4 + 24


def test_pump_negative_times_rejected():
    run = make_run("q", (0,), [("s", (1,), "q")])
    cyc = extract_pumpable_cycle(run)
    with pytest.raises(ValueError):
        pump_run(run, cyc, -1)


def test_pump_past_the_word_budget_is_refused_before_the_run_is_built(monkeypatch):
    run = make_run("q", (0,), [("s", (2,), "q"), ("s", (2,), "q")])
    cyc = extract_pumpable_cycle(run, required=SIGN_POSITIVE)
    assert len(cyc.transitions) == 1
    real = analysis.replay
    monkeypatch.setattr(analysis, "replay", lambda *args: pytest.fail("a refused run was built"))
    with pytest.raises(SweepLimitError, match=r"^the pumped word would have 100000002 letters, "
                                              r"above the budget of 10000000$"):
        pump_run(run, cyc, 10**8)
    # with factorial_of = 3 each unit adds a 3! block
    with pytest.raises(SweepLimitError, match="would have 10000004 letters"):
        pump_run(run, cyc, 1_666_667, factorial_of=3)
    monkeypatch.setattr(analysis, "replay", real)
    monkeypatch.setattr(analysis, "WORD_BUDGET", 14)
    assert len(pump_run(run, cyc, 2, factorial_of=3)) == 14
    with pytest.raises(SweepLimitError, match="would have 15 letters, above the budget of 14"):
        pump_run(run, cyc, 13)


def test_pump_regime_guard():
    # pumping a negative cycle dips below zero in N but is fine in Z
    run = make_run("A", (2,), [("s", (-1,), "A")])
    w = find_cycles(run)[0]
    assert w.effect == (-1,)
    with pytest.raises(ValueError):
        pump_run(run, w, 4)
    pumped = pump_run(run, w, 4, regime="Z")
    assert pumped.configs[-1].counters == (-3,)
    assert pumped.regime == "Z"


def test_pump_rejects_misplaced_cycle():
    run = make_run("X", (0,), [("s", (1,), "A"), ("s", (0,), "A")])
    bad = PumpableCycle(
        transitions=(Transition("A", "s", (0,), "A"),), effect=(0,), anchor=0)
    with pytest.raises(ValueError):
        pump_run(run, bad, 1)   # anchor 0 is state X, not A


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_pumping_nonneg_witness_preserves_validity(seed, m):
    rng = random.Random(seed)
    net = random_unary_1cn(rng)
    from counternet.core import enumerate_accepting_runs
    word = ("s",) * 6
    enum = enumerate_accepting_runs(net, word, cap=64)
    for run in enum.runs:
        for w in find_cycles(run):
            if all(x >= 0 for x in w.effect):
                pumped = pump_run(run, w, m)
                assert all(x >= 0 for c in pumped.configs for x in c.counters)
                assert tuple(pumped.configs[-1].counters) >= tuple(run.configs[-1].counters)


# --- run forms over segmented words -------------------------------------------

def seg_univ():
    return validate(CounterNet(
        name="seg-univ", dimension=1, alphabet=SEGMENT_ALPHABET,
        states=("u",), initial=("u",), accepting=("u",),
        transitions=tuple(Transition("u", l, (0,), "u") for l in "ab#c")))


def run_on(net, text):
    from counternet.core import enumerate_accepting_runs
    enum = enumerate_accepting_runs(net, tuple(text))
    assert enum.runs, text
    return enum.runs[0]


def test_segment_spans_skip_delimiters():
    spans, b_span, c_span = segment_spans(SegmentedWord((2, 0, 1), 2, 1))
    assert spans == [(0, 2), (3, 3), (4, 5)]
    assert b_span == (6, 8)
    assert c_span == (8, 9)


# segment_spans and _letters as they were before they read
# zoo.segmented_runs, kept as the references for their results

def reference_segment_spans(word):
    spans = []
    pos = 0
    for m in word.segments:
        spans.append((pos, pos + m))
        pos += m + 1  # the '#'
    b_span = (pos, pos + word.m_b)
    pos += word.m_b
    c_span = (pos, pos + word.m_c)
    return spans, b_span, c_span


def reference_letters(w):
    return sum(w.segments) + len(w.segments) + w.m_b + w.m_c


def test_segment_spans_and_letters_match_their_references():
    rng = random.Random(27)
    words = [SegmentedWord(segs, m_b, m_c) for t in range(4)  # t = 0: no segment
             for segs in cartesian(range(3), repeat=t) for m_b, m_c in cartesian(range(3), repeat=2)]
    words += [SegmentedWord(tuple(rng.choice((0, 1, 7, 300)) for _ in range(rng.randint(0, 9))),
                            rng.choice((0, 5)), rng.choice((0, 5))) for _ in range(200)]
    for sw in words:
        assert segment_spans(sw) == reference_segment_spans(sw), sw
        assert analysis._letters(sw) == reference_letters(sw) == len(render_segmented(sw)), sw


def test_form_segment_positive():
    cb, _ = build_coarse_factors()
    rf = classify_run_form(run_on(cb, "aa#b"), SegmentedWord((2,), 1, 0), 1)
    assert rf.form == FORM_SEGMENT_POSITIVE
    assert rf.matched == (FORM_SEGMENT_POSITIVE,)
    assert rf.segments[0].has_positive


def test_form_all_nonnegative_wins():
    rf = classify_run_form(run_on(seg_univ(), "a#bc"), SegmentedWord((1,), 1, 1), 1)
    assert rf.form == FORM_ALL_NONNEGATIVE
    assert FORM_ALL_NONNEGATIVE in rf.matched


def test_form_b_positive():
    bpump = validate(CounterNet(
        name="bpump", dimension=1, alphabet=SEGMENT_ALPHABET,
        states=("u",), initial=("u",), accepting=("u",),
        transitions=(
            Transition("u", "a", (0,), "u"), Transition("u", "#", (0,), "u"),
            Transition("u", "b", (1,), "u"), Transition("u", "c", (-1,), "u"))))
    rf = classify_run_form(run_on(bpump, "a#b"), SegmentedWord((1,), 1, 0), 1)
    assert rf.form == FORM_B_POSITIVE
    assert rf.b_block.has_positive
    assert not rf.c_block.has_nonnegative  # empty block has no cycles


def test_form_none_for_cycle_free_run():
    chain = validate(CounterNet(
        name="chain", dimension=1, alphabet=SEGMENT_ALPHABET,
        states=("q0", "q1", "q2", "q3"), initial=("q0",), accepting=("q3",),
        transitions=(
            Transition("q0", "a", (0,), "q1"), Transition("q1", "#", (0,), "q2"),
            Transition("q2", "b", (0,), "q3"))))
    rf = classify_run_form(run_on(chain, "a#b"), SegmentedWord((1,), 1, 0), 1)
    assert rf.form == FORM_NONE
    assert rf.matched == ()


def test_form_candidate_range():
    with pytest.raises(ValueError):
        classify_run_form(run_on(seg_univ(), "a#"), SegmentedWord((1,), 0, 0), 2)


# --- bad segment witnesses -----------------------------------------------------

def test_witness_on_universal_net_is_immediate():
    ws = find_bad_segment_witness(seg_univ(), 1, 1, 2)
    assert ws.words_tried == 1
    assert not ws.inconclusive
    assert ws.witness == BadSegmentWitness(
        1, SegmentedWord((2,), 2, 2), 0, FORM_ALL_NONNEGATIVE, 2)


def test_witness_on_coarse_factor():
    cb, _ = build_coarse_factors()
    ws = find_bad_segment_witness(cb, 1, 2, 6)
    assert ws.witness is not None
    assert ws.witness.form == FORM_SEGMENT_POSITIVE
    assert ws.witness.word == SegmentedWord((6, 6), 6, 6)


def test_witness_zero_caps_tries_nothing():
    ws = find_bad_segment_witness(seg_univ(), 1, 1, 2, SearchCaps(max_multiple=0))
    assert ws.witness is None
    assert not ws.inconclusive
    assert ws.words_tried == 0


def test_witness_zero_run_cap_is_inconclusive():
    cb, _ = build_coarse_factors()
    ws = find_bad_segment_witness(cb, 1, 1, 6, SearchCaps(max_multiple=1, run_cap=0))
    assert ws.witness is None
    assert ws.inconclusive
    assert ws.words_tried == 1


def test_witness_segment_range():
    with pytest.raises(ValueError):
        find_bad_segment_witness(seg_univ(), 3, 2, 2)


# --- pump families ------------------------------------------------------------

def test_grow_word():
    grown = grow_word(SegmentedWord((1, 2), 3, 4), 2, 10, 20, 30)
    assert grown == SegmentedWord((1, 12), 23, 34)


def test_grow_word_refuses_a_segment_outside_the_word():
    word = SegmentedWord((1, 2, 3), 0, 0)
    for segment in (0, -1, 4):
        with pytest.raises(ValueError, match=rf"segment {segment} is outside 1\.\.3"):
            grow_word(word, segment, 10, 0, 0)
    for segment, grown in ((1, (11, 2, 3)), (2, (1, 12, 3)), (3, (1, 2, 13))):
        assert grow_word(word, segment, 10, 0, 0) == SegmentedWord(grown, 0, 0)
    with pytest.raises(ValueError, match=r"segment 1 is outside 1\.\.0"):
        grow_word(SegmentedWord((), 1, 1), 1, 10, 0, 0)


def test_family_on_universal_net_takes_first_candidate():
    ws = find_bad_segment_witness(seg_univ(), 1, 1, 2)
    fam = find_pump_family(seg_univ(), ws.witness)
    assert (fam.x, fam.y, fam.z) == (2, 2, 2)
    assert fam.horizon == 5


def test_family_on_coarse_factor_verifies():
    cb, _ = build_coarse_factors()
    ws = find_bad_segment_witness(cb, 1, 2, 6)
    fam = find_pump_family(cb, ws.witness)
    assert fam is not None
    for n in range(1, fam.horizon + 1):
        grown = grow_word(ws.witness.word, 1, fam.x * n, fam.y * n, fam.z * n)
        assert accepts(cb, render_segmented(grown))


def test_family_can_be_unattainable():
    # demands grow five times faster than any affordable supply coefficient
    b5 = validate(CounterNet(
        name="b5", dimension=1, alphabet=SEGMENT_ALPHABET,
        states=("seg", "bs", "cs"), initial=("seg",), accepting=("seg", "bs", "cs"),
        transitions=(
            Transition("seg", "a", (1,), "seg"), Transition("seg", "#", (0,), "seg"),
            Transition("seg", "b", (-5,), "bs"), Transition("bs", "b", (-5,), "bs"),
            Transition("bs", "c", (0,), "cs"), Transition("seg", "c", (0,), "cs"),
            Transition("cs", "c", (0,), "cs"))))
    hand = BadSegmentWitness(1, SegmentedWord((30,), 6, 6), 0, FORM_SEGMENT_POSITIVE, 6)
    assert accepts(b5, render_segmented(hand.word))
    assert find_pump_family(b5, hand) is None


def test_family_zero_coefficient_cap():
    ws = find_bad_segment_witness(seg_univ(), 1, 1, 2)
    assert find_pump_family(seg_univ(), ws.witness, SearchCaps(coefficient_cap=0)) is None


# --- word generators ------------------------------------------------------------

def test_all_words_graded_lex():
    gen = all_words("ba", 2)
    assert gen.size() == 7
    words = [item.word for item in gen]
    assert words == [(), ("a",), ("b",), ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]


def test_segmented_box_counts_and_order():
    box = segmented_box(2, 1)
    assert box.size() == (1 + 2 + 4) * 4
    items = list(box)
    assert len(items) == box.size()
    assert items[0].word == ()
    lengths = [len(it.word) for it in items]
    assert lengths == sorted(lengths)
    assert len({it.word for it in items}) == len(items)  # parametrisation is injective


def test_segmented_box_separate_caps():
    box = segmented_box(1, 2, b_max=0, c_max=1)
    assert box.size() == (1 + 3) * 1 * 2
    assert all(it.params.m_b == 0 for it in box)


def test_triple_box():
    box = triple_box(2)
    items = list(box)
    assert box.size() == 27 == len(items)
    assert items[0].word == ("#", "#")
    assert items[0].params == (0, 0, 0)
    totals = [sum(it.params) for it in items]
    assert totals == sorted(totals)


def test_selector_and_paired_boxes():
    assert selector_box(2, 1).size() == 4 * 2 * 2
    assert len(list(selector_box(2, 1))) == 16
    assert paired_box(2, 2).size() == 81
    assert len(list(paired_box(2, 2))) == 81


def test_segmented_box_order_is_length_then_parameters():
    expected = sorted(
        (sum(segs) + t + m_b + m_c, (t, segs, m_b, m_c))
        for t in range(3) for segs in cartesian(range(3), repeat=t)
        for m_b in range(2) for m_c in range(3))
    got = [it.params for it in segmented_box(2, 2, 1, 2)]
    assert got == [SegmentedWord(segs, m_b, m_c) for _, (_, segs, m_b, m_c) in expected]


def test_segmented_box_streams_its_first_words():
    # the whole (3, 16) box holds 1.4 million words; the first 40 need none of them
    tracemalloc.start()
    try:
        first = list(islice(segmented_box(3, 16), 40))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(first) == 40 and peak < 8 * 2**20
    assert [len(it.word) for it in first] == sorted(len(it.word) for it in first)


def test_segmented_box_memory_does_not_grow_with_the_box():
    # the enumerate refuter stops at its first counterexample, among the
    # shortest words; reaching them must cost only what words of their
    # length need, not segment tuples or letter blocks up to the cap
    def peak(cap):
        tracemalloc.start()
        try:
            for item in segmented_box(3, cap):
                if len(item.word) > 5:
                    break
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak(10000) < peak(6) + 2**18


def test_segmented_box_with_small_tails_scans_only_the_segments_that_fit():
    # with no tail, a length of 2 segments fits at most 301 tuples: the last
    # segment comes from the window the others leave, where a product over
    # both segments scans 301^2 tuples at each length (0.7 s against 9 s)
    started = perf_counter()
    assert sum(1 for _ in segmented_box(2, 300, 0, 0)) == 90903
    assert perf_counter() - started < 3


@pytest.mark.parametrize("letters, max_len", [("", 3), ("a", 5), ("ab", 0), ("ab", 7), ("abcd", 9)])
def test_all_words_size_is_the_count(letters, max_len):
    assert all_words(letters, max_len).size() == sum(len(letters) ** n for n in range(max_len + 1))


class _ListedAllWords:
    """The all-words generator as it was written before it was a WordBox:
    its own log10, size() and __iter__, kept as the reference."""

    def __init__(self, alphabet, max_len):
        self.alphabet, self.max_len = tuple(sorted(set(alphabet))), max_len

    @property
    def log10(self):
        return analysis._log10_geometric(len(self.alphabet), self.max_len)

    def size(self):
        return analysis._geometric(len(self.alphabet), self.max_len) if self.log10 < analysis._DIGITS else inf

    def __iter__(self):
        letters = sorted(self.alphabet)
        for length in range(self.max_len + 1):
            for combo in cartesian(letters, repeat=length):
                yield analysis.GenItem(combo)


_ALPHABETS = ["", "a", "ba", "abc", "cab", "aab", ["b", "a", "b"], ("c", "c", "c"), {"x", "y"}]


@pytest.mark.parametrize("letters", _ALPHABETS)
@pytest.mark.parametrize("max_len", range(6))
def test_all_words_matches_the_listed_reference(letters, max_len):
    box, ref = all_words(letters, max_len), _ListedAllWords(letters, max_len)
    assert (box.alphabet, box.max_len) == (ref.alphabet, max_len)
    items = list(box)
    assert items == list(ref) and all(type(item) is analysis.GenItem for item in items)
    assert (box.size(), box.log10) == (ref.size(), ref.log10)


@pytest.mark.parametrize("letters", _ALPHABETS)
@pytest.mark.parametrize("max_len", [10**6, 10**309])
def test_all_words_sizes_of_long_words_match_the_reference(letters, max_len):
    box, ref = all_words(letters, max_len), _ListedAllWords(letters, max_len)
    assert isinstance(box, analysis.WordBox)
    assert (box.size(), box.log10) == (ref.size(), ref.log10)


@pytest.mark.parametrize("a, b, max_len", [
    (build_partition_net(), build_partition_net(), 6),
    (*build_coarse_factors(), 6),
    (build_partition_net(), project(build_partition_net(), 1), 6),
])
def test_bounded_compare_on_all_words_walks(a, b, max_len):
    words = all_words(a.alphabet, max_len)
    walked = bounded_compare(a, b, words)
    assert walked == compare_nets_walk(a, b, max_len)
    # a sweep of the listed words decides the same but checks words, not walk nodes
    swept = bounded_compare(a, b, list(words))
    assert (swept.verdict, swept.counterexample) == (walked.verdict, walked.counterexample)
    assert swept.checked != walked.checked


def test_a_count_is_exact_up_to_4300_digits():
    # past 4,300 digits a count is told by its logarithm and never built
    assert all_words("0123456789", 4299).size() == (10**4300 - 1) // 9
    assert all_words("0123456789", 4300).size() == inf
    assert paired_box(2149, 9).size() == 10**4298
    assert paired_box(2150, 9).size() == inf


@pytest.mark.parametrize("family, args", [
    ("words", ("ab", 3)), ("segmented", (2, 1)), ("segmented", (1, 2, 0, 1)),
    ("triple", (2,)), ("selector", (2, 1)), ("selector", (3, 1, 0)), ("paired", (2, 1)),
])
def test_every_box_family_sizes_and_repeats(family, args):
    build, arities = BOXES[family]
    assert len(args) - (family == "words") in arities
    box = build(*args)
    passes = [[(it.word, it.params) for it in box] for _ in range(2)]
    assert passes[0] == passes[1]  # each pass starts afresh
    assert len(passes[0]) == len(set(passes[0])) == box.size()


# The boxes as they rendered every word through zoo.render_*, kept as
# references for the boxes that join their words from cached blocks.

def reference_segmented(t_max, seg_max, b_max=None, c_max=None):
    b_max = seg_max if b_max is None else b_max
    c_max = seg_max if c_max is None else c_max
    tuples = [[(segs, t + sum(segs)) for segs in cartesian(range(seg_max + 1), repeat=t)]
              for t in range(t_max + 1)]
    for length in range(t_max * (seg_max + 1) + b_max + c_max + 1):
        for segs_t in tuples:
            for segs, base in segs_t:
                rest = length - base
                for m_b in range(max(0, rest - c_max), min(b_max, rest) + 1):
                    sw = SegmentedWord(segs, m_b, rest - m_b)
                    yield render_segmented(sw), sw


def reference_triple(cap):
    for total in range(3 * cap + 1):
        for m in range(min(cap, total) + 1):
            for n in range(min(cap, total - m) + 1):
                k = total - m - n
                if k <= cap:
                    yield ("a",) * m + ("#",) + ("b",) * n + ("#",) + ("c",) * k, (m, n, k)


def reference_selector(k, block_max, tail_max=None):
    tail_max = block_max if tail_max is None else tail_max
    for blocks in cartesian(range(block_max + 1), repeat=k):
        for choice in range(1, k + 1):
            for tail in range(tail_max + 1):
                sw = SelectorWord(blocks, choice, tail)
                yield render_selector(k, sw), sw


def reference_paired(k, cap):
    for supplies in cartesian(range(cap + 1), repeat=k):
        for demands in cartesian(range(cap + 1), repeat=k):
            pw = PairedBlockWord(supplies, demands)
            yield render_paired(k, pw), pw


def reference_words(alphabet, max_len):
    for length in range(max_len + 1):
        for combo in cartesian(sorted(set(alphabet)), repeat=length):
            yield combo, None


REFERENCE_BOXES = {
    "words": reference_words, "segmented": reference_segmented, "triple": reference_triple,
    "selector": reference_selector, "paired": reference_paired,
}

BOX_CASES = [
    ("words", ("ab", 0)), ("words", ("ba#", 3)),
    ("segmented", (0, 0)), ("segmented", (2, 0)), ("segmented", (0, 2)), ("segmented", (3, 2)),
    ("segmented", (2, 2, 0, 3)), ("segmented", (2, 1, 3, 0)), ("segmented", (1, 3, 1, 2)),
    ("triple", (0,)), ("triple", (3,)),
    ("selector", (1, 0)), ("selector", (3, 2)), ("selector", (2, 3, 0)), ("selector", (3, 1, 4)),
    ("selector", (2, 0, 2)),
    ("paired", (0, 3)), ("paired", (2, 0)), ("paired", (3, 2)), ("paired", (1, 4)),
    ("segmented", (0, 3, 2, 1)), ("segmented", (4, 1, 0, 2)), ("segmented", (3, 2, 4, 1)),
    ("segmented", (2, 4, 1, 1)), ("segmented", (1, 0, 0, 0)), ("segmented", (3, 1, 2, 2)),
    # seg_max or the tail 0: the fewest segments a length needs reaches t_max
    ("segmented", (6, 0)), ("segmented", (5, 1, 0, 0)), ("segmented", (3, 3, 0, 0)),
    ("segmented", (2, 2, 5, 0)), ("segmented", (4, 0, 2, 1)), ("segmented", (7, 0, 1, 1)),
    ("segmented", (2, 5, 0, 3)),
]


@pytest.mark.parametrize("family, args", BOX_CASES)
def test_boxes_match_their_rendering_references(family, args):
    build, _ = BOXES[family]
    got = list(build(*args))
    expected = list(REFERENCE_BOXES[family](*args))
    assert [(it.word, it.params) for it in got] == expected
    assert [type(it.params) for it in got] == [type(p) for _, p in expected]
    assert all(type(it.word) is tuple for it in got)
    for it in got:
        assert tuple(it) == (it.word, it.params)
    render = {"segmented": render_segmented,
              "selector": lambda sw: render_selector(args[0], sw),
              "paired": lambda pw: render_paired(args[0], pw)}.get(family)
    if render is not None:
        assert all(it.word == render(it.params) for it in got)


# --- bounded comparison -----------------------------------------------------------

def test_compare_net_to_itself():
    p = build_partition_net()
    rep = bounded_compare(p, p, all_words(SEGMENT_ALPHABET, 4))
    assert rep.verdict == "equal"
    assert rep.counterexample is None


def test_compare_callables_on_words():
    rep = bounded_compare(
        lambda w: "x" in w, lambda w: w.count("x") > 0, all_words("xy", 4))
    assert rep.verdict == "equal"
    assert rep.checked == 31


def test_compare_partition_net_to_coarse_totals():
    # the first word in box order where only the totals pass is a#bc
    def conj(sw):
        total = sum(sw.segments)
        return total >= sw.m_b and total >= sw.m_c
    rep = bounded_compare(build_partition_net(), conj, segmented_box(2, 2))
    assert rep.verdict == "right-only"
    assert rep.counterexample == ("a", "#", "b", "c")
    assert rep.params == SegmentedWord((1,), 1, 1)


def test_compare_hard_cap():
    p = build_partition_net()
    with pytest.raises(SweepLimitError):
        bounded_compare(p, partition_oracle, segmented_box(3, 6), hard_cap=10)


def test_walk_only_over_words_the_generator_holds():
    # a and b differ only on words that hold y
    def net(name, letters):
        return validate(CounterNet(
            name=name, dimension=0, alphabet=frozenset("xy"), states=("q",), initial=("q",),
            accepting=("q",), transitions=tuple(Transition("q", x, (), "q") for x in letters)))
    a, b = net("a", "xy"), net("b", "x")
    rep = bounded_compare(a, b, all_words({"x"}, 2))
    assert (rep.verdict, rep.checked) == ("equal", 3)
    assert bounded_compare(a, lambda w: "y" not in w, all_words({"x"}, 2)) == rep
    rep = bounded_compare(a, b, all_words("xy", 2))
    assert (rep.verdict, rep.counterexample) == ("left-only", ("y",))


def test_walk_requires_common_alphabet():
    p = build_partition_net()
    other = validate(CounterNet(
        name="o", dimension=1, alphabet=frozenset("xy"), states=("q",),
        initial=("q",), accepting=("q",),
        transitions=(Transition("q", "x", (0,), "q"),)))
    with pytest.raises(ValueError):
        compare_nets_walk(p, other, 3)


def test_negative_length_bounds_are_rejected():
    p = build_partition_net()
    with pytest.raises(ValueError):
        all_words(SEGMENT_ALPHABET, -1)
    with pytest.raises(ValueError):
        compare_nets_walk(p, p, -1)
    with pytest.raises(ValueError):
        FrontierGraph(p).words(-1)


@pytest.mark.parametrize("make", [
    lambda: segmented_box(-1, 2),
    lambda: segmented_box(3, -1),
    lambda: segmented_box(3, 2, -1),
    lambda: segmented_box(3, 2, 2, -1),
    lambda: triple_box(-1),
    lambda: selector_box(2, -1),
    lambda: selector_box(2, 1, -1),
    lambda: selector_box(-1, 1),
    lambda: selector_box(0, 1),
    lambda: paired_box(1, -1),
    lambda: paired_box(-1, 1),
    lambda: SearchCaps(n_cap=-1),
    lambda: SearchCaps(max_multiple=-3),
    lambda: refute_partition_decomposition(list(build_coarse_factors()), box=-1),
    lambda: refute_partition_decomposition(list(build_coarse_factors()), strategy="guided", box=-1),
])
def test_negative_box_bounds_are_rejected(make):
    with pytest.raises(ValueError, match="must be >= "):
        make()


def test_sequence_sides_compare_as_intersections():
    main, bb, bc = build_shared_budget()
    for gen in (all_words(SEGMENT_ALPHABET, 5), triple_box(3)):
        assert bounded_compare((bb, bc), main, gen).verdict == "equal"
    # the empty sequence accepts every word
    rep = bounded_compare(main, (), triple_box(3))
    assert (rep.verdict, rep.counterexample, rep.checked) == ("right-only", ("#", "#", "c"), 2)


def test_walk_node_cap_exhausts(monkeypatch):
    p = build_partition_net()
    cb, cc = build_coarse_factors()
    from counternet.constructions import product
    pr = product(cb, cc)
    monkeypatch.setattr(analysis, "_WALK_NODES", 1)
    rep = compare_nets_walk(p, pr, max_len=10)
    assert rep.verdict == "exhausted"
    assert rep.counterexample is None
    # with room to breathe the same walk finds the shortest discrepancy,
    # an unterminated segment that only the totals accept
    monkeypatch.setattr(analysis, "_WALK_NODES", 100_000)
    full = compare_nets_walk(p, pr, max_len=10)
    assert full.verdict == "right-only"
    assert full.counterexample == ("a",)


def test_walk_stops_once_its_graphs_pass_the_entry_budget(monkeypatch):
    # P against itself steps one graph, against a renamed copy two, which
    # hold twice the vector entries and so pass the budget two depths sooner
    p = build_partition_net()
    monkeypatch.setattr(analysis, "_WALK_BUDGET", 10_000)
    for other, last, nodes in ((p, 13, 524), (replace(p, name="copy"), 11, 271)):
        assert compare_nets_walk(p, other, last) == ComparisonReport("equal", None, None, nodes)
        for max_len in (last + 1, 100):
            assert compare_nets_walk(p, other, max_len) == ComparisonReport("exhausted", None, None, nodes)


def test_walk_refuses_a_mismatch_that_membership_does_not_confirm(monkeypatch):
    cb, cc = build_coarse_factors()
    from counternet.constructions import product
    monkeypatch.setattr(analysis, "accepts", lambda net, word: True)
    with pytest.raises(RuntimeError, match="frontier walk disagrees with membership"):
        compare_nets_walk(build_partition_net(), product(cb, cc), max_len=10)


def test_walk_node_counts_are_pinned():
    # the frontier after a prefix is the unique antichain of its maximal
    # vectors, so the number of joint nodes depends on the nets alone
    rep = compare_nets_walk(build_selector_dcn(3), build_selector_ncn(3), 12)
    assert (rep.verdict, rep.checked) == ("equal", 1547)
    for net, nodes in ((build_paired_dcn(3), 781), (build_selector_dcn(3), 946)):
        factors = [project(net, i) for i in range(1, net.dimension + 1)]
        rep = check_decomposition(net, factors, all_words(net.alphabet, 10))
        assert (rep.verdict, rep.checked) == ("equal", nodes)


def test_walk_step_counts_are_pinned(steps):
    """Frontier steps of the walks above.  A letter that neither frontier of
    a pair reads is skipped; stepping every letter would take 11,179, 6,960
    and 10,010 steps."""
    rep = compare_nets_walk(build_selector_dcn(3), build_selector_ncn(3), 12)
    assert (rep.checked, len(steps)) == (1547, 3_961)
    for net, nodes, stepped in ((build_paired_dcn(3), 781, 3_330), (build_selector_dcn(3), 946, 2_880)):
        steps.clear()
        factors = [project(net, i) for i in range(1, net.dimension + 1)]
        rep = check_decomposition(net, factors, all_words(net.alphabet, 10))
        assert (rep.checked, len(steps)) == (nodes, stepped)
    # a net compared with itself, or with an equal copy, steps one graph:
    # two would take 10,472 and 944 steps
    for compare, generator, nodes, stepped in ((compare_nets_walk, 20, 3650, 5_236),
                                               (bounded_compare, segmented_box(3, 4), 3900, 472)):
        steps.clear()
        rep = compare(build_partition_net(), build_partition_net(), generator)
        assert (rep.verdict, rep.checked, len(steps)) == ("equal", nodes, stepped)


def test_all_words_comparisons_of_nets_over_different_alphabets_are_swept():
    # a over {x}, b over {x, y}: both read only x, so both accept x^n alone
    a = validate(CounterNet("a", 0, frozenset("x"), ("q",), ("q",), ("q",), (Transition("q", "x", (), "q"),)))
    b = replace(a, name="b", alphabet=frozenset("xy"))
    words = all_words({"x", "y"}, 2)
    listed = [item for item in words]
    assert bounded_compare(a, b, listed) == ComparisonReport("equal", None, None, 7)
    assert bounded_compare(a, b, words) == bounded_compare(a, b, listed)
    assert check_decomposition(a, [a, b], words) == check_decomposition(a, [a, b], listed)
    # over one alphabet the walk runs: x keeps both frontiers as they start,
    # so it checks one node where a sweep would check three words
    assert bounded_compare(a, replace(b, name="c", alphabet=frozenset("x")), all_words("x", 2)).checked == 1


def brute_first_mismatch(a, b, max_len):
    for n in range(max_len + 1):
        for w in cartesian(sorted(a.alphabet), repeat=n):
            ra, rb = accepts(a, w), accepts(b, w)
            if ra != rb:
                return ("left-only" if ra else "right-only", w)
    return ("equal", None)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_walk_agrees_with_brute_force(seed):
    rng = random.Random(seed)
    a = random_cn(rng, dim=1)
    b = random_cn(rng, dim=1)
    verdict, word = brute_first_mismatch(a, b, 4)
    rep = compare_nets_walk(a, b, 4)
    assert rep.verdict == verdict
    assert rep.counterexample == word


def _walk_every_letter(a, b, max_len):
    """The joint walk stepping every letter of every expanded pair, read
    or not: the reference compare_nets_walk is checked against."""
    letters = sorted(a.alphabet)
    ga, gb = FrontierGraph(a), FrontierGraph(b)
    seen = {(0, 0)}
    queue = [(0, 0, ())]
    checked = 0
    while queue:
        next_queue = []
        for ia, ib, prefix in queue:
            checked += 1
            la, lb = ga.accepting[ia], gb.accepting[ib]
            if la != lb:
                return ("left-only" if la else "right-only", prefix, checked)
            if len(prefix) == max_len:
                continue
            for letter in letters:
                pair = ga.step(ia, letter), gb.step(ib, letter)
                if not (ga.frontiers[pair[0]] or gb.frontiers[pair[1]]) or pair in seen:
                    continue
                seen.add(pair)
                next_queue.append((*pair, prefix + (letter,)))
        queue = next_queue
    return ("equal", None, checked)


def _with_letter_z(net, rng, readers):
    """net over LETTERS plus z, which the first readers states read."""
    d = net.dimension
    ts = tuple(Transition(q, "z", tuple(rng.randint(-1, 2) for _ in range(d)), rng.choice(net.states))
               for q in net.states[:readers])
    return validate(replace(net, alphabet=net.alphabet | {"z"}, transitions=net.transitions + ts))


def test_walk_matches_the_every_letter_walk_on_random_nets():
    """z is read by some states of one side and by no state of the other,
    so the walk skips it at many pairs and steps it at others."""
    rng = random.Random(14)
    verdicts = set()
    for dim in range(4):
        for depth in range(6):
            for _ in range(5):
                a, b = (random_cn(rng, dim=dim, max_states=4) for _ in range(2))
                a = _with_letter_z(a, rng, rng.randint(1, len(a.states)))
                b = _with_letter_z(b, rng, 0)
                if rng.random() < 0.5:
                    a, b = b, a
                rep = compare_nets_walk(a, b, depth)
                expected = _walk_every_letter(a, b, depth)
                assert (rep.verdict, rep.counterexample, rep.checked) == expected
                verdicts.add(rep.verdict)
                words = [item.word for item in all_words(a.alphabet, depth)]
                for net in (a, b):
                    assert FrontierGraph(net).words(depth) == {w for w in words if accepts(net, w)}
    assert verdicts == {"equal", "left-only", "right-only"}


# --- decomposition checking ---------------------------------------------------------

def test_decomposition_of_budget_language():
    main, bb, bc = build_shared_budget()
    rep = check_decomposition(main, [bb, bc], all_words(SEGMENT_ALPHABET, 6))
    assert rep.verdict == "equal"


def test_decomposition_empty_factors_is_universal():
    rep = check_decomposition(build_partition_net(), [], segmented_box(2, 2))
    assert rep.verdict == "right-only"
    assert rep.counterexample == ("c",)


def test_decomposition_oracle_target():
    cb, cc = build_coarse_factors()
    rep = check_decomposition(partition_oracle, [cb, cc], segmented_box(3, 2))
    assert rep.verdict == "right-only"
    assert rep.counterexample == ("a", "#", "b", "c")
    assert rep.checked == 29


def brute_first_decomposition_mismatch(target, factors, max_len):
    checked = 0
    for n in range(max_len + 1):
        for w in cartesian(sorted(target.alphabet), repeat=n):
            checked += 1
            t, c = accepts(target, w), all(accepts(f, w) for f in factors)
            if t != c:
                return ("left-only" if t else "right-only", w, checked)
    return ("equal", None, checked)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_decomposition_agrees_with_brute_force(seed):
    rng = random.Random(seed)
    target, f1, f2 = (random_cn(rng, dim=1) for _ in range(3))
    verdict, word, checked = brute_first_decomposition_mismatch(target, [f1, f2], 4)
    words = all_words(LETTERS, 4)
    walked = check_decomposition(target, [f1, f2], words)
    assert (walked.verdict, walked.counterexample) == (verdict, word)
    swept = check_decomposition(target, [f1, f2], list(words))
    assert (swept.verdict, swept.counterexample, swept.checked) == (verdict, word, checked)


def test_sweep_of_a_shuffled_list_matches_brute_force():
    rng = random.Random(2307)
    for _ in range(40):
        target, f1, f2 = (random_cn(rng, dim=1) for _ in range(3))
        items = list(all_words(LETTERS, 5))
        rng.shuffle(items)
        for right in (f1, (f1, f2), (target, target)):
            factors = right if isinstance(right, tuple) else (right,)
            expected = ("equal", None, len(items))
            for checked, item in enumerate(items, 1):
                l, r = accepts(target, item.word), all(accepts(f, item.word) for f in factors)
                if l != r:
                    expected = ("left-only" if l else "right-only", item.word, checked)
                    break
            rep = bounded_compare(target, right, items)
            assert (rep.verdict, rep.counterexample, rep.checked) == expected


def test_sweep_refuses_a_wrong_acceptor_verdict(monkeypatch):
    import counternet.analysis as analysis_mod
    flipped = ("a", "#", "b", "c")

    class FlippingGraph(FrontierGraph):
        def accepts(self, word):
            return super().accepts(word) != (tuple(word) == flipped)
    p = build_partition_net()
    assert bounded_compare(p, partition_oracle, segmented_box(3, 2)).verdict == "equal"
    monkeypatch.setattr(analysis_mod, "FrontierGraph", FlippingGraph)
    changed = "membership verdict changed on re-verification"
    with pytest.raises(RuntimeError, match=changed):
        bounded_compare(p, partition_oracle, segmented_box(3, 2))
    with pytest.raises(RuntimeError, match=changed):
        check_decomposition(partition_oracle, [p], segmented_box(3, 2))


def test_box_sweep_answers_are_pinned():
    # verdict, counterexample, repr(params) and checked of one sweep per box
    # family with a net side, recorded before the boxes joined cached blocks
    p, h3, l3 = build_partition_net(), build_paired_dcn(3), build_selector_dcn(3)
    cb, cc = build_coarse_factors()
    reports = [
        check_decomposition(p, [cb, cc], segmented_box(3, 4)),
        check_decomposition(h3, [project(h3, 1), project(h3, 2)], paired_box(3, 2)),
        bounded_compare(l3, lambda w: not selector_oracle(3, w), selector_box(3, 2)),
        bounded_compare(p, (), triple_box(2)),
    ]
    assert [(r.verdict, r.counterexample, repr(r.params), r.checked) for r in reports] == [
        ("right-only", ("a", "#", "b", "c"), "SegmentedWord(segments=(1,), m_b=1, m_c=1)", 37),
        ("right-only", ("b_3",), "PairedBlockWord(supplies=(0, 0, 0), demands=(0, 0, 1))", 2),
        ("left-only", ("b_1",), "SelectorWord(blocks=(0, 0, 0), choice=1, tail=0)", 1),
        ("right-only", ("#", "#", "c"), "(0, 0, 1)", 2),
    ]


def test_refuter_enumerate_answers_are_pinned_per_box():
    cb, cc = build_coarse_factors()
    found = ("counterexample", ("a", "#", "b", "c"),
             "SegmentedWord(segments=(1,), m_b=1, m_c=1)", "intersection-only")
    expected = [(("exhausted", None, "None", None), 4)] + [
        (found, checked) for checked in (18, 29, 35, 37, 37)]
    got = []
    for box in range(6):
        res = refute_partition_decomposition([cb, cc], box=box)
        got.append(((res.verdict, res.word, repr(res.params), res.side), res.stats["checked"]))
        assert res.stats == {"checked": res.stats["checked"]}
    assert got == expected


def test_decomposition_hard_cap():
    with pytest.raises(SweepLimitError):
        check_decomposition(partition_oracle, list(build_coarse_factors()),
                            segmented_box(3, 6), hard_cap=10)


# --- the refuter ----------------------------------------------------------------------

def test_refuter_validates_factors():
    p = build_partition_net()
    with pytest.raises(ValueError):
        refute_partition_decomposition([p])     # wrong dimension
    xy = validate(CounterNet(
        name="xy", dimension=1, alphabet=frozenset("xy"), states=("q",),
        initial=("q",), accepting=("q",),
        transitions=(Transition("q", "x", (0,), "q"),)))
    with pytest.raises(ValueError):
        refute_partition_decomposition([xy])    # wrong alphabet
    cb, cc = build_coarse_factors()
    with pytest.raises(ValueError):
        refute_partition_decomposition([cb, cc], strategy="bogus")


def test_refuter_with_no_factors():
    # the empty intersection accepts every word, so the enumerate strategy
    # finds the oracle's first reject; the guided one has nothing to pump
    res = refute_partition_decomposition([], strategy="enumerate")
    assert (res.verdict, res.word, res.side) == ("counterexample", ("c",), "intersection-only")
    with pytest.raises(ValueError, match="the guided strategy needs at least one factor"):
        refute_partition_decomposition([], strategy="guided")


def test_refuter_enumerate_finds_smallest_counterexample():
    cb, cc = build_coarse_factors()
    res = refute_partition_decomposition([cb, cc], strategy="enumerate")
    assert res.verdict == "counterexample"
    assert res.side == "intersection-only"
    assert res.word == ("a", "#", "b", "c")
    assert res.params == SegmentedWord((1,), 1, 1)
    assert res.stats == {"checked": 37}
    assert accepts(cb, res.word) and accepts(cc, res.word)
    assert not partition_oracle(res.params)


def test_refuter_enumerate_reports_target_only_words():
    # a factor with an empty language misses the partition language's
    # first word, the empty one
    dead = validate(CounterNet(
        name="dead", dimension=1, alphabet=SEGMENT_ALPHABET, states=("q",),
        initial=("q",), accepting=(), transitions=()))
    res = refute_partition_decomposition([dead], strategy="enumerate")
    assert (res.verdict, res.word, res.side, res.stats) == \
        ("counterexample", (), "target-only", {"checked": 1})


def test_refuter_enumerate_exhausts_on_trivial_box():
    cb, cc = build_coarse_factors()
    res = refute_partition_decomposition([cb, cc], box=0)
    assert res.verdict == "exhausted"
    assert res.stats["checked"] == 4
    assert res.word is None


def test_refuter_guided_pumps_past_every_split():
    cb, cc = build_coarse_factors()
    res = refute_partition_decomposition([cb, cc], strategy="guided")
    assert res.verdict == "counterexample"
    assert res.side == "intersection-only"
    assert res.stats["period"] == 6
    sw = res.params
    assert all(accepts(f, res.word) for f in (cb, cc))
    assert not partition_oracle(sw)
    # every parameter of the emitted word is a multiple of the period
    assert all(m % 6 == 0 for m in sw.segments)
    assert sw.m_b % 6 == 0 and sw.m_c % 6 == 0


def test_refuter_guided_ignores_states_off_every_accepting_path():
    # padding grows |Q|!, and with it every word parameter, unless the
    # refuter searches on trimmed factors
    cb, cc = build_coarse_factors()
    plain = refute_partition_decomposition([cb, cc], strategy="guided")
    assert (len(plain.word), plain.stats["period"]) == (141, 6)

    def padded(net, extra, dead_end):
        pad = tuple(f"pad{i}" for i in range(extra))
        dead = (Transition("seg", "b", (0,), pad[0]),) if dead_end else ()
        return validate(CounterNet(net.name, net.dimension, net.alphabet, net.states + pad,
                                   net.initial, net.accepting, net.transitions + dead))

    for extra, dead_end in ((1, False), (2, False), (1, True)):
        factors = [padded(f, extra, dead_end) for f in (cb, cc)]
        res = refute_partition_decomposition(factors, strategy="guided")
        assert (res.word, res.params, res.stats["period"]) == (plain.word, plain.params, 6)
        assert all(accepts(f, res.word) for f in factors)


def test_refuter_guided_period_is_the_lcm_of_the_cycle_lengths():
    # the union has coarse.b's language and six states that trim keeps:
    # its period is lcm(1..6) = 60, where 6! = 720 gave a word of
    # 1,558,803 letters after 12.5 s
    cb, cc = build_coarse_factors()
    both = union(cb, cb)
    assert len(trim(both).states) == 6
    started = perf_counter()
    res = refute_partition_decomposition([both, cc], strategy="guided")
    elapsed = perf_counter() - started
    assert res.stats["period"] == 60
    assert (res.verdict, res.side) == ("counterexample", "intersection-only")
    assert res.word == render_segmented(res.params) and len(res.word) == 11_103
    assert all(accepts(f, res.word) for f in (both, cc))
    assert not partition_oracle(res.params)
    assert elapsed < 5


def test_refuter_guided_gives_up_without_common_bad_segment():
    no_b = validate(CounterNet(
        name="no-b", dimension=1, alphabet=SEGMENT_ALPHABET,
        states=("u",), initial=("u",), accepting=("u",),
        transitions=(
            Transition("u", "a", (0,), "u"), Transition("u", "#", (0,), "u"),
            Transition("u", "c", (0,), "u"))))
    res = refute_partition_decomposition([no_b], strategy="guided",
                                         caps=SearchCaps(max_multiple=1))
    assert res.verdict == "exhausted"
    assert res.stats["reason"] == "no segment is bad in every factor"


def test_refuter_guided_reports_a_search_cut_by_run_cap():
    # run_cap=0 looks at no run, so finding no bad segment proves nothing
    res = refute_partition_decomposition(list(build_coarse_factors()), strategy="guided",
                                         caps=SearchCaps(run_cap=0))
    assert res.verdict == "exhausted"
    assert res.stats["reason"] == "run_cap cut the witness search"


def test_graded_tuples_are_the_sorted_product():
    for arity in range(1, 7):
        for cap in range(6):
            expected = sorted(cartesian(range(1, cap + 1), repeat=arity), key=lambda t: (sum(t), t))
            assert list(_graded_tuples(arity, cap)) == expected


def test_refuter_guided_memory_does_not_grow_with_the_pumped_word():
    # P's first projection has period 60: the pumped word has 11,103 letters,
    # and deciding it needs one frontier per factor at a time, not all of them
    _, cc = build_coarse_factors()
    tracemalloc.start()
    try:
        res = refute_partition_decomposition([project(build_partition_net(), 1), cc], "guided")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (res.verdict, len(res.word)) == ("counterexample", 11_103)
    assert peak < 2 * 2**20


def test_refuter_guided_decides_runs_of_one_letter_in_one_step(steps):
    # the pumped word of three factors, one of them P's first projection,
    # has 648,364 letters, nearly all in four runs each factor jumps
    cb, cc = build_coarse_factors()
    res = refute_partition_decomposition([cb, cc, project(build_partition_net(), 1)], "guided")
    assert res.verdict == "counterexample"
    assert res.word == (("a",) * 216_060 + ("#",) + (("a",) * 60 + ("#",)) * 3
                        + ("b",) * 216_060 + ("c",) * 216_060)
    assert len(steps) < 1000


def _guided_factor_sets():
    cb, cc = build_coarse_factors()
    p = build_partition_net()
    _, b1, b2 = build_shared_budget()
    return {
        "coarse": [cb, cc],
        "P-projections": [project(p, 1), project(p, 2)],
        "fig1": [b1, b2],
        "coarse.b": [cb],
        "union-coarse": [union(cb, cb), cc],
        "coarse.b-fig1.b2": [cb, b2],
    }


GUIDED_CAPS = {
    "default": SearchCaps(),
    "max_multiple=1": SearchCaps(max_multiple=1),
    "max_multiple=3": SearchCaps(max_multiple=3),
    "n_cap=0": SearchCaps(n_cap=0),
    "n_cap=1": SearchCaps(n_cap=1),
    "coefficient_cap=1,horizon=2": SearchCaps(coefficient_cap=1, horizon=2),
    "run_cap=0": SearchCaps(run_cap=0),
    "run_cap=1": SearchCaps(run_cap=1),
}

# (verdict, word length, the first 16 hex digits of the sha256 of the word's
# space-joined letters, (segments, m_b, m_c), side, the stats in key order),
# recorded while the guided refuter still sorted every witness tuple first
# and decided each pumped word through a one-item check_decomposition
GUIDED_GOLDEN = {
    ("coarse", "default"):
        ("counterexample", 141, "f780e6b053b55baa", ((42, 6, 6), 42, 42), "intersection-only",
         [("period", 6), ("witness_words", 6), ("segment_1_pumps", (36, 36, 36)), ("n", 1),
          ("segment", 1)]),
    ("coarse", "max_multiple=1"):
        ("counterexample", 141, "f780e6b053b55baa", ((42, 6, 6), 42, 42), "intersection-only",
         [("period", 6), ("witness_words", 6), ("segment_1_pumps", (36, 36, 36)), ("n", 1),
          ("segment", 1)]),
    ("coarse", "max_multiple=3"):
        ("counterexample", 141, "f780e6b053b55baa", ((42, 6, 6), 42, 42), "intersection-only",
         [("period", 6), ("witness_words", 6), ("segment_1_pumps", (36, 36, 36)), ("n", 1),
          ("segment", 1)]),
    ("coarse", "n_cap=0"):
        ("exhausted", None, None, None, None,
         [("period", 6), ("witness_words", 6), ("segment_1_pumps", (36, 36, 36)),
          ("segment_2_pumps", (36, 36, 36)), ("segment_3_pumps", (36, 36, 36)),
          ("reason", "pumped words stayed inside the oracle language")]),
    ("coarse", "n_cap=1"):
        ("counterexample", 141, "f780e6b053b55baa", ((42, 6, 6), 42, 42), "intersection-only",
         [("period", 6), ("witness_words", 6), ("segment_1_pumps", (36, 36, 36)), ("n", 1),
          ("segment", 1)]),
    ("coarse", "coefficient_cap=1,horizon=2"):
        ("counterexample", 141, "f780e6b053b55baa", ((42, 6, 6), 42, 42), "intersection-only",
         [("period", 6), ("witness_words", 6), ("segment_1_pumps", (36, 36, 36)), ("n", 1),
          ("segment", 1)]),
    ("coarse", "run_cap=0"):
        ("exhausted", None, None, None, None,
         [("period", 6), ("witness_words", 96), ("reason", "run_cap cut the witness search")]),
    ("coarse", "run_cap=1"):
        ("counterexample", 141, "f780e6b053b55baa", ((42, 6, 6), 42, 42), "intersection-only",
         [("period", 6), ("witness_words", 6), ("segment_1_pumps", (36, 36, 36)), ("n", 1),
          ("segment", 1)]),
    ("P-projections", "default"):
        ("counterexample", 11103, "ee5571bd9aede4f1", ((3660, 60, 60), 3660, 3660),
         "intersection-only",
         [("period", 60), ("witness_words", 6), ("segment_1_pumps", (3600, 3600, 3600)), ("n", 1),
          ("segment", 1)]),
    ("P-projections", "max_multiple=1"):
        ("counterexample", 11103, "ee5571bd9aede4f1", ((3660, 60, 60), 3660, 3660),
         "intersection-only",
         [("period", 60), ("witness_words", 6), ("segment_1_pumps", (3600, 3600, 3600)), ("n", 1),
          ("segment", 1)]),
    ("P-projections", "max_multiple=3"):
        ("counterexample", 11103, "ee5571bd9aede4f1", ((3660, 60, 60), 3660, 3660),
         "intersection-only",
         [("period", 60), ("witness_words", 6), ("segment_1_pumps", (3600, 3600, 3600)), ("n", 1),
          ("segment", 1)]),
    ("P-projections", "n_cap=0"):
        ("exhausted", None, None, None, None,
         [("period", 60), ("witness_words", 6), ("segment_1_pumps", (3600, 3600, 3600)),
          ("segment_2_pumps", (3600, 3600, 3600)), ("segment_3_pumps", (3600, 3600, 3600)),
          ("reason", "pumped words stayed inside the oracle language")]),
    ("P-projections", "n_cap=1"):
        ("counterexample", 11103, "ee5571bd9aede4f1", ((3660, 60, 60), 3660, 3660),
         "intersection-only",
         [("period", 60), ("witness_words", 6), ("segment_1_pumps", (3600, 3600, 3600)), ("n", 1),
          ("segment", 1)]),
    ("P-projections", "coefficient_cap=1,horizon=2"):
        ("counterexample", 11103, "ee5571bd9aede4f1", ((3660, 60, 60), 3660, 3660),
         "intersection-only",
         [("period", 60), ("witness_words", 6), ("segment_1_pumps", (3600, 3600, 3600)), ("n", 1),
          ("segment", 1)]),
    ("P-projections", "run_cap=0"):
        ("exhausted", None, None, None, None,
         [("period", 60), ("witness_words", 96), ("reason", "run_cap cut the witness search")]),
    ("P-projections", "run_cap=1"):
        ("counterexample", 11163, "54b3c2a1a482e1cc", ((60, 3660, 60), 3660, 3720),
         "intersection-only",
         [("period", 60), ("witness_words", 38), ("segment_2_pumps", (3600, 3600, 3600)), ("n", 1),
          ("segment", 2)]),
    ("fig1", "default"):
        ("exhausted", None, None, None, None,
         [("period", 6), ("witness_words", 96), ("reason", "no segment is bad in every factor")]),
    ("fig1", "max_multiple=1"):
        ("exhausted", None, None, None, None,
         [("period", 6), ("witness_words", 3), ("reason", "no segment is bad in every factor")]),
    ("fig1", "max_multiple=3"):
        ("exhausted", None, None, None, None,
         [("period", 6), ("witness_words", 729), ("reason", "no segment is bad in every factor")]),
    ("fig1", "n_cap=0"):
        ("exhausted", None, None, None, None,
         [("period", 6), ("witness_words", 96), ("reason", "no segment is bad in every factor")]),
    ("fig1", "n_cap=1"):
        ("exhausted", None, None, None, None,
         [("period", 6), ("witness_words", 96), ("reason", "no segment is bad in every factor")]),
    ("fig1", "coefficient_cap=1,horizon=2"):
        ("exhausted", None, None, None, None,
         [("period", 6), ("witness_words", 96), ("reason", "no segment is bad in every factor")]),
    ("fig1", "run_cap=0"):
        ("exhausted", None, None, None, None,
         [("period", 6), ("witness_words", 96), ("reason", "no segment is bad in every factor")]),
    ("fig1", "run_cap=1"):
        ("exhausted", None, None, None, None,
         [("period", 6), ("witness_words", 96), ("reason", "no segment is bad in every factor")]),
    ("coarse.b", "default"):
        ("counterexample", 44, "7598cb7398de3ad8", ((12, 6), 12, 12), "intersection-only",
         [("period", 6), ("witness_words", 2), ("segment_1_pumps", (6, 6, 6)), ("n", 1),
          ("segment", 1)]),
    ("coarse.b", "max_multiple=1"):
        ("counterexample", 44, "7598cb7398de3ad8", ((12, 6), 12, 12), "intersection-only",
         [("period", 6), ("witness_words", 2), ("segment_1_pumps", (6, 6, 6)), ("n", 1),
          ("segment", 1)]),
    ("coarse.b", "max_multiple=3"):
        ("counterexample", 44, "7598cb7398de3ad8", ((12, 6), 12, 12), "intersection-only",
         [("period", 6), ("witness_words", 2), ("segment_1_pumps", (6, 6, 6)), ("n", 1),
          ("segment", 1)]),
    ("coarse.b", "n_cap=0"):
        ("exhausted", None, None, None, None,
         [("period", 6), ("witness_words", 2), ("segment_1_pumps", (6, 6, 6)),
          ("segment_2_pumps", (6, 6, 6)),
          ("reason", "pumped words stayed inside the oracle language")]),
    ("coarse.b", "n_cap=1"):
        ("counterexample", 44, "7598cb7398de3ad8", ((12, 6), 12, 12), "intersection-only",
         [("period", 6), ("witness_words", 2), ("segment_1_pumps", (6, 6, 6)), ("n", 1),
          ("segment", 1)]),
    ("coarse.b", "coefficient_cap=1,horizon=2"):
        ("counterexample", 44, "7598cb7398de3ad8", ((12, 6), 12, 12), "intersection-only",
         [("period", 6), ("witness_words", 2), ("segment_1_pumps", (6, 6, 6)), ("n", 1),
          ("segment", 1)]),
    ("coarse.b", "run_cap=0"):
        ("exhausted", None, None, None, None,
         [("period", 6), ("witness_words", 32), ("reason", "run_cap cut the witness search")]),
    ("coarse.b", "run_cap=1"):
        ("counterexample", 44, "7598cb7398de3ad8", ((12, 6), 12, 12), "intersection-only",
         [("period", 6), ("witness_words", 2), ("segment_1_pumps", (6, 6, 6)), ("n", 1),
          ("segment", 1)]),
    ("union-coarse", "default"):
        ("counterexample", 11103, "ee5571bd9aede4f1", ((3660, 60, 60), 3660, 3660),
         "intersection-only",
         [("period", 60), ("witness_words", 6), ("segment_1_pumps", (3600, 3600, 3600)), ("n", 1),
          ("segment", 1)]),
    ("union-coarse", "max_multiple=1"):
        ("counterexample", 11103, "ee5571bd9aede4f1", ((3660, 60, 60), 3660, 3660),
         "intersection-only",
         [("period", 60), ("witness_words", 6), ("segment_1_pumps", (3600, 3600, 3600)), ("n", 1),
          ("segment", 1)]),
    ("union-coarse", "max_multiple=3"):
        ("counterexample", 11103, "ee5571bd9aede4f1", ((3660, 60, 60), 3660, 3660),
         "intersection-only",
         [("period", 60), ("witness_words", 6), ("segment_1_pumps", (3600, 3600, 3600)), ("n", 1),
          ("segment", 1)]),
    ("union-coarse", "n_cap=0"):
        ("exhausted", None, None, None, None,
         [("period", 60), ("witness_words", 6), ("segment_1_pumps", (3600, 3600, 3600)),
          ("segment_2_pumps", (3600, 3600, 3600)), ("segment_3_pumps", (3600, 3600, 3600)),
          ("reason", "pumped words stayed inside the oracle language")]),
    ("union-coarse", "n_cap=1"):
        ("counterexample", 11103, "ee5571bd9aede4f1", ((3660, 60, 60), 3660, 3660),
         "intersection-only",
         [("period", 60), ("witness_words", 6), ("segment_1_pumps", (3600, 3600, 3600)), ("n", 1),
          ("segment", 1)]),
    ("union-coarse", "coefficient_cap=1,horizon=2"):
        ("counterexample", 11103, "ee5571bd9aede4f1", ((3660, 60, 60), 3660, 3660),
         "intersection-only",
         [("period", 60), ("witness_words", 6), ("segment_1_pumps", (3600, 3600, 3600)), ("n", 1),
          ("segment", 1)]),
    ("union-coarse", "run_cap=0"):
        ("exhausted", None, None, None, None,
         [("period", 60), ("witness_words", 96), ("reason", "run_cap cut the witness search")]),
    ("union-coarse", "run_cap=1"):
        ("counterexample", 11103, "ee5571bd9aede4f1", ((3660, 60, 60), 3660, 3660),
         "intersection-only",
         [("period", 60), ("witness_words", 6), ("segment_1_pumps", (3600, 3600, 3600)), ("n", 1),
          ("segment", 1)]),
    ("coarse.b-fig1.b2", "default"):
        ("exhausted", None, None, None, None,
         [("period", 6), ("witness_words", 99), ("reason", "no segment is bad in every factor")]),
    ("coarse.b-fig1.b2", "max_multiple=1"):
        ("exhausted", None, None, None, None,
         [("period", 6), ("witness_words", 6), ("reason", "no segment is bad in every factor")]),
    ("coarse.b-fig1.b2", "max_multiple=3"):
        ("exhausted", None, None, None, None,
         [("period", 6), ("witness_words", 732), ("reason", "no segment is bad in every factor")]),
    ("coarse.b-fig1.b2", "n_cap=0"):
        ("exhausted", None, None, None, None,
         [("period", 6), ("witness_words", 99), ("reason", "no segment is bad in every factor")]),
    ("coarse.b-fig1.b2", "n_cap=1"):
        ("exhausted", None, None, None, None,
         [("period", 6), ("witness_words", 99), ("reason", "no segment is bad in every factor")]),
    ("coarse.b-fig1.b2", "coefficient_cap=1,horizon=2"):
        ("exhausted", None, None, None, None,
         [("period", 6), ("witness_words", 99), ("reason", "no segment is bad in every factor")]),
    ("coarse.b-fig1.b2", "run_cap=0"):
        ("exhausted", None, None, None, None,
         [("period", 6), ("witness_words", 96), ("reason", "run_cap cut the witness search")]),
    ("coarse.b-fig1.b2", "run_cap=1"):
        ("exhausted", None, None, None, None,
         [("period", 6), ("witness_words", 99), ("reason", "no segment is bad in every factor")]),
}


@pytest.mark.parametrize("factor_set, caps", list(GUIDED_GOLDEN))
def test_refuter_guided_results_are_pinned(factor_set, caps):
    res = refute_partition_decomposition(_guided_factor_sets()[factor_set], "guided", GUIDED_CAPS[caps])
    digest = None if res.word is None else hashlib.sha256(" ".join(res.word).encode()).hexdigest()[:16]
    params = None if res.params is None else (res.params.segments, res.params.m_b, res.params.m_c)
    length = None if res.word is None else len(res.word)
    got = (res.verdict, length, digest, params, res.side, list(res.stats.items()))
    assert got == GUIDED_GOLDEN[factor_set, caps]


# --- budgets for large integer arguments ----------------------------------

def test_boxes_past_the_floats_size_to_infinity():
    huge = 10**309
    for box in (segmented_box(huge, 2), selector_box(huge, 1), paired_box(huge, 1), all_words("ab", huge)):
        assert box.log10 == inf and box.size() == inf
    # a base of one keeps the count exact, however large its exponent
    assert selector_box(huge, 0, 0).size() == huge
    assert paired_box(huge, 0).size() == 1
    with pytest.raises(SweepLimitError, match=r"generator holds more than 10\^\(10\^307\) words"):
        bounded_compare(build_partition_net(), partition_oracle, segmented_box(huge, 2))


def test_find_pump_family_tries_coefficients_in_order_and_lazily(monkeypatch):
    cb, _ = build_coarse_factors()
    witness = find_bad_segment_witness(cb, 1, 3, 6).witness
    family = find_pump_family(cb, witness)
    assert find_pump_family(cb, witness, SearchCaps(coefficient_cap=10**400)) == family
    # with every word rejected, the first word of each candidate shows its order: z, then y, then x
    tried = []

    def grow(word, segment, dx, dy, dz):
        tried.append((dx, dy, dz))
        return grow_word(word, segment, dx, dy, dz)

    monkeypatch.setattr(analysis, "accepts", lambda net, word: False)
    monkeypatch.setattr(analysis, "grow_word", grow)
    assert find_pump_family(cb, witness, SearchCaps(coefficient_cap=3)) is None
    assert tried == [(6 * x, 6 * y, 6 * z) for z, y, x in cartesian(range(1, 4), repeat=3)]


def test_pumping_past_the_word_budget_is_refused():
    cb, cc = build_coarse_factors()
    witness = find_bad_segment_witness(cb, 1, 3, 6).witness
    with pytest.raises(SweepLimitError, match="pump family checks up to horizon 1000000 pass the budget"):
        find_pump_family(cb, witness, SearchCaps(horizon=10**6))
    # period 60 over four factors: the word at n = 1 alone has more than 3 * 60^4 letters
    first = project(build_partition_net(), 1)
    with pytest.raises(SweepLimitError, match="the pumped word at n = 1 passes the budget of 10000000 letters"):
        refute_partition_decomposition([cb, cc, first, first], "guided")


def test_refuter_guided_says_when_no_pump_family_holds():
    res = refute_partition_decomposition(list(build_coarse_factors()), "guided", SearchCaps(coefficient_cap=0))
    assert res.verdict == "exhausted"
    assert res.stats["reason"] == "no pump family holds within the caps"
