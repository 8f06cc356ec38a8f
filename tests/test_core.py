import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counternet.core import (
    Config,
    CounterNet,
    EnumerationCapError,
    FrontierGraph,
    InvalidNetError,
    Run,
    SweepLimitError,
    Transition,
    _maximal,
    _runs,
    _spell,
    accepts,
    accepts_naive,
    enumerate_accepting_runs,
    enumerate_runs,
    frontier_accepts,
    initial_frontier,
    is_deterministic,
    is_valid_n_run,
    max_positive_update,
    replay,
    run_effect,
    step_frontier,
    validate,
)
import counternet.analysis as analysis_mod
import counternet.core as core_mod
import counternet.zoo as zoo
from counternet.analysis import all_words, compare_nets_walk, segmented_box
from counternet.zoo import (
    PartitionKWord,
    SegmentedWord,
    SelectorWord,
    build_coarse_factors,
    build_paired_dcn,
    build_partition_k,
    build_partition_net,
    build_selector_ncn,
    render_partition_k,
    render_segmented,
    render_selector,
)

from randnets import random_cn, random_dcn


def word(text: str) -> tuple[str, ...]:
    return tuple(text)


def small_net(**overrides) -> CounterNet:
    base = dict(
        name="toy",
        dimension=1,
        alphabet=frozenset({"x"}),
        states=("p", "q"),
        initial=frozenset({"p"}),
        accepting=frozenset({"q"}),
        transitions=(Transition("p", "x", (1,), "q"),),
    )
    base.update(overrides)
    return CounterNet(**base)


# --- validation ---------------------------------------------------------

def test_validate_accepts_well_formed():
    assert validate(small_net()) is not None


def test_validate_rejects_duplicate_states():
    with pytest.raises(InvalidNetError):
        validate(small_net(states=("p", "p")))


def test_validate_rejects_wrong_effect_arity():
    bad = (Transition("p", "x", (1, 2), "q"),)
    with pytest.raises(InvalidNetError):
        validate(small_net(transitions=bad))


def test_validate_rejects_undeclared_state():
    bad = (Transition("p", "x", (0,), "ghost"),)
    with pytest.raises(InvalidNetError):
        validate(small_net(transitions=bad))


@pytest.mark.parametrize("overrides, message", [
    ({"initial": frozenset({"ghost"})}, "initial state 'ghost' not declared"),
    ({"accepting": frozenset({"ghost"})}, "accepting state 'ghost' not declared"),
    ({"transitions": (Transition("ghost", "x", (0,), "q"),)}, "transition 0 source 'ghost' not declared"),
], ids=["initial", "accepting", "source"])
def test_validate_names_the_undeclared_state(overrides, message):
    with pytest.raises(InvalidNetError, match=f"^toy: {message}$"):
        validate(small_net(**overrides))


def test_validate_rejects_letter_outside_alphabet():
    bad = (Transition("p", "z", (0,), "q"),)
    with pytest.raises(InvalidNetError):
        validate(small_net(transitions=bad))


def test_validate_rejects_empty_initial():
    with pytest.raises(InvalidNetError):
        validate(small_net(initial=frozenset()))


def test_validate_rejects_whitespace_letter():
    with pytest.raises(InvalidNetError):
        validate(small_net(alphabet=frozenset({"a b"}),
                           transitions=(Transition("p", "a b", (0,), "q"),)))


def test_validate_rejects_caret_letter():
    # '^' is the repeat mark of the word notation, so "x^2" could not be typed
    with pytest.raises(InvalidNetError):
        validate(small_net(alphabet=frozenset({"x^2", "x"}),
                           transitions=(Transition("p", "x^2", (0,), "q"),)))


def test_validate_rejects_negative_dimension():
    with pytest.raises(InvalidNetError):
        validate(small_net(dimension=-1, transitions=()))


# --- basic observations -------------------------------------------------

def test_partition_net_is_nondeterministic():
    # the two a-transitions out of the hub are the whole point
    assert not is_deterministic(build_partition_net())


def test_paired_dcn_is_deterministic():
    assert is_deterministic(build_paired_dcn(2))


def test_selector_ncn_multiple_initials():
    net = build_selector_ncn(2)
    assert len(net.initial) == 2
    assert not is_deterministic(net)


def test_is_deterministic_matches_a_seen_set_on_random_nets():
    def by_seen_set(net):
        seen = set()
        for t in net.transitions:
            if (t.source, t.letter) in seen:
                return False
            seen.add((t.source, t.letter))
        return len(net.initial) == 1

    rng = random.Random(2307)
    nets = [make(rng, dim=rng.randint(0, 2), max_states=3)
            for _ in range(200) for make in (random_cn, random_dcn)]
    verdicts = [is_deterministic(net) for net in nets]
    assert verdicts == [by_seen_set(net) for net in nets]
    assert True in verdicts and False in verdicts


def test_max_positive_update_partition_net():
    assert max_positive_update(build_partition_net()) == 1


def test_max_positive_update_ignores_negatives():
    net = small_net(transitions=(Transition("p", "x", (-3,), "q"),))
    assert max_positive_update(validate(net)) == 0


def test_run_effect_via_replay():
    net = validate(small_net())
    run = replay("p", (0,), net.transitions)
    assert run_effect(run) == (1,)
    assert run.word() == ("x",)


# --- frontier membership ------------------------------------------------

def _dominates(u, v) -> bool:
    return all(a >= b for a, b in zip(u, v))


def is_antichain(vectors) -> bool:
    return not any(_dominates(u, v) or _dominates(v, u)
                   for u, v in itertools.combinations(list(vectors), 2))


def _insert_fold(net, frontier, letter):
    """The frontier step as an insert-and-evict fold over the transitions,
    the reference step_frontier is checked against."""
    out = {}
    for state, vectors in frontier.items():
        for t in net.transitions:
            if t.source != state or t.letter != letter:
                continue
            bucket = out.setdefault(t.target, set())
            for v in vectors:
                w = tuple(a + e for a, e in zip(v, t.effect))
                if min(w, default=0) < 0 or any(_dominates(u, w) for u in bucket):
                    continue
                bucket -= {u for u in bucket if _dominates(w, u)}
                bucket.add(w)
    return {q: vs for q, vs in out.items() if vs}


def _maximal_all_pairs(vectors):
    return frozenset(v for v in vectors if not any(u != v and _dominates(u, v) for u in vectors))


# lengths 0 to 5 reach every branch of the sweep; coordinates 0-4 make tails tie
@given(st.integers(0, 5).flatmap(
    lambda n: st.sets(st.tuples(*[st.integers(0, 4)] * n), max_size=30)))
def test_maximal_is_an_antichain_dominating_its_input(vectors):
    kept = _maximal(vectors)
    assert isinstance(kept, frozenset) and kept <= vectors
    assert is_antichain(kept)
    for v in vectors:
        assert any(_dominates(k, v) for k in kept)
    assert kept == _maximal_all_pairs(vectors)


def test_step_frontier_matches_the_insert_fold_on_random_nets():
    rng = random.Random(2307)
    for dim in range(5):
        for _ in range(12):
            net = random_cn(rng, dim=dim, max_states=4)
            start = initial_frontier(net, tuple(rng.randint(0, 3) for _ in range(dim)))
            for w in itertools.product(sorted(net.alphabet), repeat=5):
                ours, ref = start, start
                for letter in w:
                    ours, ref = step_frontier(net, ours, letter), _insert_fold(net, ref, letter)
                    assert ours == ref
                    assert all(isinstance(vs, frozenset) for vs in ours.values())


def _wide_member_cases():
    """Long member words of P (2 counters) and PkConj(3) (3 counters), whose
    frontiers grow past a hundred vectors."""
    rng = random.Random(1)
    p_segments, pk_segments = (3, 5, 7, 9, 11, 13, 15, 17), (2, 3, 4, 5, 6)
    p_split, pk_split = [0, 0], [0, 0, 0]
    for m in p_segments:
        p_split[rng.randrange(2)] += m
    for m in pk_segments:
        pk_split[rng.randrange(3)] += m
    return [
        (build_partition_net(), render_segmented(SegmentedWord(p_segments, *p_split))),
        (build_partition_k(3), render_partition_k(3, PartitionKWord(pk_segments, tuple(pk_split)))),
    ]


def test_step_frontier_matches_the_insert_fold_on_wide_frontiers():
    """The wide frontiers are where the filter of merged images does its
    real work."""
    for net, w in _wide_member_cases():
        ours = ref = initial_frontier(net)
        peak = 0
        for letter in w:
            ours, ref = step_frontier(net, ours, letter), _insert_fold(net, ref, letter)
            assert ours == ref
            peak = max(peak, sum(len(vs) for vs in ours.values()))
        assert frontier_accepts(net, ours)
        assert peak > 100


PROBES = ("zero", "hub", "up", "merge", "twice")


def _with_probe_letters(net, rng):
    """net plus one letter per kind of image step_frontier tells apart:
    zero    every state loops with a zero effect (the source set reused)
    hub     every state moves to one hub with a zero effect (reused sets merge)
    up      every state loops with a non-negative effect (no floor)
    merge   each state and a different one move to one target
    twice   each state moves twice to one target
    merge and twice draw effects from -2..2, so most have a floor."""
    assert not net.alphabet & set(PROBES)
    d, states = net.dimension, net.states

    def effect(lo=-2):
        return tuple(rng.randint(lo, 2) for _ in range(d))
    hub = rng.choice(states)
    extra = []
    for q in states:
        other, target = rng.choice([s for s in states if s != q] or [q]), rng.choice(states)
        extra += [Transition(q, "zero", (0,) * d, q), Transition(q, "hub", (0,) * d, hub),
                  Transition(q, "up", effect(0), q),
                  Transition(q, "merge", effect(), target), Transition(other, "merge", effect(), target),
                  Transition(q, "twice", effect(), target), Transition(q, "twice", effect(), target)]
    return validate(replace(net, alphabet=net.alphabet | set(PROBES),
                            transitions=net.transitions + tuple(extra)))


def _check_step(net, frontier, letter):
    ours = step_frontier(net, frontier, letter)
    assert ours == _insert_fold(net, frontier, letter)
    assert all(isinstance(vs, frozenset) and vs and is_antichain(vs) for vs in ours.values())
    return ours


def test_step_frontier_matches_the_insert_fold_on_every_kind_of_image_from_member_prefixes():
    """Every thirteenth prefix of the wide member words branches into each
    probe letter and then a second one, so zero-effect, non-negative and
    merging images all meet frontiers of up to two hundred vectors."""
    rng = random.Random(11)
    for net, w in _wide_member_cases():
        probed = _with_probe_letters(net, rng)
        f, widest = initial_frontier(probed), 0
        for i, letter in enumerate(w):
            f = _check_step(probed, f, letter)
            if i % 13 == 0:
                widest = max(widest, sum(len(vs) for vs in f.values()))
                for probe in PROBES:
                    _check_step(probed, _check_step(probed, f, probe), rng.choice(PROBES))
        assert frontier_accepts(probed, f)
        assert widest > 100


def test_step_frontier_matches_the_insert_fold_on_every_kind_of_image_from_random_vectors():
    """Seeded random nets with the probe letters, walked on random words
    from random start vectors; the nets over effects 0..2 have no
    negative coordinate anywhere, those over 0..0 only zero effects."""
    rng = random.Random(29)
    for effect_range in ((0, 0), (0, 2), (-2, 2)):
        for dim in range(5):
            for _ in range(6):
                net = _with_probe_letters(random_cn(rng, dim=dim, max_states=4, effect_range=effect_range), rng)
                letters = sorted(net.alphabet)
                start = initial_frontier(net, tuple(rng.randint(0, 3) for _ in range(dim)))
                for _ in range(20):
                    f = start
                    for _ in range(6):
                        f = _check_step(net, f, rng.choice(letters))


def test_step_frontier_partition_net():
    p = build_partition_net()
    f = step_frontier(p, initial_frontier(p), "a")
    assert f == {"bank1": {(1, 0)}, "bank2": {(0, 1)}}


def test_step_frontier_unknown_letter_is_empty():
    p = build_partition_net()
    assert step_frontier(p, initial_frontier(p), "z") == {}


def test_step_frontier_merges_three_images_and_returns_empty_for_unread_letters():
    """Four images land on t: s1's zero-effect loop and a non-negative one,
    s2's non-negative one, and s3's negative one, whose floor (2, 0) drops
    (1, 5).  u is reached by one zero-effect image and takes s2's set as
    is.  o is in the alphabet but no state reads it; z is not in it."""
    net = validate(CounterNet(
        "merge", 2, frozenset("mno"), ("s1", "s2", "s3", "t", "u"), ("s1",), ("t",), (
            Transition("s1", "m", (0, 0), "t"),
            Transition("s2", "m", (1, 0), "t"),
            Transition("s3", "m", (-2, 1), "t"),
            Transition("s1", "m", (0, 3), "t"),
            Transition("s2", "m", (0, 0), "u"),
            Transition("s1", "n", (0, 0), "u"),
        )))
    frontier = {"s1": frozenset({(3, 0), (0, 2)}),
                "s2": frozenset({(2, 1), (0, 3)}),
                "s3": frozenset({(1, 5), (4, 0), (2, 2)})}
    ours = step_frontier(net, frontier, "m")
    assert ours == _insert_fold(net, frontier, "m") == {"t": {(3, 3), (0, 5)}, "u": {(2, 1), (0, 3)}}
    assert all(isinstance(vs, frozenset) and is_antichain(vs) for vs in ours.values())
    assert ours["u"] is frontier["s2"]
    assert step_frontier(net, frontier, "n") == _insert_fold(net, frontier, "n")
    assert step_frontier(net, frontier, "o") == {}
    assert step_frontier(net, frontier, "z") == {}
    graph = FrontierGraph(net)
    assert graph.reads[0] == {"m", "n"}
    assert graph.reads[graph.step(0, "n")] == frozenset()


def test_frontiers_stay_antichains_along_partition_words():
    p = build_partition_net()
    f = initial_frontier(p)
    for letter in "aa#a#bbc":
        f = step_frontier(p, f, letter)
        assert all(is_antichain(vs) for vs in f.values())


# --- membership ---------------------------------------------------------

def test_accepts_golden_member():
    p = build_partition_net()
    assert accepts(p, word("a" * 10 + "#" + "a" * 20 + "#" + "a" * 15 + "#" + "b" * 15 + "c" * 30))


def test_accepts_golden_nonmember():
    p = build_partition_net()
    assert not accepts(p, word("a" * 10 + "#" + "a" * 20 + "#" + "a" * 15 + "#" + "b" * 21 + "c" * 21))


def test_empty_word_accepted_iff_initial_accepting():
    p = build_partition_net()
    assert accepts(p, ())  # the hub accepts: empty word has the trivial split
    strict = validate(small_net())
    assert not accepts(strict, ())


def test_accepts_with_explicit_initial_counters():
    net = validate(small_net(transitions=(Transition("p", "x", (-1,), "q"),)))
    assert not accepts(net, ("x",))
    assert accepts(net, ("x",), initial=(1,))


def test_accepts_rejects_bad_initial_vector():
    net = validate(small_net())
    with pytest.raises(ValueError):
        accepts(net, ("x",), initial=(1, 2))
    with pytest.raises(ValueError):
        accepts(net, ("x",), initial=(-1,))


def test_zero_dimension_net_is_plain_automaton():
    net = validate(CounterNet(
        "nfa", 0, frozenset({"x"}), ("p", "q"),
        frozenset({"p"}), frozenset({"q"}),
        (Transition("p", "x", (), "q"), Transition("q", "x", (), "p")),
    ))
    assert accepts(net, ("x",))
    assert not accepts(net, ("x", "x"))
    assert accepts(net, ("x",) * 3)


def _accepts_per_letter(net, word, initial=None):
    """accepts as it was before runs of one letter were jumped: one step
    per letter.  Returns the verdict and the number of steps taken."""
    frontier = initial_frontier(net, initial)
    for steps, letter in enumerate(word, 1):
        frontier = step_frontier(net, frontier, letter)
        if not frontier:
            return False, steps
    return frontier_accepts(net, frontier), len(word)


def _entering_cn(rng, dim):
    """A random net where some states take a self-loop as their only
    transition on a letter and most other transitions on that letter are
    sent to one of them, so that runs of the letter enter self-loops."""
    net = random_cn(rng, dim=dim, max_states=3)
    loops = sorted((q, x) for q in net.states for x in "xy" if rng.random() < 0.5)
    ts = [Transition(q, x, tuple(rng.randint(-2, 2) for _ in range(dim)), q) for q, x in loops]
    for t in net.transitions:
        if (t.source, t.letter) not in loops:
            ends = [q for q, x in loops if x == t.letter]
            ts.append(replace(t, target=rng.choice(ends)) if ends and rng.random() < 0.7 else t)
    return validate(replace(net, transitions=tuple(ts)))


@pytest.fixture
def images(monkeypatch):
    """The rows core._image is called with from now on."""
    calls = []
    real = core_mod._image
    monkeypatch.setattr(core_mod, "_image", lambda frontier, rows: calls.append(rows) or real(frontier, rows))
    return calls


def _entered(net, images):
    """Whether one of the rows is a jump (none of the net's own step rows)
    from a state that does not only loop: a row that leads elsewhere."""
    return any(all(rows is not r for r in net._step_rows.values())
               and any(target != state for state, row in rows.items() for target, _, _ in row)
               for rows in images)


def test_accepts_matches_the_per_letter_loop_on_words_of_long_runs(steps, images):
    rng = random.Random(2207)
    words = jumped = entered = 0
    for k in range(1200):
        dim = rng.randint(0, 3)
        net = _entering_cn(rng, dim) if k % 3 else random_cn(rng, dim=dim, max_states=3)
        v0 = tuple(rng.randint(0, 3) for _ in range(dim))
        for _ in range(15):
            w = tuple(itertools.chain.from_iterable(
                (rng.choice("xy"),) * rng.randint(1, 12) for _ in range(rng.randint(1, 6))))
            verdict, taken = _accepts_per_letter(net, w, v0)
            steps.clear()
            images.clear()
            assert accepts(net, w, v0) == verdict, (net, w, v0)
            words += 1
            jumped += len(steps) < taken
            entered += _entered(net, images)
    # both kinds of jump are taken often enough for the comparison to test them
    assert jumped > words // 10
    assert entered > words // 10, (jumped, entered, words)


def _loop_net(dim, loop, more=(), initial=("q",), accepting=("q",)):
    """A net whose state q loops on x with effect loop, plus the
    transitions more."""
    ts = (Transition("q", "x", loop, "q"), *more)
    return validate(CounterNet("loop", dim, frozenset(t.letter for t in ts), ("q", "r"),
                               frozenset(initial), frozenset(accepting), ts))


def test_accepts_jumps_a_negative_loop_to_exactly_zero(steps):
    net = _loop_net(2, (-2, 1))
    assert accepts(net, ("x",) * 5, initial=(10, 0))
    assert not accepts(net, ("x",) * 6, initial=(10, 0))
    assert steps == []
    assert accepts(net, "xxxxx", initial=(10, 0))
    assert not accepts(net, "xxxxxx", initial=(10, 0))
    assert steps == []


def test_accepts_jumps_a_zero_effect_loop_and_a_dimension_0_loop(steps):
    assert accepts(_loop_net(1, (0,)), ("x",) * 10**5)
    assert accepts(_loop_net(0, ()), ("x",) * 10**5)
    assert not accepts(_loop_net(0, (), accepting=("r",)), ("x",) * 10**5)
    assert steps == []


def test_accepts_steps_a_self_loop_that_has_a_second_transition_on_its_letter(steps):
    net = _loop_net(1, (-1,), more=(Transition("q", "x", (1,), "r"), Transition("r", "x", (0,), "r")),
                    accepting=("r",))
    for n in range(1, 8):
        w = ("x",) * n
        assert accepts(net, w) == _accepts_per_letter(net, w)[0]
    steps.clear()
    assert accepts(net, ("x",) * 9, initial=(3,))
    assert steps == ["x"] * 4  # q is gone after four letters, r alone jumps the rest


def test_accepts_steps_a_state_that_does_not_read_the_letter(steps):
    # r has no transition on x: the first x drops it, the other nine jump
    net = _loop_net(1, (1,), more=(Transition("r", "y", (0,), "r"),), initial=("q", "r"))
    assert accepts(net, ("x",) * 10 + ("y",)) is False
    assert accepts(net, ("x",) * 10)
    assert steps == ["x", "y", "x"]


def _entry_net(dim, entry, loop, more=(), initial=("p",), accepting=("q",)):
    """A net where p enters the self-loop of q on x: p -x-> q with effect
    entry, q -x-> q with effect loop, plus the transitions more."""
    ts = (Transition("p", "x", entry, "q"), Transition("q", "x", loop, "q"), *more)
    return validate(CounterNet("entry", dim, frozenset(t.letter for t in ts), ("p", "q", "r"),
                               frozenset(initial), frozenset(accepting), ts))


def test_accepts_jumps_an_entry_into_a_negative_loop_to_exactly_zero(steps):
    # 7 - 3 - 4*1 = 0 after x^5; the second counter must cover the entry's -2
    # before the loop raises it
    net = _entry_net(2, (-3, -2), (-1, 1))
    assert accepts(net, ("x",) * 5, initial=(7, 2))
    assert not accepts(net, ("x",) * 6, initial=(7, 2))
    assert not accepts(net, ("x",) * 5, initial=(7, 1))
    # a run whose effect sums to zero still needs the entry's floor
    back = _entry_net(1, (-2,), (1,))
    assert not accepts(back, ("x",) * 3, initial=(1,))
    assert accepts(back, ("x",) * 3, initial=(2,))
    assert steps == []
    for v0 in ((7, 2), (7, 1), (8, 3)):
        for n in range(2, 9):
            w = ("x",) * n
            assert accepts(net, w, v0) == _accepts_per_letter(net, w, v0)[0]


def test_accepts_jumps_an_entry_into_a_zero_effect_loop(steps):
    assert accepts(_entry_net(1, (1,), (0,)), ("x",) * 10**5)
    assert not accepts(_entry_net(1, (-1,), (0,)), ("x",) * 10**5)
    assert accepts(_entry_net(1, (-1,), (0,)), ("x",) * 10**5, initial=(1,))
    assert steps == []


def test_accepts_jumps_an_entry_in_dimension_0(steps):
    assert accepts(_entry_net(0, (), ()), ("x",) * 10**5)
    assert not accepts(_entry_net(0, (), (), accepting=("p",)), ("x",) * 10**5)
    assert steps == []


def test_accepts_merges_two_entries_into_one_loop_state(steps, monkeypatch):
    # the images (2, 3), (1, 3) and (0, 6) meet at q: (1, 3) is dominated
    more = (Transition("r", "x", (1, 0), "q"), Transition("r", "x", (0, 3), "q"))
    net = _entry_net(2, (2, 0), (0, 1), more=more, initial=("p", "r"))
    results = []
    real = core_mod._image
    monkeypatch.setattr(core_mod, "_image", lambda frontier, rows: results.append(real(frontier, rows)) or results[-1])
    assert accepts(net, ("x",) * 4)
    assert steps == []
    assert results == [{"q": {(2, 3), (0, 6)}}]
    frontier = initial_frontier(net)
    for _ in range(4):
        frontier = step_frontier(net, frontier, "x")
    assert frontier == results[0]


def test_accepts_steps_an_entry_into_a_state_with_a_second_transition_on_its_letter(steps):
    # q loops on x and also leaves for r, so p and q step every letter
    more = (Transition("q", "x", (-1,), "r"), Transition("r", "x", (0,), "r"))
    net = _entry_net(1, (1,), (0,), more=more, accepting=("r",))
    for n in range(1, 8):
        w = ("x",) * n
        steps.clear()
        assert accepts(net, w) == (n >= 2) == _accepts_per_letter(net, w)[0]
        assert steps == ["x"] * n


@pytest.mark.parametrize("net, params, render, stepped", [
    (build_partition_net, SegmentedWord((3, 5, 7, 9, 11, 13, 15, 17), 17, 63), render_segmented, ["#"] * 8),
    (build_partition_net, SegmentedWord((500, 700, 600), 1200, 600), render_segmented, ["#"] * 3),
    (lambda: build_partition_k(3), PartitionKWord((2, 3, 4, 5, 6), (8, 7, 5)),
     lambda w: render_partition_k(3, w), ["#"] * 7),
    (lambda: build_selector_ncn(3), SelectorWord((450, 500, 550), 3, 450),
     lambda w: render_selector(3, w), ["b_3"]),
], ids=["P 8-segment", "P 3-segment long", "PkConj(3)", "L3.ncn long"])
def test_accepts_steps_member_words_only_between_their_runs(steps, net, params, render, stepped):
    """The long member words of the benchmark's deep workload: each block
    of one letter is entered by a branching transition and then loops, so
    only the letters between blocks are stepped."""
    assert accepts(net(), render(params))
    assert steps == stepped


def test_naive_agrees_on_partition_samples():
    p = build_partition_net()
    for text in ("", "a#bc", "a#b", "a#a#bbcc", "aa#bc", "#", "ab", "a#a#bc"):
        w = word(text)
        assert accepts(p, w) == accepts_naive(p, w), text


def test_naive_cap_raises(monkeypatch):
    # two self loops and no accepting state force the full exponential tree
    net = validate(CounterNet(
        "wide", 1, frozenset({"x"}), ("p",), frozenset({"p"}), frozenset(),
        (Transition("p", "x", (0,), "p"), Transition("p", "x", (1,), "p")),
    ))
    monkeypatch.setattr(core_mod, "_NAIVE_NODES", 100)
    with pytest.raises(EnumerationCapError, match="more than 100 enumeration nodes"):
        accepts_naive(net, ("x",) * 30)
    # x^5 visits 1 + 2 + 4 + 8 + 16 + 32 = 63 nodes
    monkeypatch.setattr(core_mod, "_NAIVE_NODES", 62)
    with pytest.raises(EnumerationCapError):
        accepts_naive(net, ("x",) * 5)
    monkeypatch.setattr(core_mod, "_NAIVE_NODES", 63)
    assert accepts_naive(net, ("x",) * 5) is False


@pytest.mark.parametrize("states", [("q", "p"), ("p", "q")])
def test_naive_starts_from_initial_states_in_declaration_order(states, monkeypatch):
    # from q, x^4 is accepted after 5 nodes; from p, the doubling tree of
    # two self loops spends the cap first, whatever the hash seed
    net = validate(CounterNet(
        "two_starts", 1, frozenset({"x"}), states, frozenset({"p", "q"}), frozenset({"q"}),
        (Transition("p", "x", (0,), "p"), Transition("p", "x", (1,), "p"),
         Transition("q", "x", (0,), "q")),
    ))
    monkeypatch.setattr(core_mod, "_NAIVE_NODES", 10)
    if states[0] == "q":
        assert accepts_naive(net, ("x",) * 4) is True
    else:
        with pytest.raises(EnumerationCapError):
            accepts_naive(net, ("x",) * 4)


def test_long_word_does_not_hit_the_recursion_limit():
    coarse_b, _ = build_coarse_factors()
    w = ("a",) * 5000 + ("#",) + ("b",) * 3
    assert accepts_naive(coarse_b, w)
    enum = enumerate_accepting_runs(coarse_b, w, cap=2)
    assert len(enum.runs) == 1


@settings(max_examples=150)
@given(st.integers(0, 2 ** 31), st.lists(st.sampled_from("ab#c"), max_size=7))
def test_accepts_matches_naive_on_random_nets(seed, letters):
    rng = random.Random(seed)
    net = random_cn(rng, dim=rng.randint(0, 4), max_states=4, letters=("a", "b", "#", "c"))
    v0 = tuple(rng.randint(0, 2) for _ in range(net.dimension))
    w = tuple(letters)
    assert accepts(net, w, v0) == accepts_naive(net, w, v0)


def test_frontier_graph_accepts_matches_accepts_on_random_nets():
    rng = random.Random(2307)
    for _ in range(40):
        dim = rng.randint(0, 2)
        net = random_cn(rng, dim=dim, max_states=4)
        words = [item.word for item in all_words(net.alphabet, 6)]
        shuffled = words[:]
        rng.shuffle(shuffled)
        for initial in (None, tuple(rng.randint(0, 2) for _ in range(dim))):
            for order in (words, shuffled):
                decide = FrontierGraph(net, initial).accepts
                assert [decide(w) for w in order] == [accepts(net, w, initial) for w in order]
            assert FrontierGraph(net, initial).words(6) == {w for w in words if accepts(net, w, initial)}


def test_frontier_graph_steps_each_prefix_once(steps):
    p = build_partition_net()
    words = [item.word for item in all_words(p.alphabet, 4)]
    decide = FrontierGraph(p).accepts
    first = [decide(w) for w in words]
    prefixes = {w[:i] for w in words for i in range(1, len(w) + 1)}
    assert 0 < len(steps) <= len(prefixes)
    stepped = len(steps)
    assert [decide(w) for w in reversed(words)] == first[::-1]
    assert len(steps) == stepped  # a second pass steps nothing
    # a prefix with an empty frontier gets no children: y is never stepped
    steps.clear()
    dead = FrontierGraph(validate(CounterNet(
        "dead", 0, frozenset("xy"), ("q",), ("q",), ("q",), (Transition("q", "y", (), "q"),)))).accepts
    assert not any(dead(("x",) + ("y",) * n) for n in range(5))
    assert steps == ["x"]


def test_frontier_graph_rejects_a_bad_initial_vector():
    p = build_partition_net()
    with pytest.raises(ValueError):
        FrontierGraph(p, (-1, 0))
    with pytest.raises(ValueError):
        FrontierGraph(p, (0,))


def test_frontier_graph_holds_one_frontier_per_prefix_of_a_growing_counter():
    # x: +1 in one state reaches a new frontier per letter, one per prefix
    up = validate(CounterNet("up", 1, frozenset("x"), ("q",), ("q",), ("q",),
                             (Transition("q", "x", (1,), "q"),)))
    graph = FrontierGraph(up)
    for n in range(30):
        assert graph.accepts(("x",) * n)
        assert len(graph.frontiers) == n + 1
    assert graph.frontiers[7] == {"q": {(7,)}}


def test_frontier_graph_holds_distinct_frontiers_of_a_sweep(steps):
    p = build_partition_net()
    words = [item.word for item in segmented_box(3, 6)]
    graph = FrontierGraph(p)
    answers = [graph.accepts(w) for w in words]
    assert (len(graph.frontiers), len(steps)) == (1_224, 1_741)
    assert len({w[:i] for w in words for i in range(1, len(w) + 1)}) == 19_941
    assert answers[::97] == [accepts(p, w) for w in words[::97]]


def _words_every_read_letter(graph, max_len):
    """The depth-first walk extending each prefix by every letter its
    frontier reads, dead successors included: the reference
    FrontierGraph.words is checked against."""
    letters = sorted(graph.net.alphabet)
    found = set()
    stack = [(0, ())]
    while stack:
        i, w = stack.pop()
        if graph.accepting[i]:
            found.add(w)
        if len(w) < max_len:
            stack.extend((graph.step(i, x), w + (x,)) for x in letters if x in graph.reads[i])
    return found


def test_words_matches_the_every_read_letter_walk_on_random_and_flat_nets():
    from counternet.vas import distinct_label, vasify
    rng = random.Random(15)
    for _ in range(30):
        dim = rng.randint(0, 2)
        net = random_cn(rng, dim=dim, max_states=4)
        initial = tuple(rng.randint(0, 2) for _ in range(dim))
        result = vasify(distinct_label(random_dcn(rng, dim=dim, max_states=3)).net)
        for case in ((net, None), (net, initial), (result.net, result.initial)):
            graph, reference = FrontierGraph(*case), FrontierGraph(*case)
            for depth in range(6):
                assert graph.words(depth) == _words_every_read_letter(reference, depth)


def test_frontier_graph_derives_accepting_and_reads_once_per_state_set():
    rng = random.Random(2307)
    shared = 0
    for _ in range(40):
        net = random_cn(rng, dim=rng.randint(0, 2), max_states=5)
        graph = FrontierGraph(net)
        graph.words(5)
        by_states = {}
        for i, frontier in enumerate(graph.frontiers):
            assert graph.accepting[i] == frontier_accepts(net, frontier)
            assert graph.reads[i] == {t.letter for t in net.transitions if t.source in frontier}
            first = by_states.setdefault(frozenset(frontier), i)
            assert graph.reads[i] is graph.reads[first]
            shared += first != i
    assert shared > 0


def test_step_table_is_kept_on_the_net_and_ignored_by_equality():
    p = build_partition_net()
    table = p.step_table
    assert p.step_table is table
    twin = build_partition_net()
    assert twin == p and hash(twin) == hash(p)
    assert twin.step_table == table and twin.step_table is not table


def _step_rows_by_hand(net):
    """The step rows written out on their own, as CounterNet._step_rows
    built them before it used _run_row: the reference it is checked
    against."""
    rows = {}
    for (state, letter), ts in net.step_table.items():
        rows.setdefault(letter, {})[state] = tuple(
            (t.target,
             t.effect if any(t.effect) else None,
             tuple(max(0, -e) for e in t.effect) if min(t.effect, default=0) < 0 else None)
            for t in ts)
    return rows


def _in_order(rows):
    return [(letter, list(by_state.items())) for letter, by_state in rows.items()]


def test_step_rows_match_the_hand_written_rows_on_random_and_zoo_nets():
    rng = random.Random(25)
    nets = [random_cn(rng, dim=dim, max_states=5) for dim in (0, 1, 2, 3) for _ in range(100)]
    nets += [net for k in (1, 2, 3) for family in zoo.FAMILIES.values() for net in family(k).values()]
    kinds = set()
    for net in nets:
        assert _in_order(net._step_rows) == _in_order(_step_rows_by_hand(net)), net
        kinds.update((effect is None, floor is None) for by_state in net._step_rows.values()
                     for rows in by_state.values() for _, effect, floor in rows)
    # zero effects, non-negative ones and ones with a floor all occur
    assert kinds == {(True, True), (False, True), (False, False)}


# --- run enumeration ----------------------------------------------------

def test_enumerate_accepting_runs_counts_split_choices():
    p = build_partition_net()
    enum = enumerate_accepting_runs(p, word("a#a#bc"))
    assert len(enum.runs) == 2  # one bank each way round
    assert not enum.truncated
    for run in enum.runs:
        assert is_valid_n_run(p, run, (0, 0))
        assert run.word() == word("a#a#bc")


def test_enumerate_accepting_runs_none_for_rejected_word():
    p = build_partition_net()
    enum = enumerate_accepting_runs(p, word("a#bc"))
    assert enum.runs == ()
    assert not enum.truncated


def test_enumerate_runs_cap_and_truncation():
    net = validate(CounterNet(
        "wide", 0, frozenset({"x"}), ("p",), frozenset({"p"}), frozenset({"p"}),
        (Transition("p", "x", (), "p"), Transition("p", "x", (), "p")),
    ))
    full = enumerate_runs(net, ("x",) * 3, "p", (), accepting_only=True, cap=8)
    assert len(full.runs) == 8
    assert not full.truncated  # exactly at the cap, nothing dropped
    cut = enumerate_runs(net, ("x",) * 3, "p", (), accepting_only=True, cap=7)
    assert len(cut.runs) == 7
    assert cut.truncated


def test_enumerate_runs_rejects_an_undeclared_start_state():
    cb, _ = build_coarse_factors()
    with pytest.raises(ValueError, match="start state 'nowhere' not declared"):
        enumerate_runs(cb, ("a",), "nowhere", (0,))


def test_enumerate_runs_rejects_a_bad_initial_vector():
    cb, _ = build_coarse_factors()
    with pytest.raises(ValueError, match="initial vector has length 3, net dimension is 1"):
        enumerate_runs(cb, ("a", "a", "#"), "seg", (0, 5, 7))
    with pytest.raises(ValueError, match="non-negative"):
        enumerate_runs(cb, ("a",), "seg", (-1,))


def test_config_is_a_named_tuple_with_the_dataclass_repr():
    c = Config("q", (1, 2))
    assert repr(c) == "Config(state='q', counters=(1, 2))"
    assert c == ("q", (1, 2)) and hash(c) == hash(("q", (1, 2)))
    state, counters = c
    assert (state, counters) == (c.state, c.counters)
    with pytest.raises(AttributeError):
        c.state = "p"


def test_enumerate_runs_respects_declaration_order():
    net = validate(CounterNet(
        "ord", 0, frozenset({"x"}), ("p", "q", "r"), frozenset({"p"}),
        frozenset({"q", "r"}),
        (Transition("p", "x", (), "q"), Transition("p", "x", (), "r")),
    ))
    enum = enumerate_runs(net, ("x",), "p", (), accepting_only=True, cap=10)
    assert [r.configs[-1].state for r in enum.runs] == ["q", "r"]


def _runs_by_brute_force(net, w, start, v0, accepting_only):
    """Every transition sequence reading w, lexicographic by declaration
    index, kept when it chains from start without a negative counter."""
    runs = []
    choices = [[t for t in net.transitions if t.letter == a] for a in w]
    for seq in itertools.product(*choices):
        try:
            run = replay(start, v0, seq)
        except ValueError:
            continue
        if not accepting_only or run.configs[-1].state in net.accepting:
            runs.append(run)
    return runs


def test_enumerate_runs_matches_brute_force_on_random_nets():
    rng = random.Random(2307)
    for _ in range(300):
        dim = rng.randint(0, 2)
        net = random_cn(rng, dim=dim, max_states=3)
        w = tuple(rng.choice(("x", "y")) for _ in range(rng.randint(0, 5)))
        start = rng.choice(net.states)
        v0 = tuple(rng.randint(0, 2) for _ in range(dim))
        for accepting_only in (True, False):
            expected = _runs_by_brute_force(net, w, start, v0, accepting_only)
            full = enumerate_runs(net, w, start, v0, accepting_only=accepting_only)
            assert list(full.runs) == expected
            assert not full.truncated
            cut = enumerate_runs(net, w, start, v0, accepting_only=accepting_only, cap=2)
            assert list(cut.runs) == expected[:2]
            assert cut.truncated == (len(expected) > 2)


def test_replay_golden_routed_run():
    p = build_partition_net()
    # the accepted split of the golden member: 15 a's pay the b block,
    # the other 10 + 20 pay the c block
    trail = []
    by = {(t.source, t.letter, t.target): t for t in p.transitions}
    trail += [by[("hub", "a", "bank2")]] + [by[("bank2", "a", "bank2")]] * 9
    trail += [by[("bank2", "#", "hub")]]
    trail += [by[("hub", "a", "bank2")]] + [by[("bank2", "a", "bank2")]] * 19
    trail += [by[("bank2", "#", "hub")]]
    trail += [by[("hub", "a", "bank1")]] + [by[("bank1", "a", "bank1")]] * 14
    trail += [by[("bank1", "#", "hub")]]
    trail += [by[("hub", "b", "drain_b")]] + [by[("drain_b", "b", "drain_b")]] * 14
    trail += [by[("drain_b", "c", "drain_c")]] + [by[("drain_c", "c", "drain_c")]] * 29
    run = replay("hub", (0, 0), trail)
    assert is_valid_n_run(p, run, (0, 0))
    assert run.configs[-1].state == "drain_c"
    assert run.configs[-1].counters == (0, 0)


# integer inputs go through operator.index: a float raises TypeError
# instead of being truncated, and a bool becomes its int

def test_transition_effect_refuses_non_integers():
    with pytest.raises(TypeError):
        Transition("p", "a", (1.5, -0.7), "q")
    effect = Transition("p", "a", (True, -1), "q").effect
    assert effect == (1, -1) and type(effect[0]) is int


@pytest.mark.parametrize("decide", [accepts, accepts_naive,
                                    lambda net, w, initial: enumerate_runs(net, w, "p", initial)],
                         ids=["accepts", "accepts_naive", "enumerate_runs"])
def test_initial_vector_refuses_non_integers(decide):
    net = validate(small_net(transitions=(Transition("p", "x", (-1,), "q"),)))
    with pytest.raises(TypeError):
        decide(net, ("x",), initial=(0.9,))
    assert accepts(net, ("x",), initial=(True,))


def test_replay_refuses_non_integer_counters():
    net = validate(small_net())
    with pytest.raises(TypeError):
        replay("p", (0.5,), net.transitions)
    assert replay("p", (True,), net.transitions).configs[-1].counters == (2,)


def test_replay_negative_dip_raises_in_n_regime():
    net = validate(small_net(transitions=(Transition("p", "x", (-1,), "q"),)))
    with pytest.raises(ValueError):
        replay("p", (0,), net.transitions)
    z = replay("p", (0,), net.transitions, regime="Z")
    assert z.configs[-1].counters == (-1,)


def test_is_valid_n_run_rejects_foreign_transition():
    net = validate(small_net())
    other = Transition("p", "x", (2,), "q")
    run = replay("p", (0,), net.transitions)
    fake = run.__class__(run.configs, (other,))
    assert not is_valid_n_run(net, fake, (0,))


def _is_valid_n_run_by_hand(net, run, initial):
    """The chaining, arithmetic and sign checks is_valid_n_run made before
    it replayed the run: the reference it is checked against."""
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


def _down_up():
    # p -x:+1-> q -y:-1-> p
    return validate(CounterNet("du", 1, frozenset("xy"), ("p", "q"), ("p",), ("p",),
                               (Transition("p", "x", (1,), "q"), Transition("q", "y", (-1,), "p"))))


_XY = _down_up().transitions


@pytest.mark.parametrize("configs, transitions, initial", [
    pytest.param((Config("p", (0,)), Config("q", (1,))), _XY, (0,), id="too-few-configs"),
    pytest.param((Config("p", (1,)), Config("q", (2,)), Config("p", (1,))), _XY, (0,),
                 id="starts-off-the-initial-vector"),
    pytest.param((Config("p", (0,)), Config("ghost", (1,)), Config("p", (0,))),
                 (_XY[0], Transition("ghost", "y", (-1,), "p")), (0,), id="undeclared-state"),
    pytest.param((Config("p", (0,)), Config("q", (1, 0)), Config("p", (0,))), _XY, (0,),
                 id="wrong-dimension"),
    pytest.param((Config("p", (-1,)), Config("q", (0,)), Config("p", (-1,))), _XY, (-1,),
                 id="negative-counter"),
    pytest.param((Config("p", (0,)), Config("p", (1,)), Config("p", (0,))), _XY, (0,),
                 id="broken-chain"),
    pytest.param((Config("p", (0,)), Config("q", (2,)), Config("p", (1,))), _XY, (0,),
                 id="wrong-arithmetic"),
])
def test_is_valid_n_run_rejects_each_broken_run(configs, transitions, initial):
    net = _down_up()
    assert is_valid_n_run(net, replay("p", (0,), _XY), (0,))
    broken = Run(configs, tuple(transitions))
    assert not is_valid_n_run(net, broken, initial)
    assert not _is_valid_n_run_by_hand(net, broken, initial)


def _mutations(rng, net, run, v0):
    """(run, initial) pairs near a valid run: a changed counter, state,
    dimension, transition or length, and a shifted or negative start."""
    configs, transitions = list(run.configs), list(run.transitions)
    i = rng.randrange(len(configs))
    state, counters = configs[i]
    yield run, v0
    if counters:
        k = rng.randrange(len(counters))
        bumped = counters[:k] + (counters[k] + rng.choice((-1, 1)),) + counters[k + 1:]
        yield Run(tuple(configs[:i] + [Config(state, bumped)] + configs[i + 1:]), run.transitions), v0
    other = rng.choice(net.states + ("ghost",))
    yield Run(tuple(configs[:i] + [Config(other, counters)] + configs[i + 1:]), run.transitions), v0
    wider = [Config(s, c + (0,)) for s, c in configs]
    yield Run(tuple(configs[:i] + wider[i:i + 1] + configs[i + 1:]), run.transitions), v0
    yield Run(tuple(wider), run.transitions), v0 + (0,)
    if transitions:
        j = rng.randrange(len(transitions))
        swap = rng.choice(net.transitions + (Transition(transitions[j].source, "x",
                                                        (1,) * net.dimension, transitions[j].target),))
        yield Run(run.configs, tuple(transitions[:j] + [swap] + transitions[j + 1:])), v0
        yield Run(run.configs, run.transitions[:-1]), v0
    yield Run(run.configs[:-1], run.transitions), v0
    if v0:
        shifted = tuple(x + 1 for x in v0)
        yield run, shifted
        yield replay(run.configs[0].state, shifted, run.transitions), v0
        low = (-1,) + v0[1:]
        yield replay(run.configs[0].state, low, run.transitions, "Z"), low


def test_is_valid_n_run_agrees_with_the_by_hand_checks_on_random_and_mutated_runs():
    rng = random.Random(2307)
    verdicts = []
    for _ in range(3000):
        dim = rng.randint(0, 2)
        net = random_cn(rng, dim=dim, max_states=3)
        w = tuple(rng.choice(("x", "y")) for _ in range(rng.randint(0, 5)))
        v0 = tuple(rng.randint(0, 2) for _ in range(dim))
        enum = enumerate_runs(net, w, rng.choice(net.states), v0, accepting_only=False, cap=4)
        for run in enum.runs:
            for mutant, initial in _mutations(rng, net, run, v0):
                verdict = is_valid_n_run(net, mutant, initial)
                assert verdict == _is_valid_n_run_by_hand(net, mutant, initial)
                verdicts.append(verdict)
    assert verdicts.count(True) > 4000 and verdicts.count(False) > 15000


def test_frontier_graph_words_past_the_budget_are_refused():
    # every word over {a, b} is accepted: 2^21 of them up to length 20, 39.8 million letters
    loop = validate(CounterNet(
        name="loop", dimension=0, alphabet=frozenset("ab"), states=("q",), initial=("q",),
        accepting=("q",), transitions=(Transition("q", "a", (), "q"), Transition("q", "b", (), "q"))))
    assert len(FrontierGraph(loop).words(12)) == 2**13 - 1
    with pytest.raises(SweepLimitError, match="the words up to length 20 pass the budget of 3000000 letters"):
        FrontierGraph(loop).words(20)


def test_frontier_graph_words_past_the_frontiers_budget_are_refused(monkeypatch):
    # x adds 1: the call interns the frontiers of x^1 .. x^5, two entries each
    up = validate(CounterNet("up", 1, frozenset("x"), ("q",), ("q",), ("q",),
                             (Transition("q", "x", (1,), "q"),)))
    monkeypatch.setattr(core_mod, "_FRONTIERS_BUDGET", 10)
    graph = FrontierGraph(up)
    assert len(graph.words(5)) == 6
    monkeypatch.setattr(core_mod, "_FRONTIERS_BUDGET", 0)
    assert len(graph.words(5)) == 6  # this call interns nothing
    monkeypatch.setattr(core_mod, "_FRONTIERS_BUDGET", 9)
    with pytest.raises(SweepLimitError, match="^the frontiers of the words up to length 5 pass the budget "
                                              "of 9 vector entries$"):
        FrontierGraph(up).words(5)


def _entries(graph):
    """The vector entries of every frontier the graph holds, a vector
    counting 1 + dimension, recounted from graph.frontiers."""
    return (1 + graph.net.dimension) * sum(len(vs) for f in graph.frontiers for vs in f.values())


def test_frontier_graph_held_counts_the_entries_of_its_frontiers(monkeypatch):
    rng = random.Random(2307)
    for _ in range(30):
        net = random_cn(rng, dim=rng.randint(0, 3), max_states=4)
        graph = FrontierGraph(net)
        assert graph.held == _entries(graph) == (1 + net.dimension) * len(net.initial)
        graph.words(5)
        assert graph.held == _entries(graph)
    p = build_partition_net()
    graph = FrontierGraph(p)
    for item in segmented_box(3, 4):
        graph.accepts(item.word)
    assert len(graph.frontiers) > 100 and graph.held == _entries(graph)
    # the walk's graphs: one for P against itself, two for P against a copy
    made = []
    monkeypatch.setattr(analysis_mod, "FrontierGraph", lambda net: made.append(FrontierGraph(net)) or made[-1])
    for other, graphs in ((p, 1), (replace(p, name="copy"), 2)):
        made.clear()
        assert compare_nets_walk(p, other, 10).verdict == "equal"
        assert len(made) == graphs
        for g in made:
            assert len(g.frontiers) > 100 and g.held == _entries(g)


# --- runs of one letter ---------------------------------------------------

@given(st.lists(st.sampled_from(["a", "b", "#"]), max_size=40))
def test_runs_spell_back_to_the_word_with_no_empty_or_repeated_run(letters):
    word = tuple(letters)
    runs = list(_runs(word))
    assert _spell(runs) == word
    assert all(n > 0 for _, n in runs)
    assert all(x != y for (x, _), (y, _) in zip(runs, runs[1:]))


def test_runs_count_equal_letters_that_are_distinct_objects():
    ab, built = "ab", "".join(["a", "b"])
    assert built is not ab
    assert list(_runs((ab, built, ab, "c"))) == [(ab, 3), ("c", 1)]


def test_spell_drops_zero_counts_and_joins_equal_neighbours():
    assert _spell([("a", 0), ("a", 2), ("a", 1), ("b", 0)]) == ("a", "a", "a")
    assert _spell([]) == ()
