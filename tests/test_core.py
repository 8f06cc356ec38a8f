import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counternet.core import (
    Config,
    CounterNet,
    EnumerationCapError,
    FrontierGraph,
    InvalidNetError,
    Transition,
    _maximal,
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
from counternet.analysis import all_words, segmented_box
from counternet.zoo import (
    PartitionKWord,
    SegmentedWord,
    build_coarse_factors,
    build_paired_dcn,
    build_partition_k,
    build_partition_net,
    build_selector_ncn,
    render_partition_k,
    render_segmented,
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


def test_step_frontier_matches_the_insert_fold_on_wide_frontiers():
    """Long member words of P (2 counters) and PkConj(3) (3 counters) grow
    frontiers past a hundred vectors, where the sort-and-sweep filter does
    its real work."""
    rng = random.Random(1)
    p_segments, pk_segments = (3, 5, 7, 9, 11, 13, 15, 17), (2, 3, 4, 5, 6)
    p_split, pk_split = [0, 0], [0, 0, 0]
    for m in p_segments:
        p_split[rng.randrange(2)] += m
    for m in pk_segments:
        pk_split[rng.randrange(3)] += m
    cases = [
        (build_partition_net(), render_segmented(SegmentedWord(p_segments, *p_split))),
        (build_partition_k(3), render_partition_k(3, PartitionKWord(pk_segments, tuple(pk_split)))),
    ]
    for net, w in cases:
        ours = ref = initial_frontier(net)
        peak = 0
        for letter in w:
            ours, ref = step_frontier(net, ours, letter), _insert_fold(net, ref, letter)
            assert ours == ref
            peak = max(peak, sum(len(vs) for vs in ours.values()))
        assert frontier_accepts(net, ours)
        assert peak > 100


def test_step_frontier_partition_net():
    p = build_partition_net()
    f = step_frontier(p, initial_frontier(p), "a")
    assert f == {"bank1": {(1, 0)}, "bank2": {(0, 1)}}


def test_step_frontier_unknown_letter_is_empty():
    p = build_partition_net()
    assert step_frontier(p, initial_frontier(p), "z") == {}


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


def test_naive_agrees_on_partition_samples():
    p = build_partition_net()
    for text in ("", "a#bc", "a#b", "a#a#bbcc", "aa#bc", "#", "ab", "a#a#bc"):
        w = word(text)
        assert accepts(p, w) == accepts_naive(p, w), text


def test_naive_cap_raises():
    # two self loops and no accepting state force the full exponential tree
    net = validate(CounterNet(
        "wide", 1, frozenset({"x"}), ("p",), frozenset({"p"}), frozenset(),
        (Transition("p", "x", (0,), "p"), Transition("p", "x", (1,), "p")),
    ))
    with pytest.raises(EnumerationCapError):
        accepts_naive(net, ("x",) * 30, cap=100)
    # x^5 visits 1 + 2 + 4 + 8 + 16 + 32 = 63 nodes
    with pytest.raises(EnumerationCapError):
        accepts_naive(net, ("x",) * 5, cap=62)
    assert accepts_naive(net, ("x",) * 5, cap=63) is False


@pytest.mark.parametrize("states", [("q", "p"), ("p", "q")])
def test_naive_starts_from_initial_states_in_declaration_order(states):
    # from q, x^4 is accepted after 5 nodes; from p, the doubling tree of
    # two self loops spends the cap first, whatever the hash seed
    net = validate(CounterNet(
        "two_starts", 1, frozenset({"x"}), states, frozenset({"p", "q"}), frozenset({"q"}),
        (Transition("p", "x", (0,), "p"), Transition("p", "x", (1,), "p"),
         Transition("q", "x", (0,), "q")),
    ))
    if states[0] == "q":
        assert accepts_naive(net, ("x",) * 4, cap=10) is True
    else:
        with pytest.raises(EnumerationCapError):
            accepts_naive(net, ("x",) * 4, cap=10)


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
    net = random_cn(rng, dim=rng.randint(0, 2), max_states=4, letters=("a", "b", "#", "c"))
    w = tuple(letters)
    assert accepts(net, w) == accepts_naive(net, w)


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


def test_frontier_graph_steps_each_prefix_once(monkeypatch):
    import counternet.core as core_mod
    calls = []
    real = core_mod.step_frontier
    monkeypatch.setattr(core_mod, "step_frontier",
                        lambda net, frontier, letter: calls.append(letter) or real(net, frontier, letter))
    p = build_partition_net()
    words = [item.word for item in all_words(p.alphabet, 4)]
    decide = FrontierGraph(p).accepts
    first = [decide(w) for w in words]
    prefixes = {w[:i] for w in words for i in range(1, len(w) + 1)}
    assert 0 < len(calls) <= len(prefixes)
    stepped = len(calls)
    assert [decide(w) for w in reversed(words)] == first[::-1]
    assert len(calls) == stepped  # a second pass steps nothing
    # a prefix with an empty frontier gets no children: y is never stepped
    calls.clear()
    dead = FrontierGraph(validate(CounterNet(
        "dead", 0, frozenset("xy"), ("q",), ("q",), ("q",), (Transition("q", "y", (), "q"),)))).accepts
    assert not any(dead(("x",) + ("y",) * n) for n in range(5))
    assert calls == ["x"]


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


def test_frontier_graph_holds_distinct_frontiers_of_a_sweep(monkeypatch):
    import counternet.core as core_mod
    calls = []
    real = core_mod.step_frontier
    monkeypatch.setattr(core_mod, "step_frontier",
                        lambda net, frontier, letter: calls.append(letter) or real(net, frontier, letter))
    p = build_partition_net()
    words = [item.word for item in segmented_box(3, 6)]
    graph = FrontierGraph(p)
    answers = [graph.accepts(w) for w in words]
    assert (len(graph.frontiers), len(calls)) == (1_224, 1_741)
    assert len({w[:i] for w in words for i in range(1, len(w) + 1)}) == 19_941
    assert answers[::97] == [accepts(p, w) for w in words[::97]]


def test_step_table_is_kept_on_the_net_and_ignored_by_equality():
    p = build_partition_net()
    table = p.step_table
    assert p.step_table is table
    twin = build_partition_net()
    assert twin == p and hash(twin) == hash(p)
    assert twin.step_table == table and twin.step_table is not table


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
