import dataclasses
import random

import pytest

from counternet import vas as vas_mod
from counternet.analysis import all_words
from counternet.core import CounterNet, FrontierGraph, SweepLimitError, Transition, accepts, validate
from counternet.vas import (
    GatingViolation,
    PipelineReport,
    VAS_STATE,
    check_gating,
    classify_control,
    distinct_label,
    enabled_letters,
    expected_enabled,
    state_codes,
    triplet_transform,
    vasify,
    verify_pipeline,
)
from counternet.zoo import (
    build_paired_dcn, build_partition_net, build_selector_dcn, build_selector_ncn, build_shared_budget)

from randnets import random_dcn


def single_step_net():
    return validate(CounterNet(
        name="step", dimension=1, alphabet=frozenset("x"),
        states=("s0", "s1"), initial=("s0",), accepting=("s0", "s1"),
        transitions=(Transition("s0", "x", (1,), "s1"),)))


# --- state codes -------------------------------------------------------------

def test_state_codes_small():
    assert state_codes(1) == [(1, 2)]
    assert state_codes(2) == [(1, 6), (2, 3)]
    assert state_codes(3) == [(1, 12), (2, 8), (3, 4)]


def test_code_patterns_are_distinct():
    # rest/mid1/mid2 signatures must never collide across states
    for n in range(1, 5):
        codes = state_codes(n)
        assert len(set(c for pair in codes for c in pair)) == 2 * n
        patterns = set()
        for i in range(n):
            a_i, b_i = codes[i]
            a_m, b_m = codes[n - 1 - i]
            patterns.add((a_i, b_i, 0))
            patterns.add((0, a_m, b_m))
            patterns.add((b_i, 0, a_i))
        assert len(patterns) == 3 * n, n


def _closed_form_vasify(net):
    """The flat transitions and start vector of vasify, written with the
    closed-form phase effects over the codes (a_i, b_i) and the mirror
    codes."""
    n = len(net.states)
    codes = state_codes(n)
    index = {q: i for i, q in enumerate(net.states)}
    zeros = (0,) * net.dimension
    out = []
    for t in net.transitions:
        a_i, b_i = codes[index[t.source]]
        a_m, b_m = codes[n - 1 - index[t.source]]
        a_j, b_j = codes[index[t.target]]
        effects = (zeros + (-a_i, a_m - b_i, b_m),
                   zeros + (b_i, -a_m, a_i - b_m),
                   t.effect + (a_j - b_i, b_j, -a_i))
        out += [Transition(VAS_STATE, f"{t.letter}_{p}", e, VAS_STATE) for p, e in enumerate(effects, 1)]
    start = next(iter(net.initial))
    return tuple(out), zeros + codes[index[start]] + (0,)


def test_vasify_matches_the_closed_form_effects_on_random_nets():
    rng = random.Random(2307)
    for _ in range(200):
        net = distinct_label(random_dcn(rng, dim=rng.randint(0, 2))).net
        result = vasify(net)
        assert (result.net.transitions, result.initial) == _closed_form_vasify(net)


# --- distinct labelling --------------------------------------------------------

def test_distinct_label_fresh_letters():
    net = build_paired_dcn(2)
    labels = distinct_label(net)
    assert labels.net.alphabet == frozenset(f"g{i}" for i in range(len(net.transitions)))
    assert labels.net.states == net.states
    for i, t in enumerate(net.transitions):
        assert labels.letter_to_transition[f"g{i}"] == t
        assert labels.original_letter(f"g{i}") == t.letter


def test_distinct_label_unlabel_roundtrip():
    net = build_paired_dcn(2)
    labels = distinct_label(net)
    by_original = {}
    for i, t in enumerate(net.transitions):
        by_original.setdefault((t.source, t.letter), f"g{i}")
    # walk one accepted path through the original and replay it by labels
    path = ("a_1", "b_1")
    state = next(iter(net.initial))
    lab_word = []
    for letter in path:
        lab_word.append(by_original[(state, letter)])
        state = next(t.target for t in net.transitions
                     if t.source == state and t.letter == letter)
    assert labels.unlabel(tuple(lab_word)) == path
    assert accepts(labels.net, tuple(lab_word))


def test_distinct_label_requires_determinism():
    with pytest.raises(ValueError):
        distinct_label(build_partition_net())
    with pytest.raises(ValueError):
        distinct_label(build_selector_ncn(2))


# --- flattening ----------------------------------------------------------------

def test_vasify_single_transition():
    result = vasify(single_step_net())
    assert result.net.dimension == 4
    assert result.net.states == (VAS_STATE,)
    assert result.initial == (0, 1, 6, 0)
    assert result.net.alphabet == frozenset({"x_1", "x_2", "x_3"})
    info = result.triplet_for("x_2")
    assert info.transition.letter == "x"
    with pytest.raises(KeyError):
        result.triplet_for("y_1")


def test_vasify_flat_language_is_one_protocol():
    result = vasify(single_step_net())
    words = FrontierGraph(result.net, result.initial).words(4)
    assert words == {
        (),
        ("x_1",),
        ("x_1", "x_2"),
        ("x_1", "x_2", "x_3"),
    }


def test_path_languages_match_membership_on_random_nets():
    # the labelled net is deterministic and distinctly labelled, the flat
    # net has one accepting state: in both, words and paths correspond
    rng = random.Random(2307)
    for _ in range(40):
        labels = distinct_label(random_dcn(rng, dim=rng.randint(0, 2), max_states=2))
        result = vasify(labels.net)
        lab = {item.word for item in all_words(labels.net.alphabet, 4)
               if accepts(labels.net, item.word)}
        assert FrontierGraph(labels.net).words(4) == lab
        flat = {item.word for item in all_words(result.net.alphabet, 3)
                if accepts(result.net, item.word, initial=result.initial)}
        assert FrontierGraph(result.net, result.initial).words(3) == flat


def test_vasify_protocol_walks_the_patterns():
    result = vasify(single_step_net())
    val = result.initial
    assert classify_control(result, val) == ("rest", "s0")
    assert enabled_letters(result, val) == {"x_1"}
    assert expected_enabled(result, "rest", "s0") == {"x_1"}

    step = {t.letter: t.effect for t in result.net.transitions}
    val = tuple(v + e for v, e in zip(val, step["x_1"]))
    assert val == (0, 0, 2, 3)
    assert classify_control(result, val) == ("mid1", "s0")
    assert enabled_letters(result, val) == {"x_2"}

    val = tuple(v + e for v, e in zip(val, step["x_2"]))
    assert val == (0, 6, 0, 1)
    assert classify_control(result, val) == ("mid2", "s0")
    assert enabled_letters(result, val) == {"x_3"}

    val = tuple(v + e for v, e in zip(val, step["x_3"]))
    assert val == (1, 2, 3, 0)
    assert classify_control(result, val) == ("rest", "s1")
    assert enabled_letters(result, val) == set()
    assert expected_enabled(result, "rest", "s1") == set()

    assert classify_control(result, (0, 9, 9, 9)) is None


def test_vasify_rejects_bad_inputs():
    with pytest.raises(ValueError):
        vasify(build_partition_net())
    two_initial = validate(CounterNet(
        name="two", dimension=0, alphabet=frozenset("x"),
        states=("p", "q"), initial=("p", "q"), accepting=("p",),
        transitions=(Transition("p", "x", (), "q"),)))
    with pytest.raises(ValueError, match="deterministic"):
        vasify(two_initial)
    shared_letter = validate(CounterNet(
        name="shared", dimension=0, alphabet=frozenset("x"),
        states=("p", "q"), initial=("p",), accepting=("p",),
        transitions=(Transition("p", "x", (), "q"), Transition("q", "x", (), "p"))))
    with pytest.raises(ValueError):
        vasify(shared_letter)


def test_gating_clean_on_single_transition():
    violations, visited, complete = check_gating(vasify(single_step_net()))
    assert violations == []
    assert visited == 4
    assert complete


# --- protocol expansion -----------------------------------------------------------

def test_triplet_transform():
    assert triplet_transform(("x", "y")) == ("x_1", "x_2", "x_3", "y_1", "y_2", "y_3")
    assert triplet_transform(("x", "y"), stop=1) == ("x_1", "x_2", "x_3", "y_1")
    assert triplet_transform(("x",), stop=2) == ("x_1", "x_2")
    assert triplet_transform(()) == ()
    with pytest.raises(ValueError):
        triplet_transform(("x",), stop=0)
    with pytest.raises(ValueError):
        triplet_transform(("x",), stop=4)


# --- the corrected second phase ----------------------------------------------------

def _zeroed(result, phase, coord):
    """result with coordinate coord of every effect of the letters ending
    in phase zeroed."""
    patched = tuple(
        Transition(t.source, t.letter, t.effect[:coord] + (0,) + t.effect[coord + 1:], t.target)
        if t.letter.endswith(phase) else t
        for t in result.net.transitions)
    return dataclasses.replace(result, net=dataclasses.replace(result.net, transitions=patched))


def _zeroed_phase_two(result):
    """result with the third control component of every phase-2 effect
    zeroed."""
    return _zeroed(result, "_2", result.source.dimension + 2)


def test_zeroed_phase_two_breaks_gating():
    # dropping the third control component of the middle phase parks the
    # net off-pattern after two letters; the walk must notice
    broken = _zeroed_phase_two(vasify(single_step_net()))
    violations, _, _ = check_gating(broken)
    assert violations
    off = [v for v in violations if v.pattern is None]
    assert off, "expected an unclassifiable valuation"


def _every_transition_walk(result, max_depth=12, node_cap=20000):
    """check_gating testing every transition of the flat net at every node:
    the reference the indexed walk is checked against.  Returns its
    (violations, visited, complete) and the valuations it visited, in
    order."""
    k = result.source.dimension
    seen = {result.initial}
    frontier = [result.initial]
    violations = []
    visited = 0
    complete = True
    vals = []
    for _ in range(max_depth):
        if not frontier:
            break
        next_frontier = []
        for val in frontier:
            visited += 1
            vals.append(val)
            pattern = classify_control(result, val)
            enabled = enabled_letters(result, val)
            if pattern is None:
                violations.append(GatingViolation(val, None, enabled, None))
                continue
            kind, state = pattern
            expected = expected_enabled(result, kind, state)
            control_enabled = {
                t.letter for t in result.net.transitions
                if all(v + e >= 0 for v, e in zip(val[k:], t.effect[k:]))
            }
            ok = control_enabled == expected and enabled <= expected
            if kind != "mid2" and enabled != expected:
                ok = False
            if not ok:
                violations.append(GatingViolation(val, pattern, enabled, expected))
            for t in result.net.transitions:
                if t.letter not in enabled:
                    continue
                succ = tuple(v + e for v, e in zip(val, t.effect))
                if succ not in seen:
                    seen.add(succ)
                    if len(seen) > node_cap:
                        complete = False
                    else:
                        next_frontier.append(succ)
        frontier = next_frontier
    if frontier:
        complete = False
    return (violations, visited, complete), vals


def _check_gating_every_transition(result, max_depth=12, node_cap=20000):
    return _every_transition_walk(result, max_depth, node_cap)[0]


def _tuple_verdict_reference(result, max_depth=12, node_cap=20000):
    """The reference's answer, once it is checked to flag a visited
    valuation exactly when its control tuple val[k:] is the control tuple
    of some violation."""
    (violations, visited, complete), vals = _every_transition_walk(result, max_depth, node_cap)
    k = result.source.dimension
    bad = {v.valuation[k:] for v in violations}
    assert [val for val in vals if val[k:] in bad] == [v.valuation for v in violations]
    return violations, visited, complete


def test_gating_matches_the_every_transition_walk(monkeypatch):
    for net in (single_step_net(), build_paired_dcn(2)):
        broken = _zeroed_phase_two(vasify(distinct_label(net).net))
        got = check_gating(broken)
        assert got[0]
        assert got == _check_gating_every_transition(broken)
    rng = random.Random(15)
    outcomes = set()
    for _ in range(40):
        result = vasify(distinct_label(random_dcn(rng, dim=rng.randint(0, 2))).net)
        for depth, cap in ((12, 20000), (6, 40), (12, 3)):
            monkeypatch.setattr(vas_mod, "_GATING_DEPTH", depth)
            monkeypatch.setattr(vas_mod, "_GATING_NODES", cap)
            got = check_gating(result)
            assert got == _tuple_verdict_reference(result, depth, cap)
            outcomes.add(got[2])
    assert outcomes == {True, False}
    # L1..L3.dcn and H1..H3 at the real limits, each flattened as it is and
    # with one control coordinate or the first original coordinate of one
    # phase's letters zeroed: zeroing an original coordinate leaves the
    # gating clean, zeroing a control coordinate breaks it
    monkeypatch.undo()
    for build in (build_selector_dcn, build_paired_dcn):
        for k in (1, 2, 3):
            result = vasify(distinct_label(build(k)).net)
            cases = [(result, False)] + [(_zeroed(result, phase, coord), coord >= k)
                                         for phase in ("_1", "_2", "_3") for coord in (0, k, k + 1, k + 2)]
            for case, breaks in cases:
                got = check_gating(case)
                assert got == _tuple_verdict_reference(case)
                assert bool(got[0]) == breaks


def test_gating_matches_the_every_transition_walk_on_zeroed_random_flattenings():
    # each random flattening as built and with each coordinate of each
    # phase's letters zeroed in turn: the indexed walk gives the reference's
    # answer, and the reference's verdict is a function of the control tuple
    rng = random.Random(34)
    broken = cases = 0
    for _ in range(200):
        result = vasify(distinct_label(random_dcn(rng, dim=rng.randint(0, 3))).net)
        width = result.net.dimension
        for case in [result] + [_zeroed(result, phase, coord)
                                for phase in ("_1", "_2", "_3") for coord in range(width)]:
            got = check_gating(case)
            assert got == _tuple_verdict_reference(case)
            broken += bool(got[0])
            cases += 1
    assert 0 < broken < cases


def test_gating_walk_stops_at_its_node_cap(monkeypatch):
    # the walk of H2's flat net is cut at the first depth holding more than 5 valuations
    result = vasify(distinct_label(build_paired_dcn(2)).net)
    monkeypatch.setattr(vas_mod, "_GATING_NODES", 5)
    got = check_gating(result)
    assert got[1:] == (5, False)
    assert got == _check_gating_every_transition(result, 12, 5)


# --- end to end ----------------------------------------------------------------------

def test_pipeline_reports_the_phase_prefixes_the_flat_net_rejects(monkeypatch):
    # a flat net without its phase-3 transitions rejects each word's last phase prefix
    real = vas_mod.vasify

    def without_phase_three(net):
        result = real(net)
        kept = tuple(t for t in result.net.transitions if not t.letter.endswith("_3"))
        return dataclasses.replace(result, net=dataclasses.replace(result.net, transitions=kept))

    monkeypatch.setattr(vas_mod, "vasify", without_phase_three)
    rep = verify_pipeline(single_step_net())
    assert (rep.labelled_matches, rep.containment_ok) == (True, False)
    assert rep.containment_failures == (("g0_1", "g0_2", "g0_3"),)


def test_pipeline_on_paired_blocks(monkeypatch):
    monkeypatch.setattr(vas_mod, "_FLAT_LEN", 5)
    rep = verify_pipeline(build_paired_dcn(2), max_len=4)
    assert rep.labelled_matches
    assert rep.containment_ok
    assert rep.containment_failures == ()
    assert rep.gating_ok
    assert rep.gating_violations == 0
    assert rep.extra_count > 0
    assert all(len(w) <= 5 for w in rep.extra_members)
    assert rep.stats["labelled_words"] > 1
    assert rep.stats["flat_words"] > rep.stats["labelled_words"]


def test_flat_net_mixes_protocols_from_shared_source():
    # two transitions leaving the same state can swap protocols midway;
    # such words are inherent extras, never accepted-path images
    labels = distinct_label(build_paired_dcn(2))
    result = vasify(labels.net)
    by_source = {}
    for info in result.triplets:
        by_source.setdefault(info.transition.source, []).append(info)
    source, infos = next((s, i) for s, i in by_source.items() if len(i) >= 2)
    assert source in labels.net.initial
    first, second = infos[0], infos[1]
    mixed = (first.letters[0], second.letters[1])
    assert accepts(result.net, mixed, initial=result.initial)


def test_pipeline_on_plain_automaton(monkeypatch):
    toggle = validate(CounterNet(
        name="toggle", dimension=0, alphabet=frozenset("x"),
        states=("even", "odd"), initial=("even",), accepting=("even",),
        transitions=(
            Transition("even", "x", (), "odd"),
            Transition("odd", "x", (), "even"))))
    monkeypatch.setattr(vas_mod, "_FLAT_LEN", 6)
    rep = verify_pipeline(toggle, max_len=5)
    assert rep.labelled_matches
    assert rep.containment_ok
    assert rep.gating_ok
    assert rep.stats["gating_complete"] in (True, False)
    with pytest.raises(ValueError, match=r"^word length bound must be >= 0, got -1$"):
        verify_pipeline(toggle, max_len=-1)


PAIRED_EXTRAS = (
    ('g2_1',), ('g3_1',), ('g0_1', 'g1_2'), ('g0_1', 'g2_2'), ('g0_1', 'g3_2'),
    ('g1_1', 'g0_2'), ('g1_1', 'g2_2'), ('g1_1', 'g3_2'), ('g2_1', 'g0_2'), ('g2_1', 'g1_2'),
    ('g2_1', 'g2_2'), ('g2_1', 'g3_2'), ('g3_1', 'g0_2'), ('g3_1', 'g1_2'), ('g3_1', 'g2_2'),
    ('g3_1', 'g3_2'), ('g0_1', 'g0_2', 'g1_3'), ('g0_1', 'g1_2', 'g0_3'), ('g0_1', 'g1_2', 'g1_3'),
    ('g0_1', 'g2_2', 'g0_3'),
)
SELECTOR_EXTRAS = (
    ('g0_1',), ('g1_1',), ('g0_1', 'g0_2'), ('g0_1', 'g1_2'), ('g0_1', 'g2_2'),
    ('g0_1', 'g3_2'), ('g1_1', 'g0_2'), ('g1_1', 'g1_2'), ('g1_1', 'g2_2'), ('g1_1', 'g3_2'),
    ('g2_1', 'g0_2'), ('g2_1', 'g1_2'), ('g2_1', 'g3_2'), ('g3_1', 'g0_2'), ('g3_1', 'g1_2'),
    ('g3_1', 'g2_2'), ('g0_1', 'g0_2', 'g0_3'), ('g0_1', 'g0_2', 'g1_3'), ('g0_1', 'g0_2', 'g2_3'),
    ('g0_1', 'g0_2', 'g3_3'),
)


@pytest.mark.parametrize("net, extra_count, extras, stats", [
    (build_paired_dcn(2), 4471, PAIRED_EXTRAS,
     {"labelled_words": 80, "flat_words": 4501, "expanded_prefixes": 238,
      "gating_nodes": 48, "gating_complete": False}),
    (build_selector_dcn(2), 5114, SELECTOR_EXTRAS,
     {"labelled_words": 68, "flat_words": 5141, "expanded_prefixes": 204,
      "gating_nodes": 66, "gating_complete": False}),
], ids=["paired_dcn_2", "selector_dcn_2"])
def test_pipeline_report_at_the_defaults_is_pinned(net, extra_count, extras, stats):
    assert verify_pipeline(net) == PipelineReport(
        labelled_matches=True,
        containment_ok=True,
        containment_failures=(),
        extra_members=extras,
        extra_count=extra_count,
        gating_ok=True,
        gating_violations=0,
        stats=stats,
    )


def test_pipeline_counts_and_filters_as_the_set_of_every_phase_prefix(monkeypatch):
    # the report keeps a count and the short prefixes only; the set of all
    # of them, as it was once held, gives the same count and extras
    rng = random.Random(5)
    nets = [build_paired_dcn(1), build_selector_dcn(2)] + [random_dcn(rng, dim=1) for _ in range(6)]
    for net, max_len, flat_len in zip(nets, (9, 4, 5, 5, 6, 6, 7, 7), (4, 7, 3, 5, 4, 6, 5, 7)):
        monkeypatch.setattr(vas_mod, "_FLAT_LEN", flat_len)
        rep = verify_pipeline(net, max_len=max_len)
        labels = distinct_label(net)
        result = vasify(labels.net)
        every = {triplet_transform(w, stop) if w else () for w in FrontierGraph(labels.net).words(max_len)
                 for stop in ((1, 2, 3) if w else (1,))}
        flat_words = FrontierGraph(result.net, result.initial).words(flat_len)
        extras = sorted((w for w in flat_words if w not in every | {()}), key=lambda x: (len(x), x))
        assert rep.stats["expanded_prefixes"] == len(every)
        assert (rep.extra_count, rep.extra_members) == (len(extras), tuple(extras[:20]))


@pytest.mark.parametrize("max_len", [0, 1, 2])
@pytest.mark.parametrize("net", [build_paired_dcn(2), build_selector_dcn(2), build_shared_budget()[1]],
                         ids=["paired_dcn_2", "selector_dcn_2", "fig1_b1"])
def test_pipeline_extras_at_short_bounds_are_no_phase_prefixes(net, max_len):
    # a phase prefix of a word of n letters has 3n - 2 to 3n letters, so the
    # extras stop at 3 * max_len letters, where every phase prefix is expanded
    rep = verify_pipeline(net, max_len=max_len)
    labels = distinct_label(net)
    prefixes = {triplet_transform(w, stop) for w in FrontierGraph(labels.net).words(3) if w
                for stop in (1, 2, 3)}
    assert not prefixes & set(rep.extra_members)
    result = vasify(labels.net)
    flat_words = FrontierGraph(result.net, result.initial).words(3 * max_len)
    assert rep.extra_count == sum(1 for w in flat_words if w and w not in prefixes)


def test_triplet_transform_makes_each_phase_letter_once():
    # one string per phase letter, however often the letter repeats
    w = triplet_transform(("x", "y", "x", "x"), stop=2)
    assert w == ("x_1", "x_2", "x_3", "y_1", "y_2", "y_3", "x_1", "x_2", "x_3", "x_1", "x_2")
    assert w[0] is w[6] is w[9] and w[1] is w[7] is w[10]


def test_verify_pipeline_past_the_words_budget_is_refused():
    with pytest.raises(SweepLimitError, match="the words up to length 400 pass the budget"):
        verify_pipeline(build_paired_dcn(1), max_len=400)
