import random
from itertools import product as cartesian

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counternet.analysis import bounded_compare, compare_nets_walk, selector_box
from counternet.constructions import (
    GADGET_SEPARATOR,
    build_reduction,
    lift,
    product,
    product_all,
    project,
    trim,
    union,
)
from counternet.core import CounterNet, Transition, accepts, validate
from counternet.fileformat import emit_machine_file
from counternet.zoo import (
    SEGMENT_ALPHABET,
    build_partition_net,
    build_selector_dcn,
    build_shared_budget,
)
from randnets import LETTERS, random_cn, random_dcn


def short_words(letters, max_len):
    for n in range(max_len + 1):
        yield from cartesian(letters, repeat=n)


# --- trim -----------------------------------------------------------------

def test_trim_keeps_the_language_on_random_nets():
    rng = random.Random(2307)
    shrank = 0
    for _ in range(300):
        net = random_cn(rng, dim=rng.randint(0, 2))
        trimmed = trim(net)
        assert trim(trimmed) is trimmed
        shrank += trimmed is not net
        for w in short_words(LETTERS, 4):
            assert accepts(trimmed, w) == accepts(net, w), (net, w)
    assert shrank > 0


# --- product --------------------------------------------------------------

def test_product_requires_common_alphabet():
    main, bb, _ = build_shared_budget()
    other = build_selector_dcn(1)
    with pytest.raises(ValueError):
        product(bb, other)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_product_is_intersection(seed):
    rng = random.Random(seed)
    a = random_cn(rng, dim=1)
    b = random_cn(rng, dim=2)
    ab = product(a, b)
    assert ab.dimension == 3
    for w in short_words(LETTERS, 4):
        assert accepts(ab, w) == (accepts(a, w) and accepts(b, w)), w


def test_product_is_deterministic_output():
    rng = random.Random(7)
    a, b = random_cn(rng, dim=1), random_cn(rng, dim=1)
    assert product(a, b) == product(a, b)


def test_budget_factors_multiply_back_to_main():
    main, bb, bc = build_shared_budget()
    rep = compare_nets_walk(product(bb, bc), main, max_len=8)
    assert rep.verdict == "equal"


def test_product_all_folds_left():
    main, bb, bc = build_shared_budget()
    both = product_all([bb, bc])
    assert both.dimension == 2
    with pytest.raises(ValueError):
        product_all([])


# --- project --------------------------------------------------------------

def test_project_coordinate_range():
    p = build_partition_net()
    with pytest.raises(ValueError):
        project(p, 0)
    with pytest.raises(ValueError):
        project(p, 3)


def test_project_identity_on_one_dim():
    _, bb, _ = build_shared_budget()
    assert project(bb, 1) is bb


def test_project_selector_keeps_one_constraint():
    # dropping the other counters leaves exactly the chosen-coordinate bound
    dcn = build_selector_dcn(3)
    for coord in (1, 2, 3):
        pj = project(dcn, coord)
        assert pj.dimension == 1
        rep = bounded_compare(
            pj,
            lambda sw, c=coord: sw.choice != c or sw.blocks[c - 1] >= sw.tail,
            selector_box(3, 4),
        )
        assert rep.verdict == "equal", (coord, rep.counterexample)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_projection_only_relaxes(seed):
    rng = random.Random(seed)
    net = random_cn(rng, dim=2)
    pjs = [project(net, 1), project(net, 2)]
    for w in short_words(LETTERS, 4):
        if accepts(net, w):
            assert all(accepts(pj, w) for pj in pjs), w


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_intersection_of_projections_contains_original(seed):
    rng = random.Random(seed)
    net = random_dcn(rng, dim=2)
    pp = product(project(net, 1), project(net, 2))
    rep = compare_nets_walk(net, pp, max_len=4, node_cap=50_000)
    assert rep.verdict in ("equal", "right-only", "exhausted"), rep.counterexample


def test_partition_net_exceeds_its_own_projections():
    p = build_partition_net()
    pp = product(project(p, 1), project(p, 2))
    rep = compare_nets_walk(p, pp, max_len=4)
    assert rep.verdict == "right-only"
    assert rep.counterexample == ("a", "#", "b", "c")


# --- union ----------------------------------------------------------------

def test_union_checks_shapes():
    main, bb, bc = build_shared_budget()
    with pytest.raises(ValueError):
        union(main, bb)           # 2-dim vs 1-dim
    with pytest.raises(ValueError):
        union(bb, build_selector_dcn(1))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_union_is_union(seed):
    rng = random.Random(seed)
    a = random_cn(rng, dim=1)
    b = random_cn(rng, dim=1)
    u = union(a, b)
    assert u.dimension == 1
    for w in short_words(LETTERS, 4):
        assert accepts(u, w) == (accepts(a, w) or accepts(b, w)), w


# --- lift -----------------------------------------------------------------

def test_lift_identity():
    p = build_partition_net()
    assert lift(p, 2) is p


def test_lift_widens_effects():
    _, bb, _ = build_shared_budget()
    wide = lift(bb, 3, placement=(2,))
    assert wide.dimension == 3
    for t_old, t_new in zip(bb.transitions, wide.transitions):
        assert t_new.effect == (0, t_old.effect[0], 0)


def test_lift_permutes_coordinates():
    p = build_partition_net()
    moved = lift(p, 4, placement=(3, 1))
    assert moved.dimension == 4
    for t_old, t_new in zip(p.transitions, moved.transitions):
        assert t_new.effect[2] == t_old.effect[0]
        assert t_new.effect[0] == t_old.effect[1]
        assert t_new.effect[1] == t_new.effect[3] == 0


def test_lift_preserves_language():
    p = build_partition_net()
    moved = lift(p, 4, placement=(3, 1))
    for text in ("", "#", "a#bc", "a#a#bc", "a#b", "ba"):
        w = tuple(text)
        assert accepts(moved, w) == accepts(p, w), text


def test_lift_rejects_bad_placements():
    p = build_partition_net()
    with pytest.raises(ValueError):
        lift(p, 1)
    with pytest.raises(ValueError):
        lift(p, 3, placement=(1,))
    with pytest.raises(ValueError):
        lift(p, 3, placement=(2, 2))
    with pytest.raises(ValueError):
        lift(p, 3, placement=(0, 1))


# --- containment gadget -----------------------------------------------------

def _ge_net():
    # d^n e^m with n >= m; counts d's up, pays them back on e's
    return validate(CounterNet(
        name="ge", dimension=1, alphabet=frozenset("de"),
        states=("dd", "ee"), initial=("dd",), accepting=("dd", "ee"),
        transitions=(
            Transition("dd", "d", (1,), "dd"),
            Transition("dd", "e", (-1,), "ee"),
            Transition("ee", "e", (-1,), "ee"),
        )))


def _universal_net():
    return validate(CounterNet(
        name="univ", dimension=1, alphabet=frozenset("de"),
        states=("u",), initial=("u",), accepting=("u",),
        transitions=(
            Transition("u", "d", (0,), "u"),
            Transition("u", "e", (0,), "u"),
        )))


def _shape(w):
    # u $ v with u over {d, e} and v over the segment letters
    if w.count(GADGET_SEPARATOR) != 1:
        return False
    cut = w.index(GADGET_SEPARATOR)
    return all(x in "de" for x in w[:cut]) and all(x in "abc#" for x in w[cut + 1:])


def test_gadget_rejects_bad_inputs():
    p = build_partition_net()
    with pytest.raises(ValueError):
        build_reduction(p, p)       # 2-dim
    ge, univ = _ge_net(), _universal_net()
    with pytest.raises(ValueError):
        build_reduction(ge, build_selector_dcn(1))
    clash = validate(CounterNet(
        name="clash", dimension=1, alphabet=frozenset("da"),
        states=("q",), initial=("q",), accepting=("q",),
        transitions=(Transition("q", "d", (0,), "q"), Transition("q", "a", (0,), "q"))))
    with pytest.raises(ValueError):
        build_reduction(clash, clash)


def test_gadget_contained_pair_is_exactly_the_shape():
    # L(ge) is contained in L(univ), so membership degenerates to the
    # two-part shape; swept exhaustively over every word up to length 4
    gadget = build_reduction(_ge_net(), _universal_net())
    for w in short_words(sorted(gadget.alphabet), 4):
        assert accepts(gadget, w) == _shape(w), w


def test_gadget_swapped_pair_leaks_a_witness():
    # L(univ) is not contained in L(ge); the gadget accepts e$ even though
    # e$ is outside { u $ v : u in L(ge), v over segment letters }
    gadget = build_reduction(_universal_net(), _ge_net())
    witness = ("e", GADGET_SEPARATOR)
    assert accepts(gadget, witness)
    assert not accepts(_ge_net(), ("e",))
    assert len(witness) <= 12


def test_gadget_hands_over_the_leftover_counter():
    # first component's unspent counter funds the tail language
    rejecting = validate(CounterNet(
        name="reject-all", dimension=1, alphabet=frozenset("de"),
        states=("z",), initial=("z",), accepting=(),
        transitions=(Transition("z", "d", (0,), "z"), Transition("z", "e", (0,), "z"))))
    gadget = build_reduction(_ge_net(), rejecting)
    assert accepts(gadget, ("d", GADGET_SEPARATOR, "b"))
    assert not accepts(gadget, (GADGET_SEPARATOR, "b"))
    assert accepts(gadget, (GADGET_SEPARATOR,))


def _gadget_by_hand(a, b):
    """Reference for build_reduction on valid inputs: rename both inputs
    apart, widen their effects to two counters, add the partition copy,
    the $ edges and the sink, all in build_reduction's order."""
    part = build_partition_net()
    la = {q: f"A.{q}" for q in a.states}
    lb = {q: f"B.{q}" for q in b.states}
    lp = {q: f"P.{q}" for q in part.states}
    ts = [Transition(la[t.source], t.letter, (t.effect[0], 0), la[t.target]) for t in a.transitions]
    ts += [Transition(lb[t.source], t.letter, (t.effect[0], 0), lb[t.target]) for t in b.transitions]
    ts += [Transition(lp[t.source], t.letter, t.effect, lp[t.target]) for t in part.transitions]
    ts += [Transition(la[q], GADGET_SEPARATOR, (0, 0), lp[p0])
           for q in a.states if q in a.accepting for p0 in part.states if p0 in part.initial]
    ts += [Transition(lb[q], GADGET_SEPARATOR, (0, 0), "sink") for q in b.states if q in b.accepting]
    ts += [Transition("sink", letter, (0, 0), "sink") for letter in sorted(SEGMENT_ALPHABET)]
    return validate(CounterNet(
        name=f"gadget({a.name},{b.name})",
        dimension=2,
        alphabet=a.alphabet | SEGMENT_ALPHABET | {GADGET_SEPARATOR},
        states=(*la.values(), *lb.values(), *lp.values(), "sink"),
        initial=[la[q] for q in a.initial] + [lb[q] for q in b.initial],
        accepting=[lp[q] for q in part.accepting] + ["sink"],
        transitions=ts,
    ))


def test_gadget_matches_hand_built_gadget_on_random_pairs():
    # the inputs share state names, so the renaming apart is exercised
    rng = random.Random(2307)
    for _ in range(300):
        a, b = random_cn(rng, 1, name="left"), random_cn(rng, 1, name="right")
        assert emit_machine_file([build_reduction(a, b)]) == emit_machine_file([_gadget_by_hand(a, b)])
