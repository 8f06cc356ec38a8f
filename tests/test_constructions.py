import random
from collections import deque
from itertools import product as cartesian

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counternet import analysis
from counternet.analysis import all_words, bounded_compare, compare_nets_walk, selector_box
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
from counternet.fileformat import emit_machine_file, parse_machine_file
from counternet.vas import distinct_label
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


def test_product_names_pairs_apart_when_state_names_hold_the_separator():
    # (p, q~r) and (p~q, r) would both be named p~q~r
    a, b = parse_machine_file(
        "cn a\ndim 0\nalphabet x\ninit p p~q\naccept p\ntrans p x p~q\nend\n"
        "cn b\ndim 0\nalphabet x\ninit q~r r\naccept r\ntrans r x q~r\nend\n")
    ab = product(a, b)
    assert ab.states == ("p~q~r", "p~r", "p~q~q~r", "p~q~r~3")
    for w in short_words(("x",), 3):
        assert accepts(ab, w) == (accepts(a, w) and accepts(b, w)), w
    assert bounded_compare(a, [a, b], all_words(a.alphabet, 2)).verdict == "equal"


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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_WALK_NODES", 50_000)
        rep = compare_nets_walk(net, pp, max_len=4)
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
    with pytest.raises(TypeError):
        lift(p, 3, placement=(2.5, 1))  # not truncated to (2, 1)


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


# --- derived constructions against hand-built references -------------------
# Each reference spells out every field of the net it builds, as the
# constructions once did, so these tests pin the emitted bytes.

def _product_by_hand(a, b):
    """Reference for product on nets whose pair names p~q never collide."""
    seen = {}
    queue = deque()
    for pair in ((p, q) for p in a.states if p in a.initial for q in b.states if q in b.initial):
        seen[pair] = f"{pair[0]}~{pair[1]}"
        queue.append(pair)
    transitions = []
    while queue:
        p, q = queue.popleft()
        for letter in sorted(a.alphabet):
            for ta in (t for t in a.transitions if t.source == p and t.letter == letter):
                for tb in (t for t in b.transitions if t.source == q and t.letter == letter):
                    nxt = (ta.target, tb.target)
                    if nxt not in seen:
                        seen[nxt] = f"{nxt[0]}~{nxt[1]}"
                        queue.append(nxt)
                    transitions.append(Transition(seen[(p, q)], letter, ta.effect + tb.effect, seen[nxt]))
    rank = {name: i for i, name in enumerate(seen.values())}
    transitions.sort(key=lambda t: (rank[t.source], t.letter, rank[t.target]))
    return validate(CounterNet(
        name=f"product({a.name},{b.name})",
        dimension=a.dimension + b.dimension,
        alphabet=a.alphabet,
        states=tuple(seen.values()),
        initial=[seen[(p, q)] for (p, q) in seen if p in a.initial and q in b.initial],
        accepting=[seen[(p, q)] for (p, q) in seen if p in a.accepting and q in b.accepting],
        transitions=transitions,
    ))


def _union_by_hand(a, b):
    la = {q: f"A.{q}" for q in a.states}
    lb = {q: f"B.{q}" for q in b.states}
    return validate(CounterNet(
        name=f"union({a.name},{b.name})",
        dimension=a.dimension,
        alphabet=a.alphabet,
        states=(*la.values(), *lb.values()),
        initial=[la[q] for q in a.initial] + [lb[q] for q in b.initial],
        accepting=[la[q] for q in a.accepting] + [lb[q] for q in b.accepting],
        transitions=[Transition(la[t.source], t.letter, t.effect, la[t.target]) for t in a.transitions]
        + [Transition(lb[t.source], t.letter, t.effect, lb[t.target]) for t in b.transitions],
    ))


def _trim_by_hand(net):
    """Reference for trim: a state is kept when it is initial, or both
    reachable from an initial state and co-reachable from an accepting one."""
    def closure(start, step):
        found = set(start)
        while True:
            more = {step(t)[1] for t in net.transitions if step(t)[0] in found} - found
            if not more:
                return found
            found |= more
    keep = net.initial | (closure(net.initial, lambda t: (t.source, t.target))
                          & closure(net.accepting, lambda t: (t.target, t.source)))
    if keep == set(net.states):
        return net
    return validate(CounterNet(
        name=f"trim({net.name})",
        dimension=net.dimension,
        alphabet=net.alphabet,
        states=[q for q in net.states if q in keep],
        initial=net.initial,
        accepting=net.accepting & keep,
        transitions=[t for t in net.transitions if t.source in keep and t.target in keep],
    ))


def _project_by_hand(net, coordinate):
    if net.dimension == 1:
        return net
    return validate(CounterNet(
        name=f"{net.name}|{coordinate}",
        dimension=1,
        alphabet=net.alphabet,
        states=net.states,
        initial=net.initial,
        accepting=net.accepting,
        transitions=[Transition(t.source, t.letter, (t.effect[coordinate - 1],), t.target)
                     for t in net.transitions],
    ))


def _lift_by_hand(net, target_dim, placement=None):
    placement = tuple(range(1, net.dimension + 1)) if placement is None else tuple(placement)
    if target_dim == net.dimension and placement == tuple(range(1, net.dimension + 1)):
        return net
    return validate(CounterNet(
        name=f"lift({net.name},{target_dim})",
        dimension=target_dim,
        alphabet=net.alphabet,
        states=net.states,
        initial=net.initial,
        accepting=net.accepting,
        transitions=[Transition(t.source, t.letter,
                                tuple(t.effect[placement.index(j)] if j in placement else 0
                                      for j in range(1, target_dim + 1)), t.target)
                     for t in net.transitions],
    ))


def _labelled_by_hand(net):
    """Reference for distinct_label(net).net."""
    return validate(CounterNet(
        name=f"{net.name}+labels",
        dimension=net.dimension,
        alphabet=[f"g{i}" for i in range(len(net.transitions))],
        states=net.states,
        initial=net.initial,
        accepting=net.accepting,
        transitions=[Transition(t.source, f"g{i}", t.effect, t.target) for i, t in enumerate(net.transitions)],
    ))


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


def _one_counter(rng, dim, name):
    return random_cn(rng, 1, name=name)


# (inputs, library construction, reference, the calls made on each pair)
_REFERENCE_CASES = {
    "product": (random_cn, product, _product_by_hand, lambda f, a, b: [f(a, b), f(b, a)]),
    "union": (random_cn, union, _union_by_hand, lambda f, a, b: [f(a, b)]),
    "trim": (random_cn, trim, _trim_by_hand, lambda f, a, b: [f(a), f(b)]),
    "project": (random_cn, project, _project_by_hand,
                lambda f, a, b: [f(a, c) for c in range(1, a.dimension + 1)]),
    "lift": (random_cn, lift, _lift_by_hand,
             lambda f, a, b: [f(a, a.dimension + 1), f(a, a.dimension + 2, range(a.dimension + 2, 2, -1))]),
    "distinct_label": (random_dcn, lambda net: distinct_label(net).net, _labelled_by_hand,
                       lambda f, a, b: [f(a), f(b)]),
    "gadget": (_one_counter, build_reduction, _gadget_by_hand, lambda f, a, b: [f(a, b)]),
}


@pytest.mark.parametrize("case", list(_REFERENCE_CASES))
def test_construction_matches_hand_built_reference(case):
    # the inputs share state names, so the renaming apart is exercised;
    # the second lift places the coordinates in reverse after two new ones
    make, build, by_hand, calls = _REFERENCE_CASES[case]
    rng = random.Random(2307)
    derived = 0
    for i in range(300):
        a, b = make(rng, i % 4, name="left"), make(rng, i % 4, name="right")
        ours = calls(build, a, b)
        assert emit_machine_file(ours) == emit_machine_file(calls(by_hand, a, b)), (a, b)
        derived += any(net is not a and net is not b for net in ours)
    assert derived > 0  # not every call took a return-the-input shortcut
