"""Composing counter nets: synchronous product, trimming, coordinate
projection, disjoint union, dimension lifting, and the containment gadget
that turns a one-counter containment question into a language
decomposition question.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from functools import reduce
from operator import index
from typing import Optional, Sequence

from .core import CounterNet, Transition, validate
from .zoo import SEGMENT_ALPHABET, build_partition_net


def product(a: CounterNet, b: CounterNet) -> CounterNet:
    """Synchronous product over a common alphabet.

    Dimension adds up, effects concatenate, and a word is accepted by the
    product iff both components accept it.  Only pairs reachable in the
    underlying state graph are kept.  A pair (p, q) is named p~q, plus ~i
    (i its breadth-first index) while that name is taken already.
    """
    if a.alphabet != b.alphabet:
        raise ValueError("product requires a common alphabet")
    seen: dict[tuple[str, str], str] = {}  # pair -> name
    rank: dict[str, int] = {}  # name -> breadth-first index
    queue = deque()

    def visit(pair: tuple[str, str]) -> str:
        if pair not in seen:
            name = f"{pair[0]}~{pair[1]}"
            while name in rank:
                name += f"~{len(rank)}"
            rank[name] = len(rank)
            seen[pair] = name
            queue.append(pair)
        return seen[pair]

    initial = [visit((p, q)) for p in a.states if p in a.initial for q in b.states if q in b.initial]
    letters = sorted(a.alphabet)
    transitions: list[Transition] = []
    while queue:
        p, q = pair = queue.popleft()
        for letter in letters:
            for ta in a.step_table.get((p, letter), ()):
                for tb in b.step_table.get((q, letter), ()):
                    target = visit((ta.target, tb.target))
                    transitions.append(Transition(seen[pair], letter, ta.effect + tb.effect, target))
    transitions.sort(key=lambda t: (rank[t.source], t.letter, rank[t.target]))
    return validate(CounterNet(
        name=f"product({a.name},{b.name})",
        dimension=a.dimension + b.dimension,
        alphabet=a.alphabet,
        states=tuple(rank),
        initial=initial,
        accepting=tuple(name for (p, q), name in seen.items() if p in a.accepting and q in b.accepting),
        transitions=tuple(transitions),
    ))


def product_all(nets: Sequence[CounterNet]) -> CounterNet:
    """Left fold of the binary product; at least one net required."""
    if not nets:
        raise ValueError("product of zero nets is undefined")
    return reduce(product, nets)


def trim(net: CounterNet) -> CounterNet:
    """Drop the states no accepting run can visit: keep the initial states
    and every state on some path from an initial to an accepting state of
    the transition graph, counters ignored, with the transitions between
    kept states.  The language is unchanged.  Returns net itself when
    nothing drops."""
    succ: dict[str, set[str]] = {}
    pred: dict[str, set[str]] = {}
    for t in net.transitions:
        succ.setdefault(t.source, set()).add(t.target)
        pred.setdefault(t.target, set()).add(t.source)

    def reach(start: frozenset[str], edges: dict[str, set[str]]) -> set[str]:
        seen, todo = set(start), list(start)
        while todo:
            for r in edges.get(todo.pop(), ()):
                if r not in seen:
                    seen.add(r)
                    todo.append(r)
        return seen

    keep = net.initial | (reach(net.initial, succ) & reach(net.accepting, pred))
    if len(keep) == len(net.states):
        return net
    return validate(replace(
        net,
        name=f"trim({net.name})",
        states=tuple(q for q in net.states if q in keep),
        accepting=net.accepting & keep,
        transitions=tuple(t for t in net.transitions if t.source in keep and t.target in keep),
    ))


def project(net: CounterNet, coordinate: int) -> CounterNet:
    """Keep only the given 1-based counter coordinate.

    The projection is always defined; language equality with intersections
    of projections is a separate, deterministic-only matter.  Projecting a
    1-dimensional net onto coordinate 1 is the identity.
    """
    if not 1 <= coordinate <= net.dimension:
        raise ValueError(f"coordinate {coordinate} out of range for dimension {net.dimension}")
    if net.dimension == 1 and coordinate == 1:
        return net
    return validate(replace(
        net,
        name=f"{net.name}|{coordinate}",
        dimension=1,
        transitions=tuple(replace(t, effect=(t.effect[coordinate - 1],)) for t in net.transitions),
    ))


def _renamed(net: CounterNet, tag: str) -> CounterNet:
    """net with each state q renamed tag.q, so nets renamed with different
    tags share no state."""
    new = {q: f"{tag}.{q}" for q in net.states}
    return replace(
        net,
        states=tuple(new.values()),
        initial=[new[q] for q in net.initial],
        accepting=[new[q] for q in net.accepting],
        transitions=tuple(replace(t, source=new[t.source], target=new[t.target]) for t in net.transitions),
    )


def union(a: CounterNet, b: CounterNet) -> CounterNet:
    """Disjoint union: same dimension and alphabet, states renamed apart,
    initial and accepting sets united."""
    if a.dimension != b.dimension:
        raise ValueError("union requires equal dimensions")
    if a.alphabet != b.alphabet:
        raise ValueError("union requires a common alphabet")
    a, b = _renamed(a, "A"), _renamed(b, "B")
    return validate(replace(
        a,
        name=f"union({a.name},{b.name})",
        states=a.states + b.states,
        initial=a.initial | b.initial,
        accepting=a.accepting | b.accepting,
        transitions=a.transitions + b.transitions,
    ))


def lift(net: CounterNet, target_dim: int, placement: Optional[Sequence[int]] = None) -> CounterNet:
    """Embed a k-dimensional net into target_dim >= k dimensions.

    placement gives the 1-based target coordinate of each original
    coordinate (default: identity).  New coordinates are never touched, so
    the language is unchanged.  Identity lifts return the net itself.
    """
    k = net.dimension
    if target_dim < k:
        raise ValueError("target dimension smaller than the net's dimension")
    identity = tuple(range(1, k + 1))
    placement = identity if placement is None else tuple(map(index, placement))
    if len(placement) != k:
        raise ValueError("placement must list one target coordinate per original coordinate")
    if len(set(placement)) != k:
        raise ValueError("placement coordinates must be distinct")
    if any(not 1 <= p <= target_dim for p in placement):
        raise ValueError("placement coordinate out of range")
    if target_dim == k and placement == identity:
        return net

    def widen(effect: tuple[int, ...]) -> tuple[int, ...]:
        out = [0] * target_dim
        for value, pos in zip(effect, placement):
            out[pos - 1] = value
        return tuple(out)

    return validate(replace(
        net,
        name=f"lift({net.name},{target_dim})",
        dimension=target_dim,
        transitions=tuple(replace(t, effect=widen(t.effect)) for t in net.transitions),
    ))


GADGET_SEPARATOR = "$"


def build_reduction(a: CounterNet, b: CounterNet) -> CounterNet:
    """Containment gadget for two 1-counter nets over a shared alphabet.

    The result C is a 2-counter net over Sigma + {a,b,c,#} + {$} with

        L(C) = { u $ v | u in L(b), v in (a|b|c|#)* }

    exactly when L(a) is contained in L(b).  Reading u through the lifted
    copy of `a` and crossing $ hands a's leftover counter to the partition
    net, so any violation of the containment surfaces as a word u$v whose
    tail v is constrained by the partition language.  Accepting states are
    the partition net's accepting states and a fresh sink fed from b.
    """
    if a.dimension != 1 or b.dimension != 1:
        raise ValueError("the gadget takes 1-counter nets")
    if a.alphabet != b.alphabet:
        raise ValueError("the gadget requires a common alphabet")
    reserved = SEGMENT_ALPHABET | {GADGET_SEPARATOR}
    if a.alphabet & reserved:
        raise ValueError("input alphabet must avoid a, b, c, #, $")

    part = _renamed(build_partition_net(), "P")
    both = union(lift(a, 2), lift(b, 2))
    n, sink, zero2 = len(a.states), "sink", (0, 0)  # both.states[:n] is the copy of a
    transitions = [*both.transitions, *part.transitions]
    transitions += (Transition(q, GADGET_SEPARATOR, zero2, p0) for q in both.states[:n] if q in both.accepting
                    for p0 in part.states if p0 in part.initial)
    transitions += (Transition(q, GADGET_SEPARATOR, zero2, sink) for q in both.states[n:] if q in both.accepting)
    transitions += (Transition(sink, letter, zero2, sink) for letter in sorted(SEGMENT_ALPHABET))
    return validate(replace(
        both,
        name=f"gadget({a.name},{b.name})",
        alphabet=a.alphabet | reserved,
        states=both.states + part.states + (sink,),
        accepting=part.accepting | {sink},
        transitions=tuple(transitions),
    ))
