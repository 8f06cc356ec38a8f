"""Composing counter nets: synchronous product, trimming, coordinate
projection, disjoint union, dimension lifting, and the containment gadget
that turns a one-counter containment question into a language
decomposition question.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

from .core import CounterNet, Transition, validate
from .zoo import SEGMENT_ALPHABET, build_partition_net


def product(a: CounterNet, b: CounterNet) -> CounterNet:
    """Synchronous product over a common alphabet.

    Dimension adds up, effects concatenate, and a word is accepted by the
    product iff both components accept it.  Only pairs reachable in the
    underlying state graph are kept.
    """
    if a.alphabet != b.alphabet:
        raise ValueError("product requires a common alphabet")
    def pair_id(p: str, q: str) -> str:
        return f"{p}~{q}"

    start_pairs = [(p, q) for p in a.states if p in a.initial for q in b.states if q in b.initial]
    seen: dict[tuple[str, str], str] = {}
    order: list[tuple[str, str]] = []
    queue = deque()
    for pair in start_pairs:
        if pair not in seen:
            seen[pair] = pair_id(*pair)
            order.append(pair)
            queue.append(pair)
    letters = sorted(a.alphabet)
    transitions: list[Transition] = []
    while queue:
        p, q = queue.popleft()
        for letter in letters:
            for ta in a.step_table.get((p, letter), ()):
                for tb in b.step_table.get((q, letter), ()):
                    nxt = (ta.target, tb.target)
                    if nxt not in seen:
                        seen[nxt] = pair_id(*nxt)
                        order.append(nxt)
                        queue.append(nxt)
                    transitions.append(Transition(seen[(p, q)], letter, ta.effect + tb.effect, seen[nxt]))
    rank = {seen[pair]: i for i, pair in enumerate(order)}
    transitions.sort(key=lambda t: (rank[t.source], t.letter, rank[t.target]))
    return validate(CounterNet(
        name=f"product({a.name},{b.name})",
        dimension=a.dimension + b.dimension,
        alphabet=a.alphabet,
        states=tuple(seen[pair] for pair in order),
        initial=tuple(seen[pair] for pair in start_pairs),
        accepting=tuple(seen[(p, q)] for (p, q) in order
                        if p in a.accepting and q in b.accepting),
        transitions=tuple(transitions),
    ))


def product_all(nets: Sequence[CounterNet]) -> CounterNet:
    """Left fold of the binary product; at least one net required."""
    if not nets:
        raise ValueError("product of zero nets is undefined")
    acc = nets[0]
    for net in nets[1:]:
        acc = product(acc, net)
    return acc


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
    return validate(CounterNet(
        name=f"trim({net.name})",
        dimension=net.dimension,
        alphabet=net.alphabet,
        states=tuple(q for q in net.states if q in keep),
        initial=net.initial,
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
    i = coordinate - 1
    return validate(CounterNet(
        name=f"{net.name}|{coordinate}",
        dimension=1,
        alphabet=net.alphabet,
        states=net.states,
        initial=net.initial,
        accepting=net.accepting,
        transitions=tuple(
            Transition(t.source, t.letter, (t.effect[i],), t.target) for t in net.transitions),
    ))


def union(a: CounterNet, b: CounterNet) -> CounterNet:
    """Disjoint union: same dimension and alphabet, states renamed apart,
    initial and accepting sets united."""
    if a.dimension != b.dimension:
        raise ValueError("union requires equal dimensions")
    if a.alphabet != b.alphabet:
        raise ValueError("union requires a common alphabet")
    la = {q: f"A.{q}" for q in a.states}
    lb = {q: f"B.{q}" for q in b.states}
    return validate(CounterNet(
        name=f"union({a.name},{b.name})",
        dimension=a.dimension,
        alphabet=a.alphabet,
        states=tuple(la[q] for q in a.states) + tuple(lb[q] for q in b.states),
        initial=tuple(la[q] for q in a.states if q in a.initial)
        + tuple(lb[q] for q in b.states if q in b.initial),
        accepting=tuple(la[q] for q in a.states if q in a.accepting)
        + tuple(lb[q] for q in b.states if q in b.accepting),
        transitions=tuple(Transition(la[t.source], t.letter, t.effect, la[t.target])
                          for t in a.transitions)
        + tuple(Transition(lb[t.source], t.letter, t.effect, lb[t.target])
                for t in b.transitions),
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
    if placement is None:
        placement = tuple(range(1, k + 1))
    placement = tuple(int(p) for p in placement)
    if len(placement) != k:
        raise ValueError("placement must list one target coordinate per original coordinate")
    if len(set(placement)) != k:
        raise ValueError("placement coordinates must be distinct")
    if any(not 1 <= p <= target_dim for p in placement):
        raise ValueError("placement coordinate out of range")
    if target_dim == k and placement == tuple(range(1, k + 1)):
        return net

    def widen(effect: tuple[int, ...]) -> tuple[int, ...]:
        out = [0] * target_dim
        for value, pos in zip(effect, placement):
            out[pos - 1] = value
        return tuple(out)

    return validate(CounterNet(
        name=f"lift({net.name},{target_dim})",
        dimension=target_dim,
        alphabet=net.alphabet,
        states=net.states,
        initial=net.initial,
        accepting=net.accepting,
        transitions=tuple(Transition(t.source, t.letter, widen(t.effect), t.target)
                          for t in net.transitions),
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

    part = build_partition_net()
    both = union(lift(a, 2), lift(b, 2))
    la = dict(zip(a.states, both.states))
    lb = dict(zip(b.states, both.states[len(a.states):]))
    lp = {q: f"P.{q}" for q in part.states}
    sink, zero2 = "sink", (0, 0)
    transitions = [*both.transitions]
    transitions += (Transition(lp[t.source], t.letter, t.effect, lp[t.target]) for t in part.transitions)
    transitions += (Transition(la[q], GADGET_SEPARATOR, zero2, lp[p0]) for q in a.states if q in a.accepting
                    for p0 in part.states if p0 in part.initial)
    transitions += (Transition(lb[q], GADGET_SEPARATOR, zero2, sink) for q in b.states if q in b.accepting)
    transitions += (Transition(sink, letter, zero2, sink) for letter in sorted(SEGMENT_ALPHABET))
    return validate(CounterNet(
        name=f"gadget({a.name},{b.name})",
        dimension=2,
        alphabet=a.alphabet | reserved,
        states=both.states + tuple(lp[q] for q in part.states) + (sink,),
        initial=both.initial,
        accepting=tuple(lp[q] for q in part.states if q in part.accepting) + (sink,),
        transitions=tuple(transitions),
    ))
