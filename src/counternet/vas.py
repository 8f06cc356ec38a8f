"""Flattening a deterministic counter net into a single-state net.

Two stages.  distinct_label relabels a deterministic net so every
transition reads its own fresh letter, which makes words and transition
paths interchangeable.  vasify then folds the control states into three
extra counters: each state gets a pair of codes (a_i, b_i) chosen so that
no sum a_i + a_j or b_i + b_j collides with another code, and each
original transition becomes a three-letter protocol that swaps the source
code out and the target code in.  At rest exactly the first-phase letters
of transitions leaving the encoded state are enabled, so the single-state
net tracks the original control flow through counter values alone.

The flattened language provably contains words beyond the images of
original runs (the empty word, stopped protocols, interleavings from a
shared source); verify_pipeline reports these rather than failing them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from operator import add
from typing import Optional

from .core import (
    CounterNet,
    FrontierGraph,
    Transition,
    Vector,
    Word,
    is_deterministic,
    validate,
)

VAS_STATE = "u"

# the depth of check_gating's walk; a walk cut there reports itself incomplete
_GATING_DEPTH = 12
# the most valuations check_gating's walk keeps; past it the walk is incomplete
_GATING_NODES = 20000
# the longest flat words verify_pipeline counts as extras; longer ones go uncounted
_FLAT_LEN = 7


@dataclass(frozen=True)
class LabelMap:
    """Mapping from fresh letters back to the transitions they label."""

    net: CounterNet
    source: CounterNet
    letter_to_transition: dict[str, Transition]

    def original_letter(self, label: str) -> str:
        return self.letter_to_transition[label].letter

    def unlabel(self, word: Word) -> Word:
        return tuple(self.original_letter(x) for x in word)


def distinct_label(net: CounterNet) -> LabelMap:
    """Replace each transition's letter with a fresh one (g0, g1, ... by
    declaration order).  Requires a deterministic input; the relabelled
    net is then deterministic with a one-letter-per-transition alphabet,
    so accepted words and accepting paths are in bijection."""
    if not is_deterministic(net):
        raise ValueError("distinct labelling requires a deterministic net")
    mapping = {f"g{i}": t for i, t in enumerate(net.transitions)}
    labelled = validate(replace(
        net,
        name=f"{net.name}+labels",
        alphabet=frozenset(mapping),
        transitions=tuple(replace(t, letter=label) for label, t in mapping.items()),
    ))
    return LabelMap(labelled, net, mapping)


# ---------------------------------------------------------------------------
# single-state flattening

def state_codes(n: int) -> list[tuple[int, int]]:
    """Code pair (a_i, b_i) for each of n states, 1-based order:
    a_i = i and b_i = (n+1)(n+1-i).  All 2n codes are distinct and no
    code equals a sum of two codes from the same family, which is what
    makes the rest patterns unambiguous."""
    return [(i, (n + 1) * (n + 1 - i)) for i in range(1, n + 1)]


@dataclass(frozen=True)
class TripletInfo:
    """The three letters and control effects simulating one original
    transition."""

    transition: Transition
    letters: tuple[str, str, str]


@dataclass(frozen=True)
class VasResult:
    """The flattened net and its start vector.  patterns maps the control
    coordinates of every rest and intermediate pattern to (pattern, state)."""

    net: CounterNet
    initial: Vector
    patterns: dict[Vector, tuple[str, str]]
    triplets: tuple[TripletInfo, ...]
    source: CounterNet

    def triplet_for(self, letter: str) -> TripletInfo:
        for info in self.triplets:
            if letter in info.letters:
                return info
        raise KeyError(letter)


def vasify(net: CounterNet) -> VasResult:
    """Flatten a deterministic k-net with a single initial state into an
    equivalent-up-to-protocol single-state (k+3)-net.

    With (a_i, b_i) the codes of q_i and (a', b') those of its mirror
    index n+1-i, each state has three patterns in the added coordinates:

        rest(q_i) = (a_i, b_i, 0),  mid1(q_i) = (0, a', b'),  mid2(q_i) = (b_i, 0, a_i).

    Each original transition (q_i, s, x, q_j) is simulated by letters
    s_1 s_2 s_3 whose control effects are the pattern differences
    mid1(q_i) - rest(q_i), mid2(q_i) - mid1(q_i) and rest(q_j) - mid2(q_i),
    the last plus x on the original coordinates.  A completed protocol
    moves the encoded state from q_i to q_j, and the intermediate patterns
    enable exactly the next phase of transitions leaving q_i and nothing
    else.
    """
    if not is_deterministic(net):
        raise ValueError("flattening requires a deterministic net")
    codes = state_codes(len(net.states))
    control = {q: ((a, b, 0), (0, *codes[-1 - i]), (b, 0, a))  # rest, mid1, mid2
               for i, (q, (a, b)) in enumerate(zip(net.states, codes))}
    zeros = (0,) * net.dimension

    transitions: list[Transition] = []
    triplets: list[TripletInfo] = []
    for t in net.transitions:
        letters = triplet_transform((t.letter,))
        path = control[t.source] + control[t.target][:1]
        for letter, before, after, x in zip(letters, path, path[1:], (zeros, zeros, t.effect)):
            effect = x + tuple(b - a for a, b in zip(before, after))
            transitions.append(Transition(VAS_STATE, letter, effect, VAS_STATE))
        triplets.append(TripletInfo(t, letters))

    seen_letters = [t.letter for t in transitions]
    if len(set(seen_letters)) != len(seen_letters):
        raise ValueError("transition letters must be distinct; relabel first")

    flat = validate(CounterNet(
        name=f"{net.name}+flat",
        dimension=net.dimension + 3,
        alphabet=frozenset(seen_letters),
        states=(VAS_STATE,),
        initial=frozenset({VAS_STATE}),
        accepting=frozenset({VAS_STATE}),
        transitions=tuple(transitions),
    ))
    start = next(iter(net.initial))
    patterns = {p: (kind, q) for q, ps in control.items() for kind, p in zip(("rest", "mid1", "mid2"), ps)}
    return VasResult(flat, zeros + control[start][0], patterns, tuple(triplets), net)


def triplet_transform(word: Word, stop: int = 3) -> Word:
    """Expand each letter s to s_1 s_2 s_3, truncating the protocol of the
    final letter after `stop` phases (1, 2 or 3)."""
    if not 1 <= stop <= 3:
        raise ValueError("stop must be 1, 2 or 3")
    out: list[str] = []
    phases: dict[str, tuple[str, str, str]] = {}  # one string per phase letter, not per position
    for pos, letter in enumerate(word):
        trio = phases.get(letter) or phases.setdefault(letter, (f"{letter}_1", f"{letter}_2", f"{letter}_3"))
        out.extend(trio if pos < len(word) - 1 else trio[:stop])
    return tuple(out)


# ---------------------------------------------------------------------------
# pattern discipline

def classify_control(result: VasResult, valuation: Vector) -> Optional[tuple[str, str]]:
    """Match the last three coordinates against the rest and intermediate
    patterns.  Returns (pattern, state) or None.  The code scheme keeps
    the patterns pairwise distinct."""
    return result.patterns.get(tuple(valuation[-3:]))


def enabled_letters(result: VasResult, valuation: Vector) -> set[str]:
    return {t.letter for t in result.net.transitions if all(v + e >= 0 for v, e in zip(valuation, t.effect))}


def expected_enabled(result: VasResult, pattern: str, state: str) -> set[str]:
    """Letters the protocol discipline allows: at rest(q), phase-1 letters
    of transitions leaving q; after phase 1, their phase-2 letters; after
    phase 2, their phase-3 letters, ignoring original-coordinate gates."""
    phase = {"rest": 0, "mid1": 1, "mid2": 2}[pattern]
    return {info.letters[phase] for info in result.triplets if info.transition.source == state}


@dataclass(frozen=True)
class GatingViolation:
    valuation: Vector
    pattern: Optional[tuple[str, str]]
    enabled: set[str]
    expected: Optional[set[str]]


def check_gating(result: VasResult) -> tuple[list[GatingViolation], int, bool]:
    """Walk the reachable valuations of the flattened net and check the
    protocol discipline at every node: the control coordinates must match
    exactly one pattern, and the enabled letters must be the expected
    phase letters of that pattern, except that phase-3 letters may also
    be blocked by the original coordinates.

    The walk goes _GATING_DEPTH steps deep and keeps at most
    _GATING_NODES valuations.  Returns (violations, nodes visited, walk
    exhausted before caps).

    The work is indexed once per call: the expected letters of each
    pattern, and per control tuple val[k:] the transitions its control
    coordinates allow, so a node tests its original coordinates only on
    those.  Flat letters are distinct, so the enabled transitions are
    exactly those whose letter is enabled.
    """
    k = result.source.dimension
    expected_of = {p: expected_enabled(result, *p) for p in result.patterns.values()}
    by_control: dict[Vector, tuple[list[Transition], set[str]]] = {}
    seen = {result.initial}
    frontier = [result.initial]
    violations: list[GatingViolation] = []
    visited = 0
    complete = True
    node_cap = _GATING_NODES
    for _ in range(_GATING_DEPTH):
        if not frontier:
            break
        next_frontier = []
        for val in frontier:
            visited += 1
            control = val[k:]
            if control not in by_control:
                ts = [t for t in result.net.transitions if all(v + e >= 0 for v, e in zip(control, t.effect[k:]))]
                by_control[control] = (ts, {t.letter for t in ts})
            allowed, control_enabled = by_control[control]
            moves = [t for t in allowed if all(v + e >= 0 for v, e in zip(val[:k], t.effect))]
            enabled = {t.letter for t in moves}
            pattern = classify_control(result, val)
            if pattern is None:
                violations.append(GatingViolation(val, None, enabled, None))
                continue
            expected = expected_of[pattern]
            ok = control_enabled == expected and enabled <= expected
            if pattern[0] != "mid2" and enabled != expected:
                # phases 1 and 2 touch no original coordinate, so the
                # full enabled set must match exactly
                ok = False
            if not ok:
                violations.append(GatingViolation(val, pattern, enabled, expected))
            for t in moves:
                succ = tuple(map(add, val, t.effect))
                if succ not in seen:
                    seen.add(succ)
                    if len(seen) > node_cap:
                        complete = False
                    else:
                        next_frontier.append(succ)
        frontier = next_frontier
    if frontier:
        complete = False
    return violations, visited, complete


# ---------------------------------------------------------------------------
# end-to-end pipeline check

@dataclass(frozen=True)
class PipelineReport:
    labelled_matches: bool
    containment_ok: bool
    containment_failures: tuple[Word, ...]
    extra_members: tuple[Word, ...]
    extra_count: int
    gating_ok: bool
    gating_violations: int
    stats: dict


def verify_pipeline(net: CounterNet, max_len: int = 6) -> PipelineReport:
    """Run both pipeline stages on a deterministic net and cross-check.

    labelled_matches: the relabelled net's bounded language maps back
    onto the original's, bijectively.  containment_ok: for every short
    word of the relabelled net, all three phase prefixes of its protocol
    expansion are accepted by the flattened net.  extra_members: words
    of at most _FLAT_LEN letters that the flattened net accepts and that
    are not phase prefixes of protocol expansions; these are inherent to
    the flattening and only reported.  gating: pattern and enabled-letter
    discipline over the valuations check_gating reaches.
    """
    if max_len < 0:
        raise ValueError(f"word length bound must be >= 0, got {max_len}")
    labels = distinct_label(net)
    result = vasify(labels.net)

    lab_words = FrontierGraph(labels.net).words(max_len)
    orig_words = {w for w in map(labels.unlabel, lab_words)}
    direct = FrontierGraph(net).words(max_len)
    # unlabelling must be injective here: one accepted path per word
    labelled_matches = orig_words == direct and len(lab_words) == len(orig_words)

    failures: list[Word] = []
    # the phase prefixes are distinct (each spells its word and stop back),
    # so counting them counts the distinct ones; only those a flat word of
    # at most _FLAT_LEN letters can equal are kept
    flat_len = _FLAT_LEN
    expanded = 0
    short: set[Word] = {()}
    flat = FrontierGraph(result.net, result.initial)
    for w in sorted(lab_words, key=lambda x: (len(x), x)):
        for stop in (1, 2, 3):
            if not w and stop > 1:
                continue
            pref = triplet_transform(w, stop)
            expanded += 1
            if len(pref) <= flat_len:
                short.add(pref)
            if not flat.accepts(pref):
                failures.append(pref)

    flat_words = flat.words(flat_len)
    extras = [w for w in flat_words if w not in short]

    violations, visited, complete = check_gating(result)
    return PipelineReport(
        labelled_matches=labelled_matches,
        containment_ok=not failures,
        containment_failures=tuple(failures),
        extra_members=tuple(heapq.nsmallest(20, extras, key=lambda x: (len(x), x))),
        extra_count=len(extras),
        gating_ok=not violations,
        gating_violations=len(violations),
        stats={
            "labelled_words": len(lab_words),
            "flat_words": len(flat_words),
            "expanded_prefixes": expanded,
            "gating_nodes": visited,
            "gating_complete": complete,
        },
    )

