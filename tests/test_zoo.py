import hashlib
import random
from dataclasses import fields
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counternet.analysis import bounded_compare, paired_box, segmented_box, selector_box
from counternet.core import CounterNet, Transition, accepts, is_deterministic, validate
from counternet.fileformat import emit_machine_file, parse_machine_file
from counternet.zoo import (
    FAMILIES,
    PairedBlockWord,
    PartitionKWord,
    SEGMENT_ALPHABET,
    SegmentedWord,
    SelectorWord,
    build_coarse_factors,
    build_paired_dcn,
    build_partition_k,
    build_partition_net,
    build_selector_dcn,
    build_selector_ncn,
    build_shared_budget,
    paired_oracle,
    parse_segmented,
    partition_k_oracle,
    partition_k_oracle_bruteforce,
    partition_oracle,
    render_paired,
    render_partition_k,
    render_segmented,
    render_selector,
    segmented_runs,
    selector_oracle,
    shared_budget_oracle,
)


def word(text: str) -> tuple[str, ...]:
    return tuple(text)


# --- segmented words ----------------------------------------------------

def test_render_segmented():
    sw = SegmentedWord((2, 0, 1), 2, 1)
    assert render_segmented(sw) == word("aa##a#bbc")


def test_parse_render_roundtrip():
    for sw in (SegmentedWord((), 0, 0), SegmentedWord((3,), 1, 2),
               SegmentedWord((0, 0), 0, 5), SegmentedWord((1, 2, 3), 6, 0)):
        assert parse_segmented(render_segmented(sw)) == sw


@pytest.mark.parametrize("params", [((-1,), 0, 0), ((1, 2), -1, 0), ((), 0, -1)],
                         ids=["segment", "m_b", "m_c"])
def test_segmented_word_refuses_a_negative_parameter(params):
    with pytest.raises(ValueError, match="must be non-negative"):
        SegmentedWord(*params)


@pytest.mark.parametrize("params", [((1.9, 2), 0, 0), ((1,), 1.5, 0), ((), 0, 2.0)],
                         ids=["segment", "m_b", "m_c"])
def test_segmented_word_refuses_a_non_integer_parameter(params):
    with pytest.raises(TypeError):
        SegmentedWord(*params)


def test_segmented_word_stores_ints():
    sw = SegmentedWord((True, 2), True, False)
    assert sw == SegmentedWord((1, 2), 1, 0)
    assert {type(x) for x in (*sw.segments, sw.m_b, sw.m_c)} == {int}


def test_parse_segmented_rejects_missing_terminator():
    with pytest.raises(ValueError) as err:
        parse_segmented(word("aab"))
    assert "position 2" in str(err.value)


def test_parse_segmented_rejects_a_after_b():
    with pytest.raises(ValueError):
        parse_segmented(word("a#ba"))


def test_parse_segmented_rejects_b_after_c():
    with pytest.raises(ValueError):
        parse_segmented(word("a#cb"))


@given(st.lists(st.integers(0, 5), max_size=4), st.integers(0, 5), st.integers(0, 5))
def test_parse_render_roundtrip_property(segs, m_b, m_c):
    sw = SegmentedWord(tuple(segs), m_b, m_c)
    assert parse_segmented(render_segmented(sw)) == sw


# The hand scanner parse_segmented was before it became one fullmatch,
# kept as the reference for its results and its error texts.

def reference_parse_segmented(word):
    segments = []
    m_b = m_c = 0
    phase = "seg"  # seg -> b -> c
    count = 0
    for pos, letter in enumerate(word):
        if letter not in SEGMENT_ALPHABET:
            raise ValueError(f"position {pos}: letter {letter!r} outside a/b/c/#")
        if phase == "seg":
            if letter == "a":
                count += 1
            elif letter == "#":
                segments.append(count)
                count = 0
            elif letter == "b":
                if count:
                    raise ValueError(f"position {pos}: segment not closed by '#'")
                phase = "b"
                m_b = 1
            else:  # c
                if count:
                    raise ValueError(f"position {pos}: segment not closed by '#'")
                phase = "c"
                m_c = 1
        elif phase == "b":
            if letter == "b":
                m_b += 1
            elif letter == "c":
                phase = "c"
                m_c = 1
            else:
                raise ValueError(f"position {pos}: {letter!r} after the b block")
        else:
            if letter == "c":
                m_c += 1
            else:
                raise ValueError(f"position {pos}: {letter!r} after the c block")
    if phase == "seg" and count:
        raise ValueError(f"position {len(word)}: unterminated segment")
    return SegmentedWord(tuple(segments), m_b, m_c)


def _parsed(parse, word):
    try:
        return parse(word)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("letters, max_len", [
    ("abc#", 8),  # 87,381 words
    (("a", "b", "c", "#", "x", "ab", ""), 5),  # letters outside the alphabet, before and after misplaced ones
])
def test_parse_segmented_matches_the_hand_scanner(letters, max_len):
    words = (w for n in range(max_len + 1) for w in product(letters, repeat=n))
    mismatches = [w for w in words
                  if _parsed(parse_segmented, w) != _parsed(reference_parse_segmented, w)]
    assert mismatches == []


def test_parse_segmented_messages():
    cases = {"aab": "position 2: segment not closed by '#'",
             "a#ba": "position 3: 'a' after the b block",
             "a#cb": "position 3: 'b' after the c block",
             "#aa": "position 3: unterminated segment",
             "a#x": "position 2: letter 'x' outside a/b/c/#"}
    for text, message in cases.items():
        with pytest.raises(ValueError) as err:
            parse_segmented(word(text))
        assert str(err.value) == message


# --- the partition oracle -----------------------------------------------

def test_partition_oracle_golden_cases():
    assert partition_oracle(SegmentedWord((10, 20, 15), 15, 30))
    assert not partition_oracle(SegmentedWord((10, 20, 15), 21, 21))


def test_partition_oracle_small_cases():
    assert partition_oracle(SegmentedWord((), 0, 0))          # empty split
    assert not partition_oracle(SegmentedWord((), 1, 0))
    assert partition_oracle(SegmentedWord((1,), 1, 0))
    assert partition_oracle(SegmentedWord((1,), 0, 1))
    assert not partition_oracle(SegmentedWord((1,), 1, 1))    # one segment, two debts
    assert not partition_oracle(SegmentedWord((1, 1), 2, 2))
    assert partition_oracle(SegmentedWord((2, 2), 2, 2))


def test_partition_oracle_is_monotone_in_segments():
    base = SegmentedWord((3, 1), 3, 1)
    assert partition_oracle(base)
    assert partition_oracle(SegmentedWord((4, 1), 3, 1))
    assert partition_oracle(SegmentedWord((3, 2), 3, 1))


@given(st.lists(st.integers(0, 6), max_size=5), st.integers(0, 6), st.integers(0, 6))
def test_partition_oracle_matches_exhaustive_split(segs, m_b, m_c):
    segs = tuple(segs)
    expected = any(
        sum(m for m, pick in zip(segs, mask) if pick) >= m_b
        and sum(m for m, pick in zip(segs, mask) if not pick) >= m_c
        for mask in _masks(len(segs))
    )
    assert partition_oracle(SegmentedWord(segs, m_b, m_c)) == expected


def _masks(n):
    for bits in range(1 << n):
        yield [(bits >> i) & 1 for i in range(n)]


# --- the partition net --------------------------------------------------

def test_partition_net_edge_words():
    p = build_partition_net()
    assert accepts(p, ())
    assert accepts(p, word("#"))
    assert accepts(p, word("##"))
    assert not accepts(p, word("a"))      # unterminated segment
    assert not accepts(p, word("b"))
    assert not accepts(p, word("#bc"))
    assert accepts(p, word("a#b"))
    assert accepts(p, word("a#c"))
    assert not accepts(p, word("a#bc"))
    assert accepts(p, word("a#a#bc"))
    assert not accepts(p, word("ba"))
    assert not accepts(p, word("a#cb"))   # c before b


# --- shared budget family (three-block words) ---------------------------

def test_shared_budget_oracle():
    assert shared_budget_oracle(3, 3, 2)
    assert not shared_budget_oracle(3, 4, 0)
    assert not shared_budget_oracle(3, 0, 4)
    assert shared_budget_oracle(0, 0, 0)


def test_shared_budget_nets_are_deterministic():
    for net in build_shared_budget():
        assert is_deterministic(net)


def test_shared_budget_main_matches_oracle_samples():
    main, _, _ = build_shared_budget()
    for m, n, k in ((0, 0, 0), (2, 1, 2), (2, 3, 0), (5, 5, 5), (1, 0, 2)):
        w = word("a" * m + "#" + "b" * n + "#" + "c" * k)
        assert accepts(main, w) == shared_budget_oracle(m, n, k), (m, n, k)


def test_shared_budget_rejects_malformed():
    main, _, _ = build_shared_budget()
    assert not accepts(main, word("ab"))
    assert not accepts(main, word("a#b"))    # only one separator
    assert accepts(main, word("##"))


# --- selector family ----------------------------------------------------

def test_selector_renders():
    sw = SelectorWord((2, 0, 1), 2, 2)
    assert render_selector(3, sw) == ("a_1", "a_1", "a_3", "b_2", "c", "c")


def test_selector_oracle():
    assert selector_oracle(3, SelectorWord((2, 0, 1), 1, 2))
    assert not selector_oracle(3, SelectorWord((2, 0, 1), 2, 2))
    assert selector_oracle(3, SelectorWord((2, 0, 1), 2, 0))


def test_selector_dcn_matches_oracle_small():
    net = build_selector_dcn(2)
    rep = bounded_compare(net, lambda sw: selector_oracle(2, sw), selector_box(2, 4))
    assert rep.verdict == "equal"


def test_selector_ncn_matches_dcn_on_selector_words():
    dcn, ncn = build_selector_dcn(2), build_selector_ncn(2)
    rep = bounded_compare(dcn, ncn, selector_box(2, 4))
    assert rep.verdict == "equal"


def test_selector_nets_reject_malformed():
    for net in (build_selector_dcn(2), build_selector_ncn(2)):
        assert not accepts(net, ("a_2", "a_1", "b_1"))   # blocks out of order
        assert not accepts(net, ("c",))
        assert not accepts(net, ("b_1", "b_2"))
        assert accepts(net, ("b_2",))                    # empty blocks, empty tail


def _hand_built_selector_ncn(k):
    """build_selector_ncn as it was written before it went through the zoo's
    one builder: its CounterNet spelled out field by field, kept as the
    reference."""
    states = [f"g{i}_blk{j}" for i in range(1, k + 1) for j in range(1, k + 1)] + ["drain"]
    ts = []
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            for l in range(j, k + 1):
                ts.append(Transition(f"g{i}_blk{j}", f"a_{l}", (1,) if l == i else (0,), f"g{i}_blk{l}"))
            ts.append(Transition(f"g{i}_blk{j}", f"b_{i}", (0,), "drain"))
    ts.append(Transition("drain", "c", (-1,), "drain"))
    alphabet = {f"a_{i}" for i in range(1, k + 1)} | {f"b_{i}" for i in range(1, k + 1)} | {"c"}
    return validate(CounterNet(
        name=f"selector_ncn_{k}",
        dimension=1,
        alphabet=alphabet,
        states=tuple(states),
        initial=tuple(f"g{i}_blk1" for i in range(1, k + 1)),
        accepting=("drain",),
        transitions=tuple(ts),
    ))


@pytest.mark.parametrize("k", range(1, 7))
def test_selector_ncn_matches_the_hand_built_reference(k):
    net, ref = build_selector_ncn(k), _hand_built_selector_ncn(k)
    for f in fields(CounterNet):
        assert getattr(net, f.name) == getattr(ref, f.name), f.name
    assert emit_machine_file([net]).encode() == emit_machine_file([ref]).encode()


# --- paired family ------------------------------------------------------

def test_paired_renders():
    pw = PairedBlockWord((1, 0), (0, 2))
    assert render_paired(2, pw) == ("a_1", "b_2", "b_2")


def test_paired_oracle():
    assert paired_oracle(2, PairedBlockWord((2, 1), (2, 0)))
    assert not paired_oracle(2, PairedBlockWord((2, 1), (2, 2)))


def test_paired_dcn_matches_oracle_small():
    net = build_paired_dcn(2)
    rep = bounded_compare(net, lambda pw: paired_oracle(2, pw), paired_box(2, 3))
    assert rep.verdict == "equal"


def test_paired_dcn_accepts_all_prefixes():
    # every state is accepting; rejection comes from counters alone
    net = build_paired_dcn(2)
    assert accepts(net, ())
    assert accepts(net, ("a_1",))
    assert accepts(net, ("a_1", "b_1"))
    assert not accepts(net, ("b_1",))
    assert not accepts(net, ("a_1", "b_1", "b_1"))
    assert not accepts(net, ("b_1", "a_1"))   # supplies after demands


# --- k-partition conjecture family --------------------------------------

def test_partition_k_renders():
    pw = PartitionKWord((2, 1), (1, 0))
    assert render_partition_k(2, pw) == ("a", "a", "#", "a", "#", "b_1", "#")
    assert render_partition_k(2, PartitionKWord((), (0, 2))) == ("#", "b_2", "b_2")


def test_partition_k_oracle_matches_bruteforce():
    cases = [
        (2, PartitionKWord((1, 1), (1, 1))),
        (2, PartitionKWord((1, 1), (2, 0))),
        (2, PartitionKWord((3,), (1, 1))),
        (3, PartitionKWord((2, 2, 2), (2, 2, 2))),
        (3, PartitionKWord((5, 1), (2, 2, 2))),
    ]
    for k, pw in cases:
        assert partition_k_oracle(k, pw) == partition_k_oracle_bruteforce(k, pw), (k, pw)


def test_partition_k_oracles_accept_every_word_of_k_0():
    # with no demands every assignment of the segments satisfies them, even
    # though there is none to try when there are segments
    for segments in ((), (2, 1)):
        pw = PartitionKWord(segments, ())
        assert partition_k_oracle(0, pw) and partition_k_oracle_bruteforce(0, pw)


@settings(max_examples=200)
@given(st.integers(1, 3), st.lists(st.integers(0, 4), max_size=4),
       st.data())
def test_partition_k_oracles_agree(k, segs, data):
    demands = tuple(data.draw(st.integers(0, 4)) for _ in range(k))
    pw = PartitionKWord(tuple(segs), demands)
    assert partition_k_oracle(k, pw) == partition_k_oracle_bruteforce(k, pw)


def test_partition_k_reduces_to_partition_oracle_for_two():
    for segs in ((), (1,), (2, 1), (1, 1, 4)):
        for b in range(4):
            for c in range(4):
                sw = SegmentedWord(segs, b, c)
                pw = PartitionKWord(segs, (b, c))
                assert partition_oracle(sw) == partition_k_oracle(2, pw)


def test_partition_k_net_edge_words():
    net = build_partition_k(2)
    assert accepts(net, word("#"))      # no segments, both demands empty
    assert accepts(net, word("##"))     # one empty segment
    assert not accepts(net, ())         # missing the demand separator
    assert accepts(net, ("a", "#", "b_1", "#"))
    assert accepts(net, ("a", "#", "#", "b_2"))
    assert not accepts(net, ("a", "#", "b_1", "#", "b_2"))
    assert not accepts(net, ("b_1",))
    assert not accepts(net, ("a", "b_1"))


def test_partition_k_one_is_plain_cover():
    net = build_partition_k(1)
    assert accepts(net, word("a#b_1".replace("b_1", "")) + ("b_1",))
    assert accepts(net, ("a", "#"))
    assert not accepts(net, ("b_1",) * 2 + ("a", "#"))


# --- coarse factors ------------------------------------------------------

def test_coarse_factors_accept_totals():
    cb, cc = build_coarse_factors()
    w = render_segmented(SegmentedWord((1,), 1, 1))
    assert accepts(cb, w) and accepts(cc, w)
    assert not partition_oracle(SegmentedWord((1,), 1, 1))


def test_coarse_factors_respect_their_bound():
    cb, cc = build_coarse_factors()
    assert not accepts(cb, render_segmented(SegmentedWord((1,), 2, 0)))
    assert not accepts(cc, render_segmented(SegmentedWord((1,), 0, 2)))
    assert accepts(cb, render_segmented(SegmentedWord((1,), 0, 9)))


# --- machine vs oracle on boxes -----------------------------------------

def test_partition_net_matches_oracle_small_box():
    rep = bounded_compare(build_partition_net(), partition_oracle, segmented_box(2, 3))
    assert rep.verdict == "equal"
    assert rep.checked == (1 + 4 + 16) * 16


# --- the renderers against the letter lists they were built from --------

# The renderers as they were before they spelled runs with core._spell,
# kept as the references for the words they give.

def reference_render_segmented(w):
    out = []
    for m in w.segments:
        out.extend(["a"] * m)
        out.append("#")
    out.extend(["b"] * w.m_b)
    out.extend(["c"] * w.m_c)
    return tuple(out)


def reference_render_selector(k, w):
    out = []
    for i, n in enumerate(w.blocks, start=1):
        out.extend([f"a_{i}"] * n)
    out.append(f"b_{w.choice}")
    out.extend(["c"] * w.tail)
    return tuple(out)


def reference_render_paired(k, w):
    out = []
    for i, n in enumerate(w.supplies, start=1):
        out.extend([f"a_{i}"] * n)
    for i, n in enumerate(w.demands, start=1):
        out.extend([f"b_{i}"] * n)
    return tuple(out)


def reference_render_partition_k(k, w):
    out = []
    for m in w.segments:
        out.extend(["a"] * m)
        out.append("#")
    for i, n in enumerate(w.demands, start=1):
        if i > 1:
            out.append("#")
        out.extend([f"b_{i}"] * n)
    return tuple(out)


def _counts(length, top=2):
    """Every tuple of length counts in 0..top: zero counts included."""
    return product(range(top + 1), repeat=length)


def test_segmented_runs_keep_zero_counts_and_every_delimiter():
    assert segmented_runs(SegmentedWord((2, 0), 0, 1)) == (
        ("a", 2), ("#", 1), ("a", 0), ("#", 1), ("b", 0), ("c", 1))
    assert segmented_runs(SegmentedWord((), 0, 0)) == (("b", 0), ("c", 0))


def test_render_segmented_matches_its_reference():
    for t in range(4):  # t = 0 is the word b^{m_b} c^{m_c}
        for segs, (m_b, m_c) in product(_counts(t), _counts(2)):
            sw = SegmentedWord(segs, m_b, m_c)
            assert render_segmented(sw) == reference_render_segmented(sw), sw


def test_render_selector_and_paired_match_their_references():
    for k in range(1, 4):
        for blocks, choice, tail in product(_counts(k), range(1, k + 1), range(3)):
            sw = SelectorWord(blocks, choice, tail)
            assert render_selector(k, sw) == reference_render_selector(k, sw), sw
        for supplies, demands in product(_counts(k), _counts(k)):
            pw = PairedBlockWord(supplies, demands)
            assert render_paired(k, pw) == reference_render_paired(k, pw), pw


def test_render_partition_k_matches_its_reference():
    for k, t in product(range(1, 4), range(3)):
        for segs, demands in product(_counts(t), _counts(k)):
            pw = PartitionKWord(segs, demands)
            assert render_partition_k(k, pw) == reference_render_partition_k(k, pw), pw


def test_renderers_match_their_references_on_long_seeded_words():
    rng = random.Random(27)
    for _ in range(200):
        k, t = rng.randint(1, 5), rng.randint(0, 5)
        counts = lambda n: tuple(rng.choice((0, 1, 2, 5, 40)) for _ in range(n))
        sw = SegmentedWord(counts(t), *counts(2))
        assert render_segmented(sw) == reference_render_segmented(sw)
        selw = SelectorWord(counts(k), rng.randint(1, k), rng.choice((0, 3, 40)))
        assert render_selector(k, selw) == reference_render_selector(k, selw)
        pw = PairedBlockWord(counts(k), counts(k))
        assert render_paired(k, pw) == reference_render_paired(k, pw)
        kw = PartitionKWord(counts(t), counts(k))
        assert render_partition_k(k, kw) == reference_render_partition_k(k, kw)


# --- the builders' nets, pinned -----------------------------------------

# the first 16 hex digits of the sha256 of emit_machine_file over each
# family's members, recorded for k = 1..4 while the builders still listed
# their dimension, alphabet and states by hand, and for k = 5, 6 while each
# builder still wrote its own unit vectors
EMITTED = {
    "P": "284b22f4e1e7a743",
    "fig1": "221ca283149bf2e6",
    "Lk": ("354dacc8bfee1c15", "fa07a001a38b1480", "b86d30340107b6e5", "1a2249a4f4fd4472",
           "8bcb8d768d7e68f5", "b409f70d3c801385"),
    "Hk": ("a4bd0e41332c64d0", "7a46994fd3ab4ee0", "a01ce78e41fcd22b", "d4ba6c25be2b92ed",
           "63a60ac2c85e912d", "5ca2d1bc5080dfd9"),
    "PkConj": ("706da993c58d28e5", "d6a72acdaa68963e", "bafb05d5b688e5d1", "64da0e49c0cddcd1",
               "64c092a82616395d", "6abf5ca723d60a22"),
    "coarse": "12f45a81e4946644",
}


@pytest.mark.parametrize("family, k", [(f, k) for f in FAMILIES for k in range(1, 7)])
def test_family_nets_are_pinned_and_round_trip(family, k):
    nets = list(FAMILIES[family](k).values())
    text = emit_machine_file(nets)
    digests = EMITTED[family]
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == (
        digests if isinstance(digests, str) else digests[k - 1])
    for net in nets:
        assert parse_machine_file(emit_machine_file([net])) == [net]


_MISMATCHED = [
    (render_selector, SelectorWord((1,), 1, 0), "selector word"),
    (render_selector, SelectorWord((1, 1), 3, 0), "selector word"),
    (selector_oracle, SelectorWord((1, 1), 0, 0), "selector word"),
    (render_paired, PairedBlockWord((1,), (1, 1)), "paired block word"),
    (paired_oracle, PairedBlockWord((1, 1), (1,)), "paired block word"),
    (render_partition_k, PartitionKWord((1,), (1,)), "partition word"),
    (partition_k_oracle, PartitionKWord((1,), (1, 1, 1)), "partition word"),
    (partition_k_oracle_bruteforce, PartitionKWord((1,), (1,)), "partition word"),
]


@pytest.mark.parametrize("func, w, kind", _MISMATCHED)
def test_a_word_of_another_k_is_refused(func, w, kind):
    with pytest.raises(ValueError, match=f"^{kind} does not match k$"):
        func(2, w)


@pytest.mark.parametrize("build", [build_selector_dcn, build_selector_ncn, build_paired_dcn, build_partition_k])
def test_families_need_k_of_at_least_one(build):
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        build(0)
