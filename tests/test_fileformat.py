import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from counternet.analysis import compare_nets_walk
from counternet.core import CounterNet, Transition, is_deterministic
from counternet import constructions, fileformat, vas, zoo
from counternet.fileformat import (
    MachineFileError,
    emit_machine_file,
    parse_machine_file,
    parse_word,
    render_word_text,
)
from counternet.zoo import build_coarse_factors, build_partition_net, build_shared_budget
from randnets import random_cn, random_dcn

SAMPLE = """
; a two-counter machine with states declared out of order
cn demo
dim 2
alphabet a b c #
init q0
accept q0 q2
trans q0 a 1 0 q0
trans q0 # 0 0 q1
trans q1 b -1 0 q1
trans q1 c 0 -1 q2
trans q2 c 0 -1 q2
end
"""


def test_parse_sample():
    nets = parse_machine_file(SAMPLE)
    assert len(nets) == 1
    net = nets[0]
    assert net.name == "demo"
    assert net.dimension == 2
    assert net.alphabet == frozenset("abc#")
    assert net.states == ("q0", "q1", "q2")
    assert set(net.initial) == {"q0"}
    assert set(net.accepting) == {"q0", "q2"}
    assert net.transitions[0] == Transition("q0", "a", (1, 0), "q0")


def test_emit_parse_emit_is_stable():
    once = emit_machine_file(parse_machine_file(SAMPLE))
    twice = emit_machine_file(parse_machine_file(once))
    assert once == twice


def test_zoo_nets_round_trip():
    nets = [build_partition_net(), *build_shared_budget()]
    text = emit_machine_file(nets)
    back = parse_machine_file(text)
    assert [n.name for n in back] == [n.name for n in nets]
    assert emit_machine_file(back) == text
    for orig, parsed in zip(nets, back):
        rep = compare_nets_walk(orig, parsed, max_len=5)
        assert rep.verdict == "equal", orig.name


def _round_trip(net):
    """parse(emit(net)) == net, and the emitted text re-emits byte for byte."""
    text = emit_machine_file([net])
    assert parse_machine_file(text) == [net], text
    assert emit_machine_file(parse_machine_file(text)) == text


def test_states_line_keeps_an_isolated_state():
    net = parse_machine_file(SAMPLE)[0]
    # dead has no transition and is neither initial nor accepting
    dead = replace(net, states=("q0", "dead", "q1", "q2"))
    text = emit_machine_file([dead])
    assert "\nstates q0 dead q1 q2\ninit q0\n" in text
    _round_trip(dead)
    _round_trip(replace(net, states=("q2", "q1", "q0")))
    # the order parsing collects needs no states line
    assert "states" not in emit_machine_file([net])


def test_states_line_errors():
    err = line_error("cn m\ndim 0\nstates q q\ninit q\nend\n")
    assert err.line_no == 5 and "duplicate state ids" in str(err)
    # a states line lists every state
    err = line_error("cn m\ndim 0\nalphabet a\nstates q\ninit q\ntrans q a p\nend\n")
    assert err.line_no == 7 and "target 'p' not declared" in str(err)


def _with_isolated(rng, net):
    states = list(net.states)
    for i in range(rng.randint(1, 2)):
        states.insert(rng.randint(0, len(states)), f"iso{i}")
    return replace(net, states=tuple(states))


def test_random_nets_round_trip():
    rng = random.Random(2417)
    for dim in range(4):
        for _ in range(40):
            net = random_cn(rng, dim)
            _round_trip(net)
            _round_trip(_with_isolated(rng, net))
            _round_trip(random_dcn(rng, dim))


def _zoo_nets():
    for k in (1, 2, 3):
        for family in zoo.FAMILIES.values():
            yield from family(k).values()


def _constructions(a, b):
    """Every construction of a and b that their shapes allow."""
    yield constructions.trim(a)
    yield constructions.lift(a, a.dimension + 1)
    yield constructions.lift(a, a.dimension + 2, tuple(range(3, a.dimension + 3)))
    if a.dimension:
        yield constructions.project(a, a.dimension)
    if a.dimension == b.dimension and a.alphabet == b.alphabet:
        yield constructions.product(a, b)
        yield constructions.union(a, b)
        if a.dimension == 1 and not a.alphabet & {"a", "b", "c", "#", "$"}:
            yield constructions.build_reduction(a, b)
    if is_deterministic(a):
        labels = vas.distinct_label(a)
        yield labels.net
        yield vas.vasify(labels.net).net


def test_construction_outputs_round_trip():
    rng = random.Random(2418)
    pairs = [(a, a) for a in _zoo_nets()]
    pairs += [(build_coarse_factors()[0], build_coarse_factors()[1])]
    for dim in range(4):
        for _ in range(10):
            a = random_cn(rng, dim)
            pairs.append((a, _with_isolated(rng, random_cn(rng, dim))))
            pairs.append((random_dcn(rng, dim), a))
    for a, b in pairs:
        _round_trip(a)
        for net in _constructions(a, b):
            _round_trip(net)


def test_empty_file_parses_to_nothing():
    assert parse_machine_file("") == []
    assert parse_machine_file("; comments only\n\n  ; more\n") == []


def test_hash_is_a_letter_not_a_comment():
    nets = parse_machine_file(SAMPLE)
    assert "#" in nets[0].alphabet
    # but ';' comments do vanish, even mid-line
    text = SAMPLE.replace("trans q2 c 0 -1 q2", "trans q2 c 0 -1 q2 ; tail loop")
    assert parse_machine_file(text)[0] == nets[0]


def line_error(text):
    with pytest.raises(MachineFileError) as err:
        parse_machine_file(text)
    return err.value


def test_error_effect_arity():
    err = line_error("cn m\ndim 2\nalphabet a\ninit q\naccept q\ntrans q a 1 q\nend\n")
    assert err.line_no == 6
    assert "trans needs" in str(err)


def test_error_trans_before_dim():
    err = line_error("cn m\ntrans q a 1 q\ndim 1\nend\n")
    assert err.line_no == 2


def test_error_duplicate_dim():
    err = line_error("cn m\ndim 1\ndim 2\nend\n")
    assert err.line_no == 3


def test_error_bad_dim_values():
    assert line_error("cn m\ndim x\nend\n").line_no == 2
    assert line_error("cn m\ndim -1\nend\n").line_no == 2
    assert line_error("cn m\ndim 1 2\nend\n").line_no == 2


def test_error_end_without_dim():
    err = line_error("cn m\nend\n")
    assert "no dim" in str(err)


def test_error_unterminated_machine():
    err = line_error("cn m\ndim 1\n")
    assert err.line_no == 1
    assert "missing 'end'" in str(err)


def test_error_nested_machine():
    err = line_error("cn m\ndim 1\ncn n\n")
    assert err.line_no == 3


def test_error_keyword_outside_block():
    err = line_error("dim 1\n")
    assert err.line_no == 1
    assert "outside" in str(err)


def test_error_unknown_keyword():
    # `states` is a keyword; its singular is not
    err = line_error("cn m\ndim 1\nstate q p\nend\n")
    assert err.line_no == 3
    assert "unknown keyword 'state'" in str(err)


def test_error_non_integer_effect():
    err = line_error("cn m\ndim 1\nalphabet a\ninit q\ntrans q a one q\nend\n")
    assert err.line_no == 5
    assert "integers" in str(err)


def test_error_invalid_net_reported_at_end():
    # letter x is not in the alphabet; validation runs when the block closes
    err = line_error("cn m\ndim 1\nalphabet a\ninit q\naccept q\ntrans q x 1 q\nend\n")
    assert err.line_no == 7


def test_emit_refuses_unwritable_tokens():
    bad = CounterNet(
        name="two words", dimension=0, alphabet=frozenset("a"),
        states=("q",), initial=frozenset({"q"}), accepting=frozenset({"q"}),
        transitions=(Transition("q", "a", (), "q"),))
    with pytest.raises(ValueError):
        emit_machine_file([bad])
    semi = CounterNet(
        name="ok", dimension=0, alphabet=frozenset("a"),
        states=("q;",), initial=frozenset({"q;"}), accepting=frozenset(),
        transitions=())
    with pytest.raises(ValueError):
        emit_machine_file([semi])


def test_emit_zero_dim_transitions():
    net = parse_machine_file("cn m\ndim 0\nalphabet a\ninit q\naccept q\ntrans q a q\nend\n")[0]
    assert net.transitions == (Transition("q", "a", (), "q"),)
    assert "trans q a q" in emit_machine_file([net])


# --- word notation --------------------------------------------------------------

def test_parse_word_examples():
    assert parse_word("a^3 # b^2 c") == ("a", "a", "a", "#", "b", "b", "c")
    assert parse_word("a b a") == ("a", "b", "a")
    assert parse_word("b_1^2 c") == ("b_1", "b_1", "c")
    assert parse_word("a^0 b") == ("b",)
    assert parse_word("") == ()
    assert parse_word("   ") == ()


def test_parse_word_caret_token_is_literal():
    # no base before the caret, so the token is taken as a letter
    assert parse_word("^3") == ("^3",)


def test_parse_word_errors():
    with pytest.raises(ValueError):
        parse_word("a^b")
    with pytest.raises(ValueError):
        parse_word("a^")
    with pytest.raises(ValueError):
        parse_word("a^-2")


def test_parse_word_refuses_a_word_past_the_budget(monkeypatch):
    # a small budget, so a broken check would build a short word, not a huge one
    monkeypatch.setattr(fileformat, "WORD_BUDGET", 100)
    assert len(parse_word("a^60 b^40")) == 100
    assert len(parse_word("a^99 b")) == 100
    for text in ("a^101", "a^60 b^41", "a^100 b", "b a^1000"):
        with pytest.raises(ValueError, match="word has more than 100 letters"):
            parse_word(text)


# letters validate accepts: non-empty, no whitespace, no '^'
LETTER = st.text(min_size=1, max_size=4).filter(lambda t: "^" not in t and not any(c.isspace() for c in t))


# a small pool per word makes runs of one letter, which render as tok^N
@given(st.lists(LETTER, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=30)))
def test_render_then_parse_gives_back_the_word(word):
    word = tuple(word)
    assert parse_word(render_word_text(word)) == word

