"""Plain-text machine files and word notation.

A file holds one or more nets:

    cn main
    dim 2
    alphabet a b c #
    init q0
    accept q0 q2
    trans q0 a 1 0 q0
    trans q0 # 0 0 q1
    end

';' starts a comment ('#' is a working alphabet letter, so it cannot).
Tokens are whitespace-separated.  An optional `states q0 q1 q2` line
declares the states in order; without one, states are collected from init
lines, then transition sources and targets in order of appearance, then
accept lines.  Emitting writes the states line only when that collected
order differs from the net's, so parse(emit(net)) == net (a state no line
names survives too) and emit(parse(emit)) = emit.

Words are whitespace-separated letters, where tok^N abbreviates N copies:
"a^3 # b b" means a a a # b b.  A letter holds neither whitespace nor
'^' (core.validate rejects both), so render_word_text and parse_word
invert each other on every word over a valid alphabet.
"""

from __future__ import annotations

from .core import CounterNet, Transition, Word, _collected_order, _runs, _spell, validate

# the most letters parse_word expands a word to: tok^N costs memory for
# N letters, which a short argument must not exhaust
WORD_BUDGET = 10**7


class MachineFileError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _strip(line: str) -> str:
    cut = line.find(";")
    return (line if cut < 0 else line[:cut]).strip()


def parse_machine_file(text: str) -> list[CounterNet]:
    nets: list[CounterNet] = []
    cur: dict | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        parts = line.split()
        key, args = parts[0], parts[1:]
        if key == "cn":
            if cur is not None:
                raise MachineFileError(line_no, "previous machine missing 'end'")
            if len(args) != 1:
                raise MachineFileError(line_no, "cn takes exactly one name")
            cur = {"name": args[0], "dim": None, "alphabet": [], "states": [], "init": [],
                   "accept": [], "trans": [], "line": line_no}
            continue
        if cur is None:
            raise MachineFileError(line_no, f"'{key}' outside a machine block")
        if key == "dim":
            if cur["dim"] is not None:
                raise MachineFileError(line_no, "duplicate dim")
            try:
                cur["dim"] = int(args[0]) if len(args) == 1 else None
            except ValueError:
                cur["dim"] = None
            if cur["dim"] is None or cur["dim"] < 0:
                raise MachineFileError(line_no, "dim takes one non-negative integer")
        elif key in ("alphabet", "states", "init", "accept"):
            cur[key].extend(args)
        elif key == "trans":
            if cur["dim"] is None:
                raise MachineFileError(line_no, "trans before dim")
            k = cur["dim"]
            if len(args) != 3 + k:
                raise MachineFileError(
                    line_no, f"trans needs source, letter, {k} effects, target")
            src, letter = args[0], args[1]
            try:
                effect = tuple(int(x) for x in args[2:2 + k])
            except ValueError:
                raise MachineFileError(line_no, "effects must be integers")
            cur["trans"].append(Transition(src, letter, effect, args[2 + k]))
        elif key == "end":
            if args:
                raise MachineFileError(line_no, "end takes no arguments")
            if cur["dim"] is None:
                raise MachineFileError(line_no, "machine has no dim")
            nets.append(_assemble(cur, line_no))
            cur = None
        else:
            raise MachineFileError(line_no, f"unknown keyword '{key}'")
    if cur is not None:
        raise MachineFileError(cur["line"], "machine missing 'end'")
    return nets


def _assemble(cur: dict, line_no: int) -> CounterNet:
    states = cur["states"] or _collected_order(cur["init"], cur["trans"], cur["accept"])
    try:
        return validate(CounterNet(
            name=cur["name"],
            dimension=cur["dim"],
            alphabet=frozenset(cur["alphabet"]),
            states=tuple(states),
            initial=frozenset(cur["init"]),
            accepting=frozenset(cur["accept"]),
            transitions=tuple(cur["trans"]),
        ))
    except ValueError as exc:
        raise MachineFileError(line_no, str(exc)) from exc


def emit_machine_file(nets: list[CounterNet]) -> str:
    """Canonical form: sorted alphabet, a states line only when the order
    parsing would collect differs from net.states, init and accept in state
    order, transitions in declaration order, one per line."""
    lines: list[str] = []
    for net in nets:
        tokens = [net.name, *net.states, *net.alphabet]
        for tok in tokens:
            if ";" in tok or any(c.isspace() for c in tok):
                raise ValueError(f"token {tok!r} cannot be written to a machine file")
        lines.append(f"cn {net.name}")
        lines.append(f"dim {net.dimension}")
        if net.alphabet:
            lines.append("alphabet " + " ".join(sorted(net.alphabet)))
        init = [s for s in net.states if s in net.initial]
        acc = [s for s in net.states if s in net.accepting]
        if _collected_order(init, net.transitions, acc) != net.states:
            lines.append("states " + " ".join(net.states))
        lines.append("init " + " ".join(init))
        if acc:
            lines.append("accept " + " ".join(acc))
        for t in net.transitions:
            effect = " ".join(str(x) for x in t.effect)
            middle = f" {effect} " if effect else " "
            lines.append(f"trans {t.source} {t.letter}{middle}{t.target}")
        lines.append("end")
        lines.append("")
    return "\n".join(lines)


def parse_word(text: str) -> Word:
    """Whitespace-separated letters; tok^N repeats tok N times.  Raises
    ValueError for a word of more than WORD_BUDGET letters, before
    building it."""
    pairs: list[tuple[str, int]] = []
    letters = 0
    for tok in text.split():
        base, sep, exp = tok.rpartition("^")
        if sep and base:
            try:
                n = int(exp)
            except ValueError:
                raise ValueError(f"bad repeat count in {tok!r}")
            if n < 0:
                raise ValueError(f"negative repeat count in {tok!r}")
        else:
            base, n = tok, 1
        letters += n
        if letters > WORD_BUDGET:
            raise ValueError(f"word has more than {WORD_BUDGET} letters")
        pairs.append((base, n))
    return _spell(pairs)


def render_word_text(word: Word) -> str:
    """The word in tok^N notation: a run of two or more equal letters
    becomes tok^N, the empty word the empty string."""
    return " ".join(tok if n == 1 else f"{tok}^{n}" for tok, n in _runs(word))
