"""Seeded fuzzing of the command line, in process through cli.main: every
command on small random nets of dimension 0-3, and a few commands on
mutated machine files.  Each case keeps the exit-code contract (0 and 1
for verdicts, 2 with one `error:` or usage message for bad input, never
3 nor a traceback), and its plain and --json runs agree.  Every emitted
file parses to the net the library builds and re-emits byte for byte,
and every `eq` counterexample reproduces its verdict under `check` on
both machines."""

import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from counternet import cli, constructions, vas, zoo
from counternet.cli import main
from counternet.fileformat import emit_machine_file, parse_machine_file, render_word_text
from randnets import random_cn, random_dcn


@pytest.fixture(autouse=True)
def _one_parser(monkeypatch):
    # every case parses with the same parser, and building it takes most
    # of an in-process call, so build it once
    parser = cli._parser()
    monkeypatch.setattr(cli, "_parser", lambda: parser)


def _run(capsys, argv):
    rc = main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    # 3 is an internal failure: no input may cause one
    assert rc in (0, 1, 2), (argv, rc, err)
    if rc == 2:
        assert out == "" and err.startswith(("error: ", "usage: ")), (argv, err)
    else:
        assert err == "", (argv, err)
    return rc, out


def _check(capsys, argv):
    """Run argv plain and with --json; return (exit code, plain output,
    JSON report or None on a usage error)."""
    rc, out = _run(capsys, argv)
    rc_json, out_json = _run(capsys, ["--json", *argv])
    assert rc_json == rc, argv
    if rc == 2:
        return rc, out, None
    report = json.loads(out_json)
    # 1 exactly for the negative verdicts
    assert rc == (report["verdict"] in cli._NEGATIVE), (argv, report)
    if report["counterexample"]:
        assert report["counterexample"] in out, (argv, out)
    return rc, out, report


def _emitted(text, expected=None):
    """The nets of an emitted file, after checking it re-emits byte for
    byte (and holds the nets expected, when given)."""
    body = "".join(line for line in text.splitlines(keepends=True) if not line.startswith(";"))
    nets = parse_machine_file(body)
    assert emit_machine_file(nets) == body
    if expected is not None:
        assert nets == expected
    return nets


def _word(rng, alphabet):
    letters = sorted(alphabet) + ["z"]  # z is never a letter of a random net
    word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 5)))
    return render_word_text(word)


def _random_case(rng):
    dim = rng.randint(0, 3)
    a = random_cn(rng, dim, max_states=4, name="left")
    b = (random_dcn if rng.random() < 0.5 else random_cn)(rng, dim, max_states=4, name="right")
    if rng.random() < 0.3:
        # a state no line of the file would otherwise name
        a = replace(a, states=(*a.states, "idle"))
    return a, b


def test_random_nets_keep_the_contract(tmp_path, capsys):
    rng = random.Random(1717)
    left, right, out = (str(tmp_path / f) for f in ("left.cn", "right.cn", "out.cn"))
    verdicts = set()
    for _ in range(40):
        a, b = _random_case(rng)
        for path, net in ((left, a), (right, b)):
            Path(path).write_text(emit_machine_file([net]), encoding="utf-8")
        dim = a.dimension
        word = _word(rng, a.alphabet)
        initial = ",".join(str(rng.randint(-1, 2)) for _ in range(dim + rng.choice((0, 0, 1))))
        length = rng.randint(0, 4)

        check = ["check", left, f"--word={word}"]
        report = _check(capsys, check + [f"--initial={initial}"] * (rng.random() < 0.5))[2]
        verdicts.add(report and report["verdict"])

        report = _check(capsys, ["eq", left, right, "--max-len", str(length)])[2]
        verdicts.add(report["verdict"])
        if report["verdict"] in ("left-only", "right-only"):
            cex = f"--word={report['counterexample']}"
            in_left = report["verdict"] == "left-only"
            assert _check(capsys, ["check", left, cex])[0] == (0 if in_left else 1)
            assert _check(capsys, ["check", right, cex])[0] == (1 if in_left else 0)

        report = _check(capsys, ["decompose-check", left, right, "--max-len", str(length)])[2]
        verdicts.add(report["verdict"])

        coordinate, target = rng.randint(0, dim + 1), rng.randint(0, dim + 2)
        builds = [
            (["product", left, right], lambda: constructions.product(a, b)),
            (["union", left, right], lambda: constructions.union(a, b)),
            (["reduce", left, right], lambda: constructions.build_reduction(a, b)),
            (["project", left, "--counter", str(coordinate)],
             lambda: constructions.project(a, coordinate)),
            (["lift", left, "--dim", str(target)], lambda: constructions.lift(a, target)),
            (["vasify", right], lambda: vas.vasify(vas.distinct_label(b).net).net),
        ]
        for argv, build in builds:
            to_file = rng.random() < 0.5
            rc, text, _ = _check(capsys, [*argv, "-o", out] if to_file else argv)
            if rc == 0:
                # print ends the emitted file with one more newline
                emitted = Path(out).read_text(encoding="utf-8") if to_file else text[:-1]
                _emitted(emitted, [build()])
            else:
                with pytest.raises(ValueError):
                    build()

        report = _check(capsys, ["pump", left, f"--word={word}", "--times", str(rng.randint(0, 2)),
                                 "--sign", rng.choice(("pos", "nonneg"))])[2]
        verdicts.add(report and report["verdict"])
        _check(capsys, ["refute-p", left, right, "--param-box", "2"])
    # the cases reach verdicts of both signs and usage errors
    assert {"accept", "reject", "equal", "left-only", None} <= verdicts


def test_zoo_emits_keep_the_contract(capsys):
    for family in zoo.FAMILIES:
        for k in (1, 2, 3):
            rc, text, _ = _check(capsys, ["zoo", family, "--k", str(k), "--emit"])
            assert rc == 0
            _emitted(text[:-1], list(zoo.FAMILIES[family](k).values()))


_GARBAGE = ("", "-1", "x^2", "99999999999999999999", "q9", "dim", "end", "cn", "states", "init",
            "trans", ";", "0.5", "é", "x", "y", "2")


def _mutate(rng, text):
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    kind = rng.randrange(5)
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
    elif kind == 2:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == 3:
        tokens = lines[i].split() or [""]
        tokens[rng.randrange(len(tokens))] = rng.choice(_GARBAGE)
        lines[i] = " ".join(tokens)
    else:
        return text[:rng.randrange(len(text))]
    return "\n".join(lines) + "\n"


def test_mutated_machine_files_keep_the_contract(tmp_path, capsys):
    rng = random.Random(2929)
    path, out = str(tmp_path / "m.cn"), str(tmp_path / "out.cn")
    codes = set()
    for _ in range(150):
        net = random_cn(rng, rng.randint(0, 3), max_states=4, name="m")
        if rng.random() < 0.3:
            net = replace(net, states=("idle", *net.states))
        text = emit_machine_file([net])
        for _ in range(rng.randint(1, 3)):
            text = _mutate(rng, text)
        Path(path).write_text(text, encoding="utf-8")
        rc, _, _ = _check(capsys, ["check", path, f"--word={_word(rng, net.alphabet)}"])
        codes.add(rc)
        _check(capsys, ["eq", path, path, "--max-len", "2"])
        rc, _, _ = _check(capsys, ["lift", path, "--dim", "3", "-o", out])
        if rc == 0:
            # a file that parses emits a file that parses to the same net
            _emitted(Path(out).read_text(encoding="utf-8"),
                     [constructions.lift(n, 3) for n in parse_machine_file(text)])
    assert codes == {0, 1, 2}
