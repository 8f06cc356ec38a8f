"""Command-line front end.

Machines are referenced as `path.cn` (single-machine file), `path.cn:name`,
or `zoo:<family>[.<member>]` for a family of `zoo.FAMILIES` (<families>).
A bare family name means its first member.  A family whose name holds k
takes --k or an inline number, which wins (zoo:L3.dcn, zoo:H2,
zoo:P2kConj); zoo:fig1.product is the product of fig1.b1 and fig1.b2.
Word generators are spelled `--box family:args` for a family of
`analysis.BOXES`, or via the shorthands --max-len and --segmented-box.
Each command is declared once, in the table `_COMMANDS` (name -> help,
arguments, handler), from which `_parser` builds every subparser.

Exit codes: 0 for positive verdicts (accept, equal, no violations),
1 for negative ones (reject, counterexample, exhausted), 2 for usage or
input errors, 3 for internal failures (a cap, recursion or memory limit,
broken invariant, or any other exception).  --exit-zero forces 0 on
negative verdicts, never on 3; --json emits a report with stable keys
{command, verdict, counterexample, stats}.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import re
import sys
import time
from typing import TYPE_CHECKING, Optional, Sequence

# analysis and vas are imported by the handlers that use them, so the
# other commands start without them
from . import constructions, fileformat, zoo
from .core import CounterNet, SweepLimitError, Vector, Word, accepts, enumerate_accepting_runs
from .fileformat import render_word_text

if TYPE_CHECKING:
    from . import analysis

__doc__ = (__doc__ or "").replace("<families>", ", ".join(zoo.FAMILIES))
_K_HELP = "parameter for zoo:" + "/".join(f for f in zoo.FAMILIES if "k" in f) + " references"


# effect entries (dimension x transitions) `lift` may build: one entry is a
# few bytes of tuple and a few of text, far below what exhausts memory
LIFT_BUDGET = 10**6
# largest zoo parameter k: zoo:Lk.ncn has about k^3/2 transitions, and
# `check zoo:L40.ncn` takes 0.6 s and 40 MB on a shared 2-vCPU x86-64 VM
K_BUDGET = 40


class CliError(Exception):
    """Usage or input problem; maps to exit code 2."""


# ---------------------------------------------------------------------------
# machine references

def _build_family(family: str, k: Optional[int], ref: str) -> dict[str, CounterNet]:
    if "k" in family:
        if k is None:
            raise CliError(f"{ref} needs --k")
        if k > K_BUDGET:
            raise CliError(f"{ref}: k = {k} is above the budget of {K_BUDGET}")
    return zoo.FAMILIES[family](k)


def _zoo_entry(token: str, k: Optional[int]) -> CounterNet:
    if token == "fig1.product":
        # not a member: constructions imports zoo, and `zoo fig1` lists three nets
        fig1 = zoo.FAMILIES["fig1"](k)
        return constructions.product(fig1["b1"], fig1["b2"])
    name, _, member = token.partition(".")
    parts = re.split(r"(\d+)", name, maxsplit=1)
    if name not in zoo.FAMILIES and len(parts) == 3:
        # an inline parameter beats --k: L3 and L3k both mean Lk with k = 3
        name, k = parts[0] + "k" + parts[2].removeprefix("k"), int(parts[1])
    if name not in zoo.FAMILIES:
        raise CliError(f"unknown zoo entry {token!r}")
    members = _build_family(name, k, f"zoo:{token}")
    if not member:
        return next(iter(members.values()))
    if member not in members:
        raise CliError(f"zoo:{name} members are " + ", ".join(f"{name}.{m}" for m in members))
    return members[member]


def _resolve(ref: str, k: Optional[int]) -> CounterNet:
    if ref.startswith("zoo:"):
        return _zoo_entry(ref[len("zoo:"):], k)
    path, _, name = ref.partition(":")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    try:
        nets = fileformat.parse_machine_file(text)
    except fileformat.MachineFileError as exc:
        raise CliError(f"{path}: {exc}")
    if not nets:
        raise CliError(f"{path} defines no machines")
    if not name:
        if len(nets) > 1:
            names = ", ".join(n.name for n in nets)
            raise CliError(f"{path} defines several machines ({names}); use {path}:<name>")
        return nets[0]
    matches = [n for n in nets if n.name == name]
    if not matches:
        raise CliError(f"{path} has no machine named {name!r}")
    if len(matches) > 1:
        raise CliError(f"{path} defines {name!r} more than once")
    return matches[0]


# ---------------------------------------------------------------------------
# words and boxes

def _ints(text: str, error: str) -> tuple[int, ...]:
    """The comma-separated integers of text; CliError(error) if a field is not one."""
    try:
        return tuple(map(int, text.split(",")))
    except ValueError:
        raise CliError(error)


def _generator_for(args, nets: Sequence[CounterNet]):
    from . import analysis
    picks = [x for x in (args.max_len is not None, args.segmented_box is not None,
                         args.box is not None) if x]
    if len(picks) != 1:
        raise CliError("choose exactly one of --max-len, --segmented-box, --box")
    if args.segmented_box is not None:
        family, nums = "segmented", (3, args.segmented_box)
    elif args.max_len is not None:
        family, nums = "words", (args.max_len,)
    else:
        family, _, rest = args.box.partition(":")
        nums = _ints(rest, f"box arguments must be integers: {args.box!r}") if rest else ()
    if family not in analysis.BOXES:
        raise CliError(f"unknown box family {family!r}")
    build, allowed = analysis.BOXES[family]
    if len(nums) not in allowed:
        raise CliError(f"box {family} takes {allowed} arguments, got {len(nums)}")
    if family == "words":
        if len({n.alphabet for n in nets}) != 1:
            flag = "--max-len" if args.max_len is not None else "--box words"
            raise CliError(f"{flag} needs machines over a common alphabet")
        nums = (nets[0].alphabet, *nums)
    return build(*nums)


def _parse_initial(text: Optional[str], dim: int) -> Optional[Vector]:
    if text is None:
        return None
    vec = _ints(text, f"--initial must be comma-separated integers: {text!r}")
    if len(vec) != dim:
        raise CliError(f"--initial has {len(vec)} components, machine has {dim}")
    return vec


def _pair(args) -> tuple[CounterNet, CounterNet]:
    return _resolve(args.left, args.k), _resolve(args.right, args.k)


def _emit_nets(nets: list[CounterNet], out: Optional[str], extra_comment: str = "") -> str:
    text = fileformat.emit_machine_file(nets)
    if extra_comment:
        text = f"; {extra_comment}\n" + text
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        return f"wrote {out}"
    return text


def _emit_built(net: CounterNet, out: Optional[str]) -> tuple[str, Optional[Word], dict, str]:
    """Result of a command that builds one net: the emitted net and its size."""
    return "ok", None, {"states": len(net.states), "dimension": net.dimension}, _emit_nets([net], out)


def _built(construction: str):
    """Handler of a command that emits constructions.<construction> of two
    machines, looked up when the command runs (as every handler calls the
    library), so a wrapped or replaced construction is seen."""
    return lambda args: _emit_built(getattr(constructions, construction)(*_pair(args)), args.out)


# ---------------------------------------------------------------------------
# command handlers: each returns (verdict, counterexample word | None, stats, text)

def _cmd_check(args) -> tuple[str, Optional[Word], dict, str]:
    net = _resolve(args.machine, args.k)
    word = fileformat.parse_word(args.word)
    initial = _parse_initial(args.initial, net.dimension)
    verdict = "accept" if accepts(net, word, initial=initial) else "reject"
    stats = {"machine": args.machine, "word": args.word, "initial": args.initial,
             "length": len(word)}
    return verdict, None, stats, f"{verdict}: {render_word_text(word) or '(empty)'}"


def _comparison_text(report: analysis.ComparisonReport) -> str:
    if report.verdict == "equal":
        return f"equal ({report.checked} prefixes/words checked)"
    if report.verdict == "exhausted":
        return f"exhausted after {report.checked} nodes, no verdict"
    side = "first accepts" if report.verdict == "left-only" else "second accepts"
    word = render_word_text(report.counterexample) or "(empty)"
    return f"{report.verdict}: {side} {word!r}, the other rejects"


def _cmd_eq(args) -> tuple[str, Optional[Word], dict, str]:
    from . import analysis
    a, b = _pair(args)
    gen = _generator_for(args, [a, b])
    report = analysis.bounded_compare(a, b, gen)
    stats = {"left": args.left, "right": args.right, "checked": report.checked}
    verdict = report.verdict
    return verdict, report.counterexample, stats, _comparison_text(report)


def _cmd_project(args) -> tuple[str, Optional[Word], dict, str]:
    return _emit_built(constructions.project(_resolve(args.machine, args.k), args.counter), args.out)


def _cmd_lift(args) -> tuple[str, Optional[Word], dict, str]:
    placement = (_ints(args.placement, "--placement must be comma-separated coordinates")
                 if args.placement else None)
    net = _resolve(args.machine, args.k)
    entries = args.dim * len(net.transitions)
    if entries > LIFT_BUDGET:
        raise CliError(f"--dim {args.dim} over {len(net.transitions)} transitions needs {entries} "
                       f"effect entries, above the budget of {LIFT_BUDGET}")
    return _emit_built(constructions.lift(net, args.dim, placement), args.out)


def _cmd_vasify(args) -> tuple[str, Optional[Word], dict, str]:
    from . import vas
    net = _resolve(args.machine, args.k)
    labels = vas.distinct_label(net)
    result = vas.vasify(labels.net)
    comment = "initial counters: " + " ".join(str(x) for x in result.initial)
    text = _emit_nets([result.net], args.out, extra_comment=comment)
    stats = {"dimension": result.net.dimension,
             "letters": len(result.net.alphabet),
             "initial": list(result.initial)}
    verdict = "ok"
    lines = [text]
    if args.report:
        report = vas.verify_pipeline(net, max_len=args.max_len)
        stats.update({
            "labelled_matches": report.labelled_matches,
            "containment_ok": report.containment_ok,
            "gating_ok": report.gating_ok,
            "gating_violations": report.gating_violations,
            "extra_members": report.extra_count,
            **report.stats,
        })
        verdict = "ok" if (report.labelled_matches and report.containment_ok
                           and report.gating_ok) else "violations"
        lines.append(f"label stage: {'ok' if report.labelled_matches else 'MISMATCH'}")
        lines.append(f"protocol containment: {'ok' if report.containment_ok else 'MISMATCH'}")
        lines.append(f"gating: {'ok' if report.gating_ok else f'{report.gating_violations} violations'}")
        lines.append(f"extra flat-language members (expected): {report.extra_count}, "
                     f"e.g. {[render_word_text(w) or '(empty)' for w in report.extra_members[:3]]}")
    return verdict, None, stats, "\n".join(lines)


def _cmd_zoo(args) -> tuple[str, Optional[Word], dict, str]:
    if args.family not in zoo.FAMILIES:
        raise CliError(f"unknown zoo family {args.family!r}")
    nets = list(_build_family(args.family, args.k, f"zoo {args.family}").values())
    stats = {"family": args.family, "k": args.k,
             "machines": [n.name for n in nets]}
    if args.emit or args.out:
        return "ok", None, stats, _emit_nets(nets, args.out)
    lines = [f"{n.name}: dim {n.dimension}, {len(n.states)} states, "
             f"{len(n.transitions)} transitions" for n in nets]
    return "ok", None, stats, "\n".join(lines)


def _cmd_decompose_check(args) -> tuple[str, Optional[Word], dict, str]:
    from . import analysis
    target = _resolve(args.target, args.k)
    factors = [_resolve(f, args.k) for f in args.factors]
    gen = _generator_for(args, [target, *factors])
    report = analysis.check_decomposition(target, factors, gen)
    stats = {"target": args.target, "factors": args.factors, "checked": report.checked}
    verdict = report.verdict if report.verdict in ("equal", "exhausted") else "counterexample"
    if verdict == "counterexample":
        # walk reports sides as left (target) / right (factor intersection)
        side = ("target accepts, factor intersection rejects"
                if report.verdict == "left-only"
                else "factor intersection accepts, target rejects")
        word = render_word_text(report.counterexample) or "(empty)"
        text = f"counterexample: {word!r} ({side})"
    else:
        text = _comparison_text(report)
    return verdict, report.counterexample, stats, text


def _caps_from(args) -> analysis.SearchCaps:
    from . import analysis
    # the refute-p flags are spelled like the SearchCaps fields; unset ones keep the defaults
    values = {f.name: getattr(args, f.name) for f in dataclasses.fields(analysis.SearchCaps)}
    return analysis.SearchCaps(**{name: v for name, v in values.items() if v is not None})


def _cmd_refute_p(args) -> tuple[str, Optional[Word], dict, str]:
    from . import analysis
    factors = [_resolve(f, args.k) for f in args.factors]
    result = analysis.refute_partition_decomposition(
        factors, strategy=args.strategy, caps=_caps_from(args), box=args.param_box)
    stats = {"factors": args.factors, "strategy": args.strategy, **result.stats}
    if result.verdict == "counterexample":
        word = render_word_text(result.word) or "(empty)"
        text = (f"counterexample ({result.side}): {word!r} separates the "
                f"factor intersection from the partition language")
        return "counterexample", result.word, stats, text
    return "exhausted", None, stats, f"exhausted: {result.stats}"


def _cmd_pump(args) -> tuple[str, Optional[Word], dict, str]:
    from . import analysis
    net = _resolve(args.machine, args.k)
    word = fileformat.parse_word(args.word)
    enum = enumerate_accepting_runs(net, word, cap=1)  # only the first run is pumped
    if not enum.runs:
        return "reject", None, {"word": args.word}, "machine rejects the word; nothing to pump"
    run = enum.runs[0]
    scope = None  # the whole run
    if args.segment is not None:
        spans, b_span, c_span = analysis.segment_spans(zoo.parse_segmented(word))
        if args.segment == "b":
            scope = b_span
        elif args.segment == "c":
            scope = c_span
        else:
            try:
                idx = int(args.segment)
            except ValueError:
                raise CliError("--segment takes a 1-based index, 'b', or 'c'")
            if not 1 <= idx <= len(spans):
                raise CliError(f"word has {len(spans)} segments")
            scope = spans[idx - 1]
    required = (analysis.SIGN_POSITIVE if args.sign == "pos"
                else analysis.SIGN_NONNEGATIVE)
    cycle = analysis.extract_pumpable_cycle(run, scope, required)
    stats = {"word": args.word, "segment": args.segment, "sign": args.sign,
             "times": args.times}
    if cycle is None:
        return "no-cycle", None, stats, "no pumpable cycle of that sign in the scope"
    factorial_of = len(net.states) if args.factorial else None
    pumped = analysis.pump_run(run, cycle, args.times, factorial_of=factorial_of)
    pumped_word = pumped.word()
    stats.update({
        "cycle_length": len(cycle.transitions),
        "cycle_effect": list(cycle.effect),
        "pumped_length": len(pumped_word),
        "final_counters": list(pumped.configs[-1].counters),
    })
    return "pumped", pumped_word, stats, f"pumped word: {render_word_text(pumped_word)}"


# ---------------------------------------------------------------------------

_NEGATIVE = {"reject", "left-only", "right-only", "counterexample", "exhausted",
             "violations", "no-cycle"}


# ---------------------------------------------------------------------------
# the command table: name -> (help, arguments, handler), in help order; an
# argument is the (flags, options) pair of add_argument

def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    return flags, options


_MACHINE = (_arg("machine"),)
_PAIR = (_arg("left"), _arg("right"))
_OUT = (_arg("-o", "--out", default=None),)
_WORD = (_arg("--word", required=True),)
_BOX_FLAGS = (
    _arg("--max-len", type=int, default=None, help="compare on every word up to this length"),
    _arg("--segmented-box", type=int, default=None, metavar="N",
         help="segmented words, up to 3 segments, parameters <= N"),
    _arg("--box", default=None, metavar="FAM:ARGS",
         help="words:L | segmented:T,CAP[,B,C] | triple:CAP | "
              "selector:K,CAP[,TAIL] | paired:K,CAP"),
)

_COMMANDS = {
    "check": ("decide membership of one word",
              (*_MACHINE, *_WORD,
               _arg("--initial", default=None, help="comma-separated start counters")),
              _cmd_check),
    "eq": ("compare two machines over a word generator", (*_PAIR, *_BOX_FLAGS), _cmd_eq),
    "product": ("product of two machines", (*_PAIR, *_OUT), _built("product")),
    "union": ("union of two machines", (*_PAIR, *_OUT), _built("union")),
    "project": ("keep a single counter",
                (*_MACHINE, _arg("--counter", type=int, required=True, help="1-based coordinate"),
                 *_OUT),
                _cmd_project),
    "lift": ("widen to more counters",
             (*_MACHINE, _arg("--dim", type=int, required=True),
              _arg("--placement", default=None,
                   help="comma-separated target coordinates for the original ones"),
              *_OUT),
             _cmd_lift),
    "vasify": ("flatten a deterministic machine to one state",
               (*_MACHINE, *_OUT,
                _arg("--report", action="store_true", help="run the full pipeline verification"),
                _arg("--max-len", type=int, default=6,
                     help="word length bound for the pipeline report (default 6)")),
               _cmd_vasify),
    "reduce": ("containment-to-emptiness gadget for two 1-CNs", (*_PAIR, *_OUT),
               _built("build_reduction")),
    "zoo": ("built-in machine families",
            (_arg("family", help=" | ".join(zoo.FAMILIES)),
             _arg("--emit", action="store_true", help="print machine file"), *_OUT),
            _cmd_zoo),
    "decompose-check": ("target vs intersection of factors over a generator",
                        (_arg("target"), _arg("factors", nargs="*"), *_BOX_FLAGS),
                        _cmd_decompose_check),
    "refute-p": ("search a word separating the factor intersection from the partition language",
                 (_arg("factors", nargs="+"),
                  _arg("--strategy", choices=("enumerate", "guided"), default="enumerate"),
                  _arg("--param-box", type=int, default=6,
                       help="parameter cap for the enumerate strategy"),
                  # spelled like the SearchCaps fields (see _caps_from)
                  *(_arg("--" + cap, type=int, default=None)
                    for cap in ("max-multiple", "run-cap", "coefficient-cap", "horizon", "n-cap"))),
                 _cmd_refute_p),
    "pump": ("extract and pump a cycle of an accepting run",
             (*_MACHINE, *_WORD,
              _arg("--segment", default=None, help="1-based segment index, or 'b' / 'c'"),
              _arg("--sign", choices=("pos", "nonneg"), default="nonneg"),
              _arg("--times", type=int, default=1),
              _arg("--factorial", action="store_true",
                   help="scale copies so one unit adds a |Q|!-length block")),
             _cmd_pump),
}


@functools.cache  # parsing leaves the parser as it was
def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="counternet",
        description="build, simulate, compose and analyse integer counter nets")
    top.add_argument("--json", action="store_true", help="emit a JSON report")
    top.add_argument("--seed", type=int, default=None,
                     help="seed echoed into reports for reproducibility")
    top.add_argument("--exit-zero", action="store_true",
                     help="exit 0 even on negative verdicts")
    top.add_argument("--k", type=int, default=None, help=_K_HELP)
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        # also accepted after the subcommand; SUPPRESS keeps a value given
        # before it from being clobbered by a default
        p.add_argument("--k", type=int, default=argparse.SUPPRESS, help=_K_HELP)
        p.set_defaults(handler=handler)
    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        verdict, counterexample, stats, text = args.handler(args)
    except (CliError, ValueError, SweepLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # not a verdict (a cap, a resource limit, a broken invariant or any
        # other fault), so never the negative-verdict exit 1 of a traceback
        detail = " ".join(str(exc).split())
        print(f"error: internal failure: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 3
    stats["wall_seconds"] = round(time.perf_counter() - started, 6)
    if args.seed is not None:
        stats["seed"] = args.seed
    if args.json:
        report = {
            "command": list(argv) if argv is not None else sys.argv[1:],
            "verdict": verdict,
            "counterexample": (render_word_text(counterexample)
                               if counterexample is not None else None),
            "stats": stats,
        }
        text = json.dumps(report, sort_keys=True)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader left early (`| head -1`): the verdict stands, and the
        # flush at exit must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if verdict in _NEGATIVE and not args.exit_zero:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
