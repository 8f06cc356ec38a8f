"""The four workloads: their inputs, their fixed job lists and the checks
on every answer.

A workload's setup imports nothing itself: it receives the freshly
imported counternet modules, builds the nets and inputs (that is the
timed set-up; work of the harness's own runs inside untimed()), and
jobs() turns them into a fixed list of Job objects.
A job returns None when its answers check out and a message otherwise.
Expected answers come from golden verdicts and counts recorded at the
commit that defined the benchmark, from properties that must hold
whatever the implementation (products commute, the antichain and naive
membership agree, refuter words separate the languages), or from
arithmetic on the inputs (inputs.py); never from byte-comparing outputs
an allowed refactor may change, such as the refuter's word.

Hooks let the traced run pass wrapped oracles and generators; the
untraced run passes the originals.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MACHINES = BENCH / "machines"
OUT = BENCH / "out"


@dataclass
class Job:
    name: str
    why: str
    run: Callable[[], Optional[str]]
    words: int = 0      # words decided, fixed by the input (words_per_s)
    letters: int = 0    # letters of those words (letters_per_s)
    runs: int = 0       # N-runs enumerated and cycle-analysed (runs_per_s)
    cmd: str = ""       # CLI command name (cmd_p50_s)
    sweep: tuple = ()   # (words, deciding nets) for the prefix arithmetic


class PlainHooks:
    @staticmethod
    def oracle(fn):
        return fn

    @staticmethod
    def generator(gen):
        return gen


def _expect(ok: bool, message: str) -> Optional[str]:
    return None if ok else message


def _golden(report, verdict: str, checked: int) -> Optional[str]:
    if report.verdict != verdict or report.checked != checked:
        return f"got {report.verdict}/{report.checked}, expected {verdict}/{checked}"
    return None


# ---------------------------------------------------------------------------
# sweep: many short words sharing long prefixes

SWEEP = {
    "full": dict(seg=(3, 4), sel=(3, 4), paired=3, decomp=2, pk=(3, 3)),
    "tiny": dict(seg=(2, 1), sel=(3, 1), paired=1, decomp=1, pk=(1, 1)),
}


def sweep_setup(m, seed: int, scale: str, untimed):
    z = m.zoo
    size = SWEEP[scale]
    h3 = z.build_paired_dcn(3)
    return dict(
        size=size, seed=seed,
        P=z.build_partition_net(),
        Ld=z.build_selector_dcn(3), Ln=z.build_selector_ncn(3),
        H={k: z.build_paired_dcn(k) for k in (1, 2, 3)},
        H3_factors=[m.constructions.project(h3, i) for i in (1, 2, 3)],
        Pk2=z.build_partition_k(2),
    )


def sweep_jobs(m, st, hooks) -> list[Job]:
    a, z, size = m.analysis, m.zoo, st["size"]
    jobs = []

    def compare(name, why, net, oracle, box):
        words = [item.word for item in box]

        def run():
            rep = a.bounded_compare(net, hooks.oracle(oracle), hooks.generator(box))
            return _golden(rep, "equal", box.size())
        jobs.append(Job(name, why, run, words=len(words), letters=sum(map(len, words)),
                        sweep=(words, 1)))

    seg = a.segmented_box(*size["seg"])
    compare(f"P~partition_oracle segmented_box{size['seg']}",
            "the partition net against its subset-sum oracle (criterion 02)",
            st["P"], z.partition_oracle, seg)
    sel = a.selector_box(*size["sel"])
    compare(f"L3.dcn~oracle selector_box{size['sel']}", "deterministic selector net (criterion 13)",
            st["Ld"], lambda w: z.selector_oracle(3, w), sel)
    compare(f"L3.ncn~oracle selector_box{size['sel']}", "one-counter guessing selector net (criterion 13)",
            st["Ln"], lambda w: z.selector_oracle(3, w), sel)
    for k in (1, 2, 3):
        compare(f"H{k}~oracle paired_box({k},{size['paired']})", "paired-block nets (criterion 13)",
                st["H"][k], lambda w, k=k: z.paired_oracle(k, w), a.paired_box(k, size["paired"]))

    dbox = a.paired_box(3, size["decomp"])
    dwords = [item.word for item in dbox]

    def decomp():
        rep = a.check_decomposition(st["H"][3], st["H3_factors"], hooks.generator(dbox))
        return _golden(rep, "equal", dbox.size())
    jobs.append(Job(f"H3=proj1*proj2*proj3 paired_box(3,{size['decomp']})",
                    "a deterministic net against its own projections, four nets per word",
                    decomp, words=len(dwords), letters=sum(map(len, dwords)),
                    sweep=(dwords, 4)))

    pk_items = [(item.params, z.render_partition_k(2, z.PartitionKWord(
        item.params.segments, (item.params.m_b, item.params.m_c))))
        for item in a.segmented_box(*size["pk"])]
    pk_words = [w for _, w in pk_items]
    oracle = z.partition_oracle

    def pk_cross():
        accepts, traced_oracle, net = m.core.accepts, hooks.oracle(oracle), st["Pk2"]
        bad = sum(accepts(net, w) != traced_oracle(sw) for sw, w in pk_items)
        return _expect(bad == 0, f"{bad} mapped words disagree with the partition oracle")
    jobs.append(Job(f"PkConj(2) mapped segmented_box{size['pk']}",
                    "the k-partition family against the 2-partition oracle (criterion 14)",
                    pk_cross, words=len(pk_words), letters=sum(map(len, pk_words)),
                    sweep=(pk_words, 1)))
    random.Random(st["seed"]).shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# deep: a few long inputs, every prefix stepped once

DEEP = {
    "full": dict(p8=(3, 5, 7, 9, 11, 13, 15, 17), p3=(500, 700, 600), pk3=(2, 3, 4, 5, 6),
                 ncn=(450, 500, 550), l3=12, pairs=80, pair_depth=6, c04=10),
    "tiny": dict(p8=(1, 2, 3), p3=(5, 7, 6), pk3=(1, 2), ncn=(3, 4, 5), l3=4, pairs=2,
                 pair_depth=3, c04=3),
}
# joint-walk node counts recorded when the benchmark was defined; the
# frontier after a prefix is the unique antichain of maximal vectors, so
# these depend on the nets, not on how the walk computes them
WALK_NODES = {
    ("full", "l3"): 1547, ("full", "paired_dcn_3"): 781, ("full", "selector_dcn_3"): 946,
    ("tiny", "l3"): 95, ("tiny", "paired_dcn_3"): 32, ("tiny", "selector_dcn_3"): 50,
}


def _shape_net(core, b, alphabet):
    """{u$v | u in L(b), v over a/b/c/#} as a plain net (criterion 11)."""
    zero = (0,) * b.dimension
    ts = list(b.transitions)
    ts += [core.Transition(q, "$", zero, "post") for q in b.states if q in b.accepting]
    ts += [core.Transition("post", x, zero, "post") for x in "abc#"]
    return core.validate(core.CounterNet("shape", b.dimension, alphabet, b.states + ("post",),
                                         b.initial, frozenset({"post"}), tuple(ts)))


def deep_setup(m, seed: int, scale: str, untimed):
    z, k, core = m.zoo, m.constructions, m.core
    size = DEEP[scale]
    rng = random.Random(seed)
    # fixed segment lengths keep the frontier widths, and so the cost, the
    # same for every seed; the seed picks which segments pay which block
    p8 = z.SegmentedWord(size["p8"], *inputs.split(rng, size["p8"], 2))
    p3 = z.SegmentedWord(size["p3"], *inputs.split(rng, size["p3"], 2))
    pk3 = z.PartitionKWord(size["pk3"], inputs.split(rng, size["pk3"], 3))
    ncn = z.SelectorWord(size["ncn"], rng.randint(1, 3), min(size["ncn"]))
    pairs = []
    for _ in range(size["pairs"]):
        a = inputs.random_cn(core, rng, 2, max_states=3)
        b = inputs.random_cn(core, rng, 2, max_states=3)
        pairs.append((k.product(a, b), k.product(b, a)))
    c04 = []
    for net in (z.build_paired_dcn(3), z.build_selector_dcn(3)):
        c04.append((net, [k.project(net, i) for i in range(1, net.dimension + 1)]))
    ge, univ = (m.fileformat.parse_machine_file((MACHINES / f).read_text(encoding="utf-8"))[0]
                for f in ("ge.cn", "univ.cn"))
    contained = k.build_reduction(ge, univ)
    swapped = k.build_reduction(univ, ge)
    P = z.build_partition_net()
    return dict(
        size=size, scale=scale,
        members=[
            ("P 8-segment", P, p8, z.render_segmented(p8)),
            ("P 3-segment long", P, p3, z.render_segmented(p3)),
            ("PkConj(3)", z.build_partition_k(3), pk3, z.render_partition_k(3, pk3)),
            ("L3.ncn long", z.build_selector_ncn(3), ncn, z.render_selector(3, ncn)),
        ],
        L3=(z.build_selector_dcn(3), z.build_selector_ncn(3)),
        pairs=pairs, c04=c04,
        c11=(contained, _shape_net(core, univ, contained.alphabet),
             swapped, _shape_net(core, ge, swapped.alphabet)),
    )


def deep_jobs(m, st, hooks) -> list[Job]:
    a, core, size, scale = m.analysis, m.core, st["size"], st["scale"]
    jobs = []
    for label, net, params, word in st["members"]:
        def member(net=net, word=word):
            return _expect(core.accepts(net, word) is True, "member word rejected")
        jobs.append(Job(f"{label} member, {len(word)} letters",
                        "long member word built from a seeded split of fixed blocks",
                        member, words=1, letters=len(word)))

    def l3_walk():
        rep = a.compare_nets_walk(*st["L3"], size["l3"])
        return _golden(rep, "equal", WALK_NODES[(scale, "l3")])
    jobs.append(Job(f"walk L3.dcn vs L3.ncn depth {size['l3']}",
                    "joint frontier walk between two presentations of one language", l3_walk))

    def commute():
        for ab, ba in st["pairs"]:
            rep = a.compare_nets_walk(ab, ba, size["pair_depth"])
            if rep.verdict != "equal":
                return f"product(a,b) and product(b,a) differ: {rep.verdict}"
        return None
    jobs.append(Job(f"walk product(a,b) vs product(b,a), {size['pairs']} seeded pairs, "
                    f"depth {size['pair_depth']}",
                    "4-counter products of seeded random nets must commute", commute))

    def c04():
        for net, factors in st["c04"]:
            rep = a.check_decomposition(net, factors, a.all_words(net.alphabet, size["c04"]))
            bad = _golden(rep, "equal", WALK_NODES[(scale, net.name)])
            if bad:
                return f"{net.name}: {bad}"
        return None
    jobs.append(Job(f"check_decomposition vs own projections, all words to {size['c04']}",
                    "product_all plus the joint walk (criterion 04)", c04))

    def c11():
        contained, shape, swapped, shape_ge = st["c11"]
        eq = a.compare_nets_walk(contained, shape, 10)
        neq = a.compare_nets_walk(swapped, shape_ge, 12)
        w = neq.counterexample
        ok = (eq.verdict == "equal" and neq.verdict == "left-only" and w is not None
              and len(w) <= 12 and core.accepts(swapped, w) and not core.accepts(shape_ge, w))
        return _expect(ok, f"containment gadget: {eq.verdict}, {neq.verdict} {w}")
    jobs.append(Job("containment gadget walks, depth 10 and 12",
                    "reduction gadget nets with a $-separated shape (criterion 11)", c11))
    return jobs


# ---------------------------------------------------------------------------
# runs: run enumeration and cycle analysis

RUNS = {
    "full": dict(forced_letters=60_000, pumps=10, pads=(0, 1, 2), naive_nets=250, naive_len=4,
                 pipelines=True),
    "tiny": dict(forced_letters=1_000, pumps=1, pads=(0,), naive_nets=1, naive_len=3,
                 pipelines=False),
}
FORCED_CAP = 50
# enumerate_runs walks every non-negative partial run until it has the
# capped number of complete ones; nets whose tree is larger than this are
# skipped, because a few dead-end-heavy nets would otherwise decide the
# cost of a whole seed
TREE_LIMIT = 20_000


def _unary_instances(core, a, rng, starts, untimed):
    """Seeded unary nets with four states and a largest positive update
    of 2, each with one forced enumeration (start state, start value,
    horizon, run count, ceiling) per initial state.  The run-length bound
    (criteria 07 and 08) needs a positive update; fixing both numbers
    fixes the forced horizons (32 to 44 letters), and one seeded start
    value per net spreads the runs over many nets, so every seed costs
    about the same."""
    while True:
        net = inputs.random_unary_1cn(core, rng, max_states=4, max_update=2)
        if len(net.states) != 4 or core.max_positive_update(net) != 2:
            continue
        n = rng.choice(starts)
        horizon = a.forcing_length(4, 2, n)
        plan = []
        for start in sorted(net.initial):
            with untimed():  # the harness's own arithmetic, not set-up work
                count, tree = inputs.count_unary_runs(net, start, n, horizon)
            plan.append((start, n, horizon, count, a.counter_ceiling(n, 2, 4), tree))
        if all(p[-1] <= TREE_LIMIT for p in plan):
            yield net, plan


def runs_setup(m, seed: int, scale: str, untimed):
    core, a, z = m.core, m.analysis, m.zoo
    size = RUNS[scale]
    rng = random.Random(seed)
    # nets are drawn until the runs they force, counted by dynamic
    # programming, hold a fixed number of letters, so every seed analyses
    # about as much
    forced, letters = [], 0
    instances = _unary_instances(core, a, rng, range(4), untimed)
    while letters < size["forced_letters"]:
        net, plan = next(instances)
        for start, n, horizon, count, ceiling, _ in plan:
            if letters < size["forced_letters"]:
                forced.append((net, start, n, horizon, count, ceiling))
                letters += min(count, FORCED_CAP) * horizon
    pump_nets = [net for net, _ in itertools.islice(
        _unary_instances(core, a, rng, (3,), untimed), size["pumps"])]
    cb, cc = z.build_coarse_factors()
    refuter = [(pad, [inputs.padded(core, cb, pad), inputs.padded(core, cc, pad)])
               for pad in size["pads"]]
    naive = [inputs.random_cn(core, rng, rng.randint(1, 3), max_states=5)
             for _ in range(size["naive_nets"])]
    pipelines = [z.build_paired_dcn(2), z.build_selector_dcn(2)] if size["pipelines"] else []
    return dict(size=size, forced=forced, pump_nets=pump_nets, refuter=refuter,
                naive=naive, pipelines=pipelines)


def runs_jobs(m, st, hooks) -> list[Job]:
    core, a, z, size = m.core, m.analysis, m.zoo, st["size"]
    jobs = []
    forced = st["forced"]
    total_runs = sum(min(c, FORCED_CAP) for *_, c, _ in forced)

    def forced_runs():
        for net, start, n, horizon, count, ceiling in forced:
            enum = core.enumerate_runs(net, ("s",) * horizon, start, (n,),
                                       accepting_only=False, cap=FORCED_CAP)
            if len(enum.runs) != min(count, FORCED_CAP) or enum.truncated != (count > FORCED_CAP):
                return f"{len(enum.runs)} runs (truncated {enum.truncated}), expected {count}"
            for run in enum.runs:
                cycles = a.find_cycles(run)
                if not any(all(e >= 0 for e in c.effect) for c in cycles):
                    return "forced run without a non-negative cycle"
                flat = not any(c.effect[0] > 0 for c in cycles)
                if flat and max(c.counters[0] for c in run.configs) > ceiling:
                    return "cycle-flat run above the counter ceiling"
        return None
    jobs.append(Job(f"forced unary runs: {len(forced)} enumerations, {total_runs} runs",
                    "enumerate_runs plus find_cycles on every run (criteria 07, 08)",
                    forced_runs, runs=total_runs))

    def pumping():
        for net in st["pump_nets"]:
            states = len(net.states)
            horizon = a.forcing_length(states, core.max_positive_update(net), 3)
            enum = core.enumerate_runs(net, ("s",) * horizon, sorted(net.initial)[0], (3,),
                                       accepting_only=False, cap=50)
            for run in enum.runs:
                cycle = a.extract_pumpable_cycle(run)
                if cycle is None:
                    continue
                block = math.factorial(states)
                for times in (1, 2, 3):
                    grown = a.pump_run(run, cycle, times, factorial_of=states)
                    if (len(grown.transitions) != len(run.transitions) + times * block
                            or set(grown.word()) - {"s"}
                            or grown.configs[-1].counters[0] < run.configs[-1].counters[0]):
                        return "pumped run lost length, letters or counter value"
                break
        return None
    jobs.append(Job(f"extract_pumpable_cycle + pump_run on {len(st['pump_nets'])} seeded nets",
                    "cycle extraction and |Q|!-block pumping (criterion 09)", pumping))

    for pad, factors in st["refuter"]:
        for strategy in (("guided", "enumerate") if pad == 0 else ("guided",)):
            def refute(factors=factors, strategy=strategy):
                res = a.refute_partition_decomposition(factors, strategy=strategy)
                if res.verdict != "counterexample" or res.word is None:
                    return f"{strategy}: {res.verdict}"
                sw = z.parse_segmented(res.word)
                ok = (all(core.accepts(f, res.word) for f in factors)
                      and not z.partition_oracle(sw)
                      and not inputs.in_partition_language(sw.segments, sw.m_b, sw.m_c))
                return _expect(ok, f"{strategy}: word does not separate the languages")
            jobs.append(Job(f"refute {strategy}, coarse factors + {pad} unreachable states",
                            "decomposition refuter; padding grows |Q|! but not the language",
                            refute))

    naive_words = [(net, item.word) for net in st["naive"]
                   for item in a.all_words(net.alphabet, size["naive_len"])]

    def naive():
        bad = sum(core.accepts(net, w) != core.accepts_naive(net, w) for net, w in naive_words)
        return _expect(bad == 0, f"{bad} words where accepts and accepts_naive disagree")
    jobs.append(Job(f"accepts vs accepts_naive, {len(st['naive'])} seeded nets, "
                    f"words to {size['naive_len']}",
                    "antichain membership against naive path enumeration (criterion 06)",
                    naive, words=len(naive_words),
                    letters=sum(len(w) for _, w in naive_words)))

    for net in st["pipelines"]:
        def pipeline(net=net):
            rep = m.vas.verify_pipeline(net)
            ok = (rep.labelled_matches and rep.containment_ok and rep.gating_ok
                  and rep.gating_violations == 0)
            return _expect(ok, f"pipeline on {net.name} reports violations")
        jobs.append(Job(f"verify_pipeline({net.name})",
                        "single-state flattening and its recursive word walkers (criterion 12)",
                        pipeline))
    return jobs


# ---------------------------------------------------------------------------
# cli: the README commands as subprocesses

def _parses(m, text: str, dims: tuple[int, ...]) -> bool:
    nets = m.fileformat.parse_machine_file(text)
    return tuple(n.dimension for n in nets) == dims


def cli_setup(m, seed: int, scale: str, untimed):
    OUT.mkdir(parents=True, exist_ok=True)
    for f in ("ge.cn", "univ.cn"):
        m.fileformat.parse_machine_file((MACHINES / f).read_text(encoding="utf-8"))
    return dict(seed=seed, ge=str((MACHINES / "ge.cn").relative_to(ROOT)),
                univ=str((MACHINES / "univ.cn").relative_to(ROOT)))


def _refuted(m, text: str) -> bool:
    found = re.search(r"'([^']*)'", text)
    if not found:
        return False
    word = m.fileformat.parse_word(found.group(1))
    sw = m.zoo.parse_segmented(word)
    return (all(m.core.accepts(f, word) for f in m.zoo.build_coarse_factors())
            and not inputs.in_partition_language(sw.segments, sw.m_b, sw.m_c))


def cli_commands(m, st):
    """(name, argv, documented exit code, output check, words, letters)."""
    out = OUT.relative_to(ROOT)
    ge, univ = st["ge"], st["univ"]

    def wrote(path, dims):
        return lambda text: text.strip() == f"wrote {path}" and _parses(
            m, Path(path).read_text(encoding="utf-8"), dims)
    triple_letters = sum(a + b + c + 2 for a in range(9) for b in range(9) for c in range(9))
    check_word = "a^10 # a^20 # a^15 # b^15 c^30"
    return [
        ("check", ["check", "zoo:P", "--word", check_word], 0,
         lambda t: t.startswith("accept:"), 1, 93),
        ("eq", ["eq", "zoo:fig1.main", "zoo:fig1.product", "--box", "triple:8"], 0,
         lambda t: t.strip() == "equal (729 prefixes/words checked)", 729, triple_letters),
        ("product", ["product", "zoo:fig1.b1", "zoo:fig1.b2", "-o", str(out / "prod.cn")], 0,
         wrote(out / "prod.cn", (2,)), 0, 0),
        ("project", ["project", "zoo:P", "--counter", "1", "-o", str(out / "first.cn")], 0,
         wrote(out / "first.cn", (1,)), 0, 0),
        ("union", ["union", ge, univ, "-o", str(out / "either.cn")], 0,
         wrote(out / "either.cn", (1,)), 0, 0),
        ("lift", ["lift", ge, "--dim", "3", "--placement", "2", "-o", str(out / "lifted.cn")], 0,
         wrote(out / "lifted.cn", (3,)), 0, 0),
        ("zoo", ["zoo", "Hk", "--k", "2", "--emit"], 0, lambda t: _parses(m, t, (2,)), 0, 0),
        ("vasify", ["vasify", "zoo:Hk", "--k", "2", "--report"], 0,
         lambda t: "label stage: ok" in t and "gating: ok" in t, 0, 0),
        ("reduce", ["reduce", ge, univ, "-o", str(out / "gadget.cn")], 0,
         wrote(out / "gadget.cn", (2,)), 0, 0),
        ("decompose-check", ["decompose-check", "zoo:P", "zoo:coarse.b", "zoo:coarse.c",
                             "--segmented-box", "6"], 1,
         lambda t: t.startswith("counterexample:"), 0, 0),
        ("refute-p", ["refute-p", "zoo:coarse.b", "zoo:coarse.c", "--strategy", "guided"], 1,
         lambda t: t.startswith("counterexample (intersection-only)") and _refuted(m, t), 0, 0),
        ("pump", ["pump", "zoo:coarse.b", "--word", "a^6 # b^3", "--segment", "1", "--sign", "pos",
                  "--times", "2"], 0, lambda t: t.startswith("pumped word:"), 0, 0),
    ]


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cli_jobs(m, st, hooks, in_process: bool = False) -> list[Job]:
    jobs = []
    env = cli_env()
    for name, argv, code, check, words, letters in cli_commands(m, st):
        if in_process:
            def run(argv=argv, code=code, check=check):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    got = m.cli.main(argv)
                return _expect(got == code and check(buf.getvalue()), f"exit {got}")
        else:
            def run(argv=argv, code=code, check=check):
                proc = subprocess.run([sys.executable, "-m", "counternet.cli", *argv], env=env,
                                      cwd=ROOT, capture_output=True, text=True, timeout=120)
                return _expect(proc.returncode == code and check(proc.stdout),
                               f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        jobs.append(Job(f"counternet {' '.join(argv)}", f"README command, exits {code}", run,
                        words=words, letters=letters, cmd=name))
    random.Random(st["seed"]).shuffle(jobs)
    return jobs


@dataclass(frozen=True)
class Workload:
    why: str
    setup: Callable
    jobs: Callable


WORKLOADS = {
    "sweep": Workload("many short words sharing long prefixes: every word re-stepped from the "
                      "empty prefix, so prefix sharing, step tables and antichains show here",
                      sweep_setup, sweep_jobs),
    "deep": Workload("a few long words and joint walks: the frontier layer with no prefix to "
                     "reuse, so antichain and step changes show and sweep changes must not",
                     deep_setup, deep_jobs),
    "runs": Workload("run enumeration, cycle search and the refuter with almost no antichain "
                     "work, so find_cycles and refuter changes show here and nowhere else",
                     runs_setup, runs_jobs),
    "cli": Workload("README commands in sequence as subprocesses: interpreter start, import, "
                    "argparse and the file format dominate; the kernels are almost idle",
                    cli_setup, cli_jobs),
}
