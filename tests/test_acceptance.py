"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line (run with -s to see them all)
and asserts the same condition, so the suite doubles as a report.
Random instances use fixed seeds; timings are wall-clock upper bounds
well above what the implementation needs.
"""

from __future__ import annotations

import math
import random
from time import perf_counter

from counternet.analysis import (
    all_words,
    bounded_compare,
    check_decomposition,
    compare_nets_walk,
    counter_ceiling,
    extract_pumpable_cycle,
    find_cycles,
    forcing_length,
    paired_box,
    pump_run,
    refute_partition_decomposition,
    segmented_box,
    selector_box,
    triple_box,
)
from counternet.constructions import build_reduction, product, project
from counternet.core import (
    CounterNet,
    FrontierGraph,
    Transition,
    accepts,
    accepts_naive,
    enumerate_runs,
    max_positive_update,
    validate,
)
from counternet.fileformat import render_word_text
from counternet.zoo import (
    PartitionKWord,
    build_coarse_factors,
    build_paired_dcn,
    build_partition_k,
    build_partition_net,
    build_selector_dcn,
    build_selector_ncn,
    build_shared_budget,
    paired_oracle,
    parse_segmented,
    partition_oracle,
    render_partition_k,
    selector_oracle,
    shared_budget_oracle,
)
from counternet.vas import verify_pipeline

from randnets import random_cn, random_unary_1cn


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def word(text: str) -> tuple[str, ...]:
    return tuple(text)


def test_criterion_01_partition_golden_cases():
    t0 = perf_counter()
    net = build_partition_net()
    good = word("a" * 10 + "#" + "a" * 20 + "#" + "a" * 15 + "#" + "b" * 15 + "c" * 30)
    bad = word("a" * 10 + "#" + "a" * 20 + "#" + "a" * 15 + "#" + "b" * 21 + "c" * 21)
    ok_good = accepts(net, good)
    ok_bad = not accepts(net, bad)
    dt = perf_counter() - t0
    report(1, ok_good and ok_bad and dt < 1.0,
           f"golden accept/reject in {dt:.3f}s")


def test_criterion_02_partition_oracle_equivalence():
    t0 = perf_counter()
    rep = bounded_compare(build_partition_net(), partition_oracle, segmented_box(3, 6))
    dt = perf_counter() - t0
    report(2, rep.verdict == "equal" and dt < 30.0,
           f"{rep.checked} segmented words, verdict {rep.verdict}, {dt:.2f}s")


def test_criterion_03_budget_decomposition():
    t0 = perf_counter()
    main, b1, b2 = build_shared_budget()
    prod = product(b1, b2)
    vs_product = bounded_compare(main, prod, triple_box(8))
    vs_formula = bounded_compare(
        main, lambda p: shared_budget_oracle(*p), triple_box(8))
    dt = perf_counter() - t0
    ok = vs_product.verdict == "equal" and vs_formula.verdict == "equal"
    report(3, ok and dt < 10.0,
           f"{vs_product.checked} words agree with product and formula, {dt:.2f}s")


def test_criterion_04_deterministic_projection_decomposition():
    results = []
    for net in (build_paired_dcn(3), build_selector_dcn(3)):
        factors = [project(net, i) for i in range(1, net.dimension + 1)]
        rep = check_decomposition(net, factors, all_words(net.alphabet, 10))
        results.append((net.name, rep.verdict))
    ok = all(v == "equal" for _, v in results)
    report(4, ok, "; ".join(f"{n}: {v} vs own projections" for n, v in results))


def test_criterion_05_product_law_random():
    rng = random.Random(50_105)
    failures = 0
    for _ in range(50):
        a = random_cn(rng, 1, max_states=4)
        b = random_cn(rng, 1, max_states=4)
        in_a, in_b, in_prod = (FrontierGraph(n).accepts for n in (a, b, product(a, b)))
        for item in all_words(a.alphabet, 7):
            both = in_a(item.word) and in_b(item.word)
            if in_prod(item.word) != both:
                failures += 1
    report(5, failures == 0, f"50 random pairs, words to length 7, {failures} failures")


def test_criterion_06_antichain_vs_naive():
    rng = random.Random(50_106)
    mismatches = 0
    for _ in range(100):
        net = random_cn(rng, rng.randint(1, 3), max_states=5)
        for item in all_words(net.alphabet, 8):
            if accepts(net, item.word) != accepts_naive(net, item.word):
                mismatches += 1
    report(6, mismatches == 0, f"100 random nets, words to length 8, {mismatches} mismatches")


def _unary_instances(seed: int, count: int):
    """Random unary nets with at least one positive update.  The run
    length bound assumes the maximal positive update exists; with none,
    a single falling self-loop read to exhaustion has only < 0 cycles."""
    rng = random.Random(seed)
    nets = []
    while len(nets) < count:
        net = random_unary_1cn(rng, max_states=4, max_update=2)
        if max_positive_update(net) >= 1:
            nets.append(net)
    return nets


def test_criterion_07_long_runs_contain_nonneg_cycle():
    violations = 0
    runs_checked = 0
    for net in _unary_instances(50_107, 50):
        w_max = max_positive_update(net)
        for start in net.initial:
            for n in range(4):
                horizon = forcing_length(len(net.states), w_max, n)
                enum = enumerate_runs(net, ("s",) * horizon, start, (n,),
                                      accepting_only=False, cap=200)
                for run in enum.runs:
                    runs_checked += 1
                    cycles = find_cycles(run)
                    if not any(all(e >= 0 for e in c.effect) for c in cycles):
                        violations += 1
    report(7, violations == 0,
           f"{runs_checked} forced runs, {violations} without a >=0 cycle")


def test_criterion_08_flat_runs_stay_bounded():
    violations = 0
    runs_checked = 0
    for net in _unary_instances(50_107, 50):
        w_max = max_positive_update(net)
        ceiling_cache = {n: counter_ceiling(n, w_max, len(net.states)) for n in range(4)}
        for start in net.initial:
            for n in range(4):
                horizon = forcing_length(len(net.states), w_max, n)
                enum = enumerate_runs(net, ("s",) * horizon, start, (n,),
                                      accepting_only=False, cap=200)
                for run in enum.runs:
                    if any(c.effect[0] > 0 for c in find_cycles(run)):
                        continue
                    runs_checked += 1
                    peak = max(c.counters[0] for c in run.configs)
                    if peak > ceiling_cache[n]:
                        violations += 1
    report(8, violations == 0,
           f"{runs_checked} cycle-flat runs, {violations} above the ceiling")


def test_criterion_09_pumping_preserves_validity():
    rng = random.Random(50_109)
    pumped = 0
    violations = 0
    while pumped < 25:
        net = random_unary_1cn(rng, max_states=4, max_update=2)
        if max_positive_update(net) < 1:
            continue
        horizon = forcing_length(len(net.states), max_positive_update(net), 3)
        start = sorted(net.initial)[0]
        enum = enumerate_runs(net, ("s",) * horizon, start, (3,),
                              accepting_only=False, cap=50)
        for run in enum.runs:
            cycle = extract_pumpable_cycle(run)
            if cycle is None:
                continue
            block = math.factorial(len(net.states))
            for m in (1, 2, 3):
                grown = pump_run(run, cycle, m, factorial_of=len(net.states))
                long_enough = len(grown.transitions) == len(run.transitions) + m * block
                still_unary = set(grown.word()) <= {"s"}
                no_loss = all(a >= b for a, b in zip(grown.configs[-1].counters,
                                                     run.configs[-1].counters))
                if not (long_enough and still_unary and no_loss):
                    violations += 1
            pumped += 1
            break
    report(9, violations == 0,
           f"{pumped} instances pumped 1..3 blocks, {violations} violations")


def test_criterion_10_refuter_on_coarse_factors():
    factors = list(build_coarse_factors())
    details = []
    ok = True
    for strategy in ("enumerate", "guided"):
        t0 = perf_counter()
        res = refute_partition_decomposition(factors, strategy=strategy)
        dt = perf_counter() - t0
        in_both = all(accepts(f, res.word) for f in factors)
        outside = not partition_oracle(parse_segmented(res.word))
        ok = ok and res.verdict == "counterexample" and in_both and outside and dt < 60.0
        details.append(f"{strategy} {render_word_text(res.word)} in {dt:.2f}s")
    report(10, ok, "; ".join(details))


def _ge_net() -> CounterNet:
    # counter counts d's; e's spend them, so L = words with every
    # e-prefix covered by earlier d's
    ts = (
        Transition("dd", "d", (1,), "dd"),
        Transition("dd", "e", (-1,), "ee"),
        Transition("ee", "e", (-1,), "ee"),
    )
    return validate(CounterNet("ge", 1, frozenset("de"), ("dd", "ee"),
                               frozenset({"dd"}), frozenset({"dd", "ee"}), ts))


def _universal_net() -> CounterNet:
    ts = tuple(Transition("u", x, (0,), "u") for x in "de")
    return validate(CounterNet("univ", 1, frozenset("de"), ("u",),
                               frozenset({"u"}), frozenset({"u"}), ts))


def _shape_net(b: CounterNet, alphabet: frozenset[str]) -> CounterNet:
    """Language {u$v | u in L(b), v over a/b/c/#}, as a plain net."""
    sink = "post"
    ts = list(b.transitions)
    for q in b.states:
        if q in b.accepting:
            ts.append(Transition(q, "$", (0,) * b.dimension, sink))
    for x in "abc#":
        ts.append(Transition(sink, x, (0,) * b.dimension, sink))
    return validate(CounterNet("shape", b.dimension, alphabet,
                               b.states + (sink,), b.initial,
                               frozenset({sink}), tuple(ts)))


def test_criterion_11_containment_gadget():
    ge, univ = _ge_net(), _universal_net()

    contained = build_reduction(ge, univ)  # L(ge) inside L(univ)
    shape = _shape_net(univ, contained.alphabet)
    rep_eq = compare_nets_walk(contained, shape, max_len=10)

    swapped = build_reduction(univ, ge)  # L(univ) not inside L(ge)
    rep_neq = compare_nets_walk(swapped, _shape_net(ge, swapped.alphabet), max_len=12)

    ok = (rep_eq.verdict == "equal"
          and rep_neq.verdict == "left-only"
          and rep_neq.counterexample is not None
          and len(rep_neq.counterexample) <= 12)
    report(11, ok,
           f"containment shape equal to length 10; swapped pair split by "
           f"{''.join(rep_neq.counterexample)} ({rep_neq.verdict})")


def test_criterion_12_single_state_pipeline():
    # the flat net's counters grow without bound, so depth-bounded
    # exploration never closes the frontier; clean means zero violations
    rep = verify_pipeline(build_paired_dcn(2))
    ok = (rep.labelled_matches and rep.containment_ok and rep.gating_ok
          and rep.gating_violations == 0)
    report(12, ok,
           f"label/containment/gating clean over {rep.stats['gating_nodes']} "
           f"protocol nodes, {rep.extra_count} expected extra flat words reported")


def test_criterion_13_zoo_families_match_oracles():
    checks = [
        (build_selector_dcn(3), lambda w: selector_oracle(3, w), selector_box(3, 5)),
        (build_selector_ncn(3), lambda w: selector_oracle(3, w), selector_box(3, 5)),
    ]
    for k in (1, 2, 3):
        checks.append((build_paired_dcn(k),
                       lambda w, k=k: paired_oracle(k, w), paired_box(k, 5)))
    details = []
    ok = True
    for net, oracle, box in checks:
        rep = bounded_compare(net, oracle, box)
        ok = ok and rep.verdict == "equal"
        details.append(f"{net.name} {rep.verdict} on {rep.checked}")
    report(13, ok, "; ".join(details))


def test_criterion_14_conjecture_family_cross_check():
    in_net = FrontierGraph(build_partition_k(2)).accepts
    mismatches = 0
    checked = 0
    for item in segmented_box(3, 6):
        sw = item.params
        w = render_partition_k(2, PartitionKWord(sw.segments, (sw.m_b, sw.m_c)))
        checked += 1
        if in_net(w) != partition_oracle(sw):
            mismatches += 1
    report(14, mismatches == 0,
           f"{checked} mapped segmented words, {mismatches} mismatches")
