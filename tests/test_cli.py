import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import pytest

from counternet import analysis, cli, fileformat, zoo
from counternet.cli import K_BUDGET, LIFT_BUDGET, main
from counternet.core import EnumerationCapError
from counternet.fileformat import parse_machine_file, render_word_text

GE_FILE = """
cn ge
dim 1
alphabet d e
init dd
accept dd ee
trans dd d 1 dd
trans dd e -1 ee
trans ee e -1 ee
end

cn univ
dim 1
alphabet d e
init u
accept u
trans u d 0 u
trans u e 0 u
end
"""


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, "--json", *argv)
    return rc, json.loads(out), err


# --- rendering ----------------------------------------------------------------

def test_render_word_text():
    assert render_word_text(()) == ""
    assert render_word_text(("a",)) == "a"
    assert render_word_text(("a", "a", "a", "#", "b")) == "a^3 # b"
    assert render_word_text(("b_1", "b_1", "c")) == "b_1^2 c"


# --- check ----------------------------------------------------------------------

def test_check_accepts_golden(capsys):
    rc, out, _ = run(capsys, "check", "zoo:P", "--word", "a^10 # a^20 # a^15 # b^15 c^30")
    assert rc == 0
    assert out.startswith("accept")


def test_check_rejects_golden(capsys):
    rc, out, _ = run(capsys, "check", "zoo:P", "--word", "a^10 # a^20 # a^15 # b^21 c^21")
    assert rc == 1
    assert out.startswith("reject")


def test_check_exit_zero(capsys):
    rc, out, _ = run(capsys, "--exit-zero", "check", "zoo:P", "--word", "a")
    assert rc == 0
    assert out.startswith("reject")


def test_check_with_initial_counters(capsys):
    rc, _, _ = run(capsys, "check", "zoo:coarse.b", "--word", "b^2", "--initial", "2")
    assert rc == 0
    rc, _, _ = run(capsys, "check", "zoo:coarse.b", "--word", "b^2", "--initial", "1")
    assert rc == 1


def test_check_initial_arity_error(capsys):
    rc, _, err = run(capsys, "check", "zoo:P", "--word", "a", "--initial", "1")
    assert rc == 2
    assert "components" in err


def test_check_bad_word_syntax(capsys):
    rc, _, err = run(capsys, "check", "zoo:P", "--word", "a^x")
    assert rc == 2


def test_check_word_past_the_budget_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(fileformat, "WORD_BUDGET", 100)
    rc, text, err = run(capsys, "check", "zoo:P", "--word", "a^50 # a^50")
    assert rc == 2 and text == ""
    assert "word has more than 100 letters" in err
    rc, text, err = run(capsys, "pump", "zoo:coarse.b", "--word", "a^101")
    assert rc == 2 and "word has more than 100 letters" in err


def test_check_unknown_zoo_entry(capsys):
    rc, _, err = run(capsys, "check", "zoo:nope", "--word", "a")
    assert rc == 2
    assert "zoo" in err
    rc, _, err = run(capsys, "check", "zoo:coarse.x", "--word", "a")
    assert rc == 2
    assert "coarse.b, coarse.c" in err


def test_check_missing_file(capsys):
    rc, _, err = run(capsys, "check", "/no/such/file.cn", "--word", "a")
    assert rc == 2


def test_caret_letter_in_a_machine_file_is_a_usage_error(tmp_path, capsys):
    # "x^2" would read back as x x, so such a letter is refused outright
    path = tmp_path / "caret.cn"
    path.write_text("cn a\ndim 0\nalphabet x^2 x\ninit p\naccept q\ntrans p x^2 q\nend\n"
                    "cn b\ndim 0\nalphabet x^2 x\ninit p\nend\n")
    rc, text, err = run(capsys, "eq", f"{path}:a", f"{path}:b", "--max-len", "2")
    assert rc == 2 and text == ""
    assert "bad alphabet token 'x^2'" in err
    rc, _, _ = run(capsys, "check", f"{path}:a", "--word", "x^2")
    assert rc == 2


def test_files_without_one_machine_of_the_name_are_usage_errors(tmp_path, capsys):
    empty, twice = tmp_path / "empty.cn", tmp_path / "twice.cn"
    empty.write_text("; a comment and no machine\n")
    twice.write_text(GE_FILE + GE_FILE)
    assert run(capsys, "check", str(empty), "--word", "d") == (2, "", f"error: {empty} defines no machines\n")
    assert run(capsys, "check", f"{twice}:ge", "--word", "d") == (
        2, "", f"error: {twice} defines 'ge' more than once\n")


@pytest.mark.parametrize("argv, message", [
    (("eq", "zoo:P", "zoo:P", "--box", "triple:1,2"), "box triple takes (1,) arguments, got 2"),
    (("eq", "zoo:coarse.b", "zoo:L2.dcn", "--box", "words:2"),
     "--box words needs machines over a common alphabet"),
    (("eq", "zoo:coarse.b", "zoo:L2.dcn", "--max-len", "2"), "--max-len needs machines over a common alphabet"),
    (("lift", "zoo:P", "--dim", "3", "--placement", "1,x"), "--placement must be comma-separated coordinates"),
])
def test_bad_flag_values_name_the_flag(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_check_file_with_name_selection(tmp_path, capsys):
    f = tmp_path / "two.cn"
    f.write_text(GE_FILE)
    rc, _, err = run(capsys, "check", str(f), "--word", "d")
    assert rc == 2
    assert "several machines" in err
    rc, out, _ = run(capsys, "check", f"{f}:ge", "--word", "d d e")
    assert rc == 0
    rc, _, err = run(capsys, "check", f"{f}:missing", "--word", "d")
    assert rc == 2


# --- eq ----------------------------------------------------------------------------

def test_eq_budget_product_matches_main(capsys):
    rc, rep, _ = run_json(capsys, "eq", "zoo:fig1.main", "zoo:fig1.product",
                          "--box", "triple:5")
    assert rc == 0
    assert rep["verdict"] == "equal"
    assert rep["counterexample"] is None
    assert rep["stats"]["checked"] == 6 ** 3


def test_eq_finds_counterexample(capsys):
    rc, rep, _ = run_json(capsys, "eq", "zoo:coarse.b", "zoo:coarse.c", "--max-len", "2")
    assert rc == 1
    assert rep["verdict"] == "right-only"
    assert rep["counterexample"] == "b"


def test_eq_selector_variants_agree(capsys):
    rc, rep, _ = run_json(capsys, "eq", "zoo:Lk.dcn", "zoo:Lk.ncn", "--k", "2",
                          "--box", "selector:2,3")
    assert rc == 0
    assert rep["verdict"] == "equal"


def test_eq_prints_an_exhausted_walk(monkeypatch, capsys):
    monkeypatch.setattr(analysis, "_WALK_NODES", 10)
    assert run(capsys, "eq", "zoo:P", "zoo:P", "--max-len", "5") == (
        1, "exhausted after 11 nodes, no verdict\n", "")


def test_eq_walk_past_the_entry_budget_stops_in_seconds():
    # P against itself passes the walk's 2*10^6 vector entries at depth 33;
    # without the budget --max-len 100 ran out of memory after 45 s
    started = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "counternet.cli", "eq", "zoo:P", "zoo:P", "--max-len", "100"],
                          capture_output=True, text=True, env=_cli_env(), timeout=60)
    assert perf_counter() - started < 20
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "exhausted after 51037 nodes, no verdict\n", "")


def test_eq_needs_exactly_one_generator(capsys):
    rc, _, err = run(capsys, "eq", "zoo:P", "zoo:P")
    assert rc == 2
    assert "exactly one" in err
    rc, _, err = run(capsys, "eq", "zoo:P", "zoo:P", "--max-len", "2",
                     "--box", "triple:2")
    assert rc == 2


def test_eq_bad_box_argument(capsys):
    rc, _, err = run(capsys, "eq", "zoo:P", "zoo:P", "--box", "nonsense:3")
    assert rc == 2
    rc, _, err = run(capsys, "eq", "zoo:P", "zoo:P", "--box", "triple:x")
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ("eq", "zoo:fig1.b1", "zoo:fig1.b2", "--max-len", "-1"),
    ("eq", "zoo:fig1.b1", "zoo:fig1.b2", "--box", "words:-2"),
    ("decompose-check", "zoo:P", "zoo:coarse.b", "--max-len", "-1"),
    ("vasify", "zoo:Hk", "--k", "1", "--report", "--max-len", "-1"),
])
def test_negative_word_length_is_a_usage_error(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert "must be >= 0" in err


@pytest.mark.parametrize("argv", [
    ("eq", "zoo:P", "zoo:coarse.b", "--segmented-box", "-1"),
    ("eq", "zoo:P", "zoo:coarse.b", "--box", "triple:-1"),
    ("eq", "zoo:P", "zoo:coarse.b", "--box", "selector:2,-1"),
    ("eq", "zoo:P", "zoo:coarse.b", "--box", "selector:0,3"),
    ("eq", "zoo:P", "zoo:coarse.b", "--box", "paired:1,-1"),
    ("eq", "zoo:P", "zoo:coarse.b", "--box", "segmented:-1,2"),
    ("refute-p", "zoo:coarse.b", "zoo:coarse.c", "--param-box", "-1"),
    ("refute-p", "zoo:coarse.b", "zoo:coarse.c", "--strategy", "guided", "--n-cap", "-1"),
    ("refute-p", "zoo:coarse.b", "zoo:coarse.c", "--strategy", "guided", "--max-multiple", "-3"),
    ("refute-p", "zoo:coarse.b", "zoo:coarse.c", "--run-cap", "-1"),
])
def test_negative_box_bound_is_a_usage_error(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert "must be >= " in err


# --- construction commands round-trip through files ----------------------------------

def test_product_then_eq(tmp_path, capsys):
    out = tmp_path / "prod.cn"
    rc, msg, _ = run(capsys, "product", "zoo:fig1.b1", "zoo:fig1.b2", "-o", str(out))
    assert rc == 0
    assert "wrote" in msg
    nets = parse_machine_file(out.read_text())
    assert len(nets) == 1 and nets[0].dimension == 2
    rc, rep, _ = run_json(capsys, "eq", str(out), "zoo:fig1.main", "--box", "triple:4")
    assert rc == 0
    assert rep["verdict"] == "equal"


def test_project_emits_one_counter(tmp_path, capsys):
    out = tmp_path / "proj.cn"
    rc, _, _ = run(capsys, "project", "zoo:P", "--counter", "2", "-o", str(out))
    assert rc == 0
    net = parse_machine_file(out.read_text())[0]
    assert net.dimension == 1
    rc, _, err = run(capsys, "project", "zoo:P", "--counter", "3")
    assert rc == 2


def test_union_of_factors(tmp_path, capsys):
    out = tmp_path / "u.cn"
    rc, _, _ = run(capsys, "union", "zoo:fig1.b1", "zoo:fig1.b2", "-o", str(out))
    assert rc == 0
    net = parse_machine_file(out.read_text())[0]
    assert len(net.states) == 6  # three states a side, renamed apart


def test_lift_and_placement(tmp_path, capsys):
    out = tmp_path / "lift.cn"
    rc, _, _ = run(capsys, "lift", "zoo:fig1.b1", "--dim", "3",
                   "--placement", "2", "-o", str(out))
    assert rc == 0
    net = parse_machine_file(out.read_text())[0]
    assert net.dimension == 3
    rc, _, err = run(capsys, "lift", "zoo:fig1.b1", "--dim", "0")
    assert rc == 2
    rc, _, err = run(capsys, "lift", "zoo:fig1.b1", "--dim", "2",
                     "--placement", "1,2")
    assert rc == 2


def test_identity_lift_of_a_union_rewrites_the_same_file(tmp_path, capsys):
    # the union's state order is not the one parsing collects, so its file
    # spells it out in a states line and the order survives the re-read
    u, v = tmp_path / "u.cn", tmp_path / "v.cn"
    assert main(["union", "zoo:coarse.b", "zoo:coarse.c", "-o", str(u)]) == 0
    assert main(["lift", str(u), "--dim", "1", "-o", str(v)]) == 0
    capsys.readouterr()
    assert "\nstates A.seg A.bs A.cs B.seg B.bs B.cs\n" in u.read_text()
    assert v.read_text() == u.read_text()


def test_lift_past_the_effect_budget_is_a_usage_error(tmp_path, capsys):
    # zoo:P has 12 transitions; one more dimension than the budget allows,
    # so a broken check would build about a megabyte, not exhaust memory
    dim = LIFT_BUDGET // 12 + 1
    out = tmp_path / "wide.cn"
    rc, text, err = run(capsys, "lift", "zoo:P", "--dim", str(dim), "-o", str(out))
    assert rc == 2 and text == ""
    assert f"--dim {dim} over 12 transitions needs {dim * 12} effect entries" in err
    assert not out.exists()


def test_emitted_files_are_stable(capsys):
    rc, text, _ = run(capsys, "zoo", "P", "--emit")
    assert rc == 0
    nets = parse_machine_file(text)
    from counternet.fileformat import emit_machine_file
    # stdout gains one newline from print
    assert emit_machine_file(nets) == text.rstrip("\n") + "\n"


# --- vasify ---------------------------------------------------------------------------

def test_vasify_emits_flat_machine(capsys):
    rc, out, _ = run(capsys, "vasify", "zoo:Hk", "--k", "1")
    assert rc == 0
    assert out.startswith("; initial counters: ")
    nets = parse_machine_file(out)
    assert len(nets) == 1
    assert nets[0].states == ("u",)


def test_vasify_report_clean(capsys):
    rc, rep, _ = run_json(capsys, "vasify", "zoo:Hk", "--k", "1",
                          "--report", "--max-len", "3")
    assert rc == 0
    assert rep["verdict"] == "ok"
    assert rep["stats"]["labelled_matches"] is True
    assert rep["stats"]["containment_ok"] is True
    assert rep["stats"]["gating_ok"] is True


def test_vasify_report_honours_max_len(capsys):
    # the report's bound defaults to 6; 0 leaves only the empty word
    _, rep, _ = run_json(capsys, "vasify", "zoo:Hk", "--k", "1", "--report")
    assert rep["stats"]["labelled_words"] == 16
    _, rep, _ = run_json(capsys, "vasify", "zoo:Hk", "--k", "1", "--report", "--max-len", "0")
    assert rep["stats"]["labelled_words"] == 1


def test_vasify_rejects_nondeterministic(capsys):
    rc, _, err = run(capsys, "vasify", "zoo:P")
    assert rc == 2


# --- reduce ----------------------------------------------------------------------------

def test_reduce_gadget(tmp_path, capsys):
    src = tmp_path / "two.cn"
    src.write_text(GE_FILE)
    out = tmp_path / "gadget.cn"
    rc, _, _ = run(capsys, "reduce", f"{src}:univ", f"{src}:ge", "-o", str(out))
    assert rc == 0
    net = parse_machine_file(out.read_text())[0]
    assert net.dimension == 2
    # the distinguishing word of the swapped pair
    rc, _, _ = run(capsys, "check", str(out), "--word", "e $")
    assert rc == 0


def test_reduce_rejects_wide_machines(capsys):
    rc, _, err = run(capsys, "reduce", "zoo:P", "zoo:P")
    assert rc == 2


# --- zoo -------------------------------------------------------------------------------

def test_zoo_summary(capsys):
    rc, out, _ = run(capsys, "zoo", "P")
    assert rc == 0
    assert "partition" in out
    assert "dim 2" in out


def test_zoo_emit_family(capsys):
    rc, out, _ = run(capsys, "zoo", "fig1", "--emit")
    assert rc == 0
    nets = parse_machine_file(out)
    assert [n.name for n in nets] == ["budget", "budget_b", "budget_c"]


def test_zoo_parametric_families(capsys, tmp_path):
    rc, _, err = run(capsys, "zoo", "Lk")
    assert rc == 2
    assert "--k" in err
    rc, out, _ = run(capsys, "zoo", "Lk", "--k", "3", "--emit")
    assert rc == 0
    assert [n.name for n in parse_machine_file(out)] == \
        ["selector_dcn_3", "selector_ncn_3"]
    f = tmp_path / "hk.cn"
    rc, out, _ = run(capsys, "zoo", "Hk", "--k", "2", "-o", str(f))
    assert rc == 0
    assert parse_machine_file(f.read_text())[0].name == "paired_dcn_2"
    rc, out, _ = run(capsys, "zoo", "PkConj", "--k", "2", "--emit")
    assert rc == 0
    rc, _, err = run(capsys, "zoo", "bogus")
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["zoo", "Lk", "--k", str(K_BUDGET + 1)],
    ["zoo", "Hk", "--k", str(K_BUDGET + 1), "--emit"],
    ["check", f"zoo:L{K_BUDGET + 1}.ncn", "--word", "c"],
    ["--k", str(K_BUDGET + 1), "check", "zoo:PkConj", "--word", "a"],
    ["eq", f"zoo:H{K_BUDGET + 1}", "zoo:Hk", "--k", "1", "--max-len", "1"],
])
def test_zoo_k_past_the_budget_is_refused_before_it_is_built(monkeypatch, capsys, argv):
    def unbuilt(k):
        raise AssertionError(f"built a family with k = {k}")
    for family in zoo.FAMILIES:
        monkeypatch.setitem(zoo.FAMILIES, family, unbuilt)
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"k = {K_BUDGET + 1} is above the budget of {K_BUDGET}" in err


def test_zoo_k_at_the_budget_builds(capsys):
    rc, out, _ = run(capsys, "zoo", "PkConj", "--k", str(K_BUDGET))
    assert rc == 0 and f"partition_{K_BUDGET}: dim {K_BUDGET}" in out


def test_zoo_entry_spellings(capsys):
    # L3.dcn carries its parameter inline; --k fills the bare spelling
    rc, rep, _ = run_json(capsys, "eq", "zoo:L3.dcn", "zoo:L3k.dcn", "--box",
                          "selector:3,2")
    assert rc == 0
    rc, rep, _ = run_json(capsys, "eq", "zoo:H2", "zoo:Hk", "--k", "2",
                          "--box", "paired:2,2")
    assert rc == 0
    rc, rep, _ = run_json(capsys, "eq", "zoo:P2kConj", "zoo:PkConj", "--k", "2",
                          "--segmented-box", "2")
    assert rc == 0


# the machine each README spelling names, with --k 2
README_SPELLINGS = {
    "P": "partition", "fig1": "budget", "fig1.main": "budget",
    "fig1.b1": "budget_b", "fig1.b2": "budget_c",
    "fig1.product": "product(budget_b,budget_c)",
    "Lk.dcn": "selector_dcn_2", "Lk.ncn": "selector_ncn_2",
    "L3.dcn": "selector_dcn_3", "L3k.dcn": "selector_dcn_3", "L3.ncn": "selector_ncn_3",
    "Hk": "paired_dcn_2", "H2": "paired_dcn_2",
    "PkConj": "partition_2", "P2kConj": "partition_2",
    "coarse.b": "coarse_b", "coarse.c": "coarse_c",
}


def test_zoo_spellings_name_their_machines():
    assert {s: cli._zoo_entry(s, 2).name for s in README_SPELLINGS} == README_SPELLINGS


def test_readme_lists_the_zoo_table():
    entries = []
    for family, build in zoo.FAMILIES.items():
        members = build(1)
        spellings = [family] if len(members) == 1 else [f"{family}.{m}" for m in members]
        entries += spellings
        assert [cli._zoo_entry(s, 1) for s in spellings] == list(members.values())
        # a bare family name means the first member
        assert cli._zoo_entry(family, 1) == next(iter(members.values()))
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    assert "Zoo entries: " + ", ".join(f"`{e}`" for e in entries) + "," in readme


def test_box_docs_list_the_box_table(capsys):
    assert main(["eq", "--help"]) == 0
    box_help = capsys.readouterr().out.split("--box FAM:ARGS", 1)[1]
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    sweeps = readme.split("Word sweeps take exactly one generator flag:", 1)[1].split(".", 1)[0]
    for family in analysis.BOXES:
        assert f"{family}:" in box_help
        assert f"{family}:" in sweeps


# --- decompose-check ----------------------------------------------------------------------

def test_decompose_check_budget(capsys):
    rc, rep, _ = run_json(capsys, "decompose-check", "zoo:fig1.main",
                          "zoo:fig1.b1", "zoo:fig1.b2", "--box", "triple:4")
    assert rc == 0
    assert rep["verdict"] == "equal"


def test_decompose_check_coarse_counterexample(capsys):
    rc, rep, _ = run_json(capsys, "decompose-check", "zoo:P",
                          "zoo:coarse.b", "zoo:coarse.c", "--segmented-box", "3")
    assert rc == 1
    assert rep["verdict"] == "counterexample"
    assert rep["counterexample"] == "a # b c"


def test_decompose_check_no_factors_is_universal(capsys):
    rc, rep, _ = run_json(capsys, "decompose-check", "zoo:P", "--max-len", "1")
    assert rc == 1
    assert rep["verdict"] == "counterexample"
    assert rep["counterexample"] == "a"


# --- refute-p -------------------------------------------------------------------------------

def test_refute_p_enumerate(capsys):
    rc, rep, _ = run_json(capsys, "refute-p", "zoo:coarse.b", "zoo:coarse.c")
    assert rc == 1
    assert rep["verdict"] == "counterexample"
    assert rep["counterexample"] == "a # b c"
    assert rep["stats"]["checked"] > 0


def test_refute_p_guided(capsys):
    rc, rep, _ = run_json(capsys, "refute-p", "zoo:coarse.b", "zoo:coarse.c",
                          "--strategy", "guided")
    assert rc == 1
    assert rep["verdict"] == "counterexample"
    assert rep["counterexample"] == "a^42 # a^6 # a^6 # b^42 c^42"
    assert rep["stats"]["period"] == 6


def test_refute_p_rejects_wide_factors(capsys):
    rc, _, err = run(capsys, "refute-p", "zoo:P")
    assert rc == 2


# --- pump ------------------------------------------------------------------------------------

def test_pump_segment(capsys):
    rc, rep, _ = run_json(capsys, "pump", "zoo:coarse.b", "--word", "a^6 # b^3",
                          "--segment", "1", "--sign", "pos", "--times", "2")
    assert rc == 0
    assert rep["verdict"] == "pumped"
    assert rep["counterexample"] == "a^8 # b^3"
    assert rep["stats"]["cycle_length"] == 1
    assert rep["stats"]["final_counters"] == [5]


def test_pump_factorial_block(capsys):
    rc, rep, _ = run_json(capsys, "pump", "zoo:coarse.b", "--word", "a^6 # b^3",
                          "--segment", "1", "--times", "1", "--factorial")
    assert rc == 0
    # one unit inserts a 3! block of unit cycles
    assert rep["counterexample"] == "a^12 # b^3"


def test_pump_long_segment(capsys):
    rc, rep, _ = run_json(capsys, "pump", "zoo:coarse.b", "--word", "a^3000 # b^3",
                          "--segment", "1", "--sign", "pos")
    assert rc == 0
    assert rep["verdict"] == "pumped"
    assert rep["counterexample"] == "a^3001 # b^3"


def test_pump_past_the_word_budget_is_a_usage_error(monkeypatch, capsys):
    # the README command pumps a 10-letter word to 12 letters (a^8 # b^3);
    # with --factorial each of its 2 units adds a 3! block, so 22 letters;
    # pump_run reads the budget analysis imports from fileformat
    readme = ("pump", "zoo:coarse.b", "--word", "a^6 # b^3", "--segment", "1", "--sign", "pos",
              "--times", "2")
    for budget, extra in ((12, ()), (22, ("--factorial",))):
        monkeypatch.setattr(analysis, "WORD_BUDGET", budget)
        rc, text, _ = run(capsys, *readme, *extra)
        assert rc == 0 and text.startswith("pumped word:")
        monkeypatch.setattr(analysis, "WORD_BUDGET", budget - 1)
        rc, text, err = run(capsys, *readme, *extra)
        assert rc == 2 and text == ""
        assert err == (f"error: the pumped word would have {budget} letters, above the budget "
                       f"of {budget - 1}\n")


def test_pump_of_a_huge_run_is_refused_before_it_is_built():
    # the child's address space is capped at 1 GiB, far above what the CLI
    # needs and far below a pumped run of 10^8 letters
    script = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
              "from counternet.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", script, "pump", "zoo:coarse.b", "--word", "a^6 # b^3",
         "--segment", "1", "--sign", "pos", "--times", "100000000"],
        capture_output=True, text=True, env=_cli_env(), timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: the pumped word would have 100000010 letters, above the "
                           "budget of 10000000\n")


def test_pump_rejected_word(capsys):
    rc, rep, _ = run_json(capsys, "pump", "zoo:coarse.b", "--word", "b^2")
    assert rc == 1
    assert rep["verdict"] == "reject"


def test_pump_no_cycle(capsys):
    rc, rep, _ = run_json(capsys, "pump", "zoo:fig1.main", "--word", "# #",
                          "--sign", "pos")
    assert rc == 1
    assert rep["verdict"] == "no-cycle"


@pytest.mark.parametrize("segment, sign, pumped", [("b", "pos", "a^2 # b^4 c^3"),
                                                    ("c", "nonneg", "a^2 # b^2 c^5")])
def test_pump_the_b_and_c_blocks(tmp_path, capsys, segment, sign, pumped):
    # one state looping on every letter: b adds 1, c adds nothing
    f = tmp_path / "loops.cn"
    f.write_text("cn loops\ndim 1\nalphabet a b c #\ninit q\naccept q\ntrans q a 1 q\n"
                 "trans q # 0 q\ntrans q b 1 q\ntrans q c 0 q\nend\n")
    rc, rep, _ = run_json(capsys, "pump", str(f), "--word", "a^2 # b^2 c^3", "--segment", segment,
                          "--sign", sign, "--times", "2")
    assert (rc, rep["verdict"], rep["counterexample"]) == (0, "pumped", pumped)


def test_pump_segment_errors(tmp_path, capsys):
    rc, _, err = run(capsys, "pump", "zoo:coarse.b", "--word", "a^2 # b",
                     "--segment", "9")
    assert rc == 2
    rc, _, err = run(capsys, "pump", "zoo:coarse.b", "--word", "a^2 # b",
                     "--segment", "x")
    assert rc == 2
    # accepted word outside the segmented shape cannot name segments
    f = tmp_path / "univ.cn"
    f.write_text(GE_FILE)
    rc, _, err = run(capsys, "pump", f"{f}:univ", "--word", "e d",
                     "--segment", "1")
    assert rc == 2
    assert "outside" in err


# --- top-level behaviour ------------------------------------------------------------------------

def test_json_report_shape(capsys):
    argv = ["--json", "--seed", "7", "check", "zoo:P", "--word", "#"]
    rc = main(argv)
    rep = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert sorted(rep) == ["command", "counterexample", "stats", "verdict"]
    assert rep["command"] == argv
    assert rep["verdict"] == "accept"
    assert rep["counterexample"] is None
    assert rep["stats"]["seed"] == 7
    assert rep["stats"]["wall_seconds"] >= 0


def test_sweep_over_the_hard_cap_is_a_usage_error(capsys):
    rc, text, err = run(capsys, "eq", "zoo:P", "zoo:P", "--box", "segmented:6,10")
    assert rc == 2 and text == ""
    assert err == "error: generator holds 235794757 words, cap is 2000000\n"


@pytest.mark.parametrize("argv, held", [
    # 4^100001 words: the count has 60,206 digits, past what Python prints
    (["decompose-check", "zoo:P", "--max-len", "100000"], "about 10^60206"),
    # segmented boxes: the letter blocks, (cap + 1)(cap + 2)/2 letters
    # each, are built only when the box is swept, after its count is checked
    (["decompose-check", "zoo:P", "--segmented-box", "100000"], "10000600015000200001400004"),
    (["eq", "zoo:P", "zoo:P", "--box", "segmented:2,100000"], "100005000100000900003"),
    # counts of about 4.77 million digits: told from their logarithms, never built
    (["eq", "zoo:coarse.b", "zoo:coarse.c", "--box", "selector:10000000,2"], "about 10^4771220"),
    (["eq", "zoo:H1", "zoo:H1", "--box", "paired:5000000,2"], "about 10^4771213"),
    (["eq", "zoo:P", "zoo:P", "--box", "segmented:10000000,2"], "about 10^4771214"),
    # a parameter past the floats: the count's logarithm is no float either
    (["eq", "zoo:P", "zoo:P", "--box", f"segmented:{10**309},2"], "more than 10^(10^307)"),
    (["eq", "zoo:H1", "zoo:H1", "--box", f"paired:{10**309},1"], "more than 10^(10^307)"),
    (["eq", "zoo:coarse.b", "zoo:coarse.c", "--box", f"selector:{10**309},1"], "more than 10^(10^307)"),
    (["decompose-check", "zoo:P", "--max-len", str(10**400)], "more than 10^(10^307)"),
])
def test_sweep_past_the_cap_is_refused_at_once(capsys, argv, held):
    started = perf_counter()
    rc, text, err = run(capsys, *argv)
    assert perf_counter() - started < 1
    assert rc == 2 and text == ""
    assert err == f"error: generator holds {held} words, cap is 2000000\n"


@pytest.mark.parametrize("argv, rc, out, seconds", [
    # the first counterexample is a five-letter word, found without
    # listing segment tuples or letter blocks up to the cap
    (["refute-p", "zoo:coarse.b", "zoo:coarse.c", "--param-box", "10000"], 1,
     "counterexample (intersection-only): 'a # b c' separates the factor intersection"
     " from the partition language\n", 2),
    # 401 words, one segment count per length: t segments of no a's take t letters
    (["eq", "zoo:P", "zoo:P", "--box", "segmented:400,0"], 0,
     "equal (401 prefixes/words checked)\n", 1),
    # the guided refuter tries witness tuples in graded order as it makes
    # them, not after listing and sorting all 16^5 of them
    (["refute-p", "zoo:coarse.b", "zoo:coarse.c", "--strategy", "guided", "--max-multiple", "16"], 1,
     "counterexample (intersection-only): 'a^42 # a^6 # a^6 # b^42 c^42' separates the factor"
     " intersection from the partition language\n", 2),
], ids=["refute-p", "eq", "guided"])
def test_segmented_sweeps_try_only_the_segment_counts_that_fit(capsys, argv, rc, out, seconds):
    started = perf_counter()
    assert run(capsys, *argv) == (rc, out, "")
    assert perf_counter() - started < seconds


def test_usage_errors_exit_two(capsys):
    assert main(["eq"]) == 2
    assert main(["not-a-command"]) == 2
    # pump takes the first accepting run and has no run cap to set
    assert main(["pump", "zoo:coarse.b", "--word", "a^6 # b^3", "--run-cap", "-1"]) == 2
    capsys.readouterr()


def test_the_parser_is_built_once(capsys):
    assert cli._parser() is cli._parser()
    # a parse leaves it unchanged for the next one
    assert run(capsys, "check", "zoo:coarse.b", "--word", "a")[:2] == (0, "accept: a\n")
    assert run(capsys, "--k", "2", "zoo", "PkConj")[0] == 0
    assert run(capsys, "check", "zoo:coarse.b", "--word", "b")[:2] == (1, "reject: b\n")
    assert cli._parser().parse_args(["zoo", "P"]).k is None


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "counter nets" in out


@pytest.mark.parametrize("exc_class", [RecursionError, EnumerationCapError, MemoryError,
                                       RuntimeError, KeyError, IndexError, TypeError,
                                       AssertionError])
@pytest.mark.parametrize("flags", [(), ("--exit-zero",)])
def test_internal_failures_exit_three(monkeypatch, capsys, exc_class, flags):
    # a fault inside the library call the handler makes: the parser holds
    # the handler itself, so replacing cli._cmd_check would go unseen
    def broken(*args, **kwargs):
        raise exc_class("first line\nsecond line")
    monkeypatch.setattr(cli, "accepts", broken)
    rc, out, err = run(capsys, *flags, "check", "zoo:P", "--word", "#")
    assert rc == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    # str() of a KeyError is the repr of its argument, so its detail is quoted
    detail = "" if exc_class is KeyError else " first line"
    assert err.startswith(f"error: internal failure: {exc_class.__name__}:{detail}")
    assert "Traceback" not in err


def _cli_env(**extra):
    """The environment of a child Python that imports this counternet."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _cli_process(stdout):
    """`python -m counternet.cli zoo coarse --emit` writing to stdout, with
    unbuffered writes so the text and its newline reach the pipe apart."""
    return subprocess.Popen([sys.executable, "-m", "counternet.cli", "zoo", "coarse", "--emit"],
                            stdout=stdout, stderr=subprocess.PIPE, env=_cli_env(PYTHONUNBUFFERED="1"))


def test_closed_stdout_pipe_keeps_the_exit_code_and_stderr_clean():
    # like `counternet zoo coarse --emit | head -1`; the reader may close
    # before or after the last write, so try a few times
    for _ in range(3):
        proc = _cli_process(subprocess.PIPE)
        assert proc.stdout.readline() == b"cn coarse_b\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""
        proc.stderr.close()
    # a reader gone before the first write
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = _cli_process(write_end)
    os.close(write_end)
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


class _GonePipe:
    """A stdout whose reader has left: every write fails, and its
    descriptor is the write end of a pipe."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_a_reader_gone_before_the_verdict_keeps_the_exit_code(monkeypatch):
    read_end, write_end = os.pipe()
    try:
        monkeypatch.setattr(sys, "stdout", _GonePipe(write_end))
        assert main(["check", "zoo:P", "--word", "a # a # b c"]) == 0
        # the descriptor now writes to the null device: the flush at exit cannot fail again
        assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
    finally:
        os.close(read_end)
        os.close(write_end)


# --- import footprint -------------------------------------------------------------------

# the README commands, their exit codes and the heavy modules each one loads
_FOOTPRINT = [
    (("check", "zoo:P", "--word", "a^10 # a^20 # a^15 # b^15 c^30"), 0, set()),
    (("eq", "zoo:fig1.main", "zoo:fig1.product", "--box", "triple:8"), 0, {"analysis"}),
    (("product", "zoo:fig1.b1", "zoo:fig1.b2", "-o", "prod.cn"), 0, set()),
    (("project", "zoo:P", "--counter", "1", "-o", "first.cn"), 0, set()),
    (("union", "two.cn:ge", "two.cn:univ", "-o", "either.cn"), 0, set()),
    (("lift", "two.cn:ge", "--dim", "3", "--placement", "2", "-o", "lifted.cn"), 0, set()),
    (("zoo", "Hk", "--k", "2", "--emit"), 0, set()),
    (("vasify", "zoo:Hk", "--k", "2", "--report"), 0, {"vas"}),
    (("reduce", "two.cn:ge", "two.cn:univ", "-o", "gadget.cn"), 0, set()),
    (("decompose-check", "zoo:P", "zoo:coarse.b", "zoo:coarse.c", "--segmented-box", "6"), 1,
     {"analysis"}),
    (("refute-p", "zoo:coarse.b", "zoo:coarse.c", "--strategy", "guided"), 1, {"analysis"}),
    (("pump", "zoo:coarse.b", "--word", "a^6 # b^3", "--segment", "1", "--sign", "pos",
      "--times", "2"), 0, {"analysis"}),
]


@pytest.mark.parametrize("argv, code, heavy", _FOOTPRINT, ids=[a[0] for a, _, _ in _FOOTPRINT])
def test_each_command_loads_only_the_modules_it_uses(tmp_path, argv, code, heavy):
    (tmp_path / "two.cn").write_text(GE_FILE)
    script = ("import sys; from counternet.cli import main; rc = main(sys.argv[1:]); "
              "print('loaded:', *sorted(sys.modules)); sys.exit(rc)")
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                          cwd=tmp_path, env=_cli_env(), timeout=120)
    assert proc.returncode == code, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split()[1:])
    assert {"counternet.analysis", "counternet.vas"} & loaded == {f"counternet.{m}" for m in heavy}


# --- budgets for large integer arguments -------------------------------------------------------

_DEFAULT_GUIDED = ("counterexample (intersection-only): 'a^42 # a^6 # a^6 # b^42 c^42' separates the"
                   " factor intersection from the partition language\n")


@pytest.mark.parametrize("cap", ["1000000", str(10**400)], ids=["10^6", "10^400"])
def test_guided_coefficient_cap_costs_nothing_up_front(capsys, cap):
    # coefficient triples are made as they are tried, z then y then x, not listed first
    tracemalloc.start()
    try:
        got = run(capsys, "refute-p", "zoo:coarse.b", "zoo:coarse.c", "--strategy", "guided",
                  "--coefficient-cap", cap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == (1, _DEFAULT_GUIDED, "")
    assert peak < 4 * 2**20


@pytest.mark.parametrize("horizon", ["1000000", str(10**400)], ids=["10^6", "10^400"])
def test_guided_horizon_past_the_word_budget_is_refused(capsys, horizon):
    started = perf_counter()
    rc, out, err = run(capsys, "refute-p", "zoo:coarse.b", "zoo:coarse.c", "--strategy", "guided",
                       "--horizon", horizon)
    assert perf_counter() - started < 1
    assert rc == 2 and out == ""
    assert err == (f"error: pump family checks up to horizon {horizon} pass the budget of "
                   f"{fileformat.WORD_BUDGET} letters\n")


@pytest.mark.parametrize("argv, out", [
    # no coefficient is tried, so no pumped word is built either
    (["--strategy", "guided", "--coefficient-cap", "0"],
     "exhausted: {'period': 6, 'witness_words': 6, 'reason': 'no pump family holds within the caps'}\n"),
    # the four words without an a, all in the partition language
    (["--param-box", "0"], "exhausted: {'checked': 4}\n"),
], ids=["guided", "enumerate"])
def test_refute_p_prints_exhausted_searches(capsys, argv, out):
    assert run(capsys, "refute-p", "zoo:coarse.b", "zoo:coarse.c", *argv) == (1, out, "")


def test_vasify_report_past_the_words_budget_is_refused(capsys):
    # Hk(1) has about 10.7 million letters of labelled words up to length 400
    started = perf_counter()
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, "vasify", "zoo:Hk", "--k", "1", "--report", "--max-len", "400")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert perf_counter() - started < 5
    assert rc == 2 and out == ""
    assert err == "error: the words up to length 400 pass the budget of 3000000 letters\n"
    assert peak < 100 * 2**20


def test_vasify_report_past_the_frontiers_budget_is_refused():
    # Hk(40)'s labelled words up to length 6 stay under the letter budget,
    # yet each reaches frontiers of its own, 41 counters wide; the child's
    # address space is capped at 256 MiB, far below the 800 MB they would take
    script = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28)); "
              "from counternet.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", script, "vasify", "zoo:Hk", "--k", "40", "--report"],
                          capture_output=True, text=True, env=_cli_env(), timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: the frontiers of the words up to length 6 pass the budget of "
                           "1000000 vector entries\n")


def test_paired_box_of_too_many_counts_is_refused(capsys):
    # at cap 0 the box holds one word, whatever k, so its count does not refuse it
    rc, out, err = run(capsys, "eq", "zoo:H1", "zoo:H1", "--box", f"paired:{10**309},0")
    assert rc == 2 and out == ""
    assert err == (f"error: paired words of k = {10**309} hold more than {fileformat.WORD_BUDGET}"
                   " counts\n")
