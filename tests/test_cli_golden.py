"""Golden output of the command line: the top-level and every subcommand's
--help at 80 columns, and the README commands' output, exit codes,
written files and --json reports (wall_seconds masked).

Python 3.13 prints `-o, --out OUT` where 3.10-3.12 print
`-o OUT, --out OUT`, so the help screens keep one golden per style.
After a deliberate change, regenerate with

    PYTHONPATH=src python tests/test_cli_golden.py

under 3.11 and again under 3.13: each run writes the README golden and
the help golden of its own style.
"""

import contextlib
import io
import json
import os
import shlex
import shutil
import sys
from pathlib import Path

from counternet.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = ("check", "eq", "product", "union", "project", "lift", "vasify", "reduce", "zoo",
            "decompose-check", "refute-p", "pump")
# beyond the README: the outputs whose state order a machine file must spell out
EXTRA = ("union zoo:coarse.b zoo:coarse.c", "zoo Lk --k 2 --emit", "zoo Lk --k 3 --emit")


def _help_golden() -> Path:
    return GOLDEN / ("cli_help_py313.txt" if sys.version_info >= (3, 13) else "cli_help.txt")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def render_help() -> str:
    """Every --help screen; COLUMNS must be 80."""
    parts = []
    for argv in ([], *([c] for c in COMMANDS)):
        rc, out, err = _run([*argv, "--help"])
        assert rc == 0 and err == ""
        parts.append(f"$ counternet {' '.join([*argv, '--help'])}\n{out}")
    return "\n".join(parts)


def readme_commands() -> list[str]:
    block = (ROOT / "README.md").read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    return [line.removeprefix("counternet ") for line in lines]


def render_readme(workdir: Path) -> str:
    """Each README command (then EXTRA) run plain and with --json in
    workdir, where a.cn and b.cn are the bench machines ge.cn and univ.cn."""
    shutil.copy(ROOT / "bench" / "machines" / "ge.cn", workdir / "a.cn")
    shutil.copy(ROOT / "bench" / "machines" / "univ.cn", workdir / "b.cn")
    parts = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for line in (*readme_commands(), *EXTRA):
            argv = shlex.split(line)
            rc, out, err = _run(argv)
            assert err == "", (line, err)
            parts.append(f"$ counternet {line}\nexit {rc}\n{out}")
            if "-o" in argv:
                written = argv[argv.index("-o") + 1]
                parts.append(f"--- {written}\n{Path(written).read_text()}")
            rc_json, out, err = _run(["--json", *argv])
            assert (rc_json, err) == (rc, ""), (line, err)
            report = json.loads(out)
            report["stats"]["wall_seconds"] = "<masked>"
            parts.append(f"--- --json\n{json.dumps(report, sort_keys=True)}\n")
    finally:
        os.chdir(cwd)
    return "\n".join(parts)


def test_help_screens_match_the_golden(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert render_help() == _help_golden().read_text()


def test_readme_commands_match_the_golden(tmp_path):
    assert render_readme(tmp_path) == (GOLDEN / "cli_readme.txt").read_text()


if __name__ == "__main__":
    import tempfile
    os.environ["COLUMNS"] = "80"
    _help_golden().write_text(render_help())
    with tempfile.TemporaryDirectory() as tmp:
        (GOLDEN / "cli_readme.txt").write_text(render_readme(Path(tmp)))
