"""Smoke tests for tools/cli_diff.py, which compares the CLI's behaviour
under two source trees, and tools/rss_paths.py, which reads the benchmark's
peak_rss_mib at checkout paths of many lengths."""

import importlib.util
import os
from pathlib import Path

import truckdrone

ROOT = Path(__file__).resolve().parent.parent
SRC = os.path.dirname(os.path.dirname(os.path.abspath(truckdrone.__file__)))


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cli_diff, rss_paths = _tool("cli_diff"), _tool("rss_paths")


def test_the_tree_agrees_with_itself():
    # compare's wall_s differs between any two runs, so it must be normalised
    gen = cli_diff.corpus()[0]
    assert gen[:2] == ("gen", "random") and gen[-1] == "band6_0.json"
    commands = [gen, ("compare", "--json", "--input", "band6_0.json", "--algos", "greedy,exact")]
    old = cli_diff.run_corpus(SRC, commands)
    assert [r[0] for r in old] == [0, 0]
    assert '"wall_s": "<wall_s>"' in old[1][1]
    assert cli_diff.differences(commands, old, cli_diff.run_corpus(SRC, commands)) == []
    assert cli_diff.compare_trees(SRC, SRC, commands) == []


def test_differences_name_the_command_and_the_file():
    commands = [("gen", "random", "--out", "x.json")]
    old = [(0, "", "", {"x.json": "1\n"})]
    new = [(1, "", "", {"x.json": "2\n", "y.json": "3\n"})]
    [report] = cli_diff.differences(commands, old, new)
    assert report.startswith("$ truckdrone gen random --out x.json")
    assert "exit code 0 -> 1" in report
    assert "-1" in report and "+2" in report and "(not written)" in report


def test_corpus_covers_every_subcommand_and_flag_pair():
    commands = cli_diff.corpus()
    assert {c[0] for c in commands} == {"gen", "solve", "verify", "check-proper",
                                        "compare", "render"}
    assert {c[1] for c in commands if c[0] == "gen"} == {"random", "random-proper",
                                                         "partition", "adversarial"}
    renders = {tuple(a for a in c if a.startswith("--show")) for c in commands
               if c[0] == "render"}
    assert renders >= set(cli_diff.FLAG_PAIRS)


def test_rss_paths_reads_a_copy_at_the_asked_length():
    with rss_paths.checkout(str(ROOT), 30) as path:
        assert len(path) == 30 and os.path.isfile(os.path.join(path, "perfbench", "run.py"))
        mib, correct = rss_paths.reading(path, "band-check")
    assert correct is True and mib > 0
    assert not os.path.exists(path)
