"""The repository's own tools, on inline samples and on the benchmark's pools."""

import ast
import importlib.util
import re
import sys
import time
from pathlib import Path

import pytest

from morphtip import Penetration, grasp

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# A comment line.


class Box:
    """Class docstring."""

    size = 1

    def area(self):
        """Function docstring."""
        text = """a string that is
        not a docstring"""
        return (self.size
                * self.size)


def bare():
    "A one-line docstring in plain quotes."
'''


def test_counts_code_and_skips_blanks_comments_and_docstrings():
    # import, class, size, def, text (2 lines), return (2 lines), def bare.
    assert code_lines.count(SAMPLE) == 9


def test_docstring_lines_are_those_of_module_class_and_function_docstrings():
    assert code_lines.docstring_lines(ast.parse(SAMPLE)) == {1, 2, 10, 15, 23}


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# note\n")
    code_lines.main([str(tmp_path / "pkg")])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["9", "1", "10"]
    assert lines[-1].split()[1] == "total"


def load_bench_tool(monkeypatch, name: str):
    """tools/<name>.py, loaded with the bench/ modules it imports, which it leaves as they are.

    A generator for a fixture: the modules it loaded are unloaded afterwards.
    """
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # restores sys.path, which the tool extends
    loaded = {name, "worker", "inputs", "tracing", "workloads", "report"} - set(sys.modules)
    try:
        spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
        tool = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = tool
        spec.loader.exec_module(tool)
        yield tool
    finally:
        for module in loaded:
            sys.modules.pop(module, None)


@pytest.fixture
def pool_digest_tool(monkeypatch):
    yield from load_bench_tool(monkeypatch, "pool_digest")


@pytest.fixture
def line_count_tool(monkeypatch):
    yield from load_bench_tool(monkeypatch, "line_count")


def test_pool_digest_hashes_every_result_and_raised_error(pool_digest_tool, monkeypatch, capsys):
    tool = pool_digest_tool
    assert tool.main(["grasp-batch", "1"]) == 0
    digest = capsys.readouterr().out
    assert re.fullmatch("[0-9a-f]{64}\n", digest)
    assert tool.pool_digest("grasp-batch", [1]) == digest.strip()
    # A planned Penetration's witness counts too: moving it moves the hash.
    find = grasp.find_contacts

    def moved(scene):
        try:
            return find(scene)
        except Penetration as exc:
            x, y = exc.witness
            raise Penetration(str(exc), witness=(x + 1e-9, y)) from None

    monkeypatch.setattr(grasp, "find_contacts", moved)
    assert tool.pool_digest("grasp-batch", [1]) != digest.strip()
    assert tool.main(["grasp-sweep", "1"]) == 2


# Every result over the pools of seeds 1-3, as tools/pool_digest.py hashes
# them.  A change that means to move a result updates these and says which.
POOL_DIGESTS = {
    "grasp-batch": "101c19ed6db6a9c1b238228755d7d1cd0512d597e1a4306a67e711eef1edf2c5",
    "design-sweep": "166e4a2821fa5459274399afee45adb13bda976723ee205c37d5cc88fe43e0df",
}


@pytest.mark.parametrize("workload", sorted(POOL_DIGESTS))
def test_pool_digests_of_seeds_1_to_3_are_unchanged(pool_digest_tool, workload):
    digest = pool_digest_tool.pool_digest(workload, [1, 2, 3])
    assert digest == POOL_DIGESTS[workload], (
        f"{workload} seeds 1 2 3: pool digest {digest}, pinned {POOL_DIGESTS[workload]}")


def test_line_counts_repeat_exactly(line_count_tool, monkeypatch):
    build = line_count_tool.worker.build  # the first 20 inputs of each pool keep the run short
    monkeypatch.setattr(line_count_tool.worker, "build",
                        lambda workload, seed: (build(workload, seed)[0][:20], None))
    start = time.perf_counter()
    first = line_count_tool.line_counts("grasp-batch", [1])
    assert line_count_tool.line_counts("grasp-batch", [1]) == first
    assert time.perf_counter() - start < 2.0
    assert len(first) == 20 and all(n > 0 for n in first)


def test_line_counts_put_back_the_trace_already_installed(line_count_tool, monkeypatch):
    build = line_count_tool.worker.build
    monkeypatch.setattr(line_count_tool.worker, "build",
                        lambda workload, seed: (build(workload, seed)[0][:1], None))
    outer = sys.gettrace()

    def installed(frame, event, arg):
        return None

    sys.settrace(installed)
    try:
        line_count_tool.line_counts("grasp-batch", [1])
        after = sys.gettrace()
    finally:
        sys.settrace(outer)
    assert after is installed


def test_line_count_summary_and_output(line_count_tool, monkeypatch, capsys):
    assert line_count_tool.summary([5, 1, 3, 2]) == (11, 2.5, 5)
    assert line_count_tool.summary(list(range(1, 41))) == (820, 20.5, 39)
    monkeypatch.setattr(line_count_tool, "line_counts", lambda workload, seeds: [4, 1, 3])
    assert line_count_tool.main(["design-sweep", "1"]) == 0
    assert capsys.readouterr().out == "operations 3  total 8  median 3  p97.5 4\n"
    assert line_count_tool.main(["grasp-sweep", "1"]) == 2
