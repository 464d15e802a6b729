"""A counter the program keeps is read somewhere, and a function it defines
is called somewhere, or it is deleted.

A counter is any attribute that `src/` adds to with `+=`. It counts as read
where `src/` or `bench/` loads that attribute name, or where `bench/` names it
in a string (the benchmark reads counters through `getattr` and field-name
tuples). Its own updates and initialisation store to it and are not reads.
Tests do not count: a counter only tests read is write-only for every run.

Likewise a function or method that `src/` defines counts as called where
`src/` or `bench/` loads its name, as an attribute, a bare name or a string
constant. Dunder methods are called by Python itself.

And each line that `tests/line_audit.py` allows to go unrun is an executable
line of `src/`.
"""

import ast
import pathlib

import line_audit

ROOT = pathlib.Path(__file__).resolve().parent.parent


def parse_tree(dirname):
    return [ast.parse(p.read_text(), str(p)) for p in sorted((ROOT / dirname).rglob("*.py"))]


def unread_counters():
    src, bench = parse_tree("src"), parse_tree("bench")
    counters = {node.target.attr for tree in src for node in ast.walk(tree)
                if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add)
                and isinstance(node.target, ast.Attribute)}
    reads = {node.attr for tree in src + bench for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    reads |= {node.value for tree in bench for node in ast.walk(tree)
              if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return sorted(counters - reads)


def test_every_counter_is_read_outside_the_tests():
    assert unread_counters() == []


# The verdict helpers that only tests call today; each gets a caller when the
# summary file holds the BDP bound and the sawtooth collapses (ROADMAP item 4).
UNCALLED_VERDICT_HELPERS = ["bdp_bound_bps", "sawtooth_drops"]


def uncalled_functions():
    src, bench = parse_tree("src"), parse_tree("bench")
    defined = {node.name for tree in src for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))}
    loaded = set()
    for tree in src + bench:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                loaded.add(node.value)
    return sorted(defined - loaded)


def test_every_function_is_called_outside_the_tests():
    assert uncalled_functions() == UNCALLED_VERDICT_HELPERS


def test_every_allowed_unrun_line_is_an_executable_src_line():
    """The line audit's allow-list names lines by text; one that no longer
    matches an executable line would hide nothing and mean nothing."""
    for name, text in line_audit.ALLOWED:
        path = line_audit.PACKAGE / name
        source = path.read_text().splitlines()
        assert any(source[n - 1].strip() == text
                   for n in line_audit.executable_lines(path)), (name, text)
