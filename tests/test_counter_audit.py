"""A counter the program keeps is read somewhere, or it is deleted.

A counter is any attribute that `src/` adds to with `+=`. It counts as read
where `src/` or `bench/` loads that attribute name, or where `bench/` names it
in a string (the benchmark reads counters through `getattr` and field-name
tuples). Its own updates and initialisation store to it and are not reads.
Tests do not count: a counter only tests read is write-only for every run.
"""

import ast
import pathlib

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
