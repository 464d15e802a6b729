"""List the lines of `src/rtmfpsim` that no tier-1 test runs.

    PYTHONPATH=src python tests/line_audit.py [extra pytest arguments]

Runs the tier-1 suite in this process under a `sys.settrace` line collector
(standard library only, so it is slow: several minutes) and prints each
executable source line that never ran as `file:line: source`, then a count.
A line is executable when the compiler attributes bytecode to it. ALLOWED
holds the lines that no test can run in-process; they are not printed.
Exit status: 0 when every other line ran and the suite passed, else 1.

Tier-1 does not run this file (its name does not start with `test_`).
"""

import os
import pathlib
import sys
import threading
import time

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
PACKAGE = SRC / "rtmfpsim"

# (file name, stripped source line) of each allowed unrun line.
ALLOWED = {
    ("cli.py", "sys.exit(main())"),  # runs only as `python -m rtmfpsim.cli`
}


def executable_lines(path: pathlib.Path) -> set[int]:
    lines = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        # None marks bytecode without a line; line 0 is a module's RESUME.
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def collect(pytest_args: list[str]) -> tuple[set[tuple[str, int]], int]:
    """Run pytest under the collector; -> ((file, line) pairs that ran, exit status)."""
    prefix = str(PACKAGE) + os.sep
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    # Imported before the collector starts, rtmfpsim's module-level lines would
    # not be seen to run.
    assert "rtmfpsim" not in sys.modules
    sys.path.insert(0, str(SRC))
    import pytest

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                              str(TESTS), *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return ran, int(status)


def main() -> int:
    t0 = time.monotonic()
    ran, status = collect(sys.argv[1:])
    total = unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines):
            text = source[line - 1].strip()
            if (str(path), line) not in ran and (path.name, text) not in ALLOWED:
                unrun += 1
                print(f"{path.name}:{line}: {text}")
    print(f"{unrun} of {total} executable src lines unrun, {len(ALLOWED)} allowed; "
          f"pytest exit status {status}; {time.monotonic() - t0:.0f} s")
    return 0 if unrun == 0 and status == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
