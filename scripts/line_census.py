#!/usr/bin/env python3
"""Line census: the executable lines of ``src/repro`` a pytest run never reaches.

    python scripts/line_census.py                  # tier 1, report on stdout
    python scripts/line_census.py --write          # ... and rewrite docs/UNREACHED.txt
    python scripts/line_census.py tests/dsms -x    # any other pytest arguments

Runs pytest in this process with :class:`LineCensus`, a ``sys.settrace``
plugin that records every line executed in a file under ``src/repro``.
Then it prints each file's unreached executable lines as ranges, and
with ``--write`` it rewrites ``docs/UNREACHED.txt``, the tracked count
table per file.  A line is executable when an instruction of the
compiled file maps to it (``co_lines``).  So a ``def`` line counts once
its module is imported, and docstrings and comments never count.

The hits are line numbers, so they hold only for the text that ran: a
file under ``src/repro`` edited while the suite runs makes the census
refuse to report or write anything, naming the file (each traced file's
text is kept from the moment it is imported).

Two limits:

* Forked supervised workers leave through ``os._exit``, so nothing they
  execute is recorded.  ``_supervised_worker`` reads as unreached, though
  the resilience and chaos suites run it.
* A traced run is slow.  Tier 1 took 226-241 s under the tracer,
  against 67 s without it, on a 2-core Intel Xeon.  So this is a script to run
  by hand when pruning, not a CI step.  A test bound to wall time can
  fail under it (``TestGracefulDrain`` in ``test_netfaults.py`` reads a
  request with a 0.4 s timeout); the count still covers what ran.

The interpreter is 3.11, which has no ``sys.monitoring``, hence
``sys.settrace``.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from typing import Callable, Dict, List, Optional, Set

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
TABLE = os.path.join(REPO, "docs", "UNREACHED.txt")


class LineCensus:
    """pytest plugin: record the lines executed in files under ``root``.

    Tracing starts before the initial conftests import anything, so
    module-level lines count, and stops when pytest unconfigures."""

    def __init__(self, root: str) -> None:
        self.root = root
        #: file name -> line numbers executed in it
        self.hits: Dict[str, Set[int]] = {}
        #: file name -> its text when first traced (its import)
        self.texts: Dict[str, str] = {}
        #: file name -> its line tracer, or None outside ``root``
        self._tracers: Dict[str, Optional[Callable]] = {}

    def _call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            tracer = self._tracers[filename]
        except KeyError:
            tracer = self._tracers[filename] = self._tracer_for(filename)
        if tracer is not None:
            tracer(frame, "line", arg)  # the line the frame starts on
        return tracer

    def _tracer_for(self, filename: str) -> Optional[Callable]:
        if not filename.startswith(self.root):
            return None
        self.texts[filename] = _text(filename)
        add = self.hits.setdefault(filename, set()).add

        def line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return line

        return line

    def changed(self) -> List[str]:
        """The traced files whose text is not what was imported: their
        hits are line numbers of the old text."""
        return sorted(path for path, text in self.texts.items() if _text(path) != text)

    def pytest_load_initial_conftests(self, early_config, parser, args) -> None:
        threading.settrace(self._call)
        sys.settrace(self._call)

    def pytest_unconfigure(self, config) -> None:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]


def _text(path: str) -> Optional[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:  # removed since: changed
        return None


def executable_lines(path: str) -> Set[int]:
    """Every line an instruction of ``path``'s code objects maps to."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines: Set[int] = set()
    stack = [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def ranges(lines: List[int]) -> List[str]:
    """Sorted ``[3, 4, 5, 9]`` as ``["3-5", "9"]``."""
    spans = [[lines[0], lines[0]]]
    for line in lines[1:]:
        if line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return [str(a) if a == b else f"{a}-{b}" for a, b in spans]


def main(argv: List[str]) -> int:
    write = "--write" in argv
    pytest_args = [arg for arg in argv if arg != "--write"]
    os.chdir(REPO)
    sys.path[:0] = [SRC, REPO]  # as `PYTHONPATH=src python -m pytest` from the root
    import pytest

    root = os.path.join(SRC, "repro") + os.sep
    census = LineCensus(root)
    status = pytest.main(list(pytest_args), plugins=[census])  # it edits the list
    changed = census.changed()
    if changed:
        for path in changed:
            print(f"line census: {os.path.relpath(path, SRC)} changed during the run,"
                  " so its hits are line numbers of the text it had", file=sys.stderr)
        print("line census: nothing reported or written; rerun on an unchanged tree",
              file=sys.stderr)
        return 1

    rows = []
    for dirpath, _, filenames in os.walk(root):
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            executable = executable_lines(path)
            unreached = sorted(executable - census.hits.get(path, set()))
            rows.append((os.path.relpath(path, SRC), len(executable), unreached))
    rows.sort()
    for rel, _, unreached in rows:
        if unreached:
            print(f"{rel}: {', '.join(ranges(unreached))}")
    total = sum(n for _, n, _ in rows)
    missed = sum(len(u) for _, _, u in rows)
    summary = (
        f"{missed} of {total} executable lines unreached,"
        f" {100.0 * (total - missed) / total:.1f}% reached"
    )
    print(summary)
    if write:
        with open(TABLE, "w", encoding="utf-8") as fh:
            fh.write(
                "# Executable lines of src/repro that a pytest run does not reach, per file.\n"
                "# Written by `python scripts/line_census.py --write`; the header of\n"
                "# that script says what counts as executable and what is not traced.\n"
                f"# pytest arguments: {' '.join(pytest_args) or '(none: tier 1)'};"
                f" exit status {int(status)}.\n"
                f"# {summary}.\n"
                "# unreached  executable  file\n"
            )
            for rel, executable, unreached in rows:
                fh.write(f"{len(unreached):11d}  {executable:10d}  {rel}\n")
            fh.write(f"{missed:11d}  {total:10d}  total\n")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
