"""Count the Python calls a piece of code makes.

``call`` and ``c_call`` profile events, as the perf ledger counts them
(``benchmarks/ledger/measure.count_calls``): for a fixed input they
repeat exactly, so a test can hold them under a ceiling where a timing
could not.
"""

import sys


def python_calls(thunk):
    """Python and builtin calls made while ``thunk()`` runs."""
    calls = [0]

    def count(frame, event, arg):
        if event == "call" or event == "c_call":
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        thunk()
    finally:
        sys.setprofile(previous)
    return calls[0]
