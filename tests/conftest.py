from hypothesis import settings

import _gate

# Every property runs without the example database or a deadline, and pins
# its examples with @seed: the seed derandomize=True derived from a hash of
# its source text when it was pinned.  Hypothesis also draws the numeric
# literals of the non-test modules loaded (src/swipt, and perfbench when it
# is collected), so the examples repeat for the same literals and paths.
settings.register_profile("tier1", database=None, deadline=None)
settings.load_profile("tier1")


def pytest_terminal_summary(terminalreporter):
    if _gate.lines:
        terminalreporter.write_sep("=", "acceptance gate")
        for line in _gate.lines:
            terminalreporter.write_line(line)
