import sys

from hypothesis import settings

# one profile for every property test: the examples are a function of the
# test alone, so two runs of the suite on the same code draw the same ones,
# and no example is cut off by wall time on a slow machine.  Each test
# keeps its own max_examples.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines after capture is torn down."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "VERDICTS", None) if mod is not None else None
    if lines:
        terminalreporter.section("acceptance checks")
        for line in lines:
            terminalreporter.write_line(line)
