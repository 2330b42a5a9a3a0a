import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, str(Path(__file__).parent))

from morphtip import FingertipConfig, LinkageParams
from morphtip.cli import main

# Property tests draw the same examples on every run and keep no example
# database; a slow example is not a failure.  What Hypothesis still caches
# (constants read from the sources) goes to a directory removed at exit.
settings.register_profile("morphtip", derandomize=True, deadline=None, database=None)
settings.load_profile("morphtip")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="morphtip-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def pytest_unconfigure(config) -> None:
    _HYPOTHESIS_HOME.cleanup()


@pytest.fixture
def params() -> LinkageParams:
    return LinkageParams()


@pytest.fixture
def cfg() -> FingertipConfig:
    return FingertipConfig()


def run_cli(args: list[str]) -> tuple[int, str]:
    """Exit code and stdout of ``morphtip ARGS`` run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            main(args)
            code = 0
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()
