import os
from pathlib import Path

import pytest

import afrelay


@pytest.fixture
def child_env():
    """Environment for a fresh interpreter that imports the package under test.

    A relative PYTHONPATH (such as PYTHONPATH=src) resolves to nothing in a
    child started elsewhere, so the directory holding the package this
    session imported comes first, as an absolute path.
    """
    pkg_root = str(Path(afrelay.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [pkg_root, inherited])),
    }
