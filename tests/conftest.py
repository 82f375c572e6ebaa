import os

import pytest

from affweyl.presets import load_group

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_cache = {}


def child_env(**extra):
    """os.environ with ``extra`` set and ``src`` first on PYTHONPATH, so a
    child interpreter imports this checkout's ``affweyl`` (pytest's
    ``pythonpath`` setting reaches only its own process)."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


@pytest.fixture
def group_of():
    def get(name):
        if name not in _cache:
            _cache[name] = load_group(name)
        return _cache[name]
    return get
