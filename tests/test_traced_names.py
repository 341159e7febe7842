"""The benchmark's tracer wraps sympal functions and methods by name
(`vars(owner)[attr]` in perfbench/tracing.py), so renaming or inlining one
of them breaks a traced benchmark run.  This reads tracing.py without
importing it as a module, so nothing is written under perfbench/, and
checks that every boundary it lists resolves."""

import os
import types

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _boundaries():
    module = types.ModuleType("tracing")
    module.__file__ = TRACING
    with open(TRACING) as fh:
        exec(compile(fh.read(), TRACING, "exec"), module.__dict__)
    return module.BOUNDARIES


@pytest.mark.parametrize("name, owner, attr", [b[:3] for b in _boundaries()])
def test_traced_name_resolves(name, owner, attr):
    assert callable(vars(owner).get(attr)), f"{name}: {owner.__name__}.{attr} is gone"
