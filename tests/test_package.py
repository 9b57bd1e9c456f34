from __future__ import annotations

from types import ModuleType

import msr_audit
from msr_audit import corpus, gateway, matching, prompting, runner, stats


def test_public_names_are_the_submodules_objects_and_star_import_binds_exactly_them():
    submodules = (corpus, gateway, matching, prompting, runner, stats)
    for name in msr_audit.__all__:
        value = getattr(msr_audit, name)
        assert not isinstance(value, ModuleType), name
        assert any(getattr(module, name, None) is value for module in submodules), name
    namespace: dict = {}
    exec("from msr_audit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(msr_audit.__all__)
    assert len(msr_audit.__all__) == 42
