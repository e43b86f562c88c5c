"""Every entry point the traced benchmark wraps exists in the package.

``bench/spans.py`` wraps ``(module, class, attribute)`` targets by name
only when a traced run starts, so renaming or deleting one would break
``bench/run.py --trace 1`` and nothing else. This reads the list from
``bench/`` without changing it and resolves each target the way
``spans.traced`` does.
"""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = (pathlib.Path(__file__).resolve().parent.parent / "bench"
         / "spans.py")


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("target", TARGETS,
                         ids=[f"{m}.{c or ''}.{a}" for m, c, a, *_ in TARGETS])
def test_trace_target_resolves(target):
    mod_name, cls_name, attr = target[:3]
    mod = importlib.import_module(f"hypkob.{mod_name}")
    if cls_name:
        owner = getattr(mod, cls_name)
        assert attr in owner.__dict__, f"{cls_name} defines no {attr}"
    else:
        assert callable(getattr(mod, attr, None)), f"{mod_name} has no {attr}"
