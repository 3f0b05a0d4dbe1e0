"""The benchmark's span tracer still finds every name it patches.

``perfbench/spans.py`` wraps solver functions by looking them up on their
modules at run time.  A rename in the solver silently drops those spans from
the traced benchmark; here it fails a test instead.
"""

import os
import sys

import pytest

import banditmip
import banditmip.bnb
import banditmip.heuristics
import banditmip.scheduler
import banditmip.simplex
from banditmip.model import generate_instance

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
import spans  # noqa: E402

FAMILIES = (
    "scheduler.policy", "scheduler.invoke", "scheduler.select", "scheduler.record",
    "heuristics.", "simplex.node", "simplex.dive", "simplex.sub", "simplex.context",
    "simplex.cut_row", "bnb.solve", "bnb.sub_mip", "model.evaluate",
)


def _traced_names(mode):
    model = generate_instance("gap", (24, 4), 5)
    settings = banditmip.SolverSettings(mode=mode, seed=1, time_limit_s=None)
    tracer = spans.Tracer(banditmip)
    with tracer:
        banditmip.bnb.solve(model, settings)
    return {s.name for s in tracer.spans}


@pytest.mark.parametrize("mode", ["scheduler", "default"])
def test_tracer_patch_points_produce_spans(mode):
    names = _traced_names(mode)
    expected = FAMILIES if mode == "scheduler" else tuple(
        f for f in FAMILIES if f not in ("scheduler.invoke", "scheduler.select",
                                         "scheduler.record"))
    missing = [f for f in expected
               if not any(n == f or (f.endswith(".") and n.startswith(f)) for n in names)]
    assert not missing, f"no spans for {missing}; got {sorted(names)}"

