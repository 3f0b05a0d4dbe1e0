"""The benchmark's span tracer still finds every name it patches.

``perfbench/spans.py`` wraps solver functions by looking them up on their
modules at run time.  A rename in the solver silently drops those spans from
the traced benchmark; here it fails a test instead.  The same spans, fed to
the benchmark's ``layer_metrics``, also guard the node-LP warm start.
"""

import functools
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


@functools.lru_cache(maxsize=None)
def _traced_spans(mode, size=(24, 4), seed=5):
    model = generate_instance("gap", size, seed)
    settings = banditmip.SolverSettings(mode=mode, seed=1, time_limit_s=None)
    tracer = spans.Tracer(banditmip)
    with tracer:
        banditmip.bnb.solve(model, settings)
    return tuple(tracer.spans)


def _traced_names(mode):
    return {s.name for s in _traced_spans(mode)}


@pytest.mark.parametrize("mode", ["scheduler", "default"])
def test_tracer_patch_points_produce_spans(mode):
    names = _traced_names(mode)
    expected = FAMILIES if mode == "scheduler" else tuple(
        f for f in FAMILIES if f not in ("scheduler.invoke", "scheduler.select",
                                         "scheduler.record"))
    missing = [f for f in expected
               if not any(n == f or (f.endswith(".") and n.startswith(f)) for n in names)]
    assert not missing, f"no spans for {missing}; got {sorted(names)}"


@pytest.mark.parametrize("mode", ["scheduler", "default"])
def test_node_lps_warm_start(mode):
    """Child node LPs re-solve from their parent's basis in a few pivots.

    Cold two-phase solves took 18-19 pivots per node LP on the (24, 4) seed-5
    instance; a change that sends warm solves cold again fails here.  Its tree
    closes after a handful of node LPs once the search prunes against the
    integral objective, so the guard runs on a larger gap model whose trees
    keep over 20 node LPs in both modes.
    """
    counts, _ = spans.layer_metrics(list(_traced_spans(mode, (36, 6), 2)))
    assert counts["simplex.node.calls"] > 20
    assert counts["simplex.node.pivots_per_call"] <= 8
