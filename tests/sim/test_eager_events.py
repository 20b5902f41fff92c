"""An eager trace equals the meta trace, event for event.

The simulator prices the meta-device trace, while ``verify()``, the
fuzzer and every measured step run the eager engine.  Each op states its
event once, so a forward plus loss records the same ``OpEvent`` fields on
both paths: a calibration fitted to eager per-op events fits the events
the simulator prices.
"""

import pytest

from repro import framework as fw
from repro.models import MODEL_ZOO
from repro.sim import trace_model
from test_saved_bytes import _WithLoss, _batch, _first_of_each_class

FIELDS = ("name", "out_shape", "dtype_name", "flops", "bytes_moved",
          "kernel", "saved_bytes")


def _events(family, device):
    config = MODEL_ZOO[family][1].tiny()
    fw.manual_seed(0)
    model = _WithLoss(MODEL_ZOO[family][0](config, device=device))
    args, labels = _batch(family, config, 2, device)
    return [tuple(getattr(op, f) for f in FIELDS)
            for op in trace_model(model, *args, labels).ops]


@pytest.mark.parametrize("family", _first_of_each_class())
def test_eager_events_equal_meta_events(family):
    eager, meta = _events(family, "cpu"), _events(family, "meta")
    assert len(eager) == len(meta)
    differing = [(i, field, e, m)
                 for i, (eager_op, meta_op) in enumerate(zip(eager, meta))
                 for field, e, m in zip(FIELDS, eager_op, meta_op) if e != m]
    assert not differing, differing[:10]
