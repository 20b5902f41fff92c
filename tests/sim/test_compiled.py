"""Compiled-trace pipeline: vectorized aggregates, analytic checkpoint
re-pricing, model-statics caching, and the recorder fixes that back them."""

import pytest

from repro import framework as fw
from repro.baselines.systems import (
    _TRACE_CACHE,
    _slapo_scheduled_model,
    evaluate_megatron,
    evaluate_slapo_zero3,
)
from repro.distributed import P3DN_NODE, DeviceMesh, ParallelConfig
from repro.models import BERT_1B, MODEL_ZOO, BertLMHeadModel, data
from repro.sim import (
    KernelCostModel,
    ModelStats,
    TraceRecorder,
    plan_micro_batch,
    reprice_checkpoint_ratio,
    step_time,
    trace_model,
)


def _meta_inputs(family, config):
    return data.example_inputs(family, config, device="meta")


@pytest.fixture(scope="module")
def bert_traced():
    model = BertLMHeadModel(BERT_1B, device="meta")
    ids, _ = data.lm_batch(BERT_1B, 1, device="meta")
    return model, trace_model(model, ids)


@pytest.fixture(scope="module")
def bert_tp2_base():
    """Slapo-scheduled BERT (tp=2, full features) traced at ratio 0."""
    _, config = MODEL_ZOO["BERT"]
    parallel = ParallelConfig(tp=2)
    model = _slapo_scheduled_model("BERT", config, parallel, 0.0, use_tp=True)
    return model, trace_model(model, *_meta_inputs("BERT", config)), \
        parallel, config


class TestRecorderFixes:
    def _op(self, rec, name, flops=4.0, shape=(2, 2)):
        rec.record_op(name, shape, fw.float16, flops, 16.0, None)

    def test_nested_fusion_keeps_outer_identity(self):
        """A nested fused region must not clobber the outer region's name."""
        rec = TraceRecorder()
        rec.begin_fused("outer", "TorchInductor")
        self._op(rec, "add")
        rec.begin_fused("inner", "TVM")
        self._op(rec, "mul")
        self._op(rec, "relu")
        rec.end_fused()
        self._op(rec, "gelu")
        rec.end_fused()
        assert len(rec.trace.ops) == 1
        fused = rec.trace.ops[0]
        assert fused.name == "fused:outer"
        assert fused.kernel == "fused:TorchInductor"
        assert fused.fused_count == 4
        assert fused.flops == 16.0

    def test_sibling_fused_regions_keep_their_names(self):
        rec = TraceRecorder()
        rec.begin_fused("first", "A")
        self._op(rec, "add")
        rec.end_fused()
        rec.begin_fused("second", "B")
        self._op(rec, "mul")
        rec.end_fused()
        assert [op.name for op in rec.trace.ops] \
            == ["fused:first", "fused:second"]

    def test_checkpoint_boundary_marked_per_region(self):
        """Each region's last op is its boundary — found by index, not by
        re-scanning the whole trace."""
        rec = TraceRecorder()
        rec.begin_checkpoint()
        self._op(rec, "linear")
        self._op(rec, "gelu")
        rec.end_checkpoint()
        self._op(rec, "softmax")  # outside any region
        rec.begin_checkpoint()
        self._op(rec, "linear")
        rec.end_checkpoint()
        boundaries = [op.checkpoint_boundary for op in rec.trace.ops]
        assert boundaries == [False, True, False, True]
        assert [op.in_checkpoint for op in rec.trace.ops] \
            == [True, True, False, True]

    def test_empty_checkpoint_region_marks_nothing(self):
        rec = TraceRecorder()
        rec.begin_checkpoint()
        self._op(rec, "linear")
        rec.end_checkpoint()
        rec.begin_checkpoint()
        rec.end_checkpoint()  # no ops recorded inside
        assert [op.checkpoint_boundary for op in rec.trace.ops] == [True]

    def test_layer_regions_record_spans(self):
        rec = TraceRecorder()
        self._op(rec, "embedding")
        rec.begin_layer()
        self._op(rec, "linear")
        rec.record_comm("all_reduce", 128.0, 2, {"tag": "tp"})
        self._op(rec, "gelu")
        rec.end_layer()
        rec.begin_layer()
        self._op(rec, "linear")
        rec.end_layer()
        spans = rec.trace.layers
        assert [(s.op_start, s.op_end) for s in spans] == [(1, 3), (3, 4)]
        assert (spans[0].comm_start, spans[0].comm_end) == (0, 1)

    def test_nested_layer_regions_collapse_to_outermost(self):
        rec = TraceRecorder()
        rec.begin_layer()
        self._op(rec, "linear")
        rec.begin_layer()
        self._op(rec, "gelu")
        rec.end_layer()
        rec.end_layer()
        assert [(s.op_start, s.op_end) for s in rec.trace.layers] == [(0, 2)]


class TestCompiledAggregates:
    """The vectorized pipeline must agree with the per-op reference loops."""

    def test_forward_backward_times_match_op_loop(self, bert_traced):
        _, trace = bert_traced
        cost = KernelCostModel(P3DN_NODE.gpu)
        for scale in (1.0, 4.0):
            loop_fwd = sum(cost.op_time(op, scale) for op in trace.ops)
            loop_ckpt = sum(cost.op_time(op, scale)
                            for op in trace.ops if op.in_checkpoint)
            assert cost.forward_time(trace, scale) \
                == pytest.approx(loop_fwd, rel=1e-12)
            assert cost.backward_time(trace, scale) == pytest.approx(
                loop_fwd * cost.backward_multiplier + loop_ckpt, rel=1e-12)

    def test_activation_bytes_match_reference_loop(self, bert_traced):
        _, trace = bert_traced
        assert not any(op.in_checkpoint for op in trace.ops)
        total = sum(op.saved_bytes for op in trace.ops)
        assert total > 0
        assert trace.activation_bytes() == pytest.approx(total, rel=1e-12)

    def test_flop_aggregates_match_reference_loop(self, bert_traced):
        _, trace = bert_traced
        assert trace.total_flops == pytest.approx(
            sum(op.flops for op in trace.ops), rel=1e-12)
        assert trace.checkpointed_flops() == pytest.approx(
            sum(op.flops for op in trace.ops if op.in_checkpoint), rel=1e-12)

    def test_boundary_bytes_is_float_op_median(self, bert_traced):
        _, trace = bert_traced
        sizes = sorted(op.out_bytes for op in trace.ops
                       if op.dtype_name in ("float16", "float32"))
        assert trace.compiled().boundary_bytes * 3.0 \
            == pytest.approx(sizes[len(sizes) // 2] * 3.0)

    def test_tp_comm_matches_per_event_loop(self, bert_tp2_base):
        _, trace, parallel, _ = bert_tp2_base
        tp_ranks = tuple(range(parallel.tp))
        scale = 4.0
        loop = sum(
            P3DN_NODE.collective_time(c.kind, c.bytes_moved * scale, tp_ranks)
            for c in trace.comms if c.group_tag == "tp")
        assert loop > 0  # the schedule really injected TP collectives
        folded = 0.0
        for (tag, kind), (count, total) in trace.compiled().comm_totals.items():
            if tag != "tp" or count == 0:
                continue
            alpha, beta = P3DN_NODE.collective_coeffs(kind, tp_ranks)
            folded += count * alpha + beta * (total * scale)
        assert folded == pytest.approx(loop, rel=1e-12)

    def test_collective_coeffs_match_collective_time(self):
        ranks = tuple(range(8))
        for kind in ("all_reduce", "all_gather", "reduce_scatter",
                     "broadcast"):
            alpha, beta = P3DN_NODE.collective_coeffs(kind, ranks)
            for nbytes in (1e6, 3e8):
                assert alpha + beta * nbytes == pytest.approx(
                    P3DN_NODE.collective_time(kind, nbytes, ranks), rel=1e-12)

    def test_compiled_view_is_memoized(self, bert_traced):
        _, trace = bert_traced
        assert trace.compiled() is trace.compiled()

    def test_kernel_time_sums_are_cached_per_scale(self, bert_traced):
        _, trace = bert_traced
        cost = KernelCostModel(P3DN_NODE.gpu)
        cost.forward_time(trace, 2.0)
        cost.backward_time(trace, 2.0)  # same (cost, scale) entry
        assert (cost, 2.0) in trace.compiled()._time_cache


class TestFusedKernelPricing:
    """``fused:{backend}`` kernels price against the backend's efficiency."""

    def _op(self, kernel):
        from repro.sim.events import OpEvent

        return OpEvent(name="x", kernel=kernel, flops=1e6, bytes_moved=1e7,
                       out_bytes=1e6, out_shape=(4,), dtype_name="float32")

    def test_inductor_fusion_beats_plain_streaming(self):
        from repro.sim.kernel_cost import fused_efficiency

        cost = KernelCostModel(P3DN_NODE.gpu)
        plain = cost.op_time(self._op("elementwise"))
        script = cost.op_time(self._op("fused:TorchScript"))
        inductor = cost.op_time(self._op("fused:TorchInductor"))
        assert fused_efficiency("fused:TorchInductor") > 1.0
        assert inductor < plain
        assert script == pytest.approx(plain)  # TorchScript eff is 1.0

    def test_vector_path_matches_scalar_on_fused(self):
        from repro.sim.events import ModelTrace

        ops = [self._op(k) for k in
               ("elementwise", "fused:TorchInductor", "gemm",
                "flash_attention", "fused:TorchScript")]
        trace = ModelTrace(ops=ops, comms=[], ref_batch=1)
        cost = KernelCostModel(P3DN_NODE.gpu)
        vec = cost._op_time_vector(trace.compiled(), 1.0)
        for got, op in zip(vec, ops):
            assert got == pytest.approx(cost.op_time(op), rel=1e-12)


class TestModelStatsCaching:
    def test_trace_model_attaches_stats(self, bert_traced):
        model, trace = bert_traced
        assert isinstance(trace.stats, ModelStats)
        assert trace.stats.param_count == model.num_parameters()

    def test_pricing_never_rewalks_parameters(self, bert_traced, monkeypatch):
        """After trace_model, planning must not call _param_bytes again."""
        from repro.sim import memory as memory_mod

        model, trace = bert_traced
        calls = []
        monkeypatch.setattr(
            memory_mod, "_param_bytes",
            lambda m: calls.append(m) or (_ for _ in ()).throw(
                AssertionError("statics were re-computed")))
        plan_micro_batch(trace, model, P3DN_NODE, ParallelConfig(dp=8),
                         zero_stage=3)
        step_time(trace, model, P3DN_NODE, ParallelConfig(dp=8), 4)
        assert calls == []

    def test_reprice_shares_stats_object(self, bert_tp2_base):
        _, trace, _, _ = bert_tp2_base
        derived = reprice_checkpoint_ratio(trace, 0.5)
        assert derived.stats is trace.stats


@pytest.mark.parametrize("family", sorted(MODEL_ZOO))
def test_reprice_equivalence_per_family(family):
    """The analytically re-priced ratio-r trace must match a freshly
    built + traced ratio-r model event-for-event, and yield the same Plan."""
    _, config = MODEL_ZOO[family]
    # The 7B/10B models need all 8 GPUs' worth of sharding to fit at all.
    parallel = ParallelConfig(tp=8 if family in ("GPT-10B", "LLaMA-7B")
                              else 2)
    ratio = 0.5
    base_model = _slapo_scheduled_model(family, config, parallel, 0.0,
                                        use_tp=True)
    base = trace_model(base_model, *_meta_inputs(family, config))
    fresh_model = _slapo_scheduled_model(family, config, parallel, ratio,
                                         use_tp=True)
    fresh = trace_model(fresh_model, *_meta_inputs(family, config))
    derived = reprice_checkpoint_ratio(base, ratio)
    assert derived.ops == fresh.ops
    assert derived.comms == fresh.comms
    plan_a = plan_micro_batch(derived, base_model, P3DN_NODE, parallel)
    plan_b = plan_micro_batch(fresh, fresh_model, P3DN_NODE, parallel)
    assert plan_a.micro_batch == plan_b.micro_batch
    assert plan_a.throughput == pytest.approx(plan_b.throughput, rel=1e-9)
    assert plan_a.memory.total == pytest.approx(plan_b.memory.total,
                                                rel=1e-9)


def test_reprice_equivalence_all_selective_ratios():
    """BERT across the full selective sweep, including all-layers (1.0)."""
    from repro.baselines.systems import SELECTIVE_RATIOS

    _, config = MODEL_ZOO["BERT"]
    parallel = ParallelConfig(tp=2)
    base_model = _slapo_scheduled_model("BERT", config, parallel, 0.0,
                                        use_tp=True)
    base = trace_model(base_model, *_meta_inputs("BERT", config))
    for ratio in SELECTIVE_RATIOS:
        fresh_model = _slapo_scheduled_model("BERT", config, parallel, ratio,
                                             use_tp=True)
        fresh = trace_model(fresh_model, *_meta_inputs("BERT", config))
        derived = reprice_checkpoint_ratio(base, ratio)
        assert derived.ops == fresh.ops
        assert derived.comms == fresh.comms


def test_reprice_equivalence_megatron_full_checkpoint():
    """The Megatron path (set_checkpointing) re-prices exactly too."""
    from repro.baselines.megatron import build_megatron_model

    _, config = MODEL_ZOO["BERT"]
    mesh = DeviceMesh(ParallelConfig(tp=2), rank=0, sim=True)

    def build(ckpt):
        model = build_megatron_model("BERT", config, mesh.tp_group,
                                     device="meta")
        model.set_checkpointing(ckpt)
        return model

    base_model = build(False)
    base = trace_model(base_model, *_meta_inputs("BERT", config))
    fresh = trace_model(build(True), *_meta_inputs("BERT", config))
    derived = reprice_checkpoint_ratio(base, 1.0)
    assert derived.ops == fresh.ops
    assert derived.comms == fresh.comms


def test_reprice_rejects_checkpointed_base(bert_tp2_base):
    _, trace, _, _ = bert_tp2_base
    half = reprice_checkpoint_ratio(trace, 0.5)
    with pytest.raises(ValueError, match="ratio-0 base"):
        reprice_checkpoint_ratio(half, 1.0)
    with pytest.raises(ValueError, match="ratio"):
        reprice_checkpoint_ratio(trace, 1.5)


class TestSingleBuildPerEvaluation:
    """_plan_over_ratios: exactly one model build + one trace_model call."""

    def test_slapo_zero3_builds_and_traces_once(self, monkeypatch):
        import repro.baselines.systems as systems

        _TRACE_CACHE.clear()
        cls, config = MODEL_ZOO["BERT"]
        builds = []

        class CountingBert(cls):
            def __init__(self, *args, **kwargs):
                builds.append(1)
                super().__init__(*args, **kwargs)

        traces = []
        real_trace_model = systems.trace_model

        def counting_trace_model(model, *inputs, **kwargs):
            traces.append(1)
            return real_trace_model(model, *inputs, **kwargs)

        monkeypatch.setitem(MODEL_ZOO, "BERT", (CountingBert, config))
        monkeypatch.setattr(systems, "trace_model", counting_trace_model)
        result = evaluate_slapo_zero3("BERT", P3DN_NODE, 8)
        assert result.throughput > 0
        assert sum(builds) == 1   # one build across all 4 checkpoint ratios
        assert sum(traces) == 1   # one trace_model across all 4 ratios
        # A second evaluation at another scale reuses the cached trace.
        evaluate_slapo_zero3("BERT", P3DN_NODE, 4)
        assert sum(builds) == 1
        assert sum(traces) == 1
        _TRACE_CACHE.clear()

    def test_megatron_builds_and_traces_once(self, monkeypatch):
        import repro.baselines.systems as systems

        _TRACE_CACHE.clear()
        builds = []
        real_build = systems.build_megatron_model

        def counting_build(*args, **kwargs):
            builds.append(1)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(systems, "build_megatron_model", counting_build)
        result = evaluate_megatron("BERT", P3DN_NODE, 8)
        assert result.throughput > 0
        assert sum(builds) == 1  # both FULL_OR_NOTHING ratios, one build
        _TRACE_CACHE.clear()
