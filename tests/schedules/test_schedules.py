"""Per-model schedules: meta builds, functional TP correctness, flash swap."""

import numpy as np
import pytest

import repro.slapo as slapo
from repro import framework as fw
from repro import fx
from repro.distributed import DeviceMesh, LocalCluster, ParallelConfig
from repro.models import MODEL_ZOO, data
from repro.schedules import SCHEDULES
from repro.sim import trace_model

TINY_FAMILIES = ["BERT", "RoBERTa", "GPT", "OPT", "LLaMA-7B", "T5"]


def build_tiny(family):
    cls, config = MODEL_ZOO[family]
    return cls, config.tiny()


def tiny_inputs(family, config):
    fw.manual_seed(99)
    if family == "T5":
        src, tgt, _ = data.seq2seq_batch(config, 2, 6, 4)
        return (src, tgt)
    ids, _ = data.lm_batch(config, 2, 6)
    return (ids,)


class TestSchedulesApplyOnMeta:
    """Every schedule must apply cleanly to the full-size meta model."""

    @pytest.mark.parametrize("family", ["BERT", "GPT", "OPT", "LLaMA-7B"])
    def test_full_size_schedule_tp8(self, family):
        cls, config = MODEL_ZOO[family]
        model = cls(config, device="meta")
        mesh = DeviceMesh(ParallelConfig(tp=8), rank=0, sim=True)
        sch = slapo.create_schedule(model, mesh=mesh)
        SCHEDULES[family](sch, config, ckpt_ratio=0.5)
        # Parameters shrank by the TP factor (embeddings + blocks sharded).
        ids, _ = data.lm_batch(config, 1, 64, device="meta")
        trace = trace_model(model, ids)
        assert any(c.group_tag == "tp" for c in trace.comms)
        assert any(op.kernel == "flash_attention" for op in trace.ops)
        assert trace.checkpointed_flops() > 0

    def test_wideresnet_schedule_tp8(self):
        cls, config = MODEL_ZOO["WideResNet"]
        model = cls(config, device="meta")
        mesh = DeviceMesh(ParallelConfig(tp=8), rank=0, sim=True)
        sch = slapo.create_schedule(model, mesh=mesh)
        SCHEDULES["WideResNet"](sch, config)
        images, _ = data.image_batch(config, 1, device="meta")
        trace = trace_model(model, images)
        assert any(c.group_tag == "tp" for c in trace.comms)

    def test_t5_schedule_tp8(self):
        cls, config = MODEL_ZOO["T5"]
        model = cls(config, device="meta")
        mesh = DeviceMesh(ParallelConfig(tp=8), rank=0, sim=True)
        sch = slapo.create_schedule(model, mesh=mesh)
        SCHEDULES["T5"](sch, config)
        src, tgt, _ = data.seq2seq_batch(config, 1, 64, 32, device="meta")
        trace = trace_model(model, src, tgt)
        assert any(op.kernel == "flash_attention" for op in trace.ops)


class TestTracedGraphsOwnTheirHooks:
    """After build, every ``.sync()`` hook a traced GraphModule reaches is
    a ``sync_*`` node at its call site, and fires once: no GraphModule
    carries a hook, and no ``call_module`` runs a hook of its own."""

    @pytest.mark.parametrize("family", ["BERT", "OPT", "LLaMA-7B", "T5",
                                        "GPT"])
    def test_no_traced_graph_module_carries_a_hook(self, family):
        from repro.fx.functionalize import unlifted_hooks

        cls, config = MODEL_ZOO[family]
        model = cls(config, device="meta")
        mesh = DeviceMesh(ParallelConfig(tp=8), rank=0, sim=True)
        sch = slapo.create_schedule(model, mesh=mesh)
        SCHEDULES[family](sch, config)
        built = slapo.build(sch)
        graph_modules = [m for m in built.model.modules()
                         if isinstance(m, fx.GraphModule)]
        assert graph_modules
        for gm in graph_modules:
            assert not any(gm.hooks_except())
            for node in gm.graph.find_nodes(op="call_module"):
                assert not any(unlifted_hooks(gm, node)), node.name
        markers = (fx.sync_forward_pre, fx.sync_backward, fx.sync_forward)
        syncs = [n for gm in graph_modules for n in gm.graph
                 if n.op == "call_function" and n.target in markers]
        assert syncs
        assert all("effect" in n.meta for n in syncs)
        # One sync_forward_pre / sync_forward per hooked call site: each
        # forward hook runs in exactly one node.  (sync_backward is one
        # node per hooked input.)
        for marker in (fx.sync_forward_pre, fx.sync_forward):
            hooks = [id(h) for n in syncs if n.target is marker
                     for h in n.kwargs["hooks"]]
            assert len(hooks) == len(set(hooks))


class TestScheduleNumerics:
    """Scheduled (kernel-optimized) models match vanilla, single device."""

    @pytest.mark.parametrize("family", TINY_FAMILIES)
    def test_kernel_schedule_preserves_outputs(self, family):
        cls, config = build_tiny(family)
        inputs = tiny_inputs(family, config)
        fw.manual_seed(0)
        reference = cls(config)
        reference.eval()
        expected = reference(*inputs).numpy()
        fw.manual_seed(0)
        model = cls(config)
        model.eval()
        sch = slapo.create_schedule(model)
        SCHEDULES[family if family in SCHEDULES else family](
            sch, config, use_tp=False)
        got = model(*inputs).numpy()
        np.testing.assert_allclose(got, expected, rtol=2e-3, atol=2e-4)

    @pytest.mark.parametrize("family", ["BERT", "GPT", "OPT"])
    def test_tp2_schedule_matches_single_device(self, family):
        cls, config = build_tiny(family)
        inputs = tiny_inputs(family, config)
        fw.manual_seed(0)
        reference = cls(config)
        reference.eval()
        expected = reference(*inputs).numpy()

        cluster = LocalCluster(2)

        def run_rank(ctx):
            fw.manual_seed(0)
            model = cls(config)
            model.eval()
            mesh = DeviceMesh(ParallelConfig(tp=2), ctx=ctx)
            sch = slapo.create_schedule(model, mesh=mesh)
            SCHEDULES[family](sch, config, use_flash=True)
            return model(*inputs).numpy()

        for out in cluster.run(run_rank):
            np.testing.assert_allclose(out, expected, rtol=5e-3, atol=5e-4)

    def test_wideresnet_tp2_matches_single_device(self):
        cls, config = build_tiny("WideResNet")
        fw.manual_seed(99)
        images, _ = data.image_batch(config, 2)
        fw.manual_seed(0)
        reference = cls(config)
        reference.eval()
        expected = reference(images).numpy()

        cluster = LocalCluster(2)

        def run_rank(ctx):
            fw.manual_seed(0)
            model = cls(config)
            model.eval()
            mesh = DeviceMesh(ParallelConfig(tp=2), ctx=ctx)
            sch = slapo.create_schedule(model, mesh=mesh)
            SCHEDULES["WideResNet"](sch, config)
            return model(images).numpy()

        for out in cluster.run(run_rank):
            np.testing.assert_allclose(out, expected, rtol=2e-3, atol=2e-4)

    def test_llama_tp2_matches_single_device(self):
        cls, config = build_tiny("LLaMA-7B")
        inputs = tiny_inputs("LLaMA-7B", config)
        fw.manual_seed(0)
        reference = cls(config)
        reference.eval()
        expected = reference(*inputs).numpy()

        cluster = LocalCluster(2)

        def run_rank(ctx):
            fw.manual_seed(0)
            model = cls(config)
            model.eval()
            mesh = DeviceMesh(ParallelConfig(tp=2), ctx=ctx)
            sch = slapo.create_schedule(model, mesh=mesh)
            SCHEDULES["LLaMA-7B"](sch, config)
            return model(*inputs).numpy()

        for out in cluster.run(run_rank):
            np.testing.assert_allclose(out, expected, rtol=5e-3, atol=5e-4)


class TestTable4Loc:
    def test_loc_close_to_paper(self):
        from repro.schedules import table4

        for family, row in table4().items():
            measured, paper = row["measured"], row["paper"]
            assert measured <= paper * 2.5, (
                f"{family} schedule ballooned to {measured} LoC "
                f"(paper: {paper})"
            )
            assert measured >= 5, f"{family} schedule suspiciously tiny"

    def test_bert_roberta_share_schedule(self):
        from repro.schedules import SCHEDULE_SOURCES

        assert SCHEDULE_SOURCES["BERT"] is SCHEDULE_SOURCES["RoBERTa"]
