"""Baselines: Megatron TP numerics, ZeRO optimizer, pipeline runtime."""

import numpy as np
import pytest

from repro import framework as fw
from repro.baselines import (
    PipelineRuntime,
    UnsupportedModelError,
    ZeroOptimizer,
    build_megatron_model,
)
from repro.distributed import LocalCluster
from repro.framework import functional as F
from repro.models.configs import BERT_1B
from repro.pipeline import make_program, simulate_program
from repro.schedules import SCHEDULES


class TestMegatronBaseline:
    def test_unsupported_families_raise(self):
        with pytest.raises(UnsupportedModelError):
            build_megatron_model("RoBERTa", BERT_1B.tiny())

    def test_tp2_ranks_agree_and_gather_full_vocab(self):
        """TP ranks hold different shards yet must produce identical,
        full-vocabulary logits (rank-consensus test: Megatron's per-rank
        construction draws different RNG streams than a 1-device build)."""
        config = BERT_1B.tiny(num_heads=2, vocab_size=64, dropout=0.0)
        fw.manual_seed(3)
        ids = fw.randint(0, config.vocab_size, (2, 6))
        cluster = LocalCluster(2)

        def run_rank(ctx):
            fw.manual_seed(0)
            group = ctx.group(tag="tp")
            model = build_megatron_model("BERT", config, group)
            model.eval()
            return model(ids).numpy(), model.num_parameters()

        results = cluster.run(run_rank)
        out0, params0 = results[0]
        out1, params1 = results[1]
        assert out0.shape == (2, 6, config.vocab_size)
        np.testing.assert_allclose(out0, out1, rtol=1e-4, atol=1e-5)
        # Each rank holds roughly half the (shardable) parameters.
        single = build_megatron_model("BERT", config)
        assert params0 == params1
        assert params0 < 0.75 * single.num_parameters()

    def test_checkpoint_toggle(self):
        config = BERT_1B.tiny()
        model = build_megatron_model("BERT", config)
        model.set_checkpointing(True)
        assert all(layer._slapo_meta.get("checkpoint")
                   for layer in model.layers)
        model.set_checkpointing(False)
        assert not any(layer._slapo_meta.get("checkpoint")
                       for layer in model.layers)


class _TwoLayer(fw.Module):
    def __init__(self):
        super().__init__()
        self.fc1 = fw.Linear(4, 8)
        self.fc2 = fw.Linear(8, 2)

    def forward(self, x):
        return self.fc2(F.gelu(self.fc1(x)))


class TestZeroOptimizer:
    def test_zero_matches_plain_ddp(self):
        """ZeRO-partitioned training == replicated AdamW training."""
        fw.manual_seed(0)
        reference = _TwoLayer()
        ref_opt = fw.AdamW(reference.parameters(), lr=1e-2)
        x = fw.randn(8, 4)
        y = fw.randn(8, 2)
        for _ in range(3):
            ref_opt.zero_grad()
            F.mse_loss(reference(x), y).backward()
            ref_opt.step()
        expected = reference.fc1.weight.numpy().copy()

        cluster = LocalCluster(2)

        def run_rank(ctx):
            fw.manual_seed(0)
            model = _TwoLayer()
            group = ctx.world_group()
            optimizer = ZeroOptimizer(model, group, stage=2, lr=1e-2)
            for _ in range(3):
                optimizer.zero_grad()
                # identical data on both ranks → grads average to the same
                F.mse_loss(model(x), y).backward()
                optimizer.step()
            return model.fc1.weight.numpy()

        for out in cluster.run(run_rank):
            np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-5)

    def test_state_partitioned(self):
        cluster = LocalCluster(2)

        def run_rank(ctx):
            fw.manual_seed(0)
            model = _TwoLayer()
            optimizer = ZeroOptimizer(model, ctx.world_group(), stage=1)
            total = sum(p.numel() * 12 for p in model.parameters())
            return optimizer.state_bytes(), total

        for owned, total in cluster.run(run_rank):
            assert 0 < owned < total

    def test_invalid_stage_rejected(self):
        from repro.distributed import SingleGroup

        with pytest.raises(ValueError):
            ZeroOptimizer(_TwoLayer(), SingleGroup(), stage=4)


class TestSlapoPPEvaluator:
    def test_supported_family_reports_cuts_and_validates_partition(self):
        """validate_partition=True drives .pipeline_split() → build() at
        the planned cuts and checks the stage count end to end."""
        from repro.baselines import evaluate_slapo_pp
        from repro.distributed import P3DN_NODE

        result = evaluate_slapo_pp("GPT", P3DN_NODE, 8,
                                   validate_partition=True)
        assert result.supported
        assert result.throughput > 0
        assert result.pipeline_cuts  # stage-accurate pricing was used
        assert result.num_micro_batches >= 2  # pipeline is filled

    @pytest.mark.parametrize("family", ["OPT-350M", "MoE-GPT"])
    def test_layout_stacks_are_pipelined(self, family):
        """Every family whose layout is one layer stack is supported,
        the two that share OPT's and GPT's layer paths included."""
        from repro.baselines import PIPELINE_FAMILIES, evaluate_slapo_pp
        from repro.distributed import P3DN_NODE

        assert family in PIPELINE_FAMILIES
        result = evaluate_slapo_pp(family, P3DN_NODE, 8,
                                   validate_partition=True)
        assert result.supported and result.throughput > 0
        assert result.pipeline_cuts

    def test_unsupported_families(self):
        from repro.baselines import evaluate_slapo_pp
        from repro.distributed import P3DN_NODE

        for family in ("T5", "WideResNet"):
            assert not evaluate_slapo_pp(family, P3DN_NODE, 8).supported


class TestDeepSpeedBaseline:
    @pytest.mark.parametrize("family", sorted(SCHEDULES))
    def test_build_applies_no_slapo_primitive(self, family, monkeypatch):
        """DeepSpeed trains the unmodified HF model: its build may mark
        layers for checkpointing and must apply nothing else."""
        import repro.slapo as slapo
        from repro.baselines import systems
        from repro.distributed import P3DN_NODE

        schedules = []
        create_schedule = slapo.create_schedule

        def recording(*args, **kwargs):
            schedules.append(create_schedule(*args, **kwargs))
            return schedules[-1]

        def build_only(build_fn, family, *args, **kwargs):
            build_fn(1.0)
            return systems.SystemResult("deepspeed", family, 8, True)

        monkeypatch.setattr(slapo, "create_schedule", recording)
        monkeypatch.setattr(systems, "_plan_over_ratios", build_only)
        systems.evaluate_deepspeed(family, P3DN_NODE, 8)
        applied = {record.name for sch in schedules
                   for record in sch.context.history}
        assert applied == {"checkpoint"}


class TestPipelineRuntime:
    def test_schedules_cover_all_work(self):
        for name in ("gpipe", "1f1b"):
            ticks = make_program(name, 3, 4).linearize()
            fwd = {(t.stage, t.micro_batch) for t in ticks if t.kind == "F"}
            bwd = {(t.stage, t.micro_batch) for t in ticks if t.kind == "B"}
            assert fwd == {(s, m) for s in range(3) for m in range(4)}
            assert bwd == fwd

    def test_bubble_fraction(self):
        """The bubble is read off the runtime's own program: the
        fill/drain form (p-1)/(m+p-1) holds for 1F1B, and the split-
        backward zb program at unit F/B/W cost beats it."""
        runtime = PipelineRuntime([_TwoLayer(), _TwoLayer()],
                                  num_micro_batches=4)
        timeline = simulate_program(runtime.program(), {"F": 1.0, "B": 1.0})
        assert timeline.bubble_fraction == pytest.approx(1 / 5)
        zb = PipelineRuntime([_TwoLayer()] * 4, num_micro_batches=8,
                             schedule="zb")
        timeline = simulate_program(zb.program(),
                                    {"F": 1.0, "B": 1.0, "W": 1.0})
        assert timeline.bubble_fraction == pytest.approx(0.2)
        assert timeline.bubble_fraction < 3 / 11  # (p-1)/(m+p-1)

    def test_bad_schedule_name(self):
        with pytest.raises(ValueError):
            PipelineRuntime([_TwoLayer()], 2, schedule="zigzag")
