"""Stage-accurate pipeline simulation: slicing, planning, consistency.

Covers the §3.3.2 planning dimension end to end: per-stage trace
sub-aggregates, bottleneck-stage pricing vs the old uniform ``/pp``
estimate, the cut-balancing DP, the ``m ≥ pp`` fillability rule on every
planner path, per-stage 1F1B in-flight accounting validated against the
runtime's tick schedule, and the mesh/simulator rank-group agreement.
"""

import pytest

import repro.slapo as slapo
from repro.distributed import P3DN_NODE, DeviceMesh, ParallelConfig, axis_ranks
from repro.models import MODEL_ZOO, data
from repro.pipeline import make_program
from repro.schedules import SCHEDULES
from repro.sim import (
    even_cuts,
    plan_micro_batch,
    plan_pipeline_cuts,
    predict_config,
    stage_inflight,
    stage_memory,
    stage_profiles,
    stage_step_times,
    step_time,
    throughput,
    trace_model,
)


@pytest.fixture(scope="module")
def gpt_trace():
    """A layer-marked GPT trace (the schedule tags every block ckpt_unit)."""
    cls, config = MODEL_ZOO["GPT"]
    model = cls(config, device="meta")
    sch = slapo.create_schedule(model)
    SCHEDULES["GPT"](sch, config, ckpt_ratio=0.0, use_tp=False)
    ids, _ = data.lm_batch(config, 1, device="meta")
    return model, trace_model(model, ids)


PP2 = ParallelConfig(tp=4, pp=2)


class TestStageProfiles:
    def test_profiles_partition_the_trace(self, gpt_trace):
        model, trace = gpt_trace
        num_layers = len(trace.layers)
        profiles = stage_profiles(trace, (num_layers // 3,
                                          2 * num_layers // 3))
        assert profiles[0].op_start == 0
        assert profiles[-1].op_end == len(trace.ops)
        for a, b in zip(profiles, profiles[1:]):
            assert a.op_end == b.op_start
            assert a.comm_end == b.comm_start
            # the tensor stage a sends is exactly what stage b receives
            assert a.send_bytes == b.recv_bytes

    def test_aggregates_sum_to_trace_totals(self, gpt_trace):
        model, trace = gpt_trace
        profiles = stage_profiles(trace, even_cuts(len(trace.layers), 4))
        total_act = sum(p.activation_bytes for p in profiles)
        assert total_act == pytest.approx(trace.activation_bytes(),
                                          rel=1e-9)
        total_params = sum(p.param_bytes for p in profiles)
        assert total_params == pytest.approx(trace.stats.param_bytes,
                                             rel=1e-9)

    def test_boundary_is_actual_cut_tensor_not_median(self, gpt_trace):
        """The cut tensor is the hidden state at the boundary op, read
        from the trace — not the median-op-size heuristic."""
        model, trace = gpt_trace
        cut = len(trace.layers) // 2
        profiles = stage_profiles(trace, (cut,))
        boundary_op = profiles[1].op_start
        assert profiles[0].send_bytes == \
            float(trace.compiled().out_bytes[boundary_op - 1])
        assert profiles[0].send_bytes > 0

    def test_bad_cuts_rejected(self, gpt_trace):
        model, trace = gpt_trace
        num_layers = len(trace.layers)
        with pytest.raises(ValueError, match="strictly"):
            stage_profiles(trace, (0,))
        with pytest.raises(ValueError, match="strictly"):
            stage_profiles(trace, (num_layers,))
        with pytest.raises(ValueError, match="increase"):
            stage_profiles(trace, (8, 4))

    def test_unmarked_trace_rejected(self):
        cls, config = MODEL_ZOO["BERT"]
        model = cls(config, device="meta")  # no schedule → no layer marks
        ids, _ = data.lm_batch(config, 1, device="meta")
        trace = trace_model(model, ids)
        with pytest.raises(ValueError, match="layer-marked"):
            stage_profiles(trace, (2,))


class TestStageAccurateStepTime:
    def test_imbalanced_split_differs_from_uniform_estimate(self,
                                                            gpt_trace):
        """Acceptance: a lopsided 2-stage split's bottleneck pricing must
        not collapse to the uniform compute/pp guess."""
        model, trace = gpt_trace
        lopsided = (len(trace.layers) // 4,)
        uniform = step_time(trace, model, P3DN_NODE, PP2, 1,
                            num_micro_batches=8)
        staged = step_time(trace, model, P3DN_NODE, PP2, 1,
                           num_micro_batches=8, pipeline_cuts=lopsided)
        assert staged.total != pytest.approx(uniform.total, rel=1e-3)
        # the heavy stage (3/4 of the layers + LM head) is the bottleneck
        assert staged.detail["bottleneck_stage"] == 1
        times = staged.detail["stage_times"]
        assert times[1] > times[0]

    def test_stage_times_sum_close_to_whole_model(self, gpt_trace):
        """Per-stage forward/backward slices must add up to the whole
        trace's compute (they are a partition of the same op list)."""
        from repro.sim import KernelCostModel

        model, trace = gpt_trace
        cost = KernelCostModel(P3DN_NODE.gpu)
        profiles = stage_profiles(trace, even_cuts(len(trace.layers), 2))
        times = stage_step_times(trace, profiles, P3DN_NODE, PP2, 1, cost)
        assert sum(t.forward for t in times) == pytest.approx(
            cost.forward_time(trace, 1.0), rel=1e-9)
        assert sum(t.backward for t in times) == pytest.approx(
            cost.backward_time(trace, 1.0), rel=1e-9)

    def test_stage_times_need_model_stats(self, gpt_trace):
        """Stage times price off the trace's cached ModelStats; a trace
        built without them is refused with a clear error."""
        import dataclasses

        _, trace = gpt_trace
        bare = dataclasses.replace(trace, stats=None)
        profiles = stage_profiles(bare, even_cuts(len(bare.layers), 2))
        with pytest.raises(ValueError, match="ModelStats"):
            stage_step_times(bare, profiles, P3DN_NODE, PP2, 1)

    def test_cut_count_must_match_pp(self, gpt_trace):
        model, trace = gpt_trace
        with pytest.raises(ValueError, match="pp="):
            step_time(trace, model, P3DN_NODE, PP2, 1,
                      num_micro_batches=8, pipeline_cuts=(4, 8, 12))


class TestCutPlanner:
    def test_planner_beats_naive_even_split(self, gpt_trace):
        """Acceptance: the DP recovers a balanced split that out-runs the
        even-layer split (GPT's LM head makes the last stage heavier).
        Four stages leave the memory headroom to move a layer; at two
        (below) the first stage's budget pins the even cut."""
        model, trace = gpt_trace
        parallel = ParallelConfig(tp=2, pp=4)
        plan = plan_pipeline_cuts(trace, model, P3DN_NODE, parallel, 1, 8)
        even = even_cuts(len(trace.layers), 4)
        assert plan is not None and plan.fits
        assert plan.cuts != even  # the model is *not* uniform
        thr_even = throughput(trace, model, P3DN_NODE, parallel, 1,
                              num_micro_batches=8, pipeline_cuts=even)
        thr_planned = throughput(trace, model, P3DN_NODE, parallel, 1,
                                 num_micro_batches=8,
                                 pipeline_cuts=plan.cuts)
        assert thr_planned > thr_even

    def test_planner_balances_bottleneck(self, gpt_trace):
        model, trace = gpt_trace
        plan = plan_pipeline_cuts(trace, model, P3DN_NODE, PP2, 1, 8)
        even = even_cuts(len(trace.layers), 2)
        even_times = [t.steady for t in stage_step_times(
            trace, stage_profiles(trace, even), P3DN_NODE, PP2, 1)]
        assert plan.bottleneck_time <= max(even_times)

    def test_memory_constraint_shapes_the_cut(self, gpt_trace):
        """When the balanced split would blow the first stage's budget
        (1F1B holds pp in-flight there), the DP sheds layers off it."""
        model, trace = gpt_trace
        micro = 1
        plan = plan_pipeline_cuts(trace, model, P3DN_NODE, PP2, micro, 8)
        assert plan is not None and plan.fits
        peaks = [stage_memory(trace, p, micro, 8).total
                 for p in stage_profiles(trace, plan.cuts)]
        assert max(peaks) <= P3DN_NODE.gpu.usable_memory

    def test_four_stage_plan(self, gpt_trace):
        model, trace = gpt_trace
        parallel = ParallelConfig(tp=2, pp=4)
        plan = plan_pipeline_cuts(trace, model, P3DN_NODE, parallel, 1, 8)
        assert plan is not None
        assert len(plan.cuts) == 3
        assert len(plan.stage_times) == 4

    def test_unmarked_trace_returns_none(self):
        cls, config = MODEL_ZOO["BERT"]
        model = cls(config, device="meta")
        ids, _ = data.lm_batch(config, 1, device="meta")
        trace = trace_model(model, ids)
        assert plan_pipeline_cuts(trace, model, P3DN_NODE, PP2, 1, 8) \
            is None


class TestPipelineFillability:
    """Satellite: ``m >= pp`` must hold on *every* planner path."""

    def test_explicit_micro_batch_path_rejects_unfillable(self, gpt_trace):
        model, trace = gpt_trace
        parallel = ParallelConfig(tp=2, pp=4)
        pred = predict_config(trace, model, P3DN_NODE, parallel,
                              micro_batch=1, num_micro_batches=1)
        assert not pred.fits
        assert pred.throughput == 0.0
        # exactly pp micro-batches fills the pipeline again
        ok = predict_config(trace, model, P3DN_NODE, parallel,
                            micro_batch=1, num_micro_batches=4)
        assert ok.fits

    def test_plan_micro_batch_rejects_unfillable(self, gpt_trace):
        model, trace = gpt_trace
        parallel = ParallelConfig(tp=2, pp=4)
        assert plan_micro_batch(trace, model, P3DN_NODE, parallel,
                                num_micro_batches=1) is None

    def test_global_batch_path_still_rejects(self, gpt_trace):
        model, trace = gpt_trace
        parallel = ParallelConfig(tp=2, pp=4)
        pred = predict_config(trace, model, P3DN_NODE, parallel,
                              micro_batch=2, global_batch=4)  # m = 2 < 4
        assert not pred.fits

    def test_bad_explicit_cuts_are_infeasible_not_fatal(self, gpt_trace):
        """The oracle must survive a malformed coordinate: wrong stage
        count or out-of-range cuts report fits=False, never raise."""
        model, trace = gpt_trace
        parallel = ParallelConfig(tp=2, pp=4)
        wrong_count = predict_config(trace, model, P3DN_NODE, parallel,
                                     micro_batch=1, num_micro_batches=8,
                                     pipeline_cuts=(10, 20))  # 3 ≠ pp=4
        assert not wrong_count.fits and wrong_count.throughput == 0.0
        out_of_range = predict_config(trace, model, P3DN_NODE, PP2,
                                      micro_batch=1, num_micro_batches=8,
                                      pipeline_cuts=(0,))
        assert not out_of_range.fits
        assert plan_micro_batch(trace, model, P3DN_NODE, parallel,
                                num_micro_batches=8,
                                pipeline_cuts=(10, 20)) is None

    def test_joint_sweep_returns_filled_pipeline(self, gpt_trace):
        model, trace = gpt_trace
        plan = plan_micro_batch(trace, model, P3DN_NODE, PP2,
                                num_micro_batches=None,
                                pipeline_cuts="auto")
        assert plan is not None
        assert plan.num_micro_batches >= PP2.pp
        assert plan.num_micro_batches % PP2.pp == 0
        assert plan.pipeline_cuts  # stage-accurate pricing was used


class TestStageMemory:
    def test_first_stage_holds_most_activations(self, gpt_trace):
        model, trace = gpt_trace
        profiles = stage_profiles(trace, even_cuts(len(trace.layers), 2))
        first = stage_memory(trace, profiles[0], 1, 8)
        last = stage_memory(trace, profiles[1], 1, 8)
        # 2 in-flight on stage 0, 1 on stage 1 — roughly twice the
        # activations for a similar layer slice
        assert first.activations > 1.5 * last.activations

    def test_inflight_matches_1f1b_tick_schedule(self):
        """Satellite: the analytic per-stage in-flight count equals the
        runtime schedule's actual peak, for every (pp, m)."""
        for p in (2, 3, 4):
            for m in (1, 2, 4, 8):
                inflight = [0] * p
                peak = [0] * p
                for tick in make_program("1f1b", p, m).linearize():
                    delta = 1 if tick.kind == "F" else -1
                    inflight[tick.stage] += delta
                    peak[tick.stage] = max(peak[tick.stage],
                                           inflight[tick.stage])
                assert peak == [stage_inflight(s, p, m) for s in range(p)]


class TestAxisRanksAgreement:
    """Simulator pricing reads its rank groups from ``axis_ranks``; the
    DeviceMesh must lay its groups out the same way."""

    @pytest.mark.parametrize("world_size", [8, 16])
    def test_all_factorizations_agree(self, world_size):
        factorizations = [
            (tp, dp, pp)
            for tp in range(1, world_size + 1)
            for dp in range(1, world_size + 1)
            for pp in range(1, world_size + 1)
            if tp * dp * pp == world_size
        ]
        assert factorizations
        for tp, dp, pp in factorizations:
            config = ParallelConfig(tp=tp, dp=dp, pp=pp)
            mesh = DeviceMesh(config, rank=0, sim=True)
            shared = axis_ranks(0, config)
            for axis in ("tp", "dp", "pp"):
                assert tuple(mesh.group(axis).ranks) == shared[axis]


class TestSchedulePricing:
    """Tick-program pricing: timeline vs closed form, schedule planning."""

    def test_gpipe_timeline_matches_closed_form_uniform(self, gpt_trace):
        """With uniform stages GPipe's timeline takes the same
        (m + p - 1) steady slots as 1F1B, so pricing it through the tick
        timeline must land exactly on the legacy closed-form bubble."""
        model, trace = gpt_trace
        legacy = step_time(trace, model, P3DN_NODE, PP2, 1,
                           num_micro_batches=8)
        timed = step_time(trace, model, P3DN_NODE, PP2, 1,
                          num_micro_batches=8, pipeline_schedule="gpipe")
        assert timed.total == pytest.approx(legacy.total, rel=1e-9)
        assert timed.detail["pipeline_schedule"] == "gpipe"
        assert len(timed.detail["stage_busy"]) == PP2.pp

    def test_gpipe_timeline_tightens_closed_form_staged(self, gpt_trace):
        """On the stage-accurate path the stages are *not* uniform, so
        the exact timeline can only be tighter than the closed form
        (which bills every fill/drain slot at the bottleneck rate) —
        and with balanced cuts it must stay within a percent of it."""
        model, trace = gpt_trace
        plan = plan_pipeline_cuts(trace, model, P3DN_NODE, PP2, 1, 8)
        legacy = step_time(trace, model, P3DN_NODE, PP2, 1,
                           num_micro_batches=8, pipeline_cuts=plan.cuts)
        timed = step_time(trace, model, P3DN_NODE, PP2, 1,
                          num_micro_batches=8, pipeline_cuts=plan.cuts,
                          pipeline_schedule="gpipe")
        assert timed.total <= legacy.total * (1 + 1e-9)
        assert timed.total == pytest.approx(legacy.total, rel=1e-2)

    def test_zb_fills_the_bubble(self, gpt_trace):
        """The zero-bubble win the planner searches for: at the planned
        cuts zb is strictly faster than 1F1B (its W ticks fill the
        cool-down idle) while holding the same activation peak."""
        model, trace = gpt_trace
        plan = plan_pipeline_cuts(trace, model, P3DN_NODE, PP2, 2, 8)
        base = step_time(trace, model, P3DN_NODE, PP2, 2,
                         num_micro_batches=8, pipeline_cuts=plan.cuts)
        zb = step_time(trace, model, P3DN_NODE, PP2, 2,
                       num_micro_batches=8, pipeline_cuts=plan.cuts,
                       pipeline_schedule="zb")
        assert zb.total < base.total
        assert zb.detail["pipeline_makespan"] > 0

    def test_plan_pipeline_schedule_selects_zb(self, gpt_trace):
        """Acceptance: joint schedule search finds a schedule that beats
        1F1B at equal per-stage memory — zb on GPT (interleaved is faster
        still but its doubled in-flight chunks blow the budget)."""
        from repro.sim import plan_pipeline_schedule

        model, trace = gpt_trace
        plan = plan_pipeline_schedule(trace, model, P3DN_NODE, PP2,
                                      micro_batch=1, num_micro_batches=8)
        assert plan is not None and plan.fits
        assert plan.schedule == "zb"
        base = plan.candidate("1f1b")
        best = plan.candidate("zb")
        assert best.step_seconds < base.step_seconds
        assert best.peak_memory == pytest.approx(base.peak_memory,
                                                 rel=1e-6)
        # gpipe holds all m in flight and does not fit this budget
        assert not plan.candidate("gpipe").fits

    def test_plan_pipeline_schedule_explicit_cuts_and_budget(self,
                                                             gpt_trace):
        """Explicit cuts are honoured; an impossible budget degrades to
        fits=False (best-effort ranking) instead of returning nothing."""
        from repro.sim import plan_pipeline_schedule

        model, trace = gpt_trace
        cuts = even_cuts(len(trace.layers), 2)
        plan = plan_pipeline_schedule(trace, model, P3DN_NODE, PP2,
                                      micro_batch=2, num_micro_batches=8,
                                      pipeline_cuts=cuts)
        assert plan is not None and plan.cuts == tuple(cuts)
        squeezed = plan_pipeline_schedule(trace, model, P3DN_NODE, PP2,
                                          micro_batch=2,
                                          num_micro_batches=8,
                                          memory_budget=1.0)  # 1 byte
        assert squeezed is not None and not squeezed.fits
        with pytest.raises(ValueError, match="pp="):
            plan_pipeline_schedule(trace, model, P3DN_NODE, PP2,
                                   micro_batch=2, num_micro_batches=8,
                                   pipeline_cuts=(4, 8, 12))

    def test_unknown_schedule_rejected_by_step_time(self, gpt_trace):
        model, trace = gpt_trace
        with pytest.raises(ValueError, match="unknown pipeline schedule"):
            step_time(trace, model, P3DN_NODE, PP2, 1,
                      num_micro_batches=8, pipeline_schedule="hindsight")


class TestSimRuntimeAgreement:
    """The simulator's busy/idle ticks and the runtime's executed trace
    must describe the same program."""

    SCHEDULES = ["1f1b", "gpipe", "zb", "interleaved"]

    @pytest.mark.parametrize("name", SCHEDULES)
    @pytest.mark.parametrize("p,m", [(2, 4), (4, 4), (4, 8)])
    def test_unit_cost_busy_counts_ops(self, name, p, m):
        """Under unit tick costs a stage's busy time *is* its op count,
        and busy + idle partitions the makespan on every stage."""
        from repro.pipeline import simulate_program

        program = make_program(name, p, m)
        timeline = simulate_program(program,
                                    {"F": 1.0, "B": 1.0, "W": 1.0})
        for s in range(p):
            assert timeline.stage_busy[s] == \
                pytest.approx(len(program.stage_ops[s]))
            assert timeline.stage_busy[s] + timeline.stage_idle[s] == \
                pytest.approx(timeline.makespan)

    @pytest.mark.parametrize("name", SCHEDULES)
    def test_runtime_trace_matches_sim_tick_counts(self, name):
        """Run the *real* runtime on a tiny GPT and check the executed
        per-stage tick counts equal the simulator's unit-cost busy time —
        sim and runtime agree on exactly which ticks each stage works."""
        from repro.baselines import PipelineRuntime
        from repro.framework import functional as F
        from repro.models import GPT_2_9B, GPT2LMHeadModel
        from repro.pipeline import simulate_program
        from repro import framework as fw

        num_stages, num_micro = 2, 4
        cuts, pp = ((0, 1, 2), 4) if name == "interleaved" else ((1,), 2)
        config = GPT_2_9B.tiny(num_layers=4, hidden_size=16, num_heads=2,
                               vocab_size=64)
        fw.manual_seed(0)
        tiny = GPT2LMHeadModel(config)
        tiny.eval()
        mesh = DeviceMesh(ParallelConfig(pp=pp), rank=0, sim=True)
        sch = slapo.create_schedule(tiny, mesh=mesh)
        for layer in cuts:
            sch[f"transformer.h.{layer}"].pipeline_split()
        built = slapo.build(sch, target="deepspeed")
        runtime = PipelineRuntime(built.stages,
                                  num_micro_batches=num_micro,
                                  schedule=name, num_stages=num_stages)
        ids = fw.randint(0, config.vocab_size, (num_micro, 5))
        labels = fw.randint(0, config.vocab_size, (num_micro * 5,))
        runtime.train_step(
            [(ids[i:i + 1],) for i in range(num_micro)],
            lambda out, i: F.cross_entropy(
                out.view(-1, config.vocab_size),
                labels[i * 5:(i + 1) * 5]))

        timeline = simulate_program(runtime.program(),
                                    {"F": 1.0, "B": 1.0, "W": 1.0})
        executed = [0] * num_stages
        for tick in runtime.last_trace:
            executed[tick.stage] += 1
        assert executed == [pytest.approx(b)
                            for b in timeline.stage_busy]


class TestLegacyPathUnchanged:
    def test_no_cuts_means_uniform_estimate(self, gpt_trace):
        """Without cut points the pre-stage-accurate formula must be
        reproduced exactly (Fig. 7/8 numbers depend on it)."""
        from repro.sim import KernelCostModel

        model, trace = gpt_trace
        cost = KernelCostModel(P3DN_NODE.gpu)
        breakdown = step_time(trace, model, P3DN_NODE, PP2, 2,
                              num_micro_batches=8, cost_model=cost)
        assert breakdown.forward == pytest.approx(
            cost.forward_time(trace, 2.0) / PP2.pp * 8, rel=1e-12)
        # pp equal stages, no cuts
        assert breakdown.detail["pipeline_cuts"] == ()
        times = breakdown.detail["stage_times"]
        assert len(times) == PP2.pp and len(set(times)) == 1
