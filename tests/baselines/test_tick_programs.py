"""Schedule-conformance property tests for the tick-program IR.

Every registered generator is swept over a (stages, micro-batches) grid
and held to the contract the runtime and simulator build on: programs
validate, linearize without deadlock while respecting every dependency
rule, cover each (virtual stage, micro-batch) work item exactly once
(``W`` exactly for backward-splitting schedules), and report in-flight
peaks that match a direct replay — plus the validator/linearizer error
paths on hand-built malformed programs.
"""

import pytest

from repro.pipeline import (
    SCHEDULE_GENERATORS,
    SCHEDULE_NAMES,
    ScheduleValidationError,
    TickOp,
    TickProgram,
    make_program,
    schedule_info,
    schedule_num_chunks,
    schedule_peak_chunks,
    simulate_program,
)

GRID = [(p, m) for p in (1, 2, 3, 4) for m in (1, 2, 3, 4, 8)]


def grid_for(name):
    """The (p, m) grid restricted to points the schedule can express."""
    if name == "interleaved":
        return [(p, m) for p, m in GRID if m % p == 0]
    return GRID


def cases():
    return [(name, p, m) for name in SCHEDULE_NAMES
            for p, m in grid_for(name)]


@pytest.mark.parametrize("name,p,m", cases())
class TestEveryRegisteredSchedule:
    def test_validates(self, name, p, m):
        make_program(name, p, m).validate()

    def test_linearization_respects_dependencies(self, name, p, m):
        """Replay the linear order checking every rule as stated: F needs
        the upstream F, B needs its F and the downstream B, W needs its
        B — over *virtual* stages."""
        program = make_program(name, p, m)
        num_virtual = program.num_virtual
        done = set()
        for op in program.linearize():
            vs, i = op.vstage(p), op.micro_batch
            if op.kind == "F":
                assert vs == 0 or ("F", vs - 1, i) in done
            elif op.kind == "B":
                assert ("F", vs, i) in done
                assert vs == num_virtual - 1 or ("B", vs + 1, i) in done
            else:
                assert ("B", vs, i) in done
            done.add((op.kind, vs, i))

    def test_linearization_preserves_stage_order(self, name, p, m):
        """The global order is an interleaving of the per-stage
        sequences — no stage's ops are reordered."""
        program = make_program(name, p, m)
        by_stage = {s: [] for s in range(p)}
        for op in program.linearize():
            by_stage[op.stage].append(op)
        for s in range(p):
            assert tuple(by_stage[s]) == program.stage_ops[s]

    def test_each_work_item_exactly_once(self, name, p, m):
        program = make_program(name, p, m)
        info = SCHEDULE_GENERATORS[name]
        kinds = ("F", "B", "W") if info.split_backward else ("F", "B")
        expected = {(kind, vs, i) for kind in kinds
                    for vs in range(program.num_virtual)
                    for i in range(m)}
        seen = [(op.kind, op.vstage(p), op.micro_batch)
                for op in program.linearize()]
        assert len(seen) == len(expected)
        assert set(seen) == expected

    def test_peaks_match_direct_replay(self, name, p, m):
        """``stage_peaks`` (and its cached registry twin) equal an
        independent F:+1/B:-1 replay, and the simulator's in-flight
        helper prices peaks/num_chunks micro-batches."""
        from repro.sim import schedule_stage_inflight

        program = make_program(name, p, m)
        inflight, peak = [0] * p, [0] * p
        for op in program.linearize():
            if op.kind == "F":
                inflight[op.stage] += 1
            elif op.kind == "B":
                inflight[op.stage] -= 1
            assert inflight[op.stage] >= 0
            peak[op.stage] = max(peak[op.stage], inflight[op.stage])
        assert program.stage_peaks() == tuple(peak)
        assert schedule_peak_chunks(name, p, m) == tuple(peak)
        v = schedule_num_chunks(name)
        for s in range(p):
            assert schedule_stage_inflight(name, s, p, m) == \
                pytest.approx(max(peak[s], 1) / v)


class TestScheduleFamilies:
    """Cross-schedule facts the planner's search depends on."""

    @pytest.mark.parametrize("p,m", [(2, 4), (3, 6), (4, 8)])
    def test_zb_memory_matches_1f1b(self, p, m):
        assert schedule_peak_chunks("zb", p, m) == \
            schedule_peak_chunks("1f1b", p, m)

    @pytest.mark.parametrize("p,m", [(2, 4), (3, 6), (4, 8)])
    def test_gpipe_holds_everything(self, p, m):
        assert schedule_peak_chunks("gpipe", p, m) == (m,) * p

    @pytest.mark.parametrize("p,m", [(2, 4), (3, 6), (4, 8)])
    def test_zb_and_interleaved_beat_1f1b_makespan(self, p, m):
        """The reason the schedules exist: under uneven F/B costs
        (backward = 2× forward) both zero-bubble and interleaving finish
        strictly earlier than 1F1B at the same per-stage work: zb splits
        the 2-unit backward into B=1 + W=1, interleaving splits each
        tick across its v chunks."""
        def makespan(name):
            v = schedule_num_chunks(name)
            split = SCHEDULE_GENERATORS[name].split_backward
            cost = {"F": 1.0 / v, "B": (1.0 if split else 2.0) / v,
                    "W": 1.0 / v}
            return simulate_program(make_program(name, p, m), cost).makespan

        base = makespan("1f1b")
        assert makespan("zb") < base
        assert makespan("interleaved") < base

    @pytest.mark.parametrize("name", ["1f1b", "gpipe"])
    @pytest.mark.parametrize("p,m", [(2, 2), (2, 8), (4, 4), (4, 8)])
    def test_uniform_cost_makespan_is_closed_form(self, name, p, m):
        """With uniform per-stage costs, GPipe and 1F1B both take
        (m + p - 1) steady slots — the simulator's legacy bubble
        algebra, which the timeline must reproduce exactly."""
        t = 3.0  # one micro-batch of F+B work on one stage
        timeline = simulate_program(make_program(name, p, m),
                                    {"F": t / 3, "B": 2 * t / 3})
        assert timeline.makespan == pytest.approx((m + p - 1) * t)
        # bottleneck stage busy time = m steady slots; idle = the bubble
        assert max(timeline.stage_busy) == pytest.approx(m * t)
        assert min(timeline.stage_idle) == pytest.approx((p - 1) * t)

    def test_interleaved_requires_divisible_micro_batches(self):
        with pytest.raises(ValueError, match="divisible"):
            make_program("interleaved", 2, 3)

    def test_interleaved_check_rejects_indivisible_micro_batches(self):
        check = schedule_info("interleaved").check
        with pytest.raises(ValueError, match="divisible"):
            check(2, 3)
        check(2, 4)  # expressible: no error, and nothing is built

    @pytest.mark.parametrize("name", SCHEDULE_NAMES)
    @pytest.mark.parametrize("p,m", [(0, 4), (2, 0), (0, 0), (-1, 2)])
    def test_check_rejects_empty_pipelines(self, name, p, m):
        with pytest.raises(ValueError, match="at least one stage"):
            schedule_info(name).check(p, m)
        with pytest.raises(ValueError, match="at least one stage"):
            make_program(name, p, m)

    def test_expressibility_builds_no_program(self):
        from repro.sim.planner import _schedule_expressible

        make_program.cache_clear()
        assert _schedule_expressible("1f1b", 64, 512)
        assert not _schedule_expressible("interleaved", 4, 6)
        assert not _schedule_expressible("hindsight", 2, 4)
        assert make_program.cache_info().currsize == 0

    def test_unknown_schedule_is_rejected(self):
        with pytest.raises(ValueError, match="unknown pipeline schedule"):
            schedule_info("hindsight")
        with pytest.raises(ValueError, match="registered"):
            make_program("hindsight", 2, 4)


class TestMalformedPrograms:
    """The validator/linearizer error paths, on hand-built programs."""

    @staticmethod
    def program(stage_ops, p=2, m=1, **kwargs):
        return TickProgram(name="bad", num_stages=p, num_micro=m,
                           stage_ops=tuple(tuple(ops) for ops in stage_ops),
                           **kwargs)

    def test_op_on_wrong_stage(self):
        bad = self.program([[TickOp(1, "F", 0)], []])
        with pytest.raises(ScheduleValidationError, match="stage"):
            bad.validate()

    def test_missing_backward(self):
        bad = self.program([[TickOp(0, "F", 0)],
                            [TickOp(1, "F", 0), TickOp(1, "B", 0)]])
        with pytest.raises(ScheduleValidationError, match="appears 0"):
            bad.validate()

    def test_duplicate_forward(self):
        bad = self.program([[TickOp(0, "F", 0), TickOp(0, "F", 0),
                             TickOp(0, "B", 0)],
                            [TickOp(1, "F", 0), TickOp(1, "B", 0)]])
        with pytest.raises(ScheduleValidationError, match="appears 2"):
            bad.validate()

    def test_local_backward_before_forward(self):
        bad = self.program([[TickOp(0, "B", 0), TickOp(0, "F", 0)],
                            [TickOp(1, "F", 0), TickOp(1, "B", 0)]])
        with pytest.raises(ScheduleValidationError, match="precedes"):
            bad.validate()

    def test_weight_tick_without_split_backward(self):
        bad = self.program([[TickOp(0, "F", 0), TickOp(0, "B", 0),
                             TickOp(0, "W", 0)],
                            [TickOp(1, "F", 0), TickOp(1, "B", 0)]])
        with pytest.raises(ScheduleValidationError, match="unexpected op"):
            bad.validate()

    def test_deadlock_is_detected_and_named(self):
        """Stage 0 demands its backward before stage 1 ever forwards —
        the B(0,0) → B(1,0) → F(1,0) → F(0,0)-already-done cycle can
        never clear."""
        bad = self.program([[TickOp(0, "F", 0), TickOp(0, "B", 0),
                             TickOp(0, "F", 1), TickOp(0, "B", 1)],
                            [TickOp(1, "B", 0), TickOp(1, "F", 0),
                             TickOp(1, "F", 1), TickOp(1, "B", 1)]],
                           m=2)
        with pytest.raises(ScheduleValidationError, match="deadlocked"):
            bad.linearize()

    def test_negative_tick_cost_rejected(self):
        program = make_program("1f1b", 2, 2)
        with pytest.raises(ValueError, match="negative"):
            simulate_program(program, {"F": 1.0, "B": -1.0})
