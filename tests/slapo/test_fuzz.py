"""The schedule fuzzer: sampling, replayable repro files, shrinking.

The fast half of the fuzz test suite: determinism and validity of the
sampler, the repro JSON round-trip, greedy shrinking of an injected bad
schedule, and the simulator invariant cross-checks.  The seeded 200-run
corpus lives in ``test_fuzz_corpus.py`` behind the ``slow`` marker.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

import repro.slapo as slapo
from repro.framework.module import Module
from repro.fx.matcher import Match
from repro.slapo import ScheduleSpec
from repro.slapo.registry import fuzzable_primitives
from repro.slapo.tuner.space import SpaceError, sample_space
from repro.slapo.verify import (
    DEFAULT_FAMILIES,
    FAMILY_INFO,
    SimInvariantError,
    VerificationError,
    check_sim_invariants,
    replay,
    run_fuzz,
    sample_spec,
    shrink,
)
from repro.slapo.verify.fuzz import sample_mesh
from repro.slapo.verify.spec import still_fails


class TestSampler:
    def test_sampling_is_deterministic(self):
        a = sample_spec("BERT", 4, seed=11)
        b = sample_spec("BERT", 4, seed=11)
        assert a == b

    def test_different_seeds_differ(self):
        specs = {json.dumps(sample_spec("GPT", 2, seed=s).steps)
                 for s in range(8)}
        assert len(specs) > 1

    def test_sampled_mesh_factors_world_size(self):
        for seed in range(10):
            for world in (1, 2, 4, 8):
                spec = sample_spec("OPT", world, seed=seed)
                assert spec.tp * spec.dp * spec.pp == world
                if spec.pp > 1:
                    assert spec.num_micro_batches >= spec.pp

    def test_sampled_steps_apply_cleanly(self):
        """Validity-by-construction: every sampled sequence must apply
        without SchedulingError on a fresh schedule."""
        from repro.distributed import DeviceMesh
        from repro.framework import manual_seed
        from repro.slapo.verify.spec import apply_steps

        for seed in (0, 1, 2):
            spec = sample_spec("LLaMA-7B", 2, seed=seed)
            info = FAMILY_INFO["LLaMA-7B"]
            manual_seed(spec.seed)
            model = info.model_factory(info.tiny_config())()
            mesh = DeviceMesh(spec.parallel, rank=0, sim=True)
            sch = slapo.create_schedule(model, mesh=mesh)
            apply_steps(sch, spec)  # must not raise

    def test_registry_drives_structural_sampling(self):
        names = {cls.name for cls in fuzzable_primitives()}
        assert {"checkpoint", "uncheckpoint", "decompose",
                "cudagraphify"} <= names
        # quantize changes numerics on purpose: it must stay out
        assert "quantize" not in names

    def test_zero_only_sampled_with_dp(self):
        for seed in range(20):
            spec = sample_spec("BERT", 4, seed=seed)
            if spec.dp == 1:
                assert spec.zero_stage == 0


class TestSampleSpace:
    def test_sample_space_deterministic(self):
        def update(space):
            space.create_symbol("a", [1, 2, 3])
            space.create_symbol("b", [4, 5])

        rng = np.random.default_rng(3)
        first = sample_space(update, rng, k=4)
        rng = np.random.default_rng(3)
        again = sample_space(update, rng, k=4)
        assert first == again

    def test_sample_space_without_replacement_until_exhausted(self):
        def update(space):
            space.create_symbol("a", [1, 2, 3])

        picks = sample_space(update, np.random.default_rng(0), k=3)
        assert sorted(p["a"] for p in picks) == [1, 2, 3]

    def test_empty_space_rejected(self):
        with pytest.raises(SpaceError):
            sample_space(lambda space: (_ for _ in ()).throw(
                SpaceError("boom")), np.random.default_rng(0))

    def test_mesh_sampler_respects_family_limits(self):
        info = FAMILY_INFO["T5"]  # pp_ok=False
        for seed in range(10):
            mesh = sample_mesh(info, 8, np.random.default_rng(seed))
            assert mesh["pp"] == 1
            assert mesh["tp"] <= info.max_tp


BAD_SPEC_STEPS = [
    # A plausible progressive schedule with one fatal flaw: the row-
    # parallel fc2 shard is missing its forward all-reduce.
    {"op": "checkpoint", "path": "bert.encoder.layer.0"},
    {"op": "flash_attention", "path": "bert.encoder.layer.1"},
    {"op": "shard", "path": "bert.encoder.layer.0.intermediate.dense",
     "args": [["weight", "bias"], 0]},
    {"op": "sync", "path": "bert.encoder.layer.0.intermediate.dense",
     "kwargs": {"mode": "bwd_post"}},
    {"op": "shard", "path": "bert.encoder.layer.0.output.dense",
     "args": ["weight", 1]},
    # missing: sync(mode="fwd_post") on output.dense
]


def bad_spec() -> ScheduleSpec:
    return ScheduleSpec(family="BERT", tp=2, dp=1, pp=1, seed=0,
                        steps=[dict(s) for s in BAD_SPEC_STEPS])


class TestReproFiles:
    def test_bad_schedule_fails_verification(self):
        with pytest.raises(VerificationError):
            replay(bad_spec())

    def test_round_trip_through_json(self, tmp_path):
        spec = bad_spec()
        path = spec.save(tmp_path / "repro.json")
        loaded = ScheduleSpec.load(path)
        assert loaded == spec
        with pytest.raises(VerificationError):
            replay(path)  # replay accepts a path directly

    def test_unknown_format_rejected(self, tmp_path):
        payload = json.loads(bad_spec().to_json())
        payload["format"] = "someone-elses/v9"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="format"):
            ScheduleSpec.load(path)

    def test_shrink_finds_minimal_sequence(self):
        small = shrink(bad_spec())
        # The failure needs the un-synced row-parallel shard plus the
        # column shard that makes its input shape legal; checkpoint,
        # flash, and the backward sync must all be deleted.
        assert [s["op"] for s in small.steps] == ["shard", "shard"]
        assert small.steps[-1]["path"].endswith("output.dense")
        assert still_fails(small)
        # 1-minimality: removing either remaining step kills the repro.
        for index in range(len(small.steps)):
            probe = replace(small, steps=small.steps[:index]
                            + small.steps[index + 1:])
            assert not still_fails(probe)

    def test_shrink_keeps_passing_spec_intact(self):
        spec = sample_spec("BERT", 2, seed=1)
        assert not still_fails(spec)
        assert shrink(spec) == spec


class TestPipelineScheduleSpec:
    """``pipeline_schedule`` rides through the whole fuzz pipeline:
    sampling, the replayed primitive step, JSON, and shrinking."""

    def test_sampled_pipelined_specs_carry_registered_schedule(self):
        from repro.pipeline import (
            DEFAULT_SCHEDULE,
            SCHEDULE_NAMES,
            make_program,
        )

        saw_pipelined = False
        for seed in range(30):
            spec = sample_spec("GPT", 8, seed=seed)
            assert spec.pipeline_schedule in SCHEDULE_NAMES
            if spec.pp > 1:
                saw_pipelined = True
                # replayed as an explicit primitive step, exactly once
                steps = [s for s in spec.steps
                         if s["op"] == "pipeline_schedule"]
                assert [tuple(s.get("args", ())) for s in steps] == \
                    [(spec.pipeline_schedule,)]
                # only expressible schedules are sampled
                make_program(spec.pipeline_schedule, spec.pp,
                             spec.num_micro_batches)
            else:
                assert spec.pipeline_schedule == DEFAULT_SCHEDULE
        assert saw_pipelined

    def test_round_trip_preserves_schedule(self, tmp_path):
        spec = replace(bad_spec(), pipeline_schedule="zb")
        loaded = ScheduleSpec.load(spec.save(tmp_path / "zb.json"))
        assert loaded == spec
        assert loaded.pipeline_schedule == "zb"

    def test_pre_schedule_repros_load_with_default(self):
        """Repro files written before the field existed must still load
        (and mean what they always meant: 1F1B)."""
        payload = json.loads(bad_spec().to_json())
        del payload["pipeline_schedule"]
        loaded = ScheduleSpec.from_json(json.dumps(payload))
        assert loaded.pipeline_schedule == "1f1b"

    def test_shrink_preserves_schedule_field(self):
        """Shrinking deletes *steps*; the mesh/schedule coordinates of
        the repro must survive untouched."""
        spec = replace(bad_spec(), pipeline_schedule="zb")
        small = shrink(spec)
        assert small.pipeline_schedule == "zb"
        assert [s["op"] for s in small.steps] == ["shard", "shard"]


class TestFuzzDriver:
    def test_small_corpus_passes(self, tmp_path):
        result = run_fuzz(6, world_sizes=(1, 2), seed=7,
                          out_dir=tmp_path, check_sim=True)
        assert result.ok
        assert result.passed == 6
        assert result.steps_verified > 0

    def test_failures_write_repro_and_shrink(self, tmp_path, monkeypatch):
        from repro.slapo.verify import fuzz as fuzz_mod

        monkeypatch.setattr(
            fuzz_mod, "sample_spec",
            lambda family, world, seed, rng=None: bad_spec())
        result = run_fuzz(1, families=("BERT",), world_sizes=(2,),
                          seed=0, out_dir=tmp_path)
        assert not result.ok
        failure = result.failures[0]
        assert failure.kind == "verification"
        assert failure.repro_path is not None
        loaded = ScheduleSpec.load(failure.repro_path)
        with pytest.raises(VerificationError):
            replay(loaded)
        assert failure.shrunk is not None
        assert len(failure.shrunk.steps) < len(loaded.steps)
        shrunk_files = list(tmp_path.glob("*.shrunk.json"))
        assert len(shrunk_files) == 1

    def test_driver_is_deterministic(self, tmp_path):
        first = run_fuzz(4, world_sizes=(1, 2), seed=3, out_dir=tmp_path,
                         check_sim=False)
        second = run_fuzz(4, world_sizes=(1, 2), seed=3, out_dir=tmp_path,
                         check_sim=False)
        assert first.families == second.families
        assert first.steps_verified == second.steps_verified


def _history(sch) -> list:
    """The schedule's primitive records, with module arguments and
    pattern matches as comparable descriptions."""
    def plain(value):
        if isinstance(value, (list, tuple)):
            return [plain(item) for item in value]
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        if isinstance(value, Match):
            return [node.name for node in value.internal_nodes]
        if isinstance(value, Module):
            return type(value).__name__, {
                key: item for key, item in vars(value).items()
                if isinstance(item, (bool, int, float, str))}
        return value

    return [(record.name, record.path, plain(record.args),
             plain(record.kwargs)) for record in sch.context.history]


MESHES = [(family, tp, ep) for family in sorted(FAMILY_INFO)
          for tp in (1, 2)
          for ep in ((1, 2) if FAMILY_INFO[family].max_ep > 1 else (1,))]


@pytest.mark.parametrize("family,tp,ep", MESHES)
def test_macros_in_driver_order_reproduce_the_recipe(family, tp, ep):
    """The fuzz macros apply the shipped schedules' own steps: replayed in
    the driver's order, they record the recipe's primitive history."""
    from repro.distributed import DeviceMesh, ParallelConfig
    from repro.framework import manual_seed
    from repro.schedules import LAYOUTS, SCHEDULES
    from repro.schedules.common import LAYER_STEPS
    from repro.slapo.verify.spec import MACROS, apply_steps

    info = FAMILY_INFO[family]
    config = info.tiny_config()
    layout = LAYOUTS[family]

    def fresh():
        manual_seed(0)
        mesh = DeviceMesh(ParallelConfig(tp=tp, ep=ep), rank=0, sim=True)
        return slapo.create_schedule(info.model_factory(config)(),
                                     mesh=mesh)

    recipe = fresh()
    SCHEDULES[family](recipe, config)

    macro_of = {step: macro for macro, step in MACROS.items()}
    enabled = {"attention": tp > 1, "mlp": tp > 1, "conv_pair": tp > 1,
               "flash": True, "experts": ep > 1, "fusion": True}
    steps = [{"op": "tp_vocab", "path": ""}] if tp > 1 and layout.vocab \
        else []
    for path in layout.layers(config):
        steps += [{"op": macro_of[name], "path": path}
                  for name in LAYER_STEPS
                  if getattr(layout, name) and enabled[name]]
    macros = fresh()
    apply_steps(macros, ScheduleSpec(family, tp=tp, ep=ep, steps=steps))
    assert _history(macros) == _history(recipe)


class TestSimInvariants:
    @pytest.mark.parametrize("family", ["BERT", "GPT", "T5", "WideResNet"])
    def test_invariants_hold_for_families(self, family):
        spec = ScheduleSpec(family=family, tp=2, dp=2, pp=1, zero_stage=2)
        check_sim_invariants(spec)

    def test_pipeline_fill_rule_agreement(self):
        spec = ScheduleSpec(family="GPT", tp=1, dp=1, pp=2,
                            num_micro_batches=4)
        check_sim_invariants(spec)

    def test_violated_invariant_raises(self, monkeypatch):
        from repro.sim import memory as memory_mod
        from repro.sim.memory import MemoryBreakdown

        def broken(*args, **kwargs):
            zero_stage = kwargs.get("zero_stage", 0)
            return MemoryBreakdown(params=1e9 * (1 + zero_stage),
                                   grads=0, optimizer=0, activations=0,
                                   workspace=0)

        monkeypatch.setattr("repro.sim.model_memory", broken)
        spec = ScheduleSpec(family="BERT", tp=1, dp=2, pp=1, zero_stage=1)
        with pytest.raises(SimInvariantError, match="partitioned state"):
            check_sim_invariants(spec)

    def test_default_families_cover_six_plus(self):
        assert len(DEFAULT_FAMILIES) >= 6
        assert set(DEFAULT_FAMILIES) <= set(FAMILY_INFO)
