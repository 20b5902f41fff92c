"""Auto-tune an OPT-350M training configuration (paper §3.4 / Fig. 10).

Builds the paper's conditional search space over (batch size, activation-
checkpoint ratio), prices every configuration with the V100 performance
simulator, and compares all four search strategies:

* exhaustive — measure the whole space (the baseline);
* coordinate descent — the paper's randomized search;
* simulator-guided — the analytical cost model ranks the space and
  prunes the OOM region for free; only the top-k are measured;
* evolutionary — mutation/crossover with the cost model as a fitness
  prefilter.

A persistent trial cache is demonstrated last: re-tuning with cached
measurements costs zero search time.

Run:  python examples/autotune_opt.py
"""

import tempfile
from pathlib import Path

import repro.slapo as slapo
from repro.distributed import DeviceMesh, P3DN_NODE, ParallelConfig
from repro.models import MODEL_ZOO, data
from repro.sim import model_memory, throughput, trace_model
from repro.sim.kernel_cost import KernelCostModel
from repro.slapo.tuner import AutoTuner, SimCostModel, TrialCache
from repro.schedules import SCHEDULES

PARALLEL = ParallelConfig(dp=8)
_TRACES = {}


def update_space(space):
    """The paper's Fig. 6 space: candidates depend on earlier choices."""
    bs = space.create_symbol("batch_size", range(104, 177, 8))
    ckpt_ratio_cand = [0.67, 0.5, 0.34, 0.25]
    if bs >= 120:
        ckpt_ratio_cand += [1.0, 0.92, 0.84]
    space.create_symbol("ckpt_ratio", ckpt_ratio_cand)
    return space


def traced(ratio):
    if ratio not in _TRACES:
        cls, config = MODEL_ZOO["OPT-350M"]
        model = cls(config, device="meta")
        sch = slapo.create_schedule(
            model, mesh=DeviceMesh(PARALLEL, rank=0, sim=True))
        SCHEDULES["OPT-350M"](sch, config, ckpt_ratio=ratio, use_tp=False,
                              use_flash=False)
        ids, _ = data.lm_batch(config, 1, device="meta")
        _TRACES[ratio] = (model, trace_model(model, ids))
    return _TRACES[ratio]


def evaluate(config):
    """The "measurement": a full-fidelity simulated trial (0 = OOM)."""
    micro = config["batch_size"] // PARALLEL.dp
    model, trace = traced(config["ckpt_ratio"])
    memory = model_memory(model, trace, micro, dp_size=PARALLEL.dp)
    if memory.total > P3DN_NODE.gpu.usable_memory:
        return 0.0  # OOM
    return throughput(trace, model, P3DN_NODE, PARALLEL, micro)


def make_cost_model():
    """The simulator as a cheap config→prediction oracle for the tuner."""
    return SimCostModel(
        trace_fn=lambda config: traced(config["ckpt_ratio"]),
        trace_key_fn=lambda config: config["ckpt_ratio"],
        cluster=P3DN_NODE,
        parallel=PARALLEL,
        kernel_cost=KernelCostModel(P3DN_NODE.gpu, gemm_eff_fp16=0.52),
    )


def show(label, result, baseline=None):
    report = result.report
    line = (f"{label:<17} best {result.best_throughput:8.1f} samples/s "
            f"at {result.best_config} "
            f"({result.num_trials} trials, {report.num_pruned} pruned, "
            f"{result.search_seconds / 60:.0f} simulated min")
    if baseline is not None and baseline.search_seconds > 0:
        saving = 1 - result.search_seconds / baseline.search_seconds
        line += f", {saving:.0%} time saved"
    print(line + ")")


def main():
    exhaustive = AutoTuner(update_space, evaluate).exhaustive()
    print(f"search space: {exhaustive.report.space_size} configurations")
    show("exhaustive", exhaustive)

    cd = AutoTuner(update_space, evaluate, seed=0).coordinate_descent()
    show("coord desc", cd, exhaustive)

    sg = AutoTuner(update_space, evaluate, seed=0,
                   cost_model=make_cost_model()).simulator_guided()
    show("simulator-guided", sg, exhaustive)
    print(f"{'':17} cost model pruned the OOM region for free and "
          f"mispredicted throughput by only "
          f"{sg.report.mean_relative_error:.1%} on average")

    ev = AutoTuner(update_space, evaluate, seed=0,
                   cost_model=make_cost_model()).evolutionary(
                       population=8, generations=4)
    show("evolutionary", ev, exhaustive)

    # Persistent trial cache: a second tuning session reuses measurements.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "opt350m_trials.json"
        AutoTuner(update_space, evaluate, seed=0,
                  cost_model=make_cost_model(),
                  cache=TrialCache(path)).simulator_guided()
        rerun = AutoTuner(update_space, evaluate, seed=0,
                          cost_model=make_cost_model(),
                          cache=TrialCache(path)).simulator_guided()
        print(f"cached re-run    best {rerun.best_throughput:8.1f} samples/s "
              f"({rerun.report.num_cache_hits}/{rerun.num_trials} trials "
              f"from cache, {rerun.search_seconds:.0f} simulated seconds)")

    print(f"(paper Fig. 10: 17/91 configs explored, 20 vs 139 minutes, "
          f"86% search time saved)")


if __name__ == "__main__":
    main()
