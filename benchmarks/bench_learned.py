"""Learned cost model benchmark — residual correction vs pure analytic.

Reruns the Fig. 10 study (OPT-350M, 8 V100, the Fig. 6 batch ×
checkpoint-ratio polygon) against a *biased* measurement surface: every
measured throughput carries a multiplicative recompute-efficiency bias
the analytic simulator knows nothing about (recomputed kernels run
hotter in cache, so heavy checkpointing loses less than first-principles
pricing says).  The bias reorders the surface — the true optimum moves
to a config the analytic oracle ranks deep in its list — which is
exactly the regime the learned residual model exists for.

Panels (written to ``BENCH_learned.json``, gated by
``scripts/check_bench.py``):

* **trials-to-optimum** — how many trials a rank-ordered measurement
  sweep needs before it hits the exhaustive optimum: the analytic
  ordering vs the residual ordering after
  :meth:`ResidualCostModel.fit_from_cache` on the corpus the standard
  14-trial ``simulator_guided`` run left behind.  The residual model
  must beat both the analytic rank and the 14-trial budget itself.
* **held-out error** — mean relative prediction error over the feasible
  configs *not* in the training corpus, analytic vs residual.
* **transfer** — the OPT-350M-trained correction applied zero-shot to a
  second model family (BERT) on the same grid: held-out error must
  improve there too, demonstrating the corpus-constant features drop
  out of both the regression and the coverage guard.

Everything is deterministic (seeded tuner, analytic simulator, closed
-form bias), so the JSON is byte-stable across runs on one machine.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_learned.json"

#: the Fig. 10 family the corpus is collected on, and the transfer target
TRAIN_FAMILY = "OPT-350M"
TRANSFER_FAMILY = "BERT"
#: the injected analytic bias: measured = analytic-surface ×
#: (1 − RECOMPUTE_BIAS × (1 − ckpt_ratio)) — recompute-heavy configs
#: lose less than the simulator prices, so the optimum shifts toward
#: full checkpointing at large batch
RECOMPUTE_BIAS = 0.25

_TRACES: dict = {}


def fig6_space(space):
    bs = space.create_symbol("batch_size", range(104, 177, 8))
    ratios = [0.67, 0.5, 0.34, 0.25]
    if bs >= 120:
        ratios += [1.0, 0.92, 0.84]
    space.create_symbol("ckpt_ratio", ratios)
    return space


def traced(family: str, ratio: float):
    if (family, ratio) not in _TRACES:
        import repro.slapo as slapo
        from repro.distributed import DeviceMesh, ParallelConfig
        from repro.models import MODEL_ZOO, data
        from repro.schedules import SCHEDULES
        from repro.sim import trace_model

        cls, config = MODEL_ZOO[family]
        model = cls(config, device="meta")
        mesh = DeviceMesh(ParallelConfig(dp=8), rank=0, sim=True)
        sch = slapo.create_schedule(model, mesh=mesh)
        SCHEDULES[family](sch, config, ckpt_ratio=ratio, use_tp=False,
                          use_flash=False)
        ids, _ = data.lm_batch(config, 1, device="meta")
        _TRACES[(family, ratio)] = (model, trace_model(model, ids))
    return _TRACES[(family, ratio)]


def bias(config: dict) -> float:
    return 1.0 - RECOMPUTE_BIAS * (1.0 - config["ckpt_ratio"])


def make_measure(family: str):
    """The biased measurement surface for one family (0 on OOM)."""
    from repro.distributed import P3DN_NODE, ParallelConfig
    from repro.sim import model_memory, throughput
    from repro.sim.kernel_cost import cost_model_for

    parallel = ParallelConfig(dp=8)

    def measure(config: dict) -> float:
        model, trace = traced(family, config["ckpt_ratio"])
        micro = config["batch_size"] // parallel.dp
        memory = model_memory(model, trace, micro, zero_stage=0,
                              dp_size=parallel.dp)
        if memory.total > P3DN_NODE.gpu.usable_memory:
            return 0.0
        return throughput(trace, model, P3DN_NODE, parallel, micro,
                          cost_model=cost_model_for("slapo")) * bias(config)

    return measure


def make_analytic(family: str):
    """The analytic oracle: generic V100 kernel pricing, no bias."""
    from repro.distributed import P3DN_NODE, ParallelConfig
    from repro.sim.kernel_cost import KernelCostModel
    from repro.slapo.tuner import SimCostModel

    return SimCostModel(
        trace_fn=lambda config: traced(family, config["ckpt_ratio"]),
        trace_key_fn=lambda config: config["ckpt_ratio"],
        cluster=P3DN_NODE,
        parallel=ParallelConfig(dp=8),
        kernel_cost=KernelCostModel(P3DN_NODE.gpu),
    )


def rank_of(model, configs, target_key) -> int | None:
    """1-based rank of ``target_key`` in the model's feasible ordering —
    the measured-trials budget a rank-ordered sweep needs to reach it."""
    from repro.slapo.tuner.cache import config_key

    feasible = [(estimate.throughput, config)
                for config, estimate in zip(configs,
                                            model.predict_many(configs))
                if estimate.fits and estimate.throughput > 0]
    feasible.sort(key=lambda pair: -pair[0])
    for position, (_, config) in enumerate(feasible, start=1):
        if config_key(config) == target_key:
            return position
    return None


def heldout_error(model, configs, truth, exclude=()) -> tuple[float, int]:
    """Mean relative error over feasible configs outside ``exclude``."""
    from repro.slapo.tuner.cache import config_key

    errors = []
    estimates = model.predict_many(configs)
    for config, estimate in zip(configs, estimates):
        key = config_key(config)
        measured = truth[key]
        if key in exclude or measured <= 0 or not estimate.fits \
                or estimate.throughput <= 0:
            continue
        errors.append(abs(estimate.throughput - measured) / measured)
    return (sum(errors) / len(errors) if errors else 0.0), len(errors)


def run() -> dict:
    import tempfile

    from repro.slapo.tuner import (
        AutoTuner,
        ResidualCostModel,
        TrialCache,
        enumerate_space,
    )
    from repro.slapo.tuner.cache import config_key

    configs = enumerate_space(fig6_space)
    measure = make_measure(TRAIN_FAMILY)
    truth = {config_key(config): measure(config) for config in configs}
    best_key, best_rate = max(truth.items(), key=lambda item: item[1])

    # -- the standard analytic-guided run builds the corpus ------------- #
    cache_path = Path(tempfile.mkdtemp()) / "learned_trials.json"
    analytic = make_analytic(TRAIN_FAMILY)
    analytic_run = AutoTuner(fig6_space, measure, seed=0,
                             cost_model=analytic,
                             cache=TrialCache(cache_path)
                             ).simulator_guided()
    corpus_keys = {config_key(trial.config)
                   for trial in analytic_run.trials}

    # -- residual correction from that corpus --------------------------- #
    residual = ResidualCostModel(analytic)
    corpus_size = residual.fit_from_cache(TrialCache(cache_path))
    residual_run = AutoTuner(fig6_space, measure, seed=0,
                             cost_model=make_analytic(TRAIN_FAMILY),
                             cache=TrialCache(cache_path)
                             ).simulator_guided(cost_model="residual")

    analytic_rank = rank_of(analytic, configs, best_key)
    residual_rank = rank_of(residual, configs, best_key)
    analytic_err, _ = heldout_error(analytic, configs, truth,
                                    exclude=corpus_keys)
    residual_err, held = heldout_error(residual, configs, truth,
                                       exclude=corpus_keys)

    # -- zero-shot transfer to a second family -------------------------- #
    transfer_measure = make_measure(TRANSFER_FAMILY)
    transfer_truth = {config_key(config): transfer_measure(config)
                      for config in configs}
    transfer_analytic = make_analytic(TRANSFER_FAMILY)
    transfer_residual = ResidualCostModel(transfer_analytic,
                                          learned=residual.learned)
    t_analytic_err, t_rows = heldout_error(transfer_analytic, configs,
                                           transfer_truth)
    t_residual_err, _ = heldout_error(transfer_residual, configs,
                                      transfer_truth)
    t_corrected = sum(1 for estimate in transfer_residual.predict_many(configs)
                      if estimate.ranked_by == "residual")

    report = {
        "space_size": len(configs),
        "recompute_bias": RECOMPUTE_BIAS,
        "true_optimum": json.loads(best_key),
        "true_optimum_throughput": round(best_rate, 3),
        "corpus": {
            "family": TRAIN_FAMILY,
            "measured_trials": analytic_run.report.num_measured,
            "fitted_rows": corpus_size,
            "analytic_found_optimum":
                config_key(analytic_run.best_config) == best_key,
            "residual_found_optimum":
                config_key(residual_run.best_config) == best_key,
            "residual_new_measurements":
                residual_run.report.num_measured,
            "residual_rankers": residual_run.report.rankers,
        },
        "trials_to_optimum": {
            "analytic": analytic_rank,
            "residual": residual_rank,
            "analytic_run_budget": analytic_run.report.num_trials,
        },
        "heldout": {
            "configs": held,
            "analytic_mean_relative_error": round(analytic_err, 5),
            "residual_mean_relative_error": round(residual_err, 5),
        },
        "transfer": {
            "family": TRANSFER_FAMILY,
            "configs": t_rows,
            "corrected_configs": t_corrected,
            "analytic_mean_relative_error": round(t_analytic_err, 5),
            "residual_mean_relative_error": round(t_residual_err, 5),
        },
    }

    # The headline claims, asserted so `make bench` fails loudly if the
    # learned model stops earning its keep.
    assert residual_rank is not None and analytic_rank is not None
    assert residual_rank < analytic_rank, \
        "residual ordering must beat the analytic ordering"
    assert residual_rank < analytic_run.report.num_trials, \
        "residual must reach the optimum under the 14-trial budget"
    assert config_key(residual_run.best_config) == best_key, \
        "residual-guided search must find the true optimum"
    assert residual_err < analytic_err, \
        "held-out error must improve on the biased corpus"
    assert t_residual_err < t_analytic_err, \
        "the correction must transfer to a second family"
    return report


def test_learned_cost_model_bench():
    """Pytest entry (``make bench``): run the panels, check the claims."""
    report = run()
    print(json.dumps(report, indent=2))


def main() -> None:
    report = dict(run())
    report["platform"] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {OUTPUT}")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    main()
