#!/usr/bin/env python
"""Train the learned cost model from a TrialCache corpus.

The tuner's trial cache accumulates measured configurations across runs
(``docs/tuning.md``); this script turns that corpus into serialized
:class:`~repro.slapo.tuner.learned.LearnedCostModel` weights::

    python scripts/train_cost_model.py --cache trials.json --out weights.json

Without ``--cache`` it trains on a deterministic synthetic corpus — a
Fig. 6-style (batch size × checkpoint ratio) grid priced by a closed-form
throughput surface with an injected measurement bias — which is what
``make train-model`` uses to verify the training pipeline end to end
with no model tracing and no cache on disk.

``--check`` is the CI gate: it trains the same corpus twice from
scratch and fails unless the weight files are byte-identical
(nondeterministic training would silently break benchmark
reproducibility), then verifies the JSON round trip and that weights
under a stale feature-schema version are refused.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def synthetic_corpus() -> list[tuple[dict, float]]:
    """A deterministic (config, measured throughput) corpus.

    The surface mimics the Fig. 10 study: throughput rises with batch
    size, recompute drags it down, and a multiplicative "hardware" bias
    (unknown to any analytic model) penalizes heavy checkpointing — the
    shape the learned model exists to capture.
    """
    corpus = []
    for batch in range(104, 177, 8):
        ratios = [0.25, 0.34, 0.5, 0.67]
        if batch >= 120:
            ratios += [0.84, 0.92, 1.0]
        for ratio in ratios:
            config = {"batch_size": batch, "ckpt_ratio": ratio}
            base = 100.0 * (batch / 104.0) ** 0.5 / (1.0 + 0.4 * ratio)
            bias = 1.0 / (1.0 + 0.35 * ratio + 0.05 * (batch / 104.0))
            corpus.append((config, base * bias))
    return corpus


def cache_corpus(path: str) -> list[tuple[dict, float]]:
    from repro.slapo.tuner import TrialCache
    cache = TrialCache(path)
    return [(entry["config"], entry["throughput"])
            for entry in cache.entries()
            if entry["valid"] and entry["throughput"] > 0]


def train(corpus, seed: int, boost_rounds: int, holdout: float):
    """Fit log-throughput on config features; report held-out error."""
    import numpy as np

    from repro.slapo.tuner import LearnedCostModel, featurize_many
    from repro.slapo.tuner.cache import config_key
    from repro.slapo.tuner.learned import mean_relative_error

    corpus = sorted(corpus, key=lambda pair: config_key(pair[0]))
    X = featurize_many([config for config, _ in corpus], None, None)
    y = np.array([math.log(rate) for _, rate in corpus])
    model = LearnedCostModel(seed=seed, boost_rounds=boost_rounds)
    train_idx, held_idx = model.holdout_split(len(corpus),
                                              fraction=holdout)
    model.fit(X[train_idx], y[train_idx])
    errors = {}
    for split, idx in (("train", train_idx), ("heldout", held_idx)):
        if len(idx) == 0:
            continue
        predicted = np.exp(model.predict_features(X[idx]))
        errors[split] = mean_relative_error(predicted, np.exp(y[idx]))
    return model, errors


def run_check(args) -> int:
    from repro.slapo.tuner import LearnedCostModel, StaleWeightsError

    corpus = cache_corpus(args.cache) if args.cache else synthetic_corpus()
    first, errors = train(corpus, args.seed, args.boost_rounds,
                          args.holdout)
    second, _ = train(corpus, args.seed, args.boost_rounds, args.holdout)
    if first.to_json() != second.to_json():
        print("FAIL: two identical training runs produced different "
              "weights — training is nondeterministic", file=sys.stderr)
        return 1
    reloaded = LearnedCostModel.from_json(first.to_json())
    if reloaded.to_json() != first.to_json():
        print("FAIL: weights changed across a JSON round trip",
              file=sys.stderr)
        return 1
    stale = json.loads(first.to_json())
    stale["feature_version"] = -1
    try:
        LearnedCostModel.from_state(stale)
    except StaleWeightsError:
        pass
    else:
        print("FAIL: stale feature-schema weights were accepted",
              file=sys.stderr)
        return 1
    print(f"check OK: deterministic weights over {len(corpus)} trials "
          f"({first.num_samples} train), round trip stable, stale "
          f"schema refused; errors: "
          + ", ".join(f"{k}={v:.2%}" for k, v in errors.items()))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache", help="TrialCache file to train from "
                        "(default: deterministic synthetic corpus)")
    parser.add_argument("--out", help="where to write the weights JSON")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--boost-rounds", type=int, default=32)
    parser.add_argument("--holdout", type=float, default=0.25,
                        help="held-out fraction for the error report")
    parser.add_argument("--check", action="store_true",
                        help="verify determinism / round trip / stale "
                        "refusal instead of writing weights")
    args = parser.parse_args(argv)

    if args.check:
        return run_check(args)

    corpus = cache_corpus(args.cache) if args.cache else synthetic_corpus()
    if not corpus:
        print(f"no usable trials in {args.cache}", file=sys.stderr)
        return 1
    model, errors = train(corpus, args.seed, args.boost_rounds,
                          args.holdout)
    report = ", ".join(f"{k} error {v:.2%}" for k, v in errors.items())
    print(f"trained on {model.num_samples}/{len(corpus)} trials: {report}")
    if args.out:
        Path(args.out).write_text(model.to_json())
        print(f"weights -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.exit(main())
