"""WideResNet layout (paper Table 4: 12 LoC).

Channel-parallel bottlenecks: the expensive 3×3 conv is sharded on output
channels (its BatchNorm statistics shard with it — channels are
independent), the following 1×1 conv is sharded on input channels and
all-reduced.
"""

from __future__ import annotations

from . import common


# <schedule>
def conv_pair(block, config, tp):
    block["conv2"].shard("weight", axis=0)
    block["conv2"].sync(mode="bwd_post")
    block["bn2"].shard(
        ["weight", "bias", "running_mean", "running_var"], axis=0)
    block["conv3"].shard("weight", axis=1)
    block["conv3"].sync(mode="fwd_post")
# </schedule>


LAYOUT = common.Layout(
    prefix="",
    layer_paths=lambda config, prefix: [
        f"layer{stage + 1}.{i}"
        for stage, count in enumerate(config.layers)
        for i in range(count)],
    conv_pair=conv_pair)


def schedule_wideresnet(sch, config, ckpt_ratio: float = 0.0,
                        use_tp: bool = True):
    return common.apply_layout(sch, LAYOUT, config, ckpt_ratio, use_tp=use_tp)
