"""Full classifier assembly: encoder plus capsule (or baseline) head."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .adversarial import SeededRng
from .capsule import (
    N_CLASSES,
    CapsuleHeadConfig,
    baseline_head_batch,
    class_probabilities_batch,
    compress_batch,
    dynamic_routing_batch,
    init_baseline_head,
    init_capsule_head,
    primary_capsules_batch,
)
from .encoders import EncoderConfig, encoder_forward_batch, encoder_output_shape, init_encoder
from .tensor import Parameter, Tensor


@dataclass
class ForwardResult:
    probs: Tensor                       # (B, n_cls)
    feature_map: Optional[Tensor] = None      # (B, L, C)
    pooled: Optional[Tensor] = None           # (B, C)
    condensed: Optional[Tensor] = None        # (B, n_cc, d)
    class_capsules: Optional[Tensor] = None   # (B, n_cls, d)


def init_model(encoder: EncoderConfig, head: Optional[CapsuleHeadConfig],
               e_d: int, t: int, rng: SeededRng) -> Dict[str, Parameter]:
    """Initialize encoder and head parameters; head=None means baseline."""
    params = init_encoder(encoder, e_d, rng)
    positions, channels = encoder_output_shape(encoder, t, e_d)
    if head is None:
        head_params = init_baseline_head(channels, N_CLASSES, rng)
    else:
        head_params = init_capsule_head(head, positions, channels, rng)
    for name in head_params:
        if name in params:
            raise ValueError(f"duplicate parameter name {name!r}")
    params.update(head_params)
    return params


def forward_batch(encoder: EncoderConfig, head: Optional[CapsuleHeadConfig],
                  params: Dict[str, Parameter], x: Tensor,
                  want_stages: bool = False) -> ForwardResult:
    """Run a (B, T, E_d) block through the full model."""
    fm = encoder_forward_batch(encoder, params, x)
    stages = {}
    if want_stages:
        stages = {"feature_map": fm, "pooled": fm.sum(axis=1).scale(1.0 / fm.shape[1])}
    if head is None:
        return ForwardResult(probs=baseline_head_batch(fm, params["head.dense.w"].tensor),
                             **stages)
    primary = primary_capsules_batch(fm, params["head.primary.w"].tensor, head)
    condensed = compress_batch(primary, params["head.compress.w"].tensor)
    class_caps, _ = dynamic_routing_batch(condensed, params["head.routing.w"].tensor, head)
    if want_stages:
        stages.update(condensed=condensed, class_capsules=class_caps)
    return ForwardResult(probs=class_probabilities_batch(class_caps), **stages)
