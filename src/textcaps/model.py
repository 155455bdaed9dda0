"""Full classifier assembly: encoder plus capsule (or baseline) head."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .adversarial import SeededRng
from .capsule import (
    CapsuleHeadConfig,
    RoutingState,
    baseline_head_batch,
    class_probabilities_batch,
    compress_batch,
    dynamic_routing_batch,
    head_parameter_shapes,
    primary_capsules_batch,
)
from .encoders import (
    EncoderConfig,
    encoder_forward_batch,
    encoder_output_shape,
    encoder_parameter_shapes,
    init_parameters,
)
from .tensor import Parameter, Tensor


@dataclass
class ForwardResult:
    probs: Tensor                       # (B, n_cls)
    feature_map: Optional[Tensor] = None      # (B, L, C)
    pooled: Optional[Tensor] = None           # (B, C)
    condensed: Optional[Tensor] = None        # (B, n_cc, d)
    class_capsules: Optional[Tensor] = None   # (B, n_cls, d)
    routing: Optional[RoutingState] = None    # capsule heads: logits and couplings


def parameter_shapes(encoder: EncoderConfig, head: Optional[CapsuleHeadConfig],
                     e_d: int, t: int) -> Dict[str, Tuple[int, ...]]:
    """Every parameter's name and shape in draw order, encoder then head;
    ValueError when the encoder cannot run over t tokens."""
    positions, channels = encoder_output_shape(encoder, t, e_d)
    return {**encoder_parameter_shapes(encoder, e_d),
            **head_parameter_shapes(head, positions, channels)}


def init_model(encoder: EncoderConfig, head: Optional[CapsuleHeadConfig],
               e_d: int, t: int, rng: SeededRng) -> Dict[str, Parameter]:
    """Initialize encoder and head parameters; head=None means baseline."""
    return init_parameters(parameter_shapes(encoder, head, e_d, t), rng)


def forward_batch(encoder: EncoderConfig, head: Optional[CapsuleHeadConfig],
                  params: Dict[str, Parameter], x: Tensor,
                  want_stages: bool = False) -> ForwardResult:
    """Run a (B, T, E_d) block through the full model. A capsule head's
    result carries its routing diagnostics, constants off the tape."""
    fm = encoder_forward_batch(encoder, params, x)
    stages = {}
    if want_stages:
        stages = {"feature_map": fm, "pooled": fm.sum(axis=1).scale(1.0 / fm.shape[1])}
    if head is None:
        return ForwardResult(probs=baseline_head_batch(fm, params["head.dense.w"].tensor),
                             **stages)
    primary = primary_capsules_batch(fm, params["head.primary.w"].tensor, head)
    condensed = compress_batch(primary, params["head.compress.w"].tensor)
    class_caps, routing = dynamic_routing_batch(condensed, params["head.routing.w"].tensor, head)
    if want_stages:
        stages.update(condensed=condensed, class_capsules=class_caps)
    return ForwardResult(probs=class_probabilities_batch(class_caps), routing=routing, **stages)
