"""Full classifier assembly: encoder plus capsule (or baseline) head."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .adversarial import SeededRng
from .capsule import (
    CapsuleHeadConfig,
    RoutingState,
    _check_rank3,
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
from .tensor import Parameter, ShapeMismatchError, Tensor


@dataclass
class ForwardResult:
    """Every stage a forward computes; the capsule stages are None for the
    baseline head."""

    probs: Tensor                             # (B, n_cls)
    feature_map: Tensor                       # (B, L, C)
    condensed: Optional[Tensor] = None        # (B, n_cc, d)
    class_capsules: Optional[Tensor] = None   # (B, n_cls, d)
    routing: Optional[RoutingState] = None    # logits and per-iteration couplings


def parameter_shapes(encoder: EncoderConfig, head: Optional[CapsuleHeadConfig],
                     e_d: int, t: int) -> Dict[str, Tuple[int, ...]]:
    """Every parameter's name and shape in draw order, encoder then head;
    ValueError when the encoder cannot run over t tokens."""
    positions, channels = encoder_output_shape(encoder, t, e_d)
    return {**encoder_parameter_shapes(encoder, e_d),
            **head_parameter_shapes(head, positions, channels)}


def check_parameters(params: Dict[str, Parameter],
                     shapes: Dict[str, Tuple[int, ...]]) -> None:
    """Raise ShapeMismatchError naming the first parameter, in name order,
    that is missing from params, absent from shapes or of another shape."""
    for name in sorted(shapes.keys() | params.keys()):
        if name not in params:
            raise ShapeMismatchError(f"parameter {name!r} is missing")
        if name not in shapes:
            raise ShapeMismatchError(f"unexpected parameter {name!r}")
        shape, want = params[name].shape, shapes[name]
        if shape != want:
            raise ShapeMismatchError(f"parameter {name!r} has shape {shape}, expected {want}")


def first_nonfinite(params: Dict[str, Parameter]) -> Optional[str]:
    """The first parameter name, in name order, whose values hold a NaN or an
    infinity; None when every parameter is finite."""
    return next((name for name in sorted(params)
                 if not np.isfinite(params[name].values).all()), None)


def init_model(encoder: EncoderConfig, head: Optional[CapsuleHeadConfig],
               e_d: int, t: int, rng: SeededRng) -> Dict[str, Parameter]:
    """Initialize encoder and head parameters; head=None means baseline."""
    return init_parameters(parameter_shapes(encoder, head, e_d, t), rng)


def forward_batch(encoder: EncoderConfig, head: Optional[CapsuleHeadConfig],
                  params: Dict[str, Parameter], x: Tensor) -> ForwardResult:
    """Run a (B, T, E_d) block through the full model. The result carries
    every stage the head computed; the routing diagnostics are off the tape.
    Raises ShapeMismatchError when params do not fit the model at x's shape."""
    _check_rank3("model input", x)
    try:
        shapes = parameter_shapes(encoder, head, x.shape[2], x.shape[1])
    except ValueError as exc:
        raise ShapeMismatchError(str(exc)) from None
    check_parameters(params, shapes)
    fm = encoder_forward_batch(encoder, params, x)
    if head is None:
        return ForwardResult(probs=baseline_head_batch(fm, params["head.dense.w"]),
                             feature_map=fm)
    primary = primary_capsules_batch(fm, params["head.primary.w"], head)
    condensed = compress_batch(primary, params["head.compress.w"])
    class_caps, routing = dynamic_routing_batch(condensed, params["head.routing.w"], head)
    return ForwardResult(probs=class_probabilities_batch(class_caps), feature_map=fm,
                         condensed=condensed, class_capsules=class_caps, routing=routing)
