"""Neural-network primitives: activations, convolution lowering, fixed point.

This package holds the numpy building blocks the rest of the library uses:
the element-wise non-linearities (ReLU, sigmoid, tanh, identity) a
:class:`~repro.models.ir.MatVecNode` applies after its M x V, the
convolution kernels and im2col lowering of Section VII-C, fixed-point
quantisation for the arithmetic precision study (Figure 10), and a density
helper.  Networks themselves are described once, as
:class:`~repro.models.ir.ModelIR` node graphs (see :mod:`repro.models`).
"""

from repro.nn.convolution import (
    ConvWorkload,
    conv1x1_as_matvec,
    conv2d_via_im2col,
    direct_conv2d,
    im2col,
    winograd_conv2d_3x3,
    winograd_multiplication_savings,
)
from repro.nn.fixed_point import FixedPointFormat, quantization_snr_db
from repro.nn.layers import identity, relu, sigmoid, tanh
from repro.nn.reference import sparse_density

__all__ = [
    "ConvWorkload",
    "FixedPointFormat",
    "conv1x1_as_matvec",
    "conv2d_via_im2col",
    "direct_conv2d",
    "identity",
    "im2col",
    "quantization_snr_db",
    "relu",
    "sigmoid",
    "sparse_density",
    "tanh",
    "winograd_conv2d_3x3",
    "winograd_multiplication_savings",
]
