"""Cancelable biometric templates from fixed-filter convolutional features.

The pipeline: a five-stage convolutional extractor whose filter banks are
fixed difference/ternary kernels (only 1x1 channel mixers and the dense
head train), followed by keyed orthonormal random projection and sign
quantization.  Templates are revocable by reissuing the key; the biometric
itself never leaves the feature extractor.

The API is the submodules (``dorsalhash.network.FixedFilterNet``,
``dorsalhash.enrollment.TemplateVault``, ...); importing the package
loads none of them.
"""

__version__ = "0.1.0"
