"""Desk-scale cross-lingual pretraining with replaced token detection.

A small generator fills masked tokens; a discriminator learns to spot the
replacements, over both single multilingual sentences and concatenated
translation pairs. Includes a from-scratch autograd engine, a transformer
encoder with gated relative position bias, synthetic toy languages, and a
retrieval/word-alignment evaluation suite.
"""

from .tensor import Tensor, backward

__all__ = ["Tensor", "backward"]
__version__ = "0.1.0"
