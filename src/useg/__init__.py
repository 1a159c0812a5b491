"""Data-free incremental organ segmentation on synthetic phantoms."""

from .segnet import SegModel, SegModelConfig

__all__ = ["SegModel", "SegModelConfig"]

__version__ = "0.1.0"
