"""Toolkit for building instruction-tuning and preference corpora for
information extraction, and for evaluating extraction outputs."""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    Extraction,
    FormatSpec,
    IEInstance,
    LabelDef,
    SchemaDef,
    TaskKind,
)
