"""Conservative bag-semantics proofs: null rejection, the proof behind the
outer-join reduction of :mod:`repro.logical.simplify`, and the
:class:`Verdict` every proof attempt returns (§5.1 consumer matching
returns one too)."""

from .checker import (
    GAVE_UP,
    PROVED,
    REFUTED,
    Verdict,
    null_rejecting,
    outer_join_reducible,
)

__all__ = [
    "GAVE_UP",
    "PROVED",
    "REFUTED",
    "Verdict",
    "null_rejecting",
    "outer_join_reducible",
]
