"""Core contribution: detection, construction, and cost-based optimization
of covering subexpressions (CSEs), after Zhou, Larson, Freytag & Lehner,
"Efficient Exploitation of Similar Subexpressions for Query Processing"
(SIGMOD 2007)."""

from .signature import TableSignature
from .manager import CseManager
from .compatibility import (
    ConsumerProfile,
    ConsumerProfiles,
    compatibility_groups,
    join_compatible,
)
from .construct import CoveringState, CseDefinition, construct_cse
from .candidates import CandidateCse, CandidateIdAllocator, generate_candidates
from .heuristics import (
    heuristic1_keep,
    heuristic2_filter,
    heuristic4_filter,
    is_contained,
    merge_benefit,
)
from .matching import ConsumerSpec, match_constructed, match_consumer

__all__ = [
    "TableSignature",
    "CseManager",
    "ConsumerProfile",
    "ConsumerProfiles",
    "compatibility_groups",
    "join_compatible",
    "CseDefinition",
    "construct_cse",
    "CoveringState",
    "CandidateCse",
    "CandidateIdAllocator",
    "generate_candidates",
    "heuristic1_keep",
    "heuristic2_filter",
    "heuristic4_filter",
    "is_contained",
    "merge_benefit",
    "ConsumerSpec",
    "match_constructed",
    "match_consumer",
]
