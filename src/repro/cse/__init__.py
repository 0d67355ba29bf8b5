"""Core contribution: detection, construction, and cost-based optimization
of covering subexpressions (CSEs), after Zhou, Larson, Freytag & Lehner,
"Efficient Exploitation of Similar Subexpressions for Query Processing"
(SIGMOD 2007)."""

from .signature import TableSignature, signature_of_tree
from .manager import CseManager
from .compatibility import (
    ConsumerProfile,
    ConsumerProfiles,
    compatibility_groups,
    derive_compatibility_from_parts,
    join_compatible,
)
from .construct import CoveringState, CseDefinition, construct_cse
from .candidates import CandidateCse, CandidateIdAllocator, generate_candidates
from .heuristics import (
    PruneTrace,
    heuristic1_keep,
    heuristic2_filter,
    heuristic4_filter,
    is_contained,
    merge_benefit,
)
from .matching import ConsumerSpec, build_consumer_specs, try_match_consumer

__all__ = [
    "TableSignature",
    "signature_of_tree",
    "CseManager",
    "ConsumerProfile",
    "ConsumerProfiles",
    "compatibility_groups",
    "derive_compatibility_from_parts",
    "join_compatible",
    "CseDefinition",
    "construct_cse",
    "CoveringState",
    "CandidateCse",
    "CandidateIdAllocator",
    "generate_candidates",
    "PruneTrace",
    "heuristic1_keep",
    "heuristic2_filter",
    "heuristic4_filter",
    "is_contained",
    "merge_benefit",
    "ConsumerSpec",
    "build_consumer_specs",
    "try_match_consumer",
]
