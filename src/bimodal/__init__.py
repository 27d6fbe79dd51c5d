"""Bi-modal constrained coding: fixed-length encoders whose out-edges
split evenly across a two-class parity cover of the alphabet."""

from .graphs import (
    BimodalError,
    Edge,
    Finite,
    Infinite,
    LabeledGraph,
    NotDeterministic,
    NotIrreducible,
    ParityPartition,
    ValidationError,
    adjacency,
    adjacency_pair,
    determinize,
    follower_le,
    irreducible_components,
    memory,
    merge_states,
    parity_subgraph,
    period,
    power,
    validate_graph,
)
from .spectra import (
    ApproxEigenvector,
    NotFoundWithin,
    RatePoint,
    anticipation_lower_bound,
    capacity,
    coding_ratio,
    franaszek_joint,
    joint_ae_exists,
    min_infnorm_ae,
    perron,
    rate_region,
)
from .synth import (
    InfeasibleVector,
    SplitInfeasible,
    TaggedEncoder,
    TooManyCopies,
    extract_deterministic,
    merge_split_pair,
    split_one_round,
    split_state,
    stether,
    stether_punctured,
)
from .verify import (
    ArityMismatch,
    NotDecodable,
    PairGraph,
    PreconditionFailed,
    UnknownTag,
    VerifyReport,
    anticipation,
    check_encoder,
    decode_sliding,
    decode_stream,
    definiteness,
    encode_stream,
    is_definite,
    losslessness,
    presents_subset,
    sliding_block_decodable,
    witness_ae,
)
from .io import (
    ParseError,
    export_dot,
    parse_encoder_file,
    parse_graph_file,
    serialize_encoder,
    serialize_graph,
)
from .construct import rll_graph

__all__ = [n for n in dir() if not n.startswith("_")]
