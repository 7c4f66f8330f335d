"""Laboratory for the planted dense subhypergraph detection problem."""

from .balanced import (
    BalancedMotif,
    find_balanced_motif,
    is_balanced,
    max_subgraph_density,
)
from .errors import (
    BudgetExceededError,
    DenseLabError,
    InfeasibleError,
    InvalidArgumentError,
    RegimeError,
)
from .hypergraph import (
    Hypergraph,
    count_isolated_free_edge_sets,
    count_subgraph_class,
    parse_hypergraph_text,
    rank_edges,
    unrank_edges,
    write_hypergraph_text,
)
from .ldlr import (
    ConditioningSpec,
    LdlrResult,
    build_conditioning_spec,
    conditional_ldlr_exact_tiny,
    estimate_event_probability,
    event_holds,
    ldlr_norm_bruteforce,
    ldlr_norm_exact,
)
from .models import (
    ProblemParams,
    derive_params,
    sample_aux,
    sample_null,
    sample_planted,
)
from .stats import (
    SeparationReport,
    classify_regime,
    count_motif,
    estimate_separation,
    exact_moments_edge_stat,
    exact_moments_motif_stat,
    signed_edge_count,
    threshold_test,
)

__version__ = "0.1.0"
