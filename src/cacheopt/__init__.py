"""Grammatical-evolution search over L1 instruction/data cache designs.

Pipeline: ingest a din memory-access trace, simulate candidate cache
configurations over it, price the resulting event counts with execution
time and energy models against a characterization table, and evolve
configurations toward the lowest baseline-normalized weighted cost.
"""

from .cachesim import (
    DEFAULT_BASELINE,
    CacheConfig,
    CacheUnit,
    Feasibility,
    SideStreams,
    SimStats,
    config_sim_seed,
    simulate,
    validate,
)
from .charmodel import (
    CharRow,
    CharTable,
    DramParams,
    load_dram_params,
    load_table,
    save_table,
    surrogate_generate,
)
from .errors import CacheOptError, ValidationError
from .evolve import (
    Evaluator,
    EvolveResult,
    GEParams,
    Individual,
    crossover,
    memo_key,
    mutate,
    tournament,
)
from .grammar import DEFAULT_GRAMMAR, Grammar, derivation_count, map_genotype, parse_bnf
from .objectives import (
    INFEASIBLE_FITNESS,
    FitnessWeights,
    Metrics,
    MissMode,
    config_metrics,
    fitness,
    metrics_from_stats,
)
from .oracle import Subspace, exhaustive, reference_lru
from .trace import (
    AccessKind,
    TraceRecord,
    TraceStats,
    gen_synthetic,
    parse_din,
    to_din,
    trace_stats,
)

__version__ = "0.1.0"
