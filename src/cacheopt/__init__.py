"""Grammatical-evolution search over L1 instruction/data cache designs.

Pipeline: ingest a din memory-access trace, simulate candidate cache
configurations over it, price the resulting event counts with execution
time and energy models against a characterization table, and evolve
configurations toward the lowest baseline-normalized weighted cost.

The root re-exports the names README's "Library use" section uses; every
other name is imported from its submodule.
"""

from .cachesim import DEFAULT_BASELINE, CacheConfig, SideStreams, simulate
from .charmodel import DramParams, surrogate_generate
from .evolve import Evaluator, GEParams
from .grammar import DEFAULT_GRAMMAR, parse_bnf
from .objectives import Metrics, config_metrics
from .oracle import Subspace, exhaustive
from .trace import TraceRecord, gen_synthetic, parse_din

__version__ = "0.1.0"
