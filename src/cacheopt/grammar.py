"""BNF grammar parsing and codon-modulus genotype decoding.

The default grammar derives the simulator flag text for one cache
configuration. Decoding walks the leftmost derivation: every nonterminal
expansion consumes one codon and picks alternative (codon mod k), except
the root expansion of a single-alternative start rule, which is purely
structural and consumes nothing. When codons run out the decoder wraps to
codon 0, up to max_wraps passes over the genotype. map_genotype is the
general decoder; evolve's run decoder compiles flat grammars to tables.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .errors import GrammarError, MappingError

DEFAULT_GRAMMAR = """\
<DineroParams> ::= -l1-isize <CacheSizeB> -l1-ibsize <LineSizeB>
                   -l1-irepl <ReplAlg> -l1-iassoc <Assoc>
                   -l1-ifetch <PrefAlg> -l1-dsize <CacheSizeB>
                   -l1-dbsize <LineSizeB> -l1-drepl <ReplAlg>
                   -l1-dassoc <Assoc> -l1-dfetch <PrefAlg>
                   -l1-dwback <WritePol>
<CacheSizeB> ::= 512 | 1024 | 2048 | 4096 | 8192 | 16384 | 32768 | 65536
<LineSizeB> ::= 8 | 16 | 32 | 64
<ReplAlg> ::= l | f | r
<Assoc> ::= 1 | 2 | 4 | 8 | 16 | 32 | 64 | 128
<PrefAlg> ::= m | d | a
<WritePol> ::= a | n
"""

_NT_RE = re.compile(r"<[^<>\s]+>")


def is_nonterminal(symbol: str) -> bool:
    return bool(_NT_RE.fullmatch(symbol))


@dataclass(frozen=True)
class Grammar:
    """Production rules keyed by nonterminal; alternative order is load order.

    parse_bnf rejects references to undefined nonterminals, so a symbol is
    a nonterminal exactly when it is a key of rules.
    """

    start: str
    rules: dict[str, tuple[tuple[str, ...], ...]]


def parse_bnf(text: str) -> Grammar:
    """Parse BNF text into a Grammar.

    Rules are `<Lhs> ::= alt | alt`; alternatives are whitespace-separated
    symbols; a line without `::=` continues the previous rule. Lines
    starting with `#` are comments. The first rule's left-hand side is the
    start symbol.
    """
    raw_rules: dict[str, list[str]] = {}
    order: list[str] = []
    current: str | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "::=" in line:
            lhs, rhs = line.split("::=", 1)
            lhs = lhs.strip()
            if not is_nonterminal(lhs):
                raise GrammarError(f"rule left-hand side is not a <NonTerminal>: {lhs!r}")
            if lhs in raw_rules:
                raise GrammarError(f"duplicate rule for {lhs}")
            raw_rules[lhs] = [rhs]
            order.append(lhs)
            current = lhs
        else:
            if current is None:
                raise GrammarError(f"production text before any rule: {line!r}")
            raw_rules[current].append(line)
    if not order:
        raise GrammarError("grammar has no rules")
    rules: dict[str, tuple[tuple[str, ...], ...]] = {}
    for lhs in order:
        alts = []
        for alt in " ".join(raw_rules[lhs]).split("|"):
            symbols = tuple(alt.split())
            if not symbols:
                raise GrammarError(f"empty alternative in rule {lhs}")
            alts.append(symbols)
        rules[lhs] = tuple(alts)
    for lhs, alts in rules.items():
        for alt in alts:
            for sym in alt:
                if is_nonterminal(sym) and sym not in rules:
                    raise GrammarError(f"undefined nonterminal {sym} referenced from {lhs}")
    return Grammar(start=order[0], rules=rules)


def map_genotype(codons: Sequence[int], grammar: Grammar, max_wraps: int = 3) -> str:
    """Decode codons into phenotype text via the leftmost derivation.

    Alternative (codon mod k) is picked at each expansion, zero-indexed.
    Raises MappingError if nonterminals remain after max_wraps complete
    passes over the genotype.
    """
    if not codons:
        raise MappingError("empty genotype")
    for c in codons:
        if not 0 <= c <= 255:
            raise MappingError(f"codon {c!r} outside the 8-bit range")
    limit = len(codons) * max_wraps
    consumed = 0
    root = True
    out: list[str] = []
    pending: deque[str] = deque((grammar.start,))
    while pending:
        symbol = pending.popleft()
        alts = grammar.rules.get(symbol)
        if alts is None:
            out.append(symbol)
            continue
        k = len(alts)
        if root:
            root = False
            if k == 1:
                pending.extendleft(reversed(alts[0]))
                continue
        if consumed >= limit:
            raise MappingError(
                f"wrap limit exceeded: {max_wraps} passes over {len(codons)} codons"
            )
        codon = codons[consumed % len(codons)]
        consumed += 1
        pending.extendleft(reversed(alts[codon % k]))
    return " ".join(out)


def derivation_count(grammar: Grammar) -> int:
    """Number of distinct phenotypes the grammar derives.

    Computed as products of alternative counts, never by enumeration.
    Recursive grammars (unbounded phenotype sets) are rejected.
    """
    memo: dict[str, int] = {}
    visiting: set[str] = set()

    def count(symbol: str) -> int:
        if symbol not in grammar.rules:
            return 1
        if symbol in memo:
            return memo[symbol]
        if symbol in visiting:
            raise GrammarError(f"recursive grammar: cannot count derivations through {symbol}")
        visiting.add(symbol)
        total = sum(
            math.prod(count(sym) for sym in alt) for alt in grammar.rules[symbol]
        )
        visiting.discard(symbol)
        memo[symbol] = total
        return total

    return count(grammar.start)
