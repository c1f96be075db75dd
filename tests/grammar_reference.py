"""Grammar counts taken on their own, as references for the tests: the
fewest codons a derivation consumes (the optimize grammar check's count
is tested against it) and the number of phenotypes a grammar derives."""

import math

from cacheopt.errors import GrammarError
from cacheopt.grammar import Grammar


def min_codons(grammar: Grammar) -> int:
    """Fewest codons any derivation consumes, wraps included.

    The least fixed point of m(N) = 1 + min over N's alternatives of the
    sum of m over its symbols, terminals 0. The root expansion of a
    single-alternative start rule consumes no codon, as in map_genotype, so
    a genotype decodes only if len(codons) * max_wraps is at least this.
    Raises GrammarError if the start symbol derives no finite phenotype.
    """
    rules = grammar.rules
    m = dict.fromkeys(rules, math.inf)

    def cost(alt: tuple[str, ...]) -> float:
        return sum(m.get(sym, 0) for sym in alt)

    changed = True
    while changed:
        changed = False
        for symbol, alts in rules.items():
            best = 1 + min(map(cost, alts))
            if best < m[symbol]:
                m[symbol], changed = best, True
    start_alts = rules[grammar.start]
    need = cost(start_alts[0]) if len(start_alts) == 1 else m[grammar.start]
    if need == math.inf:
        raise GrammarError(f"no derivation from {grammar.start} ends: every one recurses")
    return need


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
