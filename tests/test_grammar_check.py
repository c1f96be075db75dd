"""The up-front grammar check against an oracle that enumerates phenotypes.

Each grammar starts as a small Subspace grammar, is reshaped (slots shared
by the I and D side, flag pairs shuffled, runs of the start alternative
folded into new rules, slot alternatives split across rules) and may get
one fault. The check must
raise exactly when some phenotype is flag text CacheConfig.from_flags
rejects or a reachable rule derives nothing; otherwise it must return the
(size, block, assoc) rows of the feasible configurations derived and the
fewest codons a derivation consumes.
"""

import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cacheopt.cachesim import DOMAINS, VALUE_TOKENS, CacheConfig, geometry_problems
from cacheopt.cli import _check_grammar
from cacheopt.errors import ValidationError
from cacheopt.grammar import derivation_count, parse_bnf
from cacheopt.oracle import Subspace
from grammar_reference import min_codons

FAULTS = (None, "repeated-flag", "dropped-flag", "dropped-value", "other-value", "stray-token",
          "extra-value", "unproductive")
ALL_VALUES = sorted({token for tokens in VALUE_TOKENS.values() for token in tokens})


@st.composite
def grammars(draw):
    """BNF text of a reshaped subspace grammar, and the fault put in it."""
    values = {name: draw(st.lists(st.sampled_from(domain), min_size=1, max_size=3, unique=True))
              for name, domain in DOMAINS.items()}
    while math.prod(map(len, values.values())) > 500:  # a fault at most quadruples it
        longest = max(values, key=lambda name: len(values[name]))
        values[longest].pop()
    shared = [name for name in DOMAINS if name[0] == "d" and f"i{name[1:]}" in DOMAINS
              and len(values[f"i{name[1:]}"]) <= len(values[name]) and draw(st.booleans())]
    for name in shared:  # one slot for both sides, as in DEFAULT_GRAMMAR
        values[name] = values[f"i{name[1:]}"]
    grammar = parse_bnf(Subspace(**values).grammar_text())
    rules = {lhs: [list(alt) for alt in alts] for lhs, alts in grammar.rules.items()}
    start = grammar.start
    pairs = [rules[start][0][i:i + 2] for i in range(0, len(rules[start][0]), 2)]
    for pair in pairs:
        if pair[1][1:-1] in shared:
            del rules[pair[1]]
            pair[1] = f"<i{pair[1][2:]}"
    pairs = [pairs[i] for i in draw(st.permutations(range(len(pairs))))]
    fault = draw(st.sampled_from(FAULTS))
    if fault == "repeated-flag":
        flag, slot = draw(st.sampled_from(pairs))
        value = draw(st.sampled_from(rules[slot]))[0]
        pairs.insert(draw(st.integers(0, len(pairs))), [flag, value])
    elif fault == "dropped-flag":
        pairs.pop(draw(st.integers(0, len(pairs) - 1)))
    elif fault == "dropped-value":  # a flag left without its value, half the time the last
        pairs[draw(st.integers(0, len(pairs) - 1)) if draw(st.booleans()) else -1].pop()
    body = [sym for pair in pairs for sym in pair]
    for k in range(draw(st.integers(0, 4))):  # fold a run into a rule of its own
        i = draw(st.integers(0, len(body) - 1))
        j = draw(st.integers(i + 1, len(body)))
        rules[f"<F{k}>"] = [body[i:j]]
        body[i:j] = [f"<F{k}>"]
    rules[start] = [body]
    slots = [f"<{name}>" for name in DOMAINS if name not in shared]
    for slot in slots:  # split a slot's alternatives across two rules
        alts, rest = rules[slot], f"{slot[:-1]}_rest>"
        if len(alts) > 1 and draw(st.booleans()):
            cut = draw(st.integers(1, len(alts) - 1))
            rules[slot], rules[rest] = alts[:cut] + [[rest]], alts[cut:]
    slot = draw(st.sampled_from(slots))
    if fault == "other-value":
        name = slot[1:-1]
        rules[slot].append([draw(st.sampled_from(
            [token for token in ALL_VALUES if token not in VALUE_TOKENS[name]]))])
    elif fault == "extra-value":  # after a value of the slot, or half the time first of all
        token = draw(st.sampled_from(sorted(VALUE_TOKENS[slot[1:-1]])))
        if draw(st.booleans()):
            draw(st.sampled_from(rules[slot])).append(token)
        else:
            body.insert(0, token)
    elif fault in ("stray-token", "unproductive"):
        lhs = draw(st.sampled_from(list(rules)))
        alt = draw(st.sampled_from(rules[lhs]))
        token = "zz" if fault == "stray-token" else "<U>"
        alt.insert(draw(st.integers(0, len(alt))), token)
        if fault == "unproductive":
            rules["<U>"] = [["<U>"], *draw(st.lists(st.sampled_from(
                [["<U>", "a"], ["-l1-dwback", "<U>"], ["<U>", "<U>"]]), max_size=2))]
    text = "".join(f"{lhs} ::= " + " | ".join(" ".join(alt) for alt in alts) + "\n"
                   for lhs, alts in rules.items())
    return text, fault


def phenotypes(grammar) -> tuple[set, bool]:
    """Every phenotype, by a fixed point over token tuples, and whether a
    reachable rule derives none."""
    lang = {symbol: set() for symbol in grammar.rules}
    changed = True
    while changed:
        changed = False
        for symbol, alts in grammar.rules.items():
            for alt in alts:
                parts = [lang[sym] if sym in grammar.rules else {(sym,)} for sym in alt]
                new = {sum(combo, ()) for combo in product(*parts)} - lang[symbol]
                if new:
                    lang[symbol] |= new
                    changed = True
    reachable, stack = set(), [grammar.start]
    while stack:
        symbol = stack.pop()
        if symbol not in reachable:
            reachable.add(symbol)
            stack += [sym for alt in grammar.rules[symbol] for sym in alt if sym in grammar.rules]
    return lang[grammar.start], any(not lang[symbol] for symbol in reachable)


@settings(max_examples=300, deadline=None)
@given(case=grammars())
def test_check_raises_exactly_on_bad_phenotypes_and_finds_every_row(case):
    text, fault = case
    grammar = parse_bnf(text)
    texts, unproductive = phenotypes(grammar)
    if fault != "unproductive":
        assert derivation_count(grammar) <= 2_000
    configs, bad = [], unproductive
    for tokens in texts:
        try:
            configs.append(CacheConfig.from_flags(" ".join(tokens)))
        except ValidationError:
            bad = True
    if bad:
        with pytest.raises(ValidationError):
            _check_grammar(grammar)
    else:
        assert _check_grammar(grammar) == ({
            row for config in configs if not geometry_problems(config)
            for row in ((config.isize, config.ibsize, config.iassoc),
                        (config.dsize, config.dbsize, config.dassoc))}, min_codons(grammar))
    assert bad == (fault is not None)  # every fault drawn is a real one
