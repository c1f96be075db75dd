import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cacheopt.evolve
from cacheopt.cachesim import DOMAINS, CacheConfig
from cacheopt.cli import _check_grammar
from cacheopt.errors import GrammarError, MappingError
from cacheopt.evolve import _decoder
from cacheopt.grammar import DEFAULT_GRAMMAR, derivation_count, map_genotype, parse_bnf
from cacheopt.oracle import Subspace
from grammar_reference import min_codons

CACHE_GRAMMAR = parse_bnf(DEFAULT_GRAMMAR)

# Nine-codon reference genotype: the last two decisions wrap to codons 0 and 1.
GOLDEN_CODONS = [20, 35, 71, 96, 123, 210, 137, 7, 5]


def test_default_grammar_shape():
    assert CACHE_GRAMMAR.start == "<DineroParams>"
    assert len(CACHE_GRAMMAR.rules) == 7
    counts = {nt: len(alts) for nt, alts in CACHE_GRAMMAR.rules.items()}
    assert counts == {
        "<DineroParams>": 1,
        "<CacheSizeB>": 8,
        "<LineSizeB>": 4,
        "<ReplAlg>": 3,
        "<Assoc>": 8,
        "<PrefAlg>": 3,
        "<WritePol>": 2,
    }


def test_default_grammar_terminals_are_flag_tokens():
    rules = CACHE_GRAMMAR.rules
    terminals = {sym for alts in rules.values() for alt in alts for sym in alt if sym not in rules}
    assert {"-l1-isize", "-l1-dwback", "512", "65536", "l", "f", "r", "m", "d",
            "a", "n", "8", "128"} <= terminals


def test_golden_mapping_with_wrap():
    phenotype = map_genotype(GOLDEN_CODONS, CACHE_GRAMMAR)
    config = CacheConfig.from_flags(phenotype)
    assert config == CacheConfig(8192, 64, "r", 1, "m", 2048, 16, "f", 32, "a", "n")


def test_all_zero_codons_select_first_alternatives():
    config = CacheConfig.from_flags(map_genotype([0] * 11, CACHE_GRAMMAR))
    assert config == CacheConfig(512, 8, "l", 1, "m", 512, 8, "l", 1, "m", "a")


def test_mapping_deterministic_and_total():
    import random

    rng = random.Random(10)
    for _ in range(200):
        codons = [rng.randrange(256) for _ in range(11)]
        a = map_genotype(codons, CACHE_GRAMMAR)
        assert a == map_genotype(codons, CACHE_GRAMMAR)
        CacheConfig.from_flags(a)  # every mapping is a parseable config


def test_single_alternative_rules():
    # The root expansion of a one-alternative start rule is structural and
    # consumes nothing; any other one-alternative rule consumes a codon.
    grammar = parse_bnf("<S> ::= <A> <B>\n<A> ::= x\n<B> ::= y | z\n")
    assert map_genotype([7, 4], grammar) == "x y"  # 7 spent on <A>, 4 mod 2 -> y
    assert map_genotype([7, 5], grammar) == "x z"


def test_modulus_indexing_is_zero_based():
    grammar = parse_bnf("<S> ::= <C>\n<C> ::= a | b | c\n")
    assert map_genotype([0], grammar) == "a"
    assert map_genotype([1], grammar) == "b"
    assert map_genotype([5], grammar) == "c"


def test_wrap_limit_failure():
    grammar = parse_bnf("<S> ::= <A>\n<A> ::= <A> x | y\n")
    with pytest.raises(MappingError, match="wrap limit"):
        map_genotype([0], grammar, max_wraps=2)
    assert map_genotype([0, 0, 1], grammar, max_wraps=2) == "y x x"


def test_map_rejects_bad_codons():
    with pytest.raises(MappingError, match="empty"):
        map_genotype([], CACHE_GRAMMAR)
    with pytest.raises(MappingError, match="8-bit"):
        map_genotype([300], CACHE_GRAMMAR)


def test_parse_undefined_nonterminal():
    with pytest.raises(GrammarError, match="<Undefined>"):
        parse_bnf("<S> ::= <Undefined>\n")


def test_parse_empty_alternative():
    with pytest.raises(GrammarError, match="empty alternative"):
        parse_bnf("<S> ::= a | | b\n")


def test_parse_duplicate_rule():
    with pytest.raises(GrammarError, match="duplicate"):
        parse_bnf("<S> ::= a\n<S> ::= b\n")


def test_parse_requires_rules():
    with pytest.raises(GrammarError, match="no rules"):
        parse_bnf("# only a comment\n")
    with pytest.raises(GrammarError, match="before any rule"):
        parse_bnf("a | b\n")


def test_parse_continuation_lines_and_comments():
    grammar = parse_bnf("# choice rule\n<S> ::= a <T>\n        | b <T>\n<T> ::= t\n")
    assert len(grammar.rules["<S>"]) == 2
    assert map_genotype([1, 0], grammar) == "b t"


def test_search_space_product():
    assert derivation_count(CACHE_GRAMMAR) == 10_616_832


NESTED_GRAMMAR = parse_bnf(
    "<P> ::= <I> -l1-dsize <S> -l1-dbsize 32 -l1-drepl l -l1-dassoc <A> -l1-dfetch d"
    " -l1-dwback <W>\n"
    "<I> ::= -l1-isize <S> -l1-ibsize 32 -l1-irepl <R> -l1-iassoc <A> -l1-ifetch d\n"
    "<S> ::= 1024 | 4096 | 16384\n<A> ::= 1 | 4\n<R> ::= l | r\n<W> ::= a | n\n"
)


@pytest.mark.parametrize("grammar,need", [(CACHE_GRAMMAR, 11), (NESTED_GRAMMAR, 7)],
                         ids=["default", "nested"])
@pytest.mark.parametrize("max_wraps", [1, 3])
def test_min_codons_is_the_decode_budget(grammar, need, max_wraps):
    """Genotypes one codon too short for need within max_wraps passes decode
    none of 2,000; at the shortest length that reaches need, all 2,000
    decode (these grammars derive at one fixed depth)."""
    assert min_codons(grammar) == need
    assert _check_grammar(grammar)[1] == need
    rng = random.Random(need + max_wraps)
    fits = -(-need // max_wraps)  # the fewest codons whose wraps reach need
    assert (fits - 1) * max_wraps < need <= fits * max_wraps
    for length, want in ((fits - 1, 0), (fits, 2000)):
        decoded = 0
        for _ in range(2000):
            try:
                map_genotype([rng.randrange(256) for _ in range(length)], grammar, max_wraps)
                decoded += 1
            except MappingError:
                pass
        assert decoded == want, (length, max_wraps)


def test_min_codons_of_recursive_grammars():
    # The start rule's choice costs a codon; a one-alternative start is free.
    assert min_codons(parse_bnf("<S> ::= x <S> | y\n")) == 1
    assert min_codons(parse_bnf("<S> ::= <T> x\n<T> ::= <T> x | y z\n")) == 1
    assert min_codons(parse_bnf("<S> ::= a\n")) == 0
    with pytest.raises(GrammarError, match="recurses"):
        min_codons(parse_bnf("<S> ::= x <S>\n"))


def test_derivation_count_rejects_recursion():
    grammar = parse_bnf("<S> ::= <S> a | b\n")
    with pytest.raises(GrammarError, match="recursive"):
        derivation_count(grammar)


# Flat: every slot alternative is terminals only, some of several tokens,
# and one terminal carries format braces.
MULTITOKEN_GRAMMAR = """\
<P> ::= -l1-isize <S> <IR> -l1-iassoc <A> {x} <IR> <G> -l1-dwback <W> <One>
<S> ::= 512 | 8192
<IR> ::= -l1-irepl l | -l1-irepl r | -l1-irepl f
<A> ::= 1 | 4 | 16
<G> ::= -l1-dsize 2048 -l1-dbsize 32 | -l1-dbsize 16 -l1-dsize 512 | x
<W> ::= a | n
<One> ::= only
"""

# Not flat, each for a different reason.
NON_FLAT_GRAMMARS = (
    # a slot alternative holds a nonterminal
    "<P> ::= <I> -l1-dwback <W>\n<I> ::= -l1-isize <S> | none\n<S> ::= 512 | 1024\n"
    "<W> ::= a | n\n",
    # the start rule has two alternatives
    "<P> ::= a <W> | b\n<W> ::= a | n\n",
    # recursive
    "<S> ::= <A>\n<A> ::= <A> x | y\n",
    "<S> ::= <S> a | b\n",
)


def _map_or_none(codons, grammar, max_wraps=3):
    try:
        return map_genotype(codons, grammar, max_wraps)
    except MappingError:
        return None


@st.composite
def genotypes(draw):
    """0-30 codons, now and then with a few outside 0-255."""
    codons = draw(st.lists(st.integers(0, 255), max_size=30))
    if codons and draw(st.integers(0, 4)) == 0:
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(codons) - 1))
            codons[i] = draw(st.integers(-300, -1) | st.integers(256, 600))
    return codons


@st.composite
def subspace_grammars(draw):
    values = {
        name: draw(st.lists(st.sampled_from(domain), min_size=1, max_size=len(domain),
                            unique=True))
        for name, domain in DOMAINS.items()
    }
    return Subspace(**values).grammar_text()


GRAMMARS = st.sampled_from((DEFAULT_GRAMMAR, MULTITOKEN_GRAMMAR, *NON_FLAT_GRAMMARS)) | (
    subspace_grammars()
)


@settings(max_examples=400, deadline=None)
@given(text=GRAMMARS, codons=genotypes(), max_wraps=st.integers(1, 4))
def test_decoders_agree_with_map_genotype(text, codons, max_wraps):
    """evolve's memoized decoder gives map_genotype's text or None for its
    MappingError, on first and on repeated lookups."""
    grammar = parse_bnf(text)
    want = _map_or_none(codons, grammar, max_wraps)
    decode = _decoder(grammar, max_wraps)
    assert decode(codons) == want
    assert decode(list(codons)) == want


@pytest.mark.parametrize("text", NON_FLAT_GRAMMARS)
def test_flat_decoder_refuses_non_flat_grammars(text, monkeypatch):
    """A grammar with no flat decoding goes to map_genotype, once per
    distinct genotype."""
    grammar = parse_bnf(text)
    calls = []

    def counted(codons, *args):
        calls.append(codons)
        return map_genotype(codons, *args)

    monkeypatch.setattr(cacheopt.evolve, "map_genotype", counted)
    decode = _decoder(grammar, 3)
    genotypes = ([0, 1, 2], [5], [0, 1, 2], [], [5], [1, 1, 1, 1])
    assert [decode(g) for g in genotypes] == [_map_or_none(g, grammar) for g in genotypes]
    assert calls == [(0, 1, 2), (5,), (), (1, 1, 1, 1)]


def test_flat_decoder_golden_and_wrap(monkeypatch):
    """The default grammar decodes from its slot tables alone: the golden
    text, and None where map_genotype raises (wrap limit, 8-bit range)."""
    golden = map_genotype(GOLDEN_CODONS, CACHE_GRAMMAR)

    def refuse(*args):
        raise AssertionError("a flat grammar reached map_genotype")

    monkeypatch.setattr(cacheopt.evolve, "map_genotype", refuse)
    assert _decoder(CACHE_GRAMMAR, 3)(GOLDEN_CODONS) == golden
    assert _decoder(CACHE_GRAMMAR, 2)([1] * 5) is None  # 11 slots > 5 x 2
    assert _decoder(CACHE_GRAMMAR, 1)([256]) is None
    assert _decoder(CACHE_GRAMMAR, 3)([1] * 10 + [256]) is None
    assert _decoder(CACHE_GRAMMAR, 3)([]) is None


def test_memoized_decoder_shares_equal_phenotypes():
    decode = _decoder(CACHE_GRAMMAR, 3)
    a = decode([0] * 11)
    b = decode([0] * 10 + [24])  # 24 picks alternative 0 of 2 too
    assert a == b and a is b
    assert decode([]) is None
