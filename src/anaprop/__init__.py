"""Analogical proportions a : b :: c : d over finite and built-in algebras.

The package decides, solves and enumerates analogical proportions defined
through maximal shared justification sets: rewrite rules s -> t witnessing
how each side of the proportion transforms.  Finite algebras are handled
exactly through deterministic behavior automata; the additive integers,
multiplicative rationals/naturals and word algebras through closed-form
characterizations of the monolinear fragment; the free term algebra through
anti-unification.
"""
from .algebras import (
    AlgebraFormatError,
    Algebra,
    FiniteAlgebra,
    IntAddition,
    NaturalMultiplication,
    RationalMultiplication,
    TermAlgebra,
    UnsupportedQuery,
    WordConcatenation,
    check_homomorphism,
    eval_term,
    in_unity_set,
    is_injective_term,
    load_finite_algebra,
    save_finite_algebra,
    solution_set,
)
from .antiunify import Monomial, bounded_gens, common_gens, instance_subset, mgg, monomial_gens
from .closedform import (
    SYFactorization,
    WordFactorization,
    decide_mono_add,
    decide_mono_mul,
    decide_mono_word,
    decide_prime_mono,
    decide_sy_add,
    decide_sy_word,
    solve_mono_add,
    solve_mono_mul,
    solve_mono_word,
    sy_witness_rule,
)
from .decider import (
    BehaviorState,
    FragmentDecider,
    StateCapExceeded,
    Verdict,
    functional_solve,
    natural_solve,
    verify_characteristic,
)
from .oracle import OracleUniverse, enumerate_terms, oracle_justifications
from .terms import (
    App,
    RewriteRule,
    Signature,
    Substitution,
    Term,
    Var,
    count_occurrences,
    generalizes,
    parse_rule,
    parse_term,
    replace_subterm,
    rule_generalizes,
    substitute,
    variables,
)
from .trees import (
    ChiMap,
    check_tree_arrow,
    check_tree_proportion,
    generalization_filter,
    inverse_image,
    lgg,
    solve_tree_equation,
    unique_match,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
