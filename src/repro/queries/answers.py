"""Counting and enumerating answers to conjunctive queries.

``Ans((H, X), G)`` is the set of assignments ``a : X → V(G)`` extendable to
a homomorphism ``H → G`` (Definition 8).  Three counting routes live here:

1. brute force — enumerate candidate assignments, check extendability by
   backtracking (the reference implementation);
2. projection — enumerate all homomorphisms and project to ``X`` (fast when
   ``Hom`` is small);
3. interpolation (Lemma 22 / Observation 23) — recover ``|Ans|`` from the
   homomorphism counts ``|Hom(F_ℓ(H,X), G)|``, which are power sums
   ``p_ℓ = Σ_σ |Ext(σ)|^ℓ`` over the answers ``σ``.  The adaptive solver
   finds the distinct extension-set sizes via exact Hankel-rank detection
   (Prony's method over ℚ) and reads off ``|Ans|`` as the sum of
   multiplicities.  This is the computational content of the paper's upper
   bound: answers are a finite linear combination of homomorphism counts
   from graphs of treewidth ≤ ew(H, X).

The fourth route, and the one the service's ``auto`` method takes for
non-Boolean queries, is the engine's
:class:`~repro.engine.plans.AnswerPlan`
(:meth:`~repro.engine.HomEngine.answer_count_detailed`): it counts on the
counting-minimal core at the semantic extension width — one 0/1 table per
existential component, checked in one treewidth-DP pass over the contract
``Γ(H, X)[X]`` (Corollary 4's construction) — and caches the answer count
per core and target.  Direct enumeration and interpolation stay as
independent oracles.

Colour-restricted answer sets (Definition 36: ``Ans_τ``) and
colour-prescribed answers (Definition 48: ``cpAns``) are also provided; they
drive the lower-bound experiments.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterator, Mapping

from repro.errors import QueryError
from repro.graphs.graph import Graph, Vertex
from repro.homs.brute_force import (
    count_homomorphisms_brute,
    enumerate_homomorphisms,
    exists_homomorphism,
)
from repro.homs.counting import count_homomorphisms
from repro.queries.extension import ell_copy, gamma_map
from repro.queries.query import ConjunctiveQuery
from repro.utils import matrix_rank_exact, solve_linear_system_exact

Assignment = dict[Vertex, Vertex]


# ----------------------------------------------------------------------
# direct enumeration
# ----------------------------------------------------------------------
def enumerate_answers(
    query: ConjunctiveQuery,
    target: Graph,
    allowed: Mapping[Vertex, frozenset] | None = None,
) -> Iterator[Assignment]:
    """Yield every answer ``a : X → V(G)``, optionally restricted to
    ``a(x) ∈ allowed[x]``.

    The extension check reuses the homomorphism backtracker with the answer
    as a fixed partial assignment.
    """
    free = sorted(query.free_variables, key=repr)
    if not free:
        # Boolean query: the single empty assignment is an answer iff a
        # homomorphism exists.
        if exists_homomorphism(query.graph, target):
            yield {}
        return

    domains = []
    for x in free:
        pool = target.vertices()
        if allowed is not None and x in allowed:
            pool = [w for w in pool if w in allowed[x]]
        domains.append(pool)

    for images in product(*domains):
        assignment = dict(zip(free, images))
        if exists_homomorphism(query.graph, target, fixed=assignment):
            yield assignment


def count_answers_direct(query: ConjunctiveQuery, target: Graph) -> int:
    """``|Ans((H, X), G)|`` by direct enumeration (the reference route)."""
    return sum(1 for _ in enumerate_answers(query, target))


def count_answers(query: ConjunctiveQuery, target: Graph) -> int:
    """``|Ans((H, X), G)|`` by direct enumeration.

    A thin shim over the task API — equivalent to running
    ``AnswerCountTask(query, target, method='direct')`` on the default
    session — so this entry point, the service, and the dynamic layer all
    share one execution route.
    """
    from repro.api.session import default_session

    return default_session().run_answer_count(query, target, method="direct")


def count_answers_by_projection(query: ConjunctiveQuery, target: Graph) -> int:
    """``|Ans|`` as the number of distinct projections of homomorphisms."""
    free = sorted(query.free_variables, key=repr)
    projections = {
        tuple(hom[x] for x in free)
        for hom in enumerate_homomorphisms(query.graph, target)
    }
    return len(projections)


# ----------------------------------------------------------------------
# colour-restricted answers (Definitions 36 and 48)
# ----------------------------------------------------------------------
def count_answers_tau(
    query: ConjunctiveQuery,
    target: Graph,
    colouring: Mapping[Vertex, Vertex],
    tau: Mapping[Vertex, Vertex],
) -> int:
    """``|Ans_τ((H,X), (G, c))|``: answers with ``c(a(x)) = τ(x)`` on ``X``.

    Only the *answer* is colour-constrained; extensions are free
    (Definition 36, first form).
    """
    classes: dict[Vertex, set[Vertex]] = {}
    for w in target.vertices():
        classes.setdefault(colouring[w], set()).add(w)
    allowed = {
        x: frozenset(classes.get(tau[x], ())) for x in query.free_variables
    }
    return sum(1 for _ in enumerate_answers(query, target, allowed=allowed))


def count_answers_id(
    query: ConjunctiveQuery,
    target: Graph,
    colouring: Mapping[Vertex, Vertex],
) -> int:
    """``|Ans_id|``: answers with ``c(a(x)) = x`` for every free ``x``."""
    identity = {x: x for x in query.free_variables}
    return count_answers_tau(query, target, colouring, identity)


def enumerate_cp_answers(
    query: ConjunctiveQuery,
    target: Graph,
    colouring: Mapping[Vertex, Vertex],
) -> Iterator[Assignment]:
    """``cpAns((H,X),(G,c))`` (Definition 48): projections of
    colour-*prescribed* homomorphisms (every variable lands in its own
    colour class)."""
    classes: dict[Vertex, set[Vertex]] = {}
    for w in target.vertices():
        classes.setdefault(colouring[w], set()).add(w)
    allowed = {
        v: frozenset(classes.get(v, ())) for v in query.graph.vertices()
    }
    free = sorted(query.free_variables, key=repr)
    seen: set[tuple] = set()
    for hom in enumerate_homomorphisms(query.graph, target, allowed=allowed):
        key = tuple(hom[x] for x in free)
        if key not in seen:
            seen.add(key)
            yield {x: hom[x] for x in free}


def count_cp_answers(
    query: ConjunctiveQuery,
    target: Graph,
    colouring: Mapping[Vertex, Vertex],
) -> int:
    """``|cpAns((H,X), (G, c))|``."""
    return sum(1 for _ in enumerate_cp_answers(query, target, colouring))


# ----------------------------------------------------------------------
# extension profiles and interpolation (Lemma 22)
# ----------------------------------------------------------------------
def extension_counts(query: ConjunctiveQuery, target: Graph) -> list[int]:
    """For each answer ``σ``, the size ``|Ext(σ)|`` of its extension set.

    ``Ext(σ) = {ρ : Y → V(G) | σ ∪ ρ ∈ Hom(H, G)}`` — the quantities whose
    power sums the interpolation argument manipulates.
    """
    counts: list[int] = []
    for answer in enumerate_answers(query, target):
        extensions = count_homomorphisms_brute(
            query.graph, target, fixed=answer,
        )
        counts.append(extensions)
    return counts


def hom_count_of_ell_copy(
    query: ConjunctiveQuery,
    target: Graph,
    ell: int,
    method: str = "auto",
) -> int:
    """``p_ℓ = |Hom(F_ℓ(H, X), G)|``.

    With ``method='auto'`` this rides the engine: ``F_ℓ`` is rebuilt per
    call but carries identical labels, so its compiled plan and any
    previously computed ``p_ℓ`` for the same target come from cache — the
    interpolation solver probes the same prefix of power sums repeatedly.
    """
    pattern, _ = ell_copy(query, ell)
    return count_homomorphisms(pattern, target, method=method)


def power_sum_vector(
    query: ConjunctiveQuery,
    target: Graph,
    max_ell: int,
    method: str = "auto",
) -> tuple[int, ...]:
    """``(p_1, …, p_{max_ell})`` — the power-sum profile Lemma 22 consumes,
    evaluated as one batch so every ``F_ℓ`` plan is compiled at most once."""
    return tuple(
        hom_count_of_ell_copy(query, target, ell, method=method)
        for ell in range(1, max_ell + 1)
    )


def _hankel_rank(power_sums: list[int], dimension: int) -> int:
    """Rank of the Hankel matrix ``[p_{1+i+j}]_{i,j < dimension}``."""
    matrix = [
        [power_sums[i + j] for j in range(dimension)] for i in range(dimension)
    ]
    return matrix_rank_exact(matrix)


def count_answers_by_interpolation(
    query: ConjunctiveQuery,
    target: Graph,
    method: str = "auto",
    max_distinct: int | None = None,
    engine=None,
    target_id: tuple | None = None,
) -> int:
    """``|Ans|`` from homomorphism counts of ℓ-copies alone (Lemma 22).

    The solver half lives in :func:`count_answers_from_power_sums`; this
    wrapper feeds it the engine-backed power sums of ``(query, target)``,
    counted on ``engine`` (a :class:`~repro.engine.HomEngine`) under the
    target key ``target_id`` when one is given, else as
    :func:`hom_count_of_ell_copy` counts them.
    """

    def count(pattern: Graph) -> int:
        if engine is None:
            return count_homomorphisms(pattern, target, method=method)
        return engine.count(pattern, target, target_id=target_id)

    if query.is_full():
        # No existential variables: answers are homomorphisms.
        return count(query.graph)
    if not query.free_variables:
        raise QueryError(
            "interpolation requires at least one free variable; Boolean "
            "queries reduce to homomorphism existence",
        )
    return count_answers_from_power_sums(
        lambda ell: count(ell_copy(query, ell)[0]), max_distinct=max_distinct,
    )


def count_answers_from_power_sums(
    fetch,
    max_distinct: int | None = None,
) -> int:
    """``|Ans|`` from the power sums ``p_ℓ`` alone (Lemma 22, solver half).

    ``fetch(ℓ)`` must return ``p_ℓ = |Hom(F_ℓ(H, X), G)| = Σ_σ |Ext(σ)|^ℓ``;
    it is called for ``ℓ = 1, 2, …`` as needed.  Writes
    ``p_ℓ = Σ_i m_i x_i^ℓ`` with distinct extension sizes ``x_i ≥ 1`` and
    multiplicities ``m_i ≥ 1``, then:

    1. find ``d`` = number of distinct sizes via exact Hankel rank;
    2. recover the sizes as the integer roots of the Prony polynomial
       (integer Newton steps from ``⌊p_{2d}^{1/2d}⌋`` down);
    3. solve a Vandermonde system for the multiplicities;
    4. ``|Ans| = Σ_i m_i``.

    Every step is exact rational arithmetic.  ``max_distinct`` caps step 1
    (default: a bound implied by ``p_1``).  Decoupling the solver from the
    power-sum source lets the dynamic layer interpolate over *maintained*
    homomorphism counts instead of fresh ones.
    """
    p1 = fetch(1)
    if p1 == 0:
        return 0
    # Each answer contributes x_i >= 1 to p1, so there are at most p1
    # answers and at most p1 distinct sizes.
    cap = p1 if max_distinct is None else min(max_distinct, p1)

    power_sums = [p1]

    def extend_to(length: int) -> None:
        while len(power_sums) < length:
            power_sums.append(fetch(len(power_sums) + 1))

    distinct = None
    for d in range(1, cap + 1):
        extend_to(2 * d)
        if _hankel_rank(power_sums, d) < d:
            distinct = d - 1
            break
    if distinct is None:
        distinct = cap

    if distinct == 0:
        return 0

    extend_to(2 * distinct)
    # Prony: find the monic polynomial λ^d - c_{d-1} λ^{d-1} - … - c_0 whose
    # roots are the distinct sizes; coefficients solve a Hankel system.
    if distinct == 1:
        # p2/p1 = x; guard against needing p2 when d == 1.
        extend_to(2)
        size = Fraction(power_sums[1], power_sums[0])
        if size.denominator != 1:
            raise AssertionError("extension sizes must be integers")
        multiplicity = Fraction(power_sums[0], size)
        if multiplicity.denominator != 1:
            raise AssertionError("multiplicities must be integers")
        return int(multiplicity)

    matrix = [
        [power_sums[i + j] for j in range(distinct)] for i in range(distinct)
    ]
    rhs = [power_sums[distinct + i] for i in range(distinct)]
    coefficients = solve_linear_system_exact(matrix, rhs)
    # Π(λ − x_i) has integer coefficients, so the roots are found in
    # integers alone.  Every size obeys m_i x_i^{2d} <= p_{2d}.
    if any(coefficient.denominator != 1 for coefficient in coefficients):
        raise AssertionError("Prony coefficients must be integers")
    bound = min(p1, _integer_root(power_sums[2 * distinct - 1], 2 * distinct))
    roots = _distinct_positive_roots([int(c) for c in coefficients], bound)

    vandermonde = [[x ** ell for x in roots] for ell in range(1, distinct + 1)]
    multiplicities = solve_linear_system_exact(
        vandermonde, power_sums[:distinct],
    )
    total = Fraction(0)
    for multiplicity in multiplicities:
        if multiplicity.denominator != 1 or multiplicity < 0:
            raise AssertionError("multiplicities must be non-negative integers")
        total += multiplicity
    return int(total)


def _integer_root(value: int, k: int) -> int:
    """``⌊value^{1/k}⌋`` for ``value >= 0``, in integers (power sums
    overflow floats)."""
    low, high = 0, 1 << (value.bit_length() // k + 1)
    while low < high:
        middle = (low + high + 1) // 2
        if middle ** k <= value:
            low = middle
        else:
            high = middle - 1
    return low


def _horner(polynomial: list[int], x: int) -> int:
    value = 0
    for coefficient in polynomial:
        value = value * x + coefficient
    return value


def _distinct_positive_roots(coefficients: list[int], bound: int) -> list[int]:
    """The roots of ``λ^d − Σ_j c_j λ^j`` (``coefficients[j] = c_j``),
    which must be ``d`` distinct integers in ``1..bound``; largest first.

    Newton's method from above, in integers: above the largest root
    ``r`` the polynomial and its derivative are positive and
    ``P/P' >= (x − r)/d``, so the floored step never passes ``r`` and
    shrinks ``x − r`` geometrically.  Each root found is divided out,
    and the search for the next one starts just below it.
    """
    polynomial = [1] + [-c for c in reversed(coefficients)]  # high → low
    roots: list[int] = []
    x = bound
    while len(polynomial) > 1:
        degree = len(polynomial) - 1
        slope = [c * (degree - i) for i, c in enumerate(polynomial[:-1])]
        value = _horner(polynomial, x)
        while value:
            derivative = _horner(slope, x)
            if value < 0 or derivative <= 0 or x <= 1:
                raise AssertionError(
                    f"expected {len(coefficients)} distinct integer roots "
                    f"in 1..{bound}, found {len(roots)}",
                )
            x -= max(value // derivative, 1)
            value = _horner(polynomial, x)
        roots.append(x)
        quotient = [polynomial[0]]
        for coefficient in polynomial[1:-1]:
            quotient.append(coefficient + quotient[-1] * x)
        polynomial = quotient
        x -= 1
    return roots


def hom_combination_for_answers(
    query: ConjunctiveQuery,
    target: Graph,
) -> list[tuple[Fraction, int]]:
    """Observation 23, literally: weights ``w_ℓ`` with
    ``|Ans((H,X), G)| = Σ_ℓ w_ℓ · |Hom(F_ℓ(H,X), G)|``.

    With distinct extension sizes ``x_1 < … < x_d`` (recovered as in
    :func:`count_answers_by_interpolation`), the weights solve
    ``Σ_ℓ w_ℓ x^ℓ = 1`` for every ``x = x_i`` — a transposed Vandermonde
    system over ``ℓ = 1..d``.  Since the ``F_ℓ`` have treewidth ≤ ew(H,X)
    (Lemma 16), this exhibits the answer count as a finite rational
    combination of bounded-treewidth homomorphism counts — the upper-bound
    mechanism of Theorem 21 and the GNN result.

    Returns ``[(w_1, 1), …, (w_d, d)]``; empty when there are no answers.
    """
    if not query.free_variables:
        raise QueryError("Observation 23 requires at least one free variable")
    profile = sorted(set(extension_counts(query, target)))
    if not profile:
        return []
    matrix = [[Fraction(x) ** ell for ell in range(1, len(profile) + 1)] for x in profile]
    weights = solve_linear_system_exact(matrix, [1] * len(profile))
    return [(weight, ell) for ell, weight in enumerate(weights, start=1)]


def evaluate_hom_combination(
    query: ConjunctiveQuery,
    target: Graph,
    combination: list[tuple[Fraction, int]],
) -> Fraction:
    """``Σ_ℓ w_ℓ |Hom(F_ℓ, G)|`` for a combination from
    :func:`hom_combination_for_answers`."""
    total = Fraction(0)
    for weight, ell in combination:
        total += weight * hom_count_of_ell_copy(query, target, ell)
    return total


def power_sum_identity_check(
    query: ConjunctiveQuery,
    target: Graph,
    max_ell: int,
) -> bool:
    """Verify ``|Hom(F_ℓ, G)| = Σ_σ |Ext(σ)|^ℓ`` for ``ℓ = 1..max_ell`` —
    the identity at the heart of Lemma 22."""
    profile = extension_counts(query, target)
    for ell in range(1, max_ell + 1):
        direct = hom_count_of_ell_copy(query, target, ell)
        predicted = sum(size ** ell for size in profile)
        if direct != predicted:
            return False
    return True


def answers_of_gamma_colouring(
    query: ConjunctiveQuery,
    target: Graph,
    f_colouring: Mapping[Vertex, Vertex],
    ell: int,
    tau: Mapping[Vertex, Vertex],
) -> int:
    """``|Ans_τ((H,X),(G, ĉ))|`` for an F-colouring ĉ (Definition 36, second
    form): the answer colour is read through ``γ ∘ ĉ``."""
    _, gamma = ell_copy(query, ell)
    composed = {w: gamma[f_colouring[w]] for w in target.vertices()}
    return count_answers_tau(query, target, composed, tau)


def gamma_pi_colouring(
    query: ConjunctiveQuery,
    ell: int,
    cfi: Graph,
) -> dict[Vertex, Vertex]:
    """The H-colouring ``c = γ(π₁(·))`` of a CFI graph over ``F_ℓ(H, X)``
    (Observation 39)."""
    _, gamma = ell_copy(query, ell)
    return {vertex: gamma[vertex[0]] for vertex in cfi.vertices()}


def gamma_of_query(query: ConjunctiveQuery, ell: int) -> dict[Vertex, Vertex]:
    """Convenience re-export of the γ map (Definition 14)."""
    return gamma_map(query, ell)
