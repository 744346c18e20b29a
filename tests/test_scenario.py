import hashlib
import tracemalloc
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import example, given, settings, strategies as st

from avauction import (
    BidSchedule,
    CostLaw,
    GenerationLaw,
    InvalidLaw,
    Money,
    ScenarioBatch,
    ServiceType,
    generate_batch,
    rng_stream,
    validate_instance,
)
from avauction.core import INT_BOUND, MICROS_PER_UNIT, PastBound, round_half_up
from avauction import scenario
from avauction.scenario import MAX_DRAW_ATTEMPTS, draw_cost_micros

from conftest import failed, fraction_generate_batch, outcome


class TestRngStream:
    def test_replay_is_identical(self):
        a = [rng_stream(7, "case-7").randint(1, 10**6) for _ in range(50)]
        b = [rng_stream(7, "case-7").randint(1, 10**6) for _ in range(50)]
        assert a == b

    def test_distinct_streams_differ(self):
        a = [rng_stream(7, "case-1").randint(1, 10**6) for _ in range(20)]
        b = [rng_stream(7, "case-2").randint(1, 10**6) for _ in range(20)]
        assert a != b

    def test_distinct_seeds_differ(self):
        a = [rng_stream(1, "x").randint(1, 10**6) for _ in range(20)]
        b = [rng_stream(2, "x").randint(1, 10**6) for _ in range(20)]
        assert a != b


class TestGenerationLaw:
    def test_gamma_bounds(self):
        with pytest.raises(InvalidLaw):
            GenerationLaw(seed=1, gamma=Fraction(0))
        with pytest.raises(InvalidLaw):
            GenerationLaw(seed=1, gamma=Fraction(6, 5))
        GenerationLaw(seed=1, gamma=1)

    def test_gamma_digit_bound(self):
        GenerationLaw(seed=1, gamma=Fraction(10**99 - 1, 10**99))
        for gamma in (Fraction(1, 10**100), Fraction(10**100 - 1, 10**100), Fraction(10**100)):
            with pytest.raises(InvalidLaw, match="^gamma must be a ratio of integers of at most"):
                GenerationLaw(seed=1, gamma=gamma)

    def test_seed_bounds(self):
        with pytest.raises(InvalidLaw):
            GenerationLaw(seed=-1)
        with pytest.raises(InvalidLaw):
            GenerationLaw(seed=2**64)
        # a seed equal to an int would draw under a different label
        for bad in (7.0, 1.5, True, "7", None):
            with pytest.raises(InvalidLaw):
                GenerationLaw(seed=bad)
        # a cost law given by its value is refused too, never coerced
        with pytest.raises(InvalidLaw, match="^cost_law must be a CostLaw, got 'large'$"):
            GenerationLaw(seed=1, cost_law="large")

    def test_counts_must_be_ints(self):
        law = GenerationLaw(seed=1)
        for bad in (0, 1.5, 2.0, True, "2"):
            for counts in (dict(bidders=bad, capacity=5, cases=1),
                           dict(bidders=2, capacity=bad, cases=1),
                           dict(bidders=2, capacity=5, cases=bad)):
                with pytest.raises(InvalidLaw):
                    generate_batch(law, **counts)

    def test_degenerate_gamma_detected(self):
        # sub-micro marginals for every possible cost draw: no valid curve exists
        law = GenerationLaw(seed=1, gamma=Fraction(1, 10**6))
        with pytest.raises(InvalidLaw):
            generate_batch(law, bidders=2, capacity=5, cases=1)


class TestCostDraws:
    def test_large_variation_support(self):
        stream = rng_stream(11, "costs")
        draws = [draw_cost_micros(stream, CostLaw.LARGE_VARIATION) for _ in range(20_000)]
        assert all(1 <= u <= MICROS_PER_UNIT for u in draws)

    def test_small_variation_support(self):
        stream = rng_stream(11, "costs")
        draws = [draw_cost_micros(stream, CostLaw.SMALL_VARIATION) for _ in range(20_000)]
        assert all(MICROS_PER_UNIT // 2 < u <= 6 * MICROS_PER_UNIT // 10 for u in draws)

    @pytest.mark.parametrize(
        "law,mean,spread",
        [(CostLaw.LARGE_VARIATION, 0.5, 1.0), (CostLaw.SMALL_VARIATION, 0.55, 0.1)],
    )
    def test_empirical_mean(self, law, mean, spread):
        stream = rng_stream(5, f"mean-{law.value}")
        n = 20_000
        draws = [draw_cost_micros(stream, law) / MICROS_PER_UNIT for _ in range(n)]
        stderr = (spread**2 / 12 / n) ** 0.5
        assert abs(sum(draws) / n - mean) < 3 * stderr


class TestGeneratedSchedules:
    def test_geometric_prices_linear_limit(self):
        # gamma = 1 makes the curve linear in the unit cost
        law = GenerationLaw(seed=20, gamma=1)
        batch = generate_batch(law, bidders=3, capacity=5, cases=4)
        for case in batch.cases:
            for s in case:
                unit = s.prices[1].micros
                for m in sorted(s.prices):
                    assert s.prices[m].micros == unit * m

    def test_geometric_prices_example(self):
        # cost 0.4 at gamma 0.5 prices sizes 1..3 at 0.4, 0.6, 0.7
        sums = [Fraction(1), Fraction(3, 2), Fraction(7, 4)]
        cost = 400_000
        assert [round(cost * s) for s in sums] == [400_000, 600_000, 700_000]

    def test_every_schedule_validates_with_concave_flag(self):
        law = GenerationLaw(seed=77)
        batch = generate_batch(law, bidders=20, capacity=5, cases=25)
        for i in range(batch.case_count):
            for q in range(1, 6):
                for svc in ServiceType:
                    inst = batch.instance(i, svc, q)
                    validate_instance(inst)
                    assert all(b.concave for b in inst.bids)

    def test_availability_in_range(self):
        batch = generate_batch(GenerationLaw(seed=13), bidders=50, capacity=5, cases=10)
        for case in batch.cases:
            for s in case:
                assert 1 <= s.available_seats <= 5
                assert sorted(s.prices) == list(range(1, s.available_seats + 1))


class TestBatchDeterminism:
    def test_same_seed_same_digest(self):
        a = generate_batch(GenerationLaw(seed=42), 10, 5, 10)
        b = generate_batch(GenerationLaw(seed=42), 10, 5, 10)
        assert a.digest() == b.digest()
        assert a == b

    def test_different_seed_different_digest(self):
        a = generate_batch(GenerationLaw(seed=42), 10, 5, 10)
        b = generate_batch(GenerationLaw(seed=43), 10, 5, 10)
        assert a.digest() != b.digest()

    def test_scenarios_nest_across_bidder_counts(self):
        # the K=5 batch is a bidder-wise prefix of the K=30 batch
        small = generate_batch(GenerationLaw(seed=42), 5, 5, 6)
        large = generate_batch(GenerationLaw(seed=42), 30, 5, 6)
        for case_s, case_l in zip(small.cases, large.cases):
            assert case_l[: len(case_s)] == case_s

    def test_availability_paired_across_cost_laws(self):
        # the regimes share availability draws case for case
        a = generate_batch(GenerationLaw(seed=9, cost_law=CostLaw.LARGE_VARIATION), 10, 5, 8)
        b = generate_batch(GenerationLaw(seed=9, cost_law=CostLaw.SMALL_VARIATION), 10, 5, 8)
        for case_a, case_b in zip(a.cases, b.cases):
            assert [s.available_seats for s in case_a] == [s.available_seats for s in case_b]

    def test_instance_bounds_checked(self):
        batch = generate_batch(GenerationLaw(seed=1), 3, 5, 2)
        with pytest.raises(Exception):
            batch.instance(0, ServiceType.SPLITTABLE, 6)


@pytest.mark.parametrize("case", [-1, 2, True, 1.0], ids=["negative", "case-count", "bool", "float"])
def test_instance_rejects_a_case_outside_the_batch(case):
    batch = generate_batch(GenerationLaw(seed=1), 3, 5, 2)
    with pytest.raises(InvalidLaw, match=r"outside a batch of 2 case\(s\)"):
        batch.instance(case, ServiceType.SPLITTABLE, 2)


@settings(max_examples=25, deadline=None)
@given(
    cost_law=st.sampled_from(list(CostLaw)),
    seed=st.integers(0, 2**64 - 1),
    sizes=st.integers(1, 12).flatmap(lambda k: st.tuples(st.just(k), st.integers(1, k))),
    n=st.integers(1, 4),
)
def test_head_is_the_batch_generated_at_that_size(cost_law, seed, sizes, n):
    big_k, k = sizes
    law = GenerationLaw(seed=seed, cost_law=cost_law)
    head = generate_batch(law, big_k, 5, n).head(k)
    direct = generate_batch(law, k, 5, n)
    assert head.cases == direct.cases
    assert (head.bidder_count, head.case_count) == (k, n)
    assert head.digest() == direct.digest()
    assert [head.case_label(i) for i in range(n)] == [direct.case_label(i) for i in range(n)]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    bidders=st.integers(1, 6),
    span=st.integers(0, 5).flatmap(lambda first: st.tuples(st.just(first), st.integers(1, 4))),
)
def test_a_batch_from_a_first_case_is_that_slice_of_the_full_batch(seed, bidders, span):
    first, n = span
    law = GenerationLaw(seed=seed)
    full = generate_batch(law, bidders, 5, first + n)
    part = generate_batch(law, bidders, 5, n, first_case=first)
    assert part.cases == full.cases[first:]
    assert [part.case_label(i) for i in range(n)] == [
        full.case_label(first + i) for i in range(n)
    ]
    assert part.head(bidders).case_label(n - 1).endswith(f" case={first + n - 1}")


@pytest.mark.parametrize("first", [-1, 1.0, True, "1"])
def test_the_first_case_must_be_an_int_of_at_least_0(first):
    with pytest.raises(InvalidLaw, match="first_case"):
        generate_batch(GenerationLaw(seed=1), 2, 5, 1, first_case=first)


@pytest.mark.parametrize("drop", [None, 1], ids=["no-cases", "ragged"])
def test_a_batch_without_cases_or_of_mixed_bidder_counts_is_refused(drop):
    batch = generate_batch(GenerationLaw(seed=1), 3, 5, 2)
    cases = () if drop is None else (batch.cases[0], batch.cases[1][:-drop])
    with pytest.raises(InvalidLaw, match="^a batch needs at least one case, all of one bidder count$"):
        ScenarioBatch(law=batch.law, capacity=batch.capacity, cases=cases)


@pytest.mark.parametrize("bidders", [4, 0, 2.0, True])
def test_head_rejects_more_than_the_batch_holds(bidders):
    batch = generate_batch(GenerationLaw(seed=1), 3, 5, 2)
    with pytest.raises(InvalidLaw):
        batch.head(bidders)


def test_a_digest_renders_prices_at_the_bound():
    """A digest renders the largest price a schedule holds digit for digit;
    the 5000-digit price it once rendered is past the bound, and no schedule
    holds it."""
    schedule = BidSchedule("A", 1, {1: Money(INT_BOUND - 1)})
    batch = ScenarioBatch(law=GenerationLaw(seed=1), capacity=5, cases=((schedule,),))
    line = "A|1|1:" + "9" * 200 + "\n"
    assert batch.digest() == hashlib.sha256(line.encode()).hexdigest()
    for micros in (INT_BOUND, 10**5000):
        with pytest.raises(PastBound):
            BidSchedule("A", 1, {1: Money(micros)})


@pytest.mark.parametrize("capacity", [INT_BOUND, 10**5000], ids=["bound", "5000-digits"])
def test_a_capacity_past_the_bound_draws_nothing(capacity):
    """Drawing a case once walked every size up to the capacity; one past
    the bound is refused before any draw."""
    with pytest.raises(PastBound, match="^capacity past the bound 10\\*\\*200$"):
        generate_batch(GenerationLaw(seed=1), 1, capacity, 1)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    cost_law=st.sampled_from(list(CostLaw)),
    # 1/10 and 1/20 sit near the degenerate edge: 1/20 redraws at capacity
    # 6 and raises InvalidLaw at 7.
    gamma=st.sampled_from([Fraction(1), Fraction(4, 5), Fraction(1, 2),
                           Fraction(1, 10), Fraction(1, 20)]),
    bidders=st.integers(1, 12),
    capacity=st.integers(1, 7),
    cases=st.integers(1, 3),
)
@example(seed=0, cost_law=CostLaw.LARGE_VARIATION, gamma=Fraction(1, 20), bidders=12,
         capacity=6, cases=3)  # 49 redraws
@example(seed=0, cost_law=CostLaw.LARGE_VARIATION, gamma=Fraction(1, 20), bidders=12,
         capacity=7, cases=3)
def test_integer_price_curves_match_fraction_products(seed, cost_law, gamma, bidders,
                                                      capacity, cases):
    """Each drawn schedule equals the oracle's, which the constructor
    checked, series included."""
    law = GenerationLaw(seed=seed, cost_law=cost_law, gamma=gamma)
    batch = outcome(lambda law: generate_batch(law, bidders, capacity, cases), law)
    oracle = outcome(lambda law: fraction_generate_batch(law, bidders, capacity, cases), law)
    if failed(batch) or failed(oracle):
        assert batch == oracle
        return
    assert batch.cases == oracle.cases
    assert batch.digest() == oracle.digest()
    for drawn, expected in zip(chain.from_iterable(batch.cases),
                               chain.from_iterable(oracle.cases)):
        assert drawn._series == expected._series


def test_degenerate_gamma_raises_as_the_fraction_oracle_does():
    law = GenerationLaw(seed=1, gamma=Fraction(1, 10**6))
    raised = outcome(lambda law: generate_batch(law, 2, 5, 1), law)
    assert raised[0] is InvalidLaw
    assert raised == outcome(lambda law: fraction_generate_batch(law, 2, 5, 1), law)


def test_a_capacity_no_draw_can_price_is_refused_after_two_roundings_a_draw(monkeypatch):
    """At gamma 4/5 the last marginal of a schedule of thousands of seats
    rounds flat at any cost, and every draw is refused on that step alone,
    before the other sizes are rounded (it once rounded every size of each
    of the 1000 draws, for seconds)."""
    calls = []

    def counted(numerator, denominator=1):
        calls.append(denominator)
        return round_half_up(numerator, denominator)

    monkeypatch.setattr(scenario, "round_half_up", counted)
    with pytest.raises(InvalidLaw, match="cannot produce valid micro-unit price curves"):
        generate_batch(GenerationLaw(seed=20250810), 1, 2500, 1)
    assert len(calls) == 2 * MAX_DRAW_ATTEMPTS


def test_a_draw_no_curve_can_price_builds_only_the_sums_it_reads():
    """At capacity 10,000 the first bidder's availability is one no price
    curve at gamma 4/5 covers.  The batch refuses it having built only the
    sums of the sizes its draws rounded, not one per size up to the
    capacity."""
    tracemalloc.start()
    try:
        with pytest.raises(InvalidLaw, match="^gamma 4/5 cannot produce valid micro-unit price"):
            generate_batch(GenerationLaw(seed=1), 1, 10_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10**6
