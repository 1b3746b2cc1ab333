"""LRU mechanics, budget-aware admission, and telemetry counters."""

from repro.asp.api import solve_text
from repro.engine.caches import LRUCache, SolveCache, admissible
from repro.runtime.budget import Budget, budget_scope
from repro.telemetry import Tracer, tracer_scope


def test_lru_get_put_and_eviction_order():
    cache = LRUCache(2, name="t")
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refreshes "a"
    cache.put("c", 3)  # evicts the least-recent: "b"
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    assert cache.stats.evictions == 1


def test_disabled_cache_stores_nothing():
    cache = LRUCache(0, name="t")
    assert cache.put("a", 1) is False
    assert cache.get("a") is None
    assert len(cache) == 0


def test_stats_counters_and_hit_rate():
    cache = LRUCache(4, name="t")
    cache.put("a", 1)
    cache.get("a")
    cache.get("missing")
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.hit_rate == 0.5
    assert cache.stats.as_dict()["hits"] == 1


def test_clear_counts_as_evictions():
    cache = LRUCache(4, name="t")
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.clear() == 2
    assert cache.stats.evictions == 2
    assert len(cache) == 0


def test_admissible_explicit_budget():
    fresh = Budget(max_steps=100)
    assert admissible(fresh)
    spent = Budget(max_steps=1)
    try:
        spent.tick(2)
    except Exception:
        pass
    assert spent.exhausted
    assert not admissible(spent)
    cancelled = Budget()
    cancelled.cancel()
    assert not admissible(cancelled)


def test_admissible_ambient_budget():
    budget = Budget(max_steps=1)
    try:
        budget.tick(2)
    except Exception:
        pass
    with budget_scope(budget):
        assert not admissible()
    assert admissible()


def test_put_rejects_exhausted_budget_results():
    cache = LRUCache(4, name="t")
    budget = Budget()
    budget.cancel()
    assert cache.put("a", 1, budget=budget) is False
    assert cache.get("a") is None
    assert cache.stats.rejected == 1


def test_solve_cache_returns_fresh_equal_results():
    cache = SolveCache(4)
    result = solve_text("a :- not b. b :- not a.")
    assert cache.put_result("k", result)
    hit1 = cache.get_result("k")
    hit2 = cache.get_result("k")
    assert hit1 is not result and hit1 is not hit2
    assert list(hit1) == list(result) == list(hit2)
    assert hit1.stats is result.stats
    # caller-side mutation cannot corrupt the cache
    hit1.append("garbage")
    assert list(cache.get_result("k")) == list(result)


def test_counters_flow_into_telemetry():
    with tracer_scope(Tracer()) as tracer:
        cache = LRUCache(1, name="tele")
        cache.put("a", 1)
        cache.get("a")
        cache.get("nope")
        cache.put("b", 2)  # evicts "a"
    counters = tracer.counters
    assert counters["cache.tele.hits"] == 1
    assert counters["cache.tele.misses"] == 1
    assert counters["cache.tele.evictions"] == 1
