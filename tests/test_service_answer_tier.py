"""The query service answers through the answerer's one cache path.

A one-tenant :class:`~repro.service.QueryService` and a
:class:`~repro.core.QueryAnswerer` holding a
:class:`~repro.cache.QueryCache` of the service's default capacities
are driven with the same drawn sequence of LUBM catalog reads, their
instance-constant variants, and data inserts/deletes.  They must
return the same answers with the same hit/miss outcomes, and end with
equal counters in both tiers: the service keys, looks up and writes
back nothing of its own.

The writes are triples some catalog queries read and others do not
(a student's type, course or telephone), so an entry a write does not
match survives it in both.  Stale serving is the one piece of
answer-tier logic the service keeps; a request whose stale lookup
finds nothing and that then computes counts one miss for each.
"""

import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import QueryCache
from repro.core import QueryAnswerer
from repro.datasets import generate_lubm, lubm_queries
from repro.datasets.lubm import UB
from repro.query import ConjunctiveQuery, TriplePattern
from repro.rdf import Literal, RDF_TYPE, Triple, URI
from repro.resilience.clock import FakeClock
from repro.service import (
    BrownoutPolicy,
    DONE,
    QueryRequest,
    QueryService,
    STALE_SERVING,
)

GRAPH = generate_lubm(universities=1, seed=3)
CATALOG = lubm_queries()
LUBM = "http://www.Department0.University0.edu/"
TENANT = "solo"


def variant(query: ConjunctiveQuery, number: int) -> ConjunctiveQuery:
    """*query* with the last number of each instance URI replaced by
    *number* (``GraduateCourse0`` → ``GraduateCourse2``): the same
    shape over other constants, which may match nothing."""

    def swap(term):
        if isinstance(term, URI) and term.value.startswith("http://www."):
            return URI(re.sub(r"\d+(?=\D*$)", str(number), term.value))
        return term

    atoms = [TriplePattern(*map(swap, atom.as_tuple())) for atom in query.atoms]
    return ConjunctiveQuery(query.head, atoms)


def new_triple(index: int) -> Triple:
    student = URI(LUBM + "DrawnStudent%d" % (index % 3))
    if index % 3 == 2:
        return Triple(student, UB.telephone, Literal("555-%d" % (index % 4)))
    if index % 2:
        return Triple(student, RDF_TYPE, UB.GraduateStudent)
    return Triple(student, UB.takesCourse, URI(LUBM + "GraduateCourse%d" % (index % 4)))


reads = st.tuples(
    st.just("read"), st.sampled_from(sorted(CATALOG)), st.integers(0, 3)
)
writes = st.tuples(st.sampled_from(["insert", "delete"]), st.integers(0, 11))
# Reads twice over: about two reads per write, so entries get hit
# between the writes that retire them.
operations = st.lists(st.one_of(reads, reads, writes), min_size=1, max_size=10)


def one_tenant_service(**kwargs) -> QueryService:
    return QueryService(
        GRAPH, tenants=[TENANT], clock=FakeClock(auto_advance=0.001), **kwargs
    )


def serve(service: QueryService, query: ConjunctiveQuery):
    ticket = service.submit(QueryRequest(TENANT, query))
    service.step()
    assert ticket.status == DONE, ticket.error
    return ticket


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(operations)
def test_service_and_cached_answerer_agree(ops):
    service = one_tenant_service()
    direct = QueryAnswerer(GRAPH, cache=QueryCache(128, 512))
    for op in ops:
        if op[0] == "read":
            _, name, number = op
            query = variant(CATALOG[name], number)
            ticket = serve(service, query)
            report = direct.answer(query)
            assert ticket.answer == report.answer, (name, number)
            served = dict(ticket.report.details["cache"])
            assert served.pop("tenant") == TENANT
            assert served == report.details["cache"], (name, number)
            assert ticket.cache == report.details["cache"]["answer"]
        else:
            action, index = op
            triple = new_triple(index)
            assert getattr(service, action)(triple) == getattr(direct, action)(triple)
    assert service.cache_stats()[TENANT] == direct.cache.stats()


def test_a_stale_probe_that_computes_counts_one_fresh_miss_plus_probes():
    service = one_tenant_service(brownout=BrownoutPolicy(stale_max_epochs=2))
    serve(service, CATALOG["Q1"])
    for index in (1, 3):
        assert service.insert(new_triple(index))
    service.brownout.force(STALE_SERVING, "test")
    before = service.cache_stats()[TENANT]["answer"]
    ticket = serve(service, CATALOG["Q14"])  # never cached: nothing stale
    after = service.cache_stats()[TENANT]["answer"]
    assert ticket.cache == "miss" and not ticket.stale
    assert after["hits"] == before["hits"]
    assert after["misses"] - before["misses"] == 1 + 1  # fresh + one stale lookup
    assert after["entries"] == before["entries"] + 1
    assert serve(service, CATALOG["Q14"]).cache == "hit"


def test_only_a_write_the_footprint_matches_makes_an_entry_stale():
    service = one_tenant_service(brownout=BrownoutPolicy(stale_max_epochs=2))
    serve(service, CATALOG["Q14"])
    # Q14 reads UndergraduateStudent types, not telephones or courses.
    assert service.insert(new_triple(2))
    assert serve(service, CATALOG["Q14"]).cache == "hit"
    assert service.insert(Triple(URI(LUBM + "DrawnStudent0"), RDF_TYPE, UB.UndergraduateStudent))
    service.brownout.force(STALE_SERVING, "test")
    ticket = serve(service, CATALOG["Q14"])
    assert ticket.cache == "stale"
    assert ticket.report.details["stale"]["age_epochs"] == 2
    # The stale lookup and its refresh's lookup each found it retired.
    assert service.cache_stats()[TENANT]["retired_lookups"] == 2
    assert serve(service, CATALOG["Q14"]).cache == "hit"  # refreshed
