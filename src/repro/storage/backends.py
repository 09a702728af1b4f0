"""Backend profiles: the stand-ins for the paper's three RDBMSs.

The demo answers queries "through three well-established RDBMSs"
(Section 5).  The phenomena it showcases are engine-independent —
reformulation size blow-ups, intermediate-result sizes, cover-dependent
runtimes — but engines differ in join algorithms, in the constant
factors of their cost models, and in how large a query they accept
(the 318,096-CQ UCQ "could not even be parsed").  A
:class:`BackendProfile` captures exactly those degrees of freedom, so
experiment E4 can run every strategy on three distinct (simulated)
platforms.
"""

from __future__ import annotations


class QueryTooLargeError(RuntimeError):
    """The backend refuses to parse/plan a query this large.

    Reproduces the paper's parse failure on huge UCQ reformulations.
    """

    def __init__(self, atom_count: int, limit: int, backend: str):
        super().__init__(
            "backend %r cannot parse a query with %d atoms (limit %d)"
            % (backend, atom_count, limit)
        )
        self.atom_count = atom_count
        self.limit = limit
        self.backend = backend


class BackendProfile:
    """One simulated RDBMS: join preference, cost constants, limits.

    ``join_algorithm``    — 'hash', 'merge' or 'nested_loop': how the
                          cost model prices a join (a cost constant;
                          the executing engine picks its own);
    ``max_query_atoms``   — parser/planner limit on total atom count;
    ``io_cost``           — cost units per tuple read from a base index;
    ``cpu_cost``          — cost units per tuple processed by an operator;
    ``hash_build_cost``   — extra per-tuple cost of building a hash table;
    ``sort_cost_factor``  — multiplier on n·log₂(n) for sorting (merge join);
    ``dedup_cost``        — per-tuple cost of duplicate elimination;
    ``exact_constant_stats`` — estimate bound-constant scans from exact
                          per-value frequencies (MCV-style) instead of
                          the textbook uniformity assumption.  Default
                          False: the paper computes costs "based on
                          database textbook formulas", and ablation A1
                          shows the sharper micro-estimates can strand
                          the greedy search in a local optimum.
    """

    __slots__ = (
        "name",
        "join_algorithm",
        "max_query_atoms",
        "io_cost",
        "cpu_cost",
        "hash_build_cost",
        "sort_cost_factor",
        "dedup_cost",
        "exact_constant_stats",
    )

    def __init__(
        self,
        name: str,
        join_algorithm: str = "hash",
        max_query_atoms: int = 100_000,
        io_cost: float = 1.0,
        cpu_cost: float = 0.1,
        hash_build_cost: float = 0.2,
        sort_cost_factor: float = 0.05,
        dedup_cost: float = 0.15,
        exact_constant_stats: bool = False,
    ):
        if join_algorithm not in ("hash", "merge", "nested_loop"):
            raise ValueError("unknown join algorithm %r" % join_algorithm)
        self.name = name
        self.join_algorithm = join_algorithm
        self.max_query_atoms = max_query_atoms
        self.io_cost = io_cost
        self.cpu_cost = cpu_cost
        self.hash_build_cost = hash_build_cost
        self.sort_cost_factor = sort_cost_factor
        self.dedup_cost = dedup_cost
        self.exact_constant_stats = exact_constant_stats

    def check_parse_limit(self, atom_count: int) -> None:
        if atom_count > self.max_query_atoms:
            raise QueryTooLargeError(atom_count, self.max_query_atoms, self.name)

    def __repr__(self) -> str:
        return "BackendProfile(%r, join=%s)" % (self.name, self.join_algorithm)


#: Hash-join engine with a generous optimizer — the PostgreSQL-class
#: profile the paper's numbers were measured on.
HASH_BACKEND = BackendProfile("hashdb", join_algorithm="hash")

#: Sort/merge-join engine: pays n·log n per input but joins cheaply.
MERGE_BACKEND = BackendProfile(
    "sortdb",
    join_algorithm="merge",
    io_cost=0.9,
    cpu_cost=0.12,
    sort_cost_factor=0.06,
    max_query_atoms=60_000,
)

#: Index-nested-loop engine with a stricter parser: the profile on
#: which large unions fail earliest.
LOOP_BACKEND = BackendProfile(
    "loopdb",
    join_algorithm="nested_loop",
    io_cost=1.2,
    cpu_cost=0.08,
    max_query_atoms=20_000,
)

DEFAULT_BACKENDS = (HASH_BACKEND, MERGE_BACKEND, LOOP_BACKEND)
