"""A TPC-H-flavoured multi-table generator.

The public TPC-H tables are far too large (and their key domains far too wide)
for the dense joint-domain representation the release algorithms need, so this
module generates *scaled-down, same-shape* data: the join topology
(region → nation → customer → orders key/foreign-key chains), the categorical
attributes (market segment, order priority), and the skew (a few customers
place most of the orders, a few nations hold most of the customers) are
preserved, while the key domains are kept small enough that the joint domain
of a two- or three-way join stays in the tens of thousands of cells.

Substitution note (E12, ``repro.experiments.e12_tpch``, runs on this data):
the paper's repro hint calls for public TPC-H data with pandas/SQL; this
generator exercises exactly the same code paths — multi-way key joins with
skewed degree distributions — in a fully offline, dependency-free way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mechanisms.rng import resolve_rng
from repro.relational.hypergraph import JoinQuery
from repro.relational.instance import Instance
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Domain, RelationSchema

#: Categorical domains lifted from the TPC-H specification.
MARKET_SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")
ORDER_PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")
REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")


@dataclass
class TPCHData:
    """Scaled-down TPC-H-style tables plus the join queries over them.

    Attributes
    ----------
    customer_orders:
        Two-table instance ``Customer(custkey, segment) ⋈ Orders(custkey, priority)``.
    nation_customer_orders:
        Three-table chain
        ``Nation(region, nationkey) ⋈ Customer(nationkey, custkey) ⋈ Orders(custkey, priority)``.
    num_customers, num_orders:
        Realised table sizes.
    """

    customer_orders: Instance
    nation_customer_orders: Instance
    num_customers: int
    num_orders: int


def _zipf_assignments(
    count: int, num_targets: int, exponent: float, rng: np.random.Generator
) -> np.ndarray:
    weights = 1.0 / np.power(np.arange(1, num_targets + 1, dtype=float), exponent)
    weights /= weights.sum()
    return rng.choice(num_targets, size=count, p=weights)


def generate_tpch(
    scale: float = 1.0,
    *,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
    order_skew: float = 1.1,
    customer_skew: float = 0.8,
) -> TPCHData:
    """Generate scaled-down TPC-H-style tables.

    ``scale = 1.0`` produces roughly 60 customers and 600 orders; the counts
    grow linearly with ``scale``.  ``order_skew`` / ``customer_skew`` control
    the Zipf exponents of orders-per-customer and customers-per-nation.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    generator = resolve_rng(rng, seed)
    num_customers = max(10, int(60 * scale))
    num_orders = max(40, int(600 * scale))
    num_nations = 25

    custkey_domain = Domain.integers(num_customers)
    nationkey_domain = Domain.integers(num_nations)
    region_domain = Domain(REGIONS)
    segment_domain = Domain(MARKET_SEGMENTS)
    priority_domain = Domain(ORDER_PRIORITIES)

    custkey = Attribute("custkey", custkey_domain)
    nationkey = Attribute("nationkey", nationkey_domain)
    region = Attribute("region", region_domain)
    segment = Attribute("segment", segment_domain)
    priority = Attribute("priority", priority_domain)

    # ------------------------------------------------------------------ #
    # base data
    # ------------------------------------------------------------------ #
    customer_nation = _zipf_assignments(num_customers, num_nations, customer_skew, generator)
    customer_segment = generator.integers(0, len(MARKET_SEGMENTS), size=num_customers)
    nation_region = generator.integers(0, len(REGIONS), size=num_nations)
    order_customer = _zipf_assignments(num_orders, num_customers, order_skew, generator)
    order_priority = generator.integers(0, len(ORDER_PRIORITIES), size=num_orders)

    # ------------------------------------------------------------------ #
    # Customer ⋈ Orders (two tables, join on custkey)
    # ------------------------------------------------------------------ #
    customer_schema = RelationSchema("Customer", (custkey, segment))
    orders_schema = RelationSchema("Orders", (custkey, priority))
    co_query = JoinQuery((custkey, segment, priority), (customer_schema, orders_schema))
    customer_freq = np.zeros(customer_schema.shape, dtype=np.int64)
    np.add.at(customer_freq, (np.arange(num_customers), customer_segment), 1)
    orders_freq = np.zeros(orders_schema.shape, dtype=np.int64)
    np.add.at(orders_freq, (order_customer, order_priority), 1)
    customer_orders = Instance(
        co_query,
        (Relation(customer_schema, customer_freq), Relation(orders_schema, orders_freq)),
    )

    # ------------------------------------------------------------------ #
    # Nation ⋈ Customer ⋈ Orders (three-table chain)
    # ------------------------------------------------------------------ #
    nation_schema = RelationSchema("Nation", (region, nationkey))
    customer2_schema = RelationSchema("Customer", (nationkey, custkey))
    orders2_schema = RelationSchema("Orders", (custkey, priority))
    nco_query = JoinQuery(
        (region, nationkey, custkey, priority),
        (nation_schema, customer2_schema, orders2_schema),
    )
    nation_freq = np.zeros(nation_schema.shape, dtype=np.int64)
    np.add.at(nation_freq, (nation_region, np.arange(num_nations)), 1)
    customer2_freq = np.zeros(customer2_schema.shape, dtype=np.int64)
    np.add.at(customer2_freq, (customer_nation, np.arange(num_customers)), 1)
    orders2_freq = np.zeros(orders2_schema.shape, dtype=np.int64)
    np.add.at(orders2_freq, (order_customer, order_priority), 1)
    nation_customer_orders = Instance(
        nco_query,
        (
            Relation(nation_schema, nation_freq),
            Relation(customer2_schema, customer2_freq),
            Relation(orders2_schema, orders2_freq),
        ),
    )

    return TPCHData(
        customer_orders=customer_orders,
        nation_customer_orders=nation_customer_orders,
        num_customers=num_customers,
        num_orders=num_orders,
    )
