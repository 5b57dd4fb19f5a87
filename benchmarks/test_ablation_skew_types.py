"""Ablations: hash-imperfection skew, temporal skew, EWH vs M-Bucket.

Three section-5 phenomena that motivate Squall's scheme choices:

1. *Skew due to hash imperfections*: with d distinct keys close to the
   parallelism p, hashing very likely gives some machine an extra key
   (1.5x max load for d=15, p=8); the round-robin key mapping is optimal.
2. *Temporal skew*: under sorted arrival, content-sensitive schemes keep
   one machine active at a time; content-insensitive ones do not.
3. *Join product skew*: M-Bucket balances input, so an output hotspot
   lands on few machines; EWH balances estimated output.
"""

import random
from collections import Counter


from benchmarks.conftest import record_table
from benchmarks.harness import fmt

from repro.core.predicates import BandCondition
from repro.partitioning.ewh import EWHScheme
from repro.partitioning.two_way import MBucket, OneBucket
from repro.storm.groupings import FieldsGrouping, KeyMappedGrouping
from repro.util import round_robin_assignment


def test_hash_imperfections_small_domains(benchmark):
    """TPC-H Q4/Q12/Q5-style aggregations have 5-25 distinct keys."""
    def run():
        rows = []
        outcomes = {}
        for d, p in ((5, 4), (7, 4), (15, 8), (25, 8)):
            keys = [f"key{i}" for i in range(d)]

            def keys_per_task(grouping):
                return Counter({task: len(rows) for task, rows in
                                grouping.targets_batch(
                                    "s", [(key,) for key in keys], p)})

            hashed = keys_per_task(FieldsGrouping([0]))
            mapped = keys_per_task(
                KeyMappedGrouping(0, round_robin_assignment(keys, p)))
            optimal = -(-d // p)
            outcomes[(d, p)] = (max(hashed.values()), max(mapped.values()), optimal)
            rows.append([f"d={d}, p={p}", str(max(hashed.values())),
                         str(max(mapped.values())), str(optimal),
                         str(p - len(hashed))])
        return rows, outcomes

    rows, outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    record_table(
        "ablation_hash_imperfections",
        "Ablation: small-domain aggregation keys (section 5)",
        ["domain/parallelism", "hash max keys/machine",
         "round-robin max", "optimal", "idle machines under hash"],
        rows,
        notes="Round-robin key mapping is always optimal; hashing strands "
              "keys and can leave machines idle.",
    )
    for (d, p), (hashed_max, mapped_max, optimal) in outcomes.items():
        assert mapped_max == optimal, "key mapping must be optimal"
        assert hashed_max >= mapped_max


def test_temporal_skew_sorted_arrival(benchmark):
    """Sorted tuple arrival: only content-insensitive schemes stay busy."""
    machines = 8
    burst = 25  # one key's arrival run: the instant the paper reasons about
    stream = [key for key in range(32) for _ in range(burst)]  # sorted keys

    def active_machines_per_burst(targets_of):
        actives = []
        window = []
        for value in stream:
            window.extend(targets_of(value))
            if len(window) >= burst:
                actives.append(len(set(window)))
                window = []
        return actives

    def run():
        grouping = FieldsGrouping([0])
        hash_active = active_machines_per_burst(
            lambda v: [task for task, _rows in
                       grouping.targets_batch("s", [(v,)], machines)]
        )
        bucket = OneBucket("R", "S", machines, seed=9)
        copies = Counter()  # occurrence numbers, as the emitting task counts

        def copy_of(v):
            copies[v] += 1
            return copies[v] - 1

        random_active = active_machines_per_burst(
            lambda v: bucket.destinations("R", (v,), copy_of(v))
        )
        return hash_active, random_active

    hash_active, random_active = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ["hash (content-sensitive)", f"{min(hash_active)}-{max(hash_active)}",
         f"{sum(hash_active) / len(hash_active):.1f}"],
        ["1-Bucket (content-insensitive)",
         f"{min(random_active)}-{max(random_active)}",
         f"{sum(random_active) / len(random_active):.1f}"],
    ]
    record_table(
        "ablation_temporal_skew",
        f"Ablation: temporal skew under sorted arrival ({machines} machines)",
        ["scheme", "active machines per burst (min-max)", "average"],
        rows,
        notes="Sorted arrival + hash partitioning is equivalent to "
              "sequential execution: one machine active at a time.",
    )
    assert max(hash_active) <= 2, "hash must devolve to ~sequential"
    assert min(random_active) >= machines / 2, "random must stay parallel"


def test_ewh_vs_mbucket_product_skew(benchmark):
    """Band join whose output concentrates at one value region."""
    def run():
        rng = random.Random(23)
        left = [rng.randrange(1000) for _ in range(800)]
        right = [500 + rng.randrange(3) for _ in range(800)]  # output hotspot
        cond = BandCondition(("R", "k"), ("S", "k"), width=3.0)
        ewh = EWHScheme("R", 0, "S", 0, 8, left, right, cond)
        mbucket = MBucket("R", 0, "S", 0, 8, left, cond)
        onebucket = OneBucket("R", "S", 8, len(left), len(right), seed=2)

        def output_load_profile(scheme, rel_left="R", rel_right="S"):
            loads = Counter()
            replication = 0
            # occurrence numbers, as the emitting tasks count them
            left_copies, right_copies = Counter(), Counter()
            for l_val in left:
                l_dest = set(scheme.destinations(rel_left, (l_val,),
                                                 left_copies[l_val]))
                left_copies[l_val] += 1
                replication += len(l_dest)
                for r_val in (499, 500, 501, 502, 503):
                    if cond.evaluate(l_val, r_val):
                        r_dest = scheme.destinations(
                            rel_right, (r_val,), right_copies[r_val])
                        right_copies[r_val] += 1
                        for m in l_dest & set(r_dest):
                            loads[m] += 1
            return loads, replication / len(left)

        out = {}
        for name, scheme in (("M-Bucket", mbucket), ("EWH", ewh),
                             ("1-Bucket", onebucket)):
            loads, repl = output_load_profile(scheme)
            busy = len(loads)
            worst = max(loads.values()) if loads else 0
            out[name] = (busy, worst, repl)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [name, str(busy), fmt(worst), f"{repl:.2f}"]
        for name, (busy, worst, repl) in out.items()
    ]
    record_table(
        "ablation_ewh",
        "Ablation: join product skew -- output balance of range schemes",
        ["scheme", "machines producing output", "max output/machine",
         "left replication"],
        rows,
        notes="M-Bucket balances input only, so the output hotspot lands on "
              "few machines; EWH balances estimated output at a small "
              "replication cost; 1-Bucket balances everything but "
              "replicates the most.",
    )
    assert out["EWH"][0] > out["M-Bucket"][0], \
        "EWH must spread the output hotspot over more machines"
    assert out["EWH"][2] < 8.0, "EWH must not degenerate to broadcast"
    assert out["1-Bucket"][2] >= out["EWH"][2] - 1e-9, \
        "1-Bucket replicates at least as much as EWH here"
