"""The seeded request mix of the serve-mixed workload and the query sets
of the other workloads.  Everything the program receives is generated
here from the seed; the same seed gives the same inputs."""

import json
import random

ZOO = ["vgg13", "resnet18", "vgg16", "alexnet", "lenet5", "stress"]
PAPER_ARRAYS = ["128x128", "128x256", "256x256", "512x256", "512x512"]
MAPPERS = ["im2col", "smd", "sdk", "vw-sdk", "vw-sdk-pruned", "exhaustive",
           "vw-sdk-bitsliced"]
OBJECTIVES = ["cycles", "energy", "edp"]

# Chip and traffic plans that are feasible for every choice below (a
# 16-array chip cannot hold the stress net; 128-row arrays need more
# arrays than a chip has).
CHIP_NETS = ["lenet5", "resnet18", "alexnet", "vgg13", "vgg16"]
TRAFFIC_NETS = ["lenet5", "resnet18", "alexnet", "vgg13"]
ARRAYS_PER_CHIP = [16, 64]

STREAM_LENGTH = 2000
STATS_EVERY = 100
# Requests of each op in every STREAM_LENGTH requests; the rest of the
# non-stats requests are maps.  Fixed counts (only their order and
# arguments are drawn) keep the cost of a pass of the stream the same
# from seed to seed.
OP_COUNTS = {"compare": 500, "chip": 140, "traffic": 100, "verify": 60}


def sweep_queries(seed):
    """Every (net, paper array, objective) compare of search-sweep, in a
    seeded order."""
    queries = [{"net": n, "array": a, "objective": o}
               for n in ZOO for a in PAPER_ARRAYS for o in OBJECTIVES]
    random.Random(seed).shuffle(queries)
    return queries


def warm_requests():
    """One map request per key of the mix's map/compare universe; every
    layer search the stream can make is cached after these."""
    return [{"op": "map", "net": n, "mapper": m, "array": a, "objective": o}
            for n in ZOO for a in PAPER_ARRAYS for m in MAPPERS
            for o in OBJECTIVES]


def _request(rng, op, k):
    """The k-th request of `op` in the stream.  The expensive ops (traffic
    and verify) cycle through their cost-setting arguments, so every
    stream holds the same mix of them; only their seeds are drawn."""
    if op == "map":
        return {"op": "map", "net": rng.choice(ZOO),
                "mapper": rng.choice(MAPPERS),
                "array": rng.choice(PAPER_ARRAYS),
                "objective": rng.choice(OBJECTIVES)}
    if op == "compare":
        chosen = set(rng.sample(MAPPERS, rng.randint(2, len(MAPPERS))))
        return {"op": "compare", "net": rng.choice(ZOO),
                "mappers": [m for m in MAPPERS if m in chosen],
                "array": rng.choice(PAPER_ARRAYS),
                "objective": rng.choice(OBJECTIVES)}
    if op == "chip":
        return {"op": "chip", "net": rng.choice(CHIP_NETS),
                "array": "512x512", "arrays": rng.choice(ARRAYS_PER_CHIP),
                "batch": rng.choice([1, 4, 16])}
    if op == "traffic":
        rates = [50, 100, 200]
        return {"op": "traffic", "net": TRAFFIC_NETS[k % len(TRAFFIC_NETS)],
                "array": "512x512",
                "arrays": ARRAYS_PER_CHIP[k // len(TRAFFIC_NETS) % 2],
                "rate": rates[k % len(rates)], "duration": 100_000_000,
                "seed": rng.randrange(1, 1 << 31)}
    return {"op": "verify", "net": "lenet5",
            "array": PAPER_ARRAYS[k % len(PAPER_ARRAYS)],
            "seed": rng.randrange(1, 1 << 31)}


def request_stream(seed):
    """The seeded stream of serve requests (without ids): mostly cached
    map/compare queries, plus chip, traffic (a 10^8-cycle simulation,
    never cached), LeNet-5 verify, and a `stats` every STATS_EVERY
    requests."""
    rng = random.Random(seed)
    ops = [op for op, count in OP_COUNTS.items() for _ in range(count)]
    ops += ["map"] * (STREAM_LENGTH - STREAM_LENGTH // STATS_EVERY - len(ops))
    rng.shuffle(ops)
    seen = {}
    stream = []
    for i in range(STREAM_LENGTH):
        if i % STATS_EVERY == STATS_EVERY - 1:
            stream.append({"op": "stats"})
            continue
        op = ops.pop()
        stream.append(_request(rng, op, seen.get(op, 0)))
        seen[op] = seen.get(op, 0) + 1
    return stream


def encode(request, request_id):
    """One NDJSON request line of wire protocol v1."""
    return json.dumps({"v": 1, "id": request_id, **request},
                      separators=(",", ":"))
