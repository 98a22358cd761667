"""Per-layer metrics from the spans of one traced pass (see traced.py).

Busy time is a span's duration; for the prime_chunks generator it is the
time spent inside the generator only.  Self time is busy time minus the
part of it that the span's direct children cover.  With --workers 2 the
spans of two threads overlap in wall time, so busy times add up to more
than the pass took.
"""

from __future__ import annotations

from collections import defaultdict

CALLS = ("sieve.sieve_range", "dihedral.pi_D_dihedral",
         "dihedral.min_split_prime", "cyclotomic.build_D",
         "cyclotomic.pi_D_cyclotomic", "analytic.li")
SELF = ("dihedral.pi_D_dihedral", "dihedral.min_split_prime",
        "cyclotomic.build_D", "cyclotomic.pi_D_cyclotomic")
DIHEDRAL_COUNTERS = ("dihedral.pi_D_dihedral", "dihedral.min_split_prime")


def _intervals(span: dict) -> list:
    return [tuple(p) for p in span["parts"]] if "parts" in span \
        else [(span["start"], span["end"])]


def _busy(span: dict) -> float:
    return sum(end - start for start, end in _intervals(span))


def _merged(intervals):
    """Disjoint, sorted intervals covering the same points as the input."""
    cur = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur is not None and start <= cur[1]:
            cur[1] = max(cur[1], end)
            continue
        if cur is not None:
            yield tuple(cur)
        cur = [start, end]
    if cur is not None:
        yield tuple(cur)


def _union(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    return sum(end - start for start, end in
               _merged((max(s, lo), min(e, hi)) for s, e in intervals))


def _self_time(span: dict, covers) -> float:
    spans_cover = [iv for c in covers for iv in _intervals(c)]
    return _busy(span) - _union(spans_cover, span["start"], span["end"])


def _odds(lo: int, hi: int) -> int:
    return hi // 2 - lo // 2


def _distinct_odds(ranges) -> int:
    """Odd integers covered by the union of [lo, hi) ranges."""
    return sum(_odds(lo, hi) for lo, hi in _merged(ranges))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(invocations: list[dict]) -> dict[str, float]:
    """Sum per-layer work and time over traced invocations.

    Each invocation is {"spans": [...], "cache": None or {"files": k,
    "bytes": b}}, where files and bytes are what the invocation added to
    CHEB_CACHE_DIR.  Without a cache every sieve_range call is a miss.
    """
    m: dict[str, float] = defaultdict(float)
    sample_cpu: dict[int, float] = defaultdict(float)
    odds_distinct = 0
    item_busy = map_capacity = 0.0
    for inv in invocations:
        spans = inv["spans"]
        by_id = {s["id"]: s for s in spans}
        children = defaultdict(list)
        for s in spans:
            children[s["parent"]].append(s)
        ranges = []
        for s in spans:
            name = s["name"]
            m[f"{name}.busy_s"] += _busy(s)
            if name in CALLS:
                m[f"{name}.calls"] += 1
            if name in SELF:
                m[f"{name}.self_s"] += _self_time(s, children[s["id"]])
            if name == "sieve.sieve_range":
                ranges.append((s["lo"], s["hi"]))
                m["sieve.odds_sieved"] += _odds(s["lo"], s["hi"])
            elif name == "sieve.prime_chunks":
                parent = by_id.get(s["parent"], {}).get("name")
                if parent in DIHEDRAL_COUNTERS:
                    m["dihedral.split_tests"] += s.get("tested", sum(s["sizes"]))
            elif name == "cli.dihedral_sample":
                sample_cpu[s["r"]] += s["cpu"]
            elif name == "cli._map_ordered":
                map_capacity += s["workers"] * _busy(s)
            elif name == "cli.map_item":
                item_busy += _busy(s)
            elif name == "cli.main":
                layer_work = [iv for c in spans if not c["name"].startswith("cli.")
                              for iv in _intervals(c)]
                m["cli.self_s"] += _busy(s) - _union(layer_work, s["start"], s["end"])
        odds_distinct += _distinct_odds(ranges)
        calls = len(ranges)
        cache = inv["cache"]
        misses = calls if cache is None else cache["files"]
        m["sieve.cache_misses"] += misses
        m["sieve.cache_hits"] += calls - misses
        m["sieve.cache_bytes_written"] += 0 if cache is None else cache["bytes"]

    m["sieve.unpack_s"] = m["sieve.prime_chunks.busy_s"] - m["sieve.sieve_range.busy_s"]
    m["sieve.odds_per_s"] = _ratio(m["sieve.odds_sieved"], m["sieve.sieve_range.busy_s"])
    m["sieve.useful_ratio"] = _ratio(odds_distinct, m["sieve.odds_sieved"])
    m["dihedral.split_tests_per_s"] = _ratio(
        m["dihedral.split_tests"],
        sum(m[f"{name}.self_s"] for name in DIHEDRAL_COUNTERS))
    # thread CPU, not wall: with --workers 2 the r = 11 and r = 12 samples run
    # at the same time and share the interpreter lock
    m["dihedral.growth_per_r"] = _ratio(sample_cpu.get(12, 0.0), sample_cpu.get(11, 0.0))
    m["cli.worker_busy_ratio"] = _ratio(item_busy, map_capacity)
    return dict(m)
