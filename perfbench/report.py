"""Reduces one raw vppb_perfbench report to the benchmark's metrics.

The C++ program vppb_perfbench writes every sample it took (operation latencies, layer
timers, exact counts); this module turns them into named metrics and
decides whether the run was correct.  It has no side effects, so the
rules it encodes are unit-tested in perfbench/tests.
"""

import bisect
import math
import statistics

# Traced runs: the per-layer times of an operation's blocking steps must
# add up to the operation's measured wall time within this share.
STAGE_SUM_TOLERANCE = 0.10

# Samples required beyond a reported percentile (choosing-metrics §1).
SAMPLES_BEYOND = 10

# A shared virtual host slows the benchmark in two ways, each in phases of
# seconds to minutes, and the end-to-end times undo both.  vppb_perfbench
# times two fixed kernels that share no code with VPPB between operations
# (see HostProbe in measure.cpp); each time is scaled by the speed factor
# of the NEIGHBOURS probes nearest to it, medians taken.
#
# CPU phases: all work, arithmetic included, runs up to twice as slow.
# Operations slow by the same factor as the CPU probe, so times are
# scaled by NOMINAL_US over the CPU probe time: they are reported at the
# speed at which the CPU probe takes NOMINAL_US, about a quiet host's.
NOMINAL_US = 200.0
NEIGHBOURS = 15
#
# Memory phases: arithmetic keeps its speed while memory-bound work slows
# by up to 1.8x.  The memory probe (map, touch and unmap 1 MB), taken at
# the nominal CPU speed, slows by less, and the operations of both deck
# workloads slowed by about its MEM_POWER-th power (1.4 to 2.5, fitted
# per run and per operation on a 4-vCPU virtual host; deck time and probe
# time correlate at 0.8 to 0.98).  Times are scaled by that power of
# MEM_NOMINAL_US, its quiet time, over the memory probe time.  The service workload, whose
# threads would slow the memory probe, and the set-ups, between which
# memory probes would run back to back, take only the CPU probe.
MEM_NOMINAL_US = 500.0
MEM_POWER = 2.0
#
# Quiet share.  What the probes miss still comes in phases.  Where every
# window holds the same operations (one shuffled deck), the figures come
# from the faster QUIET_SHARE of the windows, and set-up time from the
# faster QUIET_SHARE of the set-ups.
QUIET_SHARE = 0.5


def min_samples(q):
    """Smallest sample count with SAMPLES_BEYOND samples above quantile q."""
    return math.ceil(SAMPLES_BEYOND / (1.0 - q) - 1e-9)


def percentile(samples, q):
    """The q-quantile of samples, linearly interpolated between ranks.

    Raises ValueError when fewer than SAMPLES_BEYOND samples lie beyond
    it, so a tail percentile is never reported from too few samples.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    if q > 0.5 and n < min_samples(q):
        raise ValueError(
            f"p{q * 100:g} needs {min_samples(q)} samples, got {n}")
    ordered = sorted(samples)
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def error_rate(attempted, failed):
    """Failed over attempted operations; refused or wrong answers count."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return failed / attempted


def speed_factor(cpu_us, mem_us=None):
    """What a time taken beside these probe times is scaled by.

    `mem_us` is the memory probe time already at the nominal CPU speed;
    None where the memory probe was not taken.
    """
    f = NOMINAL_US / cpu_us
    if mem_us is not None:
        f *= (MEM_NOMINAL_US / mem_us) ** MEM_POWER
    return f


def host_factors(raw, times):
    """The speed factor at each of `times`, seconds into the measured phase.

    Each comes from the NEIGHBOURS probes taken nearest to that moment,
    the median CPU probe time and the median memory probe time at the
    nominal CPU speed.  Without probes every factor is 1.
    """
    ts, us = raw.get("host_t_s") or [], raw.get("host_us") or []
    mem = raw.get("host_mem_us") or []
    if not us:
        return [1.0] * len(times)
    k = min(NEIGHBOURS, len(us))
    out = []
    for t in times:
        lo = min(max(0, bisect.bisect_left(ts, t) - k // 2), len(us) - k)
        near = range(lo, lo + k)
        m = (statistics.median(mem[i] * NOMINAL_US / us[i] for i in near)
             if mem else None)
        out.append(speed_factor(statistics.median(us[i] for i in near), m))
    return out


def corrected_op_ms(raw):
    """Each operation's latency at the nominal host speed."""
    ops = raw["op_ms"]
    mids = [end - op / 2000.0 for op, end in zip(ops, raw["op_end_s"])]
    return [op * f for op, f in zip(ops, host_factors(raw, mids))]


def quiet(items, key=None):
    """The faster QUIET_SHARE of items (at least one), fastest first."""
    ordered = sorted(items, key=key)
    return ordered[:max(1, math.ceil(len(ordered) * QUIET_SHARE))]


def setup_s(raw):
    """Median of the quiet set-ups, at the nominal CPU speed."""
    us = raw.get("setup_host_us") or [NOMINAL_US] * len(raw["setup_s"])
    return statistics.median(
        quiet(s * speed_factor(u) for s, u in zip(raw["setup_s"], us)))


def quiet_decks(raw):
    """The quiet decks of a deck workload, as lists of corrected latencies.

    One thread runs the operations, so they complete in the order op_ms
    lists them, window_ops (one deck) at a time; a deck is as slow as
    the sum of its latencies.  Empty when no deck completed.
    """
    ops, d = corrected_op_ms(raw), raw["window_ops"]
    return quiet((ops[i:i + d] for i in range(0, len(ops) - d + 1, d)),
                 key=sum)


def latencies(raw):
    """The corrected latencies the percentiles are taken over."""
    if raw.get("decks"):
        return [op for deck in quiet_decks(raw) for op in deck]
    return corrected_op_ms(raw)


def throughput(raw):
    """ops_per_s: the median rate of the quiet decks, or of all windows."""
    if not raw.get("decks"):
        return ops_per_s(raw)
    decks = quiet_decks(raw)
    if not decks:
        raise ValueError(f"fewer than {raw['window_ops']} operations, no deck")
    return statistics.median(len(d) * 1000.0 / sum(d) for d in decks)


def ops_per_s(raw, corrected=True):
    """Median throughput over consecutive windows of the measured phase.

    Operations are taken in completion order, window_ops at a time (one
    deck, or 100 requests); each window's rate is its operation count
    over the time since the previous window ended, at the nominal host
    speed unless `corrected` is false.  The median keeps a burst of load
    from other processes on the host out of the figure.
    """
    ends = sorted(raw["op_end_s"])
    step = raw["window_ops"]
    spans, prev = [], 0.0
    for last in range(step - 1, len(ends), step):
        spans.append((prev, ends[last]))
        prev = ends[last]
    if not spans:
        raise ValueError(f"fewer than {step} operations, no window")
    factors = (host_factors(raw, [(a + b) / 2 for a, b in spans])
               if corrected else [1.0] * len(spans))
    return statistics.median(
        step / ((b - a) * f) for (a, b), f in zip(spans, factors))


def stage_sum_ratio(raw):
    """Median over traced operations of summed stage times / op time."""
    ratios = raw["samples"].get("bench.stage_sum_ratio")
    return statistics.median(ratios) if ratios else 0.0


def end_to_end(raw):
    """Every end-to-end metric the run can support, by name.

    op_ms_p99 appears only with 1,000 operations (whatif-service), and
    sim_steps_per_s only where simulate calls are timed in-process.
    Times are at the nominal host speed and from the quiet share of the
    run; the *_wall figures beside them are plain wall-clock figures of
    the whole run, and host_probe_us the median probe time.
    """
    ops = latencies(raw)
    wall = raw["op_ms"]
    m = {
        "setup_s": setup_s(raw),
        "setup_s_wall": statistics.median(raw["setup_s"]),
        "ops_per_s": throughput(raw),
        "ops_per_s_wall": ops_per_s(raw, corrected=False),
        "op_ms_p50": percentile(ops, 0.50),
        "op_ms_p90": percentile(ops, 0.90),
        "op_ms_p50_wall": percentile(wall, 0.50),
        "op_ms_p90_wall": percentile(wall, 0.90),
        "op_count": len(ops),
        "error_rate": error_rate(raw["attempted"], raw["failed"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "pred_error_pct": raw["pred_error_pct"],
    }
    if raw.get("host_us"):
        m["host_probe_us"] = statistics.median(raw["host_us"])
    if raw.get("host_mem_us"):
        m["host_mem_probe_us"] = statistics.median(raw["host_mem_us"])
    if len(ops) >= min_samples(0.99):
        m["op_ms_p99"] = percentile(ops, 0.99)
    if raw["sim_s"] > 0 and raw["sim_steps"] > 0:
        m["sim_steps_per_s"] = raw["sim_steps"] / raw["sim_s"]
    for name, v in raw["samples"].items():
        if name.startswith("op_ms.") and v:
            m[name + "_p50"] = statistics.median(v)
    return m


def per_layer(raw):
    """Per-layer metrics of a traced run, by name.

    Timer samples reduce to their median; counts pass through.  A layer
    the workload's operation never enters is absent here and reported as
    0 by result(): no time is spent in it.  Layer times are wall times;
    bench.host_probe_us says how fast the host ran meanwhile.
    """
    m = {name: statistics.median(v) for name, v in raw["samples"].items() if v}
    m.update(raw["counts"])
    if raw.get("host_us"):
        m["bench.host_probe_us"] = statistics.median(raw["host_us"])
    if raw.get("host_mem_us"):
        m["bench.host_mem_probe_us"] = statistics.median(raw["host_mem_us"])
    c1_small = m.get("core.engine.ns_per_step.tuned61.c1")
    c1_large = m.get("core.engine.ns_per_step.tuned736.c1")
    if c1_small and c1_large:
        m["core.engine.slope"] = c1_large / c1_small
    m["bench.ops_per_s"] = throughput(raw)
    return m


def problems(raw, traced):
    """Reasons the run is not correct; empty when it is."""
    out = [f"failed operation: {f}" for f in raw["failures"]]
    if raw["failed"] and not raw["failures"]:
        out.append(f"{raw['failed']} failed operations")
    if raw["attempted"] < 1:
        out.append("no operations attempted")
    n = len(latencies(raw))
    if n < min_samples(0.90):
        out.append(f"only {n} operations measured, p90 needs "
                   f"{min_samples(0.90)}")
    if traced:
        ratio = stage_sum_ratio(raw)
        if abs(ratio - 1.0) > STAGE_SUM_TOLERANCE:
            out.append(f"stage sum is {ratio:.3f} of the measured operation "
                       f"time (tolerance {STAGE_SUM_TOLERANCE:.0%})")
    return out


def result(raw, spec, traced):
    """The benchmark's result object for one run of one workload.

    `spec` is the parsed BENCHMARK.json; the metrics are exactly its
    end_to_end list (untraced) or per_layer list (traced).
    """
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    values = per_layer(raw) if traced else end_to_end(raw)
    metrics = {}
    for d in declared:
        if not traced and d["name"] not in values:
            raise KeyError(f"end-to-end metric {d['name']} was not measured")
        metrics[d["name"]] = {"value": float(values.get(d["name"], 0.0)),
                              "unit": d["unit"]}
    return {
        "correct": not problems(raw, traced),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }
