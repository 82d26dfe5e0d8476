"""Render the ``repro top`` dashboard from server STATS snapshots.

Pure formatting: :func:`render_dashboard` maps one (optionally two
consecutive) ``stats_snapshot()`` dicts to the text frame the ``repro top``
loop prints.  Keeping it snapshot-in/string-out makes the dashboard testable
without sockets and reusable against recorded STATS dumps.

With a previous snapshot and the poll interval, per-shard request rates are
derived from counter deltas; without one, the frame shows lifetime totals
only.  Layout: a cluster header, a per-shard table (hit rate, p50/p99,
latency samples, evictions, request rate) and a hit-rate bar chart per shard
(:func:`repro.metrics.textplot.bar_chart`).
"""

from __future__ import annotations

from ..metrics.textplot import bar_chart, sparkline

#: ANSI sequence that clears the screen and homes the cursor
CLEAR_SCREEN = "\x1b[2J\x1b[H"


def _rate(new: dict, old: dict | None, key: str, interval) -> float:
    if old is None or not interval:
        return 0.0
    return max(0.0, (new.get(key, 0) - old.get(key, 0)) / interval)


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0 or unit == "GiB":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024.0
    return f"{n:.1f}GiB"


def _fmt_uptime(seconds: float) -> str:
    seconds = int(max(0, seconds))
    h, rem = divmod(seconds, 3600)
    m, s = divmod(rem, 60)
    return f"{h}:{m:02d}:{s:02d}"


def render_dashboard(
    snapshot: dict,
    prev: dict | None = None,
    interval: float | None = None,
    width: int = 36,
    spark: dict | None = None,
) -> str:
    """One dashboard frame for a ``stats_snapshot()`` dict.

    ``prev``/``interval`` (the snapshot one poll earlier and the seconds
    between polls) turn monotonic counters into rates; both default to off.
    ``spark`` maps series label -> recent values (the ``repro top`` loop
    feeds windowed hit rate and req/s from its local
    :class:`~repro.obs.timeseries.TimeSeriesStore`); each renders as a
    sparkline row, newest value printed alongside.
    """
    shards = snapshot.get("shards", [])
    total = snapshot.get("total", {})
    prev_shards = prev.get("shards", []) if prev else []
    prev_total = prev.get("total") if prev else None

    total_rps = _rate(total, prev_total, "gets", interval) + _rate(
        total, prev_total, "reuse_admissions", interval
    )
    lines = [
        "repro top — reuse-cache service"
        + (f"  (refresh {interval:g}s)" if interval else ""),
        (
            f"shards {snapshot.get('num_shards', len(shards))}"
            f" · admission {snapshot.get('admission', '?')}"
            f" · entries {snapshot.get('stored_entries', 0)}"
            f"/{snapshot.get('data_capacity', 0)}"
            f" · bytes {_fmt_bytes(total.get('bytes_stored', 0))}"
            f" · gets {total.get('gets', 0)}"
            + (f" · ~{total_rps:.0f} req/s" if prev_total else "")
        ),
        "",
        f"{'shard':>5} {'gets':>9} {'hit rate':>9} {'p50 ms':>8} {'p99 ms':>8} "
        f"{'busy s':>7} {'samples':>8} {'tagged':>8} {'evict':>7} {'req/s':>8}",
    ]
    for i, shard in enumerate(shards):
        old = prev_shards[i] if i < len(prev_shards) else None
        rps = _rate(shard, old, "gets", interval)
        lines.append(
            f"{i:>5} {shard.get('gets', 0):>9} {shard.get('hit_rate', 0.0):>9.4f} "
            f"{shard.get('p50_s', 0.0) * 1e3:>8.3f} "
            f"{shard.get('p99_s', 0.0) * 1e3:>8.3f} "
            f"{shard.get('busy_s', 0.0):>7.2f} "
            f"{shard.get('latency_samples', 0):>8} "
            f"{shard.get('tag_only_sets', 0):>8} "
            f"{shard.get('data_evictions', 0) + shard.get('tag_evictions', 0):>7} "
            f"{rps:>8.0f}"
        )
    if total:
        lines.append(
            f"{'all':>5} {total.get('gets', 0):>9} {total.get('hit_rate', 0.0):>9.4f} "
            f"{total.get('p50_s', 0.0) * 1e3:>8.3f} "
            f"{total.get('p99_s', 0.0) * 1e3:>8.3f} "
            f"{total.get('busy_s', 0.0):>7.2f} "
            f"{total.get('latency_samples', 0):>8} "
            f"{total.get('tag_only_sets', 0):>8} "
            f"{total.get('data_evictions', 0) + total.get('tag_evictions', 0):>7} "
            f"{total_rps:>8.0f}"
        )
    if shards:
        lines.append("")
        lines.append(
            bar_chart(
                [
                    (f"shard {i}", shard.get("hit_rate", 0.0))
                    for i, shard in enumerate(shards)
                ],
                width=width,
                fmt="{:.4f}",
                title="hit rate by shard",
            )
        )
    server = snapshot.get("server")
    if server is not None:
        total_conns = (server.get("connections_v1", 0)
                       + server.get("connections_v2", 0))
        lines.append("")
        lines.append(
            f"uptime {_fmt_uptime(server.get('uptime_s', 0.0))} · "
            f"conns {total_conns} "
            f"(non-v2 {server.get('connections_v1', 0)} / "
            f"v2 {server.get('connections_v2', 0)}, "
            f"open {server.get('connections_open', 0)})"
            + (" · DRAINING" if server.get("draining") else "")
        )
    if spark:
        lines.append("")
        label_w = max(len(label) for label in spark)
        for label in sorted(spark):
            values = list(spark[label])
            if not values:
                continue
            lines.append(
                f"{label:>{label_w}} {sparkline(values, width=width):<{width}}"
                f" {values[-1]:.4g}"
            )
    process = snapshot.get("process")
    if process is not None:
        lines.append("")
        lines.append(
            f"process {process.get('pid', '?')} · "
            f"cpu {process.get('cpu_s', 0.0):.1f}s · "
            f"peak rss {_fmt_bytes(process.get('peak_rss_kb', 0) * 1024)}"
        )
    obs = snapshot.get("obs")
    # an empty-but-present obs block still renders (zeros), so a freshly
    # started server shows the panel instead of a blank frame
    if obs is not None:
        lag = _gauge_value(obs, "repro_service_eventloop_lag_seconds")
        conns = _gauge_value(obs, "repro_service_connections")
        inflight = _gauge_value(obs, "repro_service_inflight")
        count, mean_s, p99_s = _histogram_summary(
            obs, "repro_service_request_latency_seconds"
        )
        lines.append("")
        lines.append(
            f"connections {conns:g} · inflight {inflight:g} · "
            f"event-loop lag {lag * 1e3:.2f} ms"
        )
        lines.append(
            f"requests {count} · mean {mean_s * 1e3:.3f} ms · "
            f"~p99 {p99_s * 1e3:.3f} ms"
        )
    return "\n".join(lines)


def render_cluster_dashboard(
    summary: dict,
    stats: dict | None = None,
    interval: float | None = None,
    burn: dict | None = None,
) -> str:
    """One ``repro top --cluster`` frame from a ``cstatus_summary()`` dict.

    Pure like :func:`render_dashboard`: summary in, text out.  ``summary``
    node blocks may additionally carry a ``stale_polls`` count (added by
    the poll loop when it re-uses the last good CSTATUS of a node that
    stopped answering) — such nodes render with their stale data flagged
    rather than vanishing from the table.  ``stats`` is an optional
    ``ClusterClient.stats()`` aggregate for the hit-rate line; ``burn``
    maps SLO name -> current burn rate.
    """
    nodes = summary.get("nodes", {})
    totals = summary.get("totals", {})
    unreachable = summary.get("unreachable", [])
    draining = summary.get("draining", [])
    reachable = len(nodes) - len(unreachable)
    lines = [
        "repro top — cache cluster"
        + (f"  (refresh {interval:g}s)" if interval else ""),
        (
            f"nodes {len(nodes)} ({reachable} reachable"
            + (f", {len(draining)} draining" if draining else "")
            + ")"
            f" · stored {totals.get('stored', 0)}"
            f"/{totals.get('data_capacity', 0)}"
            f" · replicas held {totals.get('replicas_held', 0)}"
        ),
        (
            f"pending-INVAL debt {totals.get('pending_invals', 0)}"
            f" · stale pushes fenced {totals.get('stale_rejects', 0)}"
            f" · protocol races {totals.get('protocol_races', 0)}"
        ),
    ]
    if stats is not None:
        total = stats.get("total", {})
        lines.append(
            f"cluster hit rate {total.get('hit_rate', 0.0):.4f}"
            f" · hits {total.get('hits', 0)}"
            f" · misses {total.get('misses', 0)}"
        )
    if burn:
        lines.append(
            "slo burn  "
            + "  ·  ".join(
                f"{name} {rate:.2f}x" for name, rate in sorted(burn.items())
            )
        )
    lines.append("")
    lines.append(
        f"{'node':>8} {'state':>9} {'stored':>12} {'repl':>6} {'pendI':>6} "
        f"{'stale':>6} {'races':>6} {'loop ms':>8} {'non-v2/v2':>11} "
        f"{'up':>8}"
    )
    for name in sorted(nodes):
        block = nodes[name]
        if block.get("unreachable") and "stored" not in block:
            # down before we ever got a CSTATUS: nothing cached to show
            lines.append(f"{name:>8} {'DOWN':>9} {'-':>12} {'-':>6} {'-':>6} "
                         f"{'-':>6} {'-':>6} {'-':>8} {'-':>11} {'-':>8}")
            continue
        if block.get("unreachable"):
            state = f"DOWN*{block.get('stale_polls', 0)}"
        elif block.get("draining"):
            state = "draining"
        else:
            state = "ok"
        stored = f"{block.get('stored', 0)}/{block.get('data_capacity', 0)}"
        wire = (f"{block.get('connections_v1', 0)}"
                f"/{block.get('connections_v2', 0)}")
        lines.append(
            f"{name:>8} {state:>9} {stored:>12} "
            f"{block.get('replicas_held', 0):>6} "
            f"{block.get('pending_invals', 0):>6} "
            f"{block.get('stale_rejects', 0):>6} "
            f"{block.get('protocol_races', 0):>6} "
            f"{block.get('eventloop_lag_s', 0.0) * 1e3:>8.2f} "
            f"{wire:>11} "
            f"{_fmt_uptime(block.get('uptime_s', 0.0)):>8}"
        )
    if unreachable:
        lines.append("")
        lines.append(
            "* DOWN rows show the last CSTATUS each node answered; the "
            "suffix counts polls since"
        )
    return "\n".join(lines)


def _gauge_value(obs_snapshot: dict, name: str) -> float:
    family = obs_snapshot.get(name)
    if not family or not family.get("series"):
        return 0.0
    return float(family["series"][0].get("value", 0.0))


def _histogram_summary(obs_snapshot: dict, name: str) -> tuple:
    """(count, mean seconds, ~p99 seconds) summed over a family's series.

    Zeros when the family is absent or has no samples yet — the dashboard
    shows an idle server as zeros, never as a missing panel.
    """
    family = obs_snapshot.get(name)
    if not family or not family.get("series"):
        return 0, 0.0, 0.0
    count = 0
    total_s = 0.0
    merged: dict = {}
    for series in family["series"]:
        count += series.get("count", 0)
        total_s += series.get("sum", 0.0)
        cumulative_prev = 0
        for bound, cumulative in series.get("buckets", []):
            merged[bound] = merged.get(bound, 0) + (cumulative - cumulative_prev)
            cumulative_prev = cumulative
    if count == 0:
        return 0, 0.0, 0.0
    # bucket-interpolated p99 over the merged per-bucket counts
    rank = 0.99 * count
    cumulative = 0
    p99 = 0.0
    lo = 0.0
    for bound, bucket_count in merged.items():
        cumulative += bucket_count
        hi = lo if bound == "+Inf" else float(bound)
        if cumulative >= rank:
            p99 = hi
            break
        lo = hi
    else:
        p99 = lo
    return count, total_s / count, p99
