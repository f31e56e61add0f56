//! Trace analysis: per-layer numbers from the program's existing spans
//! (`campaign.*`, `pool.shard`, `shard.*`) and the benchmark's own
//! `bench.*` spans, self times, and the chrome-trace export.

use std::collections::BTreeMap;
use std::path::PathBuf;

use nvfi_obs::trace::{self, EventKind, TraceEvent};

use crate::layers::LayerTable;
use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::Workload;

fn spans_named<'a>(
    events: &'a [TraceEvent],
    name: &'a str,
) -> impl Iterator<Item = &'a TraceEvent> {
    events
        .iter()
        .filter(move |e| e.kind == EventKind::Span && e.name == name)
}

fn durations_ms(events: &[TraceEvent], name: &str) -> Vec<f64> {
    spans_named(events, name)
        .map(|e| e.dur_us as f64 / 1e3)
        .collect()
}

fn end(e: &TraceEvent) -> u64 {
    e.ts_us + e.dur_us
}

fn contains(outer: &TraceEvent, inner: &TraceEvent) -> bool {
    outer.ts_us <= inner.ts_us && end(inner) <= end(outer)
}

/// Per-layer rows from the in-process campaign spans.
pub fn campaign_layers(events: &[TraceEvent], table: &mut LayerTable) {
    let baseline = durations_ms(events, "campaign.baseline");
    let items = durations_ms(events, "campaign.item");
    table.set(
        "core.campaign.baseline_ms",
        median(&baseline),
        &format!("median of {} campaign.baseline spans", baseline.len()),
    );
    table.set(
        "core.campaign.item_p50_ms",
        median(&items),
        &format!("median of {} campaign.item spans", items.len()),
    );
    table.set(
        "core.campaign.item_p90_ms",
        percentile(&items, 90.0),
        &format!("nearest-rank p90 of {} campaign.item spans", items.len()),
    );

    // Shard skew: the `pool.shard` spans of one classify call lie inside
    // the `campaign.item` or `campaign.baseline` span of the same worker
    // group; slowest shard over mean shard, median over calls with two or
    // more shards.
    let shards: Vec<&TraceEvent> = spans_named(events, "pool.shard").collect();
    let mut skews = Vec::new();
    for parent in events.iter().filter(|e| {
        e.kind == EventKind::Span && (e.name == "campaign.item" || e.name == "campaign.baseline")
    }) {
        let d: Vec<f64> = shards
            .iter()
            .filter(|s| s.ids.worker == parent.ids.worker && contains(parent, s))
            .map(|s| s.dur_us as f64)
            .collect();
        if d.len() >= 2 {
            let mean = d.iter().sum::<f64>() / d.len() as f64;
            if mean > 0.0 {
                skews.push(d.iter().copied().fold(0.0, f64::max) / mean);
            }
        }
    }
    table.set(
        "core.pool.shard_skew",
        if skews.is_empty() {
            1.0
        } else {
            median(&skews)
        },
        &format!(
            "slowest / mean pool.shard, median of {} sharded calls",
            skews.len()
        ),
    );

    // Idle share: 1 - item time / (groups x campaign.run time), summed
    // over campaigns.
    let (mut busy, mut capacity) = (0.0, 0.0);
    for run in spans_named(events, "campaign.run") {
        let inside: Vec<&TraceEvent> = spans_named(events, "campaign.item")
            .filter(|i| contains(run, i))
            .collect();
        let mut groups: Vec<u64> = inside.iter().map(|i| i.ids.worker).collect();
        groups.sort_unstable();
        groups.dedup();
        busy += inside.iter().map(|i| i.dur_us as f64).sum::<f64>();
        capacity += groups.len().max(1) as f64 * run.dur_us as f64;
    }
    if capacity > 0.0 {
        table.set(
            "core.campaign.idle_frac",
            1.0 - busy / capacity,
            "1 - sum(campaign.item) / (groups x campaign.run)",
        );
    }
}

/// Per-layer rows from the campaign server's `shard.*` spans.
/// `fresh_latency_ms` is the summed submit-to-wait latency of the traced
/// submissions that ran on the fleet; `workers` the fleet size.
pub fn dist_layers(
    events: &[TraceEvent],
    fresh_latency_ms: f64,
    workers: usize,
    table: &mut LayerTable,
) {
    for (span, row) in [
        ("shard.queue_wait", "dist.queue_wait_ms"),
        ("shard.ship", "dist.ship_ms"),
        ("shard.execute", "dist.execute_ms"),
        ("shard.merge", "dist.merge_ms"),
    ] {
        let d = durations_ms(events, span);
        table.set(
            row,
            median(&d),
            &format!("median of {} {span} spans", d.len()),
        );
    }
    let execute: f64 = durations_ms(events, "shard.execute").iter().sum();
    if fresh_latency_ms > 0.0 {
        table.set(
            "dist.overhead_frac",
            1.0 - execute / workers.max(1) as f64 / fresh_latency_ms,
            "1 - (shard.execute per worker) / fresh submit latency",
        );
    }
    let requeues = events
        .iter()
        .filter(|e| e.kind == EventKind::Instant && e.name == "shard.requeued")
        .count();
    table.set("dist.requeues", requeues as f64, "shard.requeued events");
}

/// Self time per span name: each span's duration minus the part of it
/// that spans nested inside it on the same lane cover.
fn self_times(events: &[TraceEvent]) -> Vec<(String, usize, f64, f64)> {
    let mut by_tid: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    for e in events.iter().filter(|e| e.kind == EventKind::Span) {
        by_tid.entry(e.tid).or_default().push(e);
    }
    let mut acc: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
    for lane in by_tid.values_mut() {
        // Parents sort before the children they contain.
        lane.sort_by_key(|e| (e.ts_us, std::cmp::Reverse(e.dur_us)));
        for (i, p) in lane.iter().enumerate() {
            let mut covered = 0;
            let mut reach = p.ts_us;
            for c in lane[i + 1..].iter().take_while(|c| c.ts_us < end(p)) {
                if end(c) <= end(p) && end(c) > reach {
                    covered += end(c) - c.ts_us.max(reach);
                    reach = end(c);
                }
            }
            let a = acc.entry(p.name.to_string()).or_default();
            a.0 += 1;
            a.1 += p.dur_us as f64 / 1e3;
            a.2 += p.dur_us.saturating_sub(covered) as f64 / 1e3;
        }
    }
    let mut rows: Vec<(String, usize, f64, f64)> =
        acc.into_iter().map(|(n, (c, t, s))| (n, c, t, s)).collect();
    rows.sort_by(|a, b| b.3.total_cmp(&a.3));
    rows
}

/// Prints the self-time table, exports the chrome trace into the
/// benchmark's `out/` directory and reports `obs.dropped_events` (events
/// the ring evicted since `dropped_before`; must be 0 for the per-layer
/// numbers to be complete).
pub fn finish_trace(w: Workload, dropped_before: u64, table: &mut LayerTable, out: &mut Outcome) {
    let events = trace::snapshot();
    println!("## span self times ({} events)", events.len());
    println!(
        "{:<28} {:>7} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, count, total, own) in self_times(&events) {
        println!("{name:<28} {count:>7} {total:>12.2} {own:>12.2}");
    }
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}.json", w.name()));
    match std::fs::create_dir_all(&dir).and_then(|()| trace::export_chrome(&path)) {
        Ok(n) => println!("chrome trace: {} ({n} events)", path.display()),
        Err(e) => println!("chrome trace export failed: {e}"),
    }
    let dropped = trace::dropped() - dropped_before;
    table.set(
        "obs.dropped_events",
        dropped as f64,
        "trace::dropped during the traced run",
    );
    if dropped > 0 {
        out.fail_check(format!("the trace ring dropped {dropped} events"));
    }
}
