//! The `server_stream` workload: a warm `CampaignServer` with one
//! self-exec worker process per available core, driven by one client in a
//! closed loop (submit, wait, submit the next). Campaigns run on the small
//! fixture: 2–4 fault configurations × 64 images with fresh seeded
//! targets, and a seeded one in four repeats an earlier spec exactly, so
//! the result cache's read path runs beside fresh fleet work.
//!
//! Set-up is `CampaignServer::start` plus the first (cold) submission.

use std::time::Instant;

use nvfi::campaign::{Campaign, CampaignResult, CampaignSpec, TargetSelection};
use nvfi::PlatformConfig;
use nvfi_accel::FaultKind;
use nvfi_compiler::regmap::{MultId, TOTAL_MULTS};
use nvfi_dataset::Dataset;
use nvfi_dist::{CampaignServer, FleetSpec, ServerStats};
use nvfi_obs::trace;
use nvfi_quant::QuantModel;

use crate::inprocess::eval_set;
use crate::layers::{self, LayerTable};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::stats::{mean, median, percentile};
use crate::{host, spans, Args};

/// Evaluation images per campaign.
const EVAL_IMAGES: usize = 64;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Submissions per timed loop at least, so that ten lie beyond the p90.
const MIN_SUBMISSIONS: usize = 100;
/// Submissions re-run in-process for the output check.
const CHECK_SUBMISSIONS: usize = 4;

/// The spec of fresh submission `i` (`u64::MAX` is the set-up's cold
/// submission): 2, 3 or 4 configurations in turn,
/// each a seeded set of 1–4 multipliers under one permanent override.
fn fresh_spec(seed: u64, i: u64) -> CampaignSpec {
    let mut rng = Rng::fork(seed, 1000u64.wrapping_add(i));
    let configs = 2 + (i % 3) as usize;
    let sets = (0..configs)
        .map(|_| {
            let k = 1 + rng.below(4) as usize;
            let mut set: Vec<MultId> = rng.permutation(TOTAL_MULTS)[..k]
                .iter()
                .map(|&l| MultId::from_lane(l))
                .collect();
            set.sort();
            set
        })
        .collect();
    let kinds = [
        FaultKind::StuckAtZero,
        FaultKind::Constant(1),
        FaultKind::Constant(-1),
    ];
    CampaignSpec {
        selection: TargetSelection::Fixed(sets),
        kinds: vec![kinds[rng.below(3) as usize]],
        eval_images: EVAL_IMAGES,
        threads: host::threads(),
        ..Default::default()
    }
}

struct Ready {
    model: QuantModel,
    eval: Dataset,
    server: CampaignServer,
    start_ms: f64,
    cold_ms: f64,
}

fn set_up(seed: u64) -> Result<Ready, String> {
    let (model, _) = nvfi_bench::small_fixture();
    let eval = eval_set(seed, EVAL_IMAGES);
    let t = Instant::now();
    let server = {
        let _s = trace::span("bench.dist.start");
        CampaignServer::start(&FleetSpec::self_exec(), host::threads())
            .map_err(|e| e.to_string())?
    };
    let start_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    {
        let _s = trace::span("bench.dist.cold_submit");
        server
            .submit(
                &model,
                PlatformConfig::default(),
                &fresh_spec(seed, u64::MAX),
                &eval,
            )
            .and_then(nvfi_dist::ClientHandle::wait)
            .map_err(|e| e.to_string())?;
    }
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok(Ready {
        model,
        eval,
        server,
        start_ms,
        cold_ms,
    })
}

/// One timed submission.
struct Sub {
    spec: CampaignSpec,
    repeat: bool,
    ms: f64,
    result: Result<CampaignResult, String>,
}

/// The closed loop: submit, wait, repeat until `seconds` have passed and
/// at least [`MIN_SUBMISSIONS`] were made. Every fourth submission repeats
/// a seeded earlier spec of the same loop; the others are fresh. Each
/// `pass` over one server draws its own fresh specs, so a later loop is
/// not answered from the result cache the earlier one filled.
fn timed_loop(ready: &Ready, seed: u64, seconds: f64, pass: u64) -> (Vec<Sub>, f64) {
    let mut rng = Rng::fork(seed, 2 + pass);
    let mut fresh: Vec<CampaignSpec> = Vec::new();
    let mut subs = Vec::new();
    let t0 = Instant::now();
    while subs.len() < MIN_SUBMISSIONS || t0.elapsed().as_secs_f64() < seconds {
        let repeat = subs.len() % 4 == 3;
        let spec = if repeat {
            fresh[rng.below(fresh.len() as u64) as usize].clone()
        } else {
            let s = fresh_spec(seed, (pass << 32) + fresh.len() as u64);
            fresh.push(s.clone());
            s
        };
        let _s = trace::span("bench.dist.submit");
        let t = Instant::now();
        let result = ready
            .server
            .submit(&ready.model, PlatformConfig::default(), &spec, &ready.eval)
            .and_then(nvfi_dist::ClientHandle::wait)
            .map_err(|e| e.to_string());
        subs.push(Sub {
            spec,
            repeat,
            ms: t.elapsed().as_secs_f64() * 1e3,
            result,
        });
    }
    (subs, t0.elapsed().as_secs_f64())
}

/// Counts errored submissions as failed; returns `(records, inferences)`,
/// inferences counted only for submissions that ran on the fleet.
fn tally(subs: &[Sub], out: &mut Outcome) -> (u64, u64) {
    let (mut records, mut inferences) = (0, 0);
    for s in subs {
        out.attempted += 1;
        match &s.result {
            Ok(r) => {
                records += r.records.len() as u64;
                if !s.repeat {
                    inferences += r.total_inferences;
                }
            }
            Err(e) => {
                println!("submission error: {e}");
                out.failed += 1;
            }
        }
    }
    (records, inferences)
}

/// The output check: a seeded sample of submissions (one repeat among
/// them when there is one) re-run in-process through `Campaign::run`;
/// records and baseline accuracy must be identical.
fn check(ready: &Ready, subs: &[Sub], seed: u64, out: &mut Outcome) {
    let mut rng = Rng::fork(seed, 3);
    let mut picks: Vec<usize> = (0..CHECK_SUBMISSIONS)
        .map(|_| rng.below(subs.len() as u64) as usize)
        .collect();
    if let Some(r) = subs.iter().position(|s| s.repeat) {
        picks.push(r);
    }
    let campaign = Campaign::new(&ready.model, PlatformConfig::default());
    for i in picks {
        let Ok(got) = &subs[i].result else { continue };
        let _s = trace::span("bench.check");
        match campaign.run(&subs[i].spec, &ready.eval) {
            Ok(want)
                if want.records == got.records
                    && want.baseline_accuracy == got.baseline_accuracy => {}
            Ok(_) => {
                println!(
                    "output check mismatch on submission {i} (repeat: {})",
                    subs[i].repeat
                );
                out.failed += 1;
            }
            Err(e) => {
                println!("output check error on submission {i}: {e}");
                out.failed += 1;
            }
        }
    }
}

fn delta(after: ServerStats, before: ServerStats) -> ServerStats {
    ServerStats {
        campaigns_submitted: after.campaigns_submitted - before.campaigns_submitted,
        cache_hits: after.cache_hits - before.cache_hits,
        tasks_dispatched: after.tasks_dispatched - before.tasks_dispatched,
        artifact_frames_shipped: after.artifact_frames_shipped - before.artifact_frames_shipped,
        audits_dispatched: after.audits_dispatched - before.audits_dispatched,
        audit_mismatches: after.audit_mismatches - before.audit_mismatches,
        workers_quarantined: after.workers_quarantined - before.workers_quarantined,
        integrity_rejects: after.integrity_rejects - before.integrity_rejects,
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        return run_traced(args);
    }
    let mut out = Outcome::default();
    let mut setup_secs = Vec::new();
    let mut ready: Option<Ready> = None;
    for _ in 0..SETUPS {
        // Shut the previous server down first: one fleet at a time.
        if let Some(r) = ready.take() {
            r.server.shutdown();
        }
        let t = Instant::now();
        ready = Some(set_up(args.seed)?);
        setup_secs.push(t.elapsed().as_secs_f64());
    }
    let ready = ready.expect("at least one set-up");
    let before = ready.server.stats();
    let (subs, wall) = timed_loop(&ready, args.seed, args.seconds, 0);
    let (peak, workers) = host::tree_peak_rss_mb();
    let stats = delta(ready.server.stats(), before);
    let (records, inferences) = tally(&subs, &mut out);
    check(&ready, &subs, args.seed, &mut out);
    ready.server.shutdown();

    let all_ms: Vec<f64> = subs.iter().map(|s| s.ms).collect();
    let fresh_ms: Vec<f64> = subs.iter().filter(|s| !s.repeat).map(|s| s.ms).collect();
    let n = subs.len();
    let repeats = n - fresh_ms.len();
    out.push(
        "setup_s",
        median(&setup_secs),
        "s",
        &format!("median of {SETUPS} set-ups (CampaignServer::start + cold submission)"),
    );
    out.push(
        "campaign_s",
        mean(&fresh_ms) / 1e3,
        "s",
        &format!(
            "mean submit-to-wait of {} fresh submissions",
            fresh_ms.len()
        ),
    );
    out.push(
        "fi_per_s",
        records as f64 / wall,
        "1/s",
        &format!("{records} fault configurations answered in {wall:.2} s"),
    );
    out.push(
        "inferences_per_s",
        inferences as f64 / wall,
        "1/s",
        &format!("{inferences} inferences run on the fleet"),
    );
    out.push(
        "submit_p50_ms",
        median(&all_ms),
        "ms",
        &format!("median of {n} submissions ({repeats} repeats)"),
    );
    out.push(
        "submit_p90_ms",
        percentile(&all_ms, 90.0),
        "ms",
        &format!("nearest-rank p90 of {n} submissions"),
    );
    out.push(
        "peak_rss_mb",
        peak,
        "MB",
        &format!("VmHWM of the benchmark process plus {workers} worker processes"),
    );
    out.info(
        "cache_hits",
        stats.cache_hits as f64,
        "count",
        &format!("result-cache hits for {repeats} repeated specs"),
    );
    Ok(out)
}

fn run_traced(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut table = LayerTable::new();
    let ready = set_up(args.seed)?;
    table.set("dist.start_ms", ready.start_ms, "CampaignServer::start");
    table.set(
        "dist.cold_submit_ms",
        ready.cold_ms,
        "first submission on a cold fleet",
    );

    let (untraced, _) = timed_loop(&ready, args.seed, args.seconds, 0);
    let dropped_before = trace::dropped();
    trace::clear();
    trace::set_enabled(true);
    let before = ready.server.stats();
    let (traced, _) = timed_loop(&ready, args.seed, args.seconds, 1);
    let stats = delta(ready.server.stats(), before);
    let events = trace::snapshot();
    tally(&traced, &mut out);

    let fresh_ms =
        |subs: &[Sub]| -> Vec<f64> { subs.iter().filter(|s| !s.repeat).map(|s| s.ms).collect() };
    table.set(
        "obs.trace_overhead_frac",
        mean(&fresh_ms(&traced)) / mean(&fresh_ms(&untraced)) - 1.0,
        "mean traced vs untraced fresh submit latency",
    );
    let submitted = stats.campaigns_submitted.max(1) as f64;
    let fresh = (stats.campaigns_submitted - stats.cache_hits).max(1) as f64;
    let tasks = stats.tasks_dispatched.max(1) as f64;
    table.set(
        "dist.cache_hit_frac",
        stats.cache_hits as f64 / submitted,
        "ServerStats delta",
    );
    table.set(
        "dist.tasks_per_submit",
        stats.tasks_dispatched as f64 / fresh,
        "shards dispatched per fresh submission",
    );
    table.set(
        "dist.audits_per_task",
        stats.audits_dispatched as f64 / tasks,
        "ServerStats delta",
    );
    table.set(
        "dist.integrity_rejects",
        stats.integrity_rejects as f64,
        "ServerStats delta",
    );
    table.set(
        "dist.artifact_bytes",
        nvfi_dist::wire::artifact_bytes_shipped() as f64,
        "artifact_bytes_shipped since start (cold fleet + warm loops)",
    );
    let fresh_total: f64 = fresh_ms(&traced).iter().sum();
    spans::dist_layers(&events, fresh_total, host::threads(), &mut table);

    let specs: Vec<CampaignSpec> = traced
        .iter()
        .filter(|s| !s.repeat)
        .map(|s| s.spec.clone())
        .collect();
    let small = nvfi::EmulationPlatform::assemble(&ready.model, PlatformConfig::default())
        .map_err(|e| e.to_string())?;
    layers::reachability(small.plan(), &specs, &mut table);
    drop(small);

    // The per-layer probes run on the medium fixture in every workload,
    // so their rows compare across workloads.
    let (medium, _) = nvfi_bench::medium_fixture();
    let medium_eval = eval_set(args.seed, crate::inprocess::EVAL_IMAGES);
    layers::probe(&medium, &medium_eval, &mut table, &mut out)?;
    spans::finish_trace(args.workload, dropped_before, &mut table, &mut out);
    trace::set_enabled(false);
    check(&ready, &traced, args.seed, &mut out);
    ready.server.shutdown();
    table.emit(&mut out);
    Ok(out)
}
