//! The in-process workloads, both on the medium fixture (width-16
//! ResNet-18) through `Campaign::run` with one thread per available core:
//!
//! * `fig3_permanent` — the paper's Fig. 3 shape: every multiplier faulted
//!   alone (`ExhaustiveSingle`, 64 items) with a permanent `Constant`
//!   0, +1 or −1, one value per campaign in turn. The work is the batched
//!   clean GEMM with per-lane corrections plus each campaign's device
//!   clones; the exact engine and the golden cache stay idle.
//! * `seu_window` — a transient SEU sweep: `RandomSubsets` (k in 1..=7,
//!   4 trials) under one override fault and one `FlipBits` fault, each
//!   campaign with its own fault window. Windows come in three width
//!   classes — a 2000-cycle pulse, a middle width and a quarter of the MAC
//!   schedule — jittered from the seed. A round holds one campaign per
//!   (class, third of the schedule) pair, its start drawn from the seed
//!   inside that third, so every round covers the plan evenly and runs of
//!   different seeds cost about the same; with three well separated
//!   classes the median campaign is a middle-width one.
//!
//! The timed loop runs whole rounds until `--seconds` have passed.

use std::time::Instant;

use nvfi::campaign::{Campaign, CampaignResult, CampaignSpec, TargetSelection, VerifyMode};
use nvfi::{EmulationPlatform, PlatformConfig};
use nvfi_accel::{ExecMode, FaultKind};
use nvfi_compiler::ExecutionPlan;
use nvfi_dataset::{Dataset, SynthCifar, SynthCifarConfig};
use nvfi_obs::{metrics, trace};
use nvfi_quant::QuantModel;

use crate::layers::{self, LayerTable};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::stats::{median, percentile};
use crate::{host, spans, Args, Workload};

/// Evaluation images per campaign.
pub const EVAL_IMAGES: usize = 16;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Work items re-run on the exact oracle per run.
const CHECK_ITEMS: usize = 2;
/// Window-width classes of `seu_window`; the schedule is cut into as many
/// parts for the window starts.
const SEU_CLASSES: usize = 3;
/// Shortest transient window, in MAC cycles.
const SEU_MIN_WIDTH: f64 = 2000.0;
/// The permanent values of the paper's Fig. 3.
const FIG3_VALUES: [i32; 3] = [0, 1, -1];

/// `n` evaluation images synthesized from the run's seed.
pub fn eval_set(seed: u64, n: usize) -> Dataset {
    SynthCifar::new(SynthCifarConfig {
        train: 0,
        test: n,
        seed: Rng::fork(seed, 1).next_u64(),
        ..Default::default()
    })
    .generate()
    .test
}

/// The campaigns of round `r`.
fn round(w: Workload, seed: u64, r: usize, total_cycles: u64) -> Vec<CampaignSpec> {
    let base = CampaignSpec {
        eval_images: EVAL_IMAGES,
        threads: host::threads(),
        ..Default::default()
    };
    if w == Workload::Fig3Permanent {
        return vec![CampaignSpec {
            selection: TargetSelection::ExhaustiveSingle,
            kinds: vec![FaultKind::Constant(FIG3_VALUES[r % FIG3_VALUES.len()])],
            ..base
        }];
    }
    let mut rng = Rng::fork(seed, 100 + r as u64);
    let max_width = total_cycles as f64 / 4.0;
    // One campaign per (width class, third of the schedule) pair, so every
    // round does about the same exact-engine work whatever the seed.
    let pairs = (0..SEU_CLASSES).flat_map(|c| (0..SEU_CLASSES).map(move |t| (c, t)));
    pairs
        .map(|(class, third)| {
            let k = 1 + rng.below(7) as usize;
            let overrides = [
                FaultKind::StuckAtZero,
                FaultKind::Constant(1),
                FaultKind::Constant(-1),
            ];
            let over = overrides[rng.below(3) as usize];
            let flip = FaultKind::FlipBits {
                mask: (1 << rng.below(18)) | (1 << rng.below(18)),
            };
            // Geometric width classes, jittered by ±10% within the class.
            let t = class as f64 / (SEU_CLASSES - 1) as f64;
            let width =
                (SEU_MIN_WIDTH * (max_width / SEU_MIN_WIDTH).powf(t) * (0.9 + 0.2 * rng.unit()))
                    .clamp(SEU_MIN_WIDTH, max_width) as u64;
            let at = (third as f64 + rng.unit()) / SEU_CLASSES as f64;
            // MAC cycles are numbered from 1.
            let start = 1 + (at * (total_cycles - width) as f64) as u64;
            CampaignSpec {
                selection: TargetSelection::RandomSubsets {
                    k,
                    trials: 4,
                    seed: rng.next_u64(),
                },
                kinds: vec![over, flip],
                fault_window: Some(start..start + width),
                ..base.clone()
            }
        })
        .collect()
}

/// Everything the timed loop needs, built by one set-up.
struct Ready {
    model: QuantModel,
    eval: Dataset,
    campaign: Campaign,
    plan: ExecutionPlan,
    total_cycles: u64,
}

fn set_up(w: Workload, seed: u64) -> Result<Ready, String> {
    let _s = trace::span("bench.setup");
    let (model, _) = nvfi_bench::medium_fixture();
    let eval = eval_set(seed, EVAL_IMAGES);
    let config = PlatformConfig::default();
    let plan = EmulationPlatform::assemble(&model, config)
        .map_err(|e| e.to_string())?
        .plan()
        .clone();
    let total_cycles = plan.total_mac_cycles();
    let campaign = Campaign::new(&model, config);
    // Warm-up: two items of the first campaign (device clones, golden
    // capture for a window, the baseline pass).
    let first = round(w, seed, 0, total_cycles).remove(0);
    let targets = Campaign::expand_targets(&first.selection);
    let warm = CampaignSpec {
        selection: TargetSelection::Fixed(targets[..2].to_vec()),
        ..first
    };
    campaign.run(&warm, &eval).map_err(|e| e.to_string())?;
    Ok(Ready {
        model,
        eval,
        campaign,
        plan,
        total_cycles,
    })
}

/// One timed campaign.
struct Ran {
    spec: CampaignSpec,
    secs: f64,
    items: usize,
    result: Result<CampaignResult, String>,
}

/// The timed loop: whole rounds until `seconds` have passed.
/// `after_round` runs after each round, inside the timed region.
fn timed_loop(
    ready: &Ready,
    w: Workload,
    seed: u64,
    seconds: f64,
    mut after_round: impl FnMut(usize),
) -> (Vec<Ran>, f64) {
    let t0 = Instant::now();
    let mut runs = Vec::new();
    for r in 0.. {
        for spec in round(w, seed, r, ready.total_cycles) {
            let items = Campaign::expand_targets(&spec.selection).len() * spec.kinds.len();
            let _s = trace::span("bench.campaign");
            let t = Instant::now();
            let result = ready
                .campaign
                .run(&spec, &ready.eval)
                .map_err(|e| e.to_string());
            runs.push(Ran {
                spec,
                secs: t.elapsed().as_secs_f64(),
                items,
                result,
            });
        }
        after_round(r);
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    (runs, t0.elapsed().as_secs_f64())
}

/// Counts errored campaigns' items as failed and returns
/// `(records, inferences)` of the successful ones.
fn tally(runs: &[Ran], out: &mut Outcome) -> (u64, u64) {
    let (mut records, mut inferences) = (0, 0);
    for run in runs {
        out.attempted += run.items as u64;
        match &run.result {
            Ok(r) => {
                records += r.records.len() as u64;
                inferences += r.total_inferences;
            }
            Err(e) => {
                println!("campaign error: {e}");
                out.failed += run.items as u64;
            }
        }
    }
    (records, inferences)
}

/// The output check: a seeded sample of timed work items re-run as
/// one-item campaigns on a single device with `ExecMode::Exact` (the
/// per-product oracle, static pruning off); their records must equal the
/// timed run's.
fn check(ready: &Ready, runs: &[Ran], seed: u64, out: &mut Outcome) {
    let ok: Vec<(&Ran, &CampaignResult)> = runs
        .iter()
        .filter_map(|r| r.result.as_ref().ok().map(|res| (r, res)))
        .collect();
    if ok.is_empty() {
        return;
    }
    let mut config = PlatformConfig::default();
    config.accel.mode = ExecMode::Exact;
    let oracle = Campaign::new(&ready.model, config);
    let mut rng = Rng::fork(seed, 7);
    for _ in 0..CHECK_ITEMS {
        let (run, res) = ok[rng.below(ok.len() as u64) as usize];
        let want = &res.records[rng.below(res.records.len() as u64) as usize];
        let spec = CampaignSpec {
            selection: TargetSelection::Fixed(vec![want.targets.clone()]),
            kinds: vec![want.kind],
            threads: 1,
            verify: VerifyMode::Off,
            ..run.spec.clone()
        };
        let _s = trace::span("bench.check");
        match oracle.run(&spec, &ready.eval) {
            Ok(got) if got.records.first() == Some(want) => {}
            Ok(got) => {
                println!(
                    "output check mismatch: {:?} on {:?} window {:?}: timed {want:?}, exact {:?}",
                    want.kind,
                    want.targets,
                    run.spec.fault_window,
                    got.records.first()
                );
                out.failed += 1;
            }
            Err(e) => {
                println!("output check error: {e}");
                out.failed += 1;
            }
        }
    }
}

fn modelled_ms(plan: &ExecutionPlan) -> f64 {
    nvfi_accel::perf::plan_report(plan, PlatformConfig::default().accel.clock_hz).latency_ms()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        return run_traced(args);
    }
    let w = args.workload;
    let mut out = Outcome::default();
    let mut setup_secs = Vec::new();
    let mut modelled = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        // Drop the previous set-up first, so set-ups do not stack memory.
        drop(ready.take());
        let t = Instant::now();
        let r = set_up(w, args.seed)?;
        setup_secs.push(t.elapsed().as_secs_f64());
        modelled.push(modelled_ms(&r.plan));
        ready = Some(r);
    }
    let ready = ready.expect("at least one set-up");
    let (runs, wall) = timed_loop(&ready, w, args.seed, args.seconds, |_| {});
    let peak = host::self_peak_rss_mb();
    let (records, inferences) = tally(&runs, &mut out);
    check(&ready, &runs, args.seed, &mut out);
    if modelled.iter().any(|&m| m != modelled[0]) {
        out.fail_check(format!(
            "modelled latency differs between set-ups: {modelled:?}"
        ));
    }

    let lat_ms: Vec<f64> = runs.iter().map(|r| r.secs * 1e3).collect();
    let n = runs.len();
    out.push(
        "setup_s",
        median(&setup_secs),
        "s",
        &format!("median of {SETUPS} set-ups (fixture, assemble, warm-up campaign)"),
    );
    out.push(
        "campaign_s",
        wall / n as f64,
        "s",
        &format!("timed wall time per campaign, {n} campaigns"),
    );
    out.push(
        "fi_per_s",
        records as f64 / wall,
        "1/s",
        &format!("{records} fault configurations in {wall:.2} s"),
    );
    out.push(
        "inferences_per_s",
        inferences as f64 / wall,
        "1/s",
        &format!("{inferences} emulated inferences"),
    );
    out.push(
        "submit_p50_ms",
        median(&lat_ms),
        "ms",
        &format!("Campaign::run call to return, median of {n}"),
    );
    out.push(
        "submit_p90_ms",
        percentile(&lat_ms, 90.0),
        "ms",
        &format!("nearest-rank p90 of {n} campaigns"),
    );
    out.push("peak_rss_mb", peak, "MB", "VmHWM of the benchmark process");
    out.info(
        "modelled_ms",
        modelled[0],
        "ms",
        "modelled FPGA latency per inference (perf::plan_report); repeats exactly",
    );
    Ok(out)
}

/// Engine counters the traced run reports as deltas over its first round.
const COUNTERS: [(&str, &str); 5] = [
    ("engine_path_fast", "accel.path_fast"),
    ("engine_path_fast_corrected", "accel.path_fast_corrected"),
    ("engine_path_exact", "accel.path_exact"),
    ("golden_prefix_passes", "accel.golden_prefix_passes"),
    ("golden_restores", "accel.golden_restores"),
];

fn read_counters() -> [u64; 5] {
    COUNTERS.map(|(name, _)| metrics::counter(name).get())
}

fn run_traced(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let mut out = Outcome::default();
    let mut table = LayerTable::new();
    let ready = set_up(w, args.seed)?;

    let (untraced, untraced_wall) = timed_loop(&ready, w, args.seed, args.seconds, |_| {});
    let dropped_before = trace::dropped();
    trace::clear();
    trace::set_enabled(true);
    let before = read_counters();
    let mut first_round = [0; 5];
    let (traced, traced_wall) = timed_loop(&ready, w, args.seed, args.seconds, |r| {
        if r == 0 {
            first_round = read_counters();
        }
    });
    let events = trace::snapshot();
    tally(&traced, &mut out);
    for (i, (_, name)) in COUNTERS.iter().enumerate() {
        table.set(
            name,
            (first_round[i] - before[i]) as f64,
            "first round of the traced loop",
        );
    }
    table.set(
        "obs.trace_overhead_frac",
        (traced_wall / traced.len() as f64) / (untraced_wall / untraced.len() as f64) - 1.0,
        "traced vs untraced wall time per campaign",
    );
    spans::campaign_layers(&events, &mut table);

    layers::reachability(
        &ready.plan,
        &round(w, args.seed, 0, ready.total_cycles),
        &mut table,
    );
    layers::probe(&ready.model, &ready.eval, &mut table, &mut out)?;
    spans::finish_trace(w, dropped_before, &mut table, &mut out);
    trace::set_enabled(false);
    check(&ready, &traced, args.seed, &mut out);
    table.emit(&mut out);
    Ok(out)
}
