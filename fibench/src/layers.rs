//! Per-layer metrics: the fixed table every traced run reports, and the
//! probes that time single public calls of each layer on the medium
//! fixture. Each probe call sits inside a `bench.*` span of the
//! benchmark's own, so the exported trace shows it beside the program's
//! spans.

use std::collections::BTreeMap;
use std::time::Instant;

use nvfi::campaign::{
    fault_provably_masked, run_plan_verifier, Campaign, CampaignSpec, VerifyMode,
};
use nvfi::{
    DevicePool, EmulationPlatform, GoldenActivationCache, PlatformConfig, QuantizedEvalSet,
};
use nvfi_accel::{FaultConfig, FaultKind, IdleLanePolicy};
use nvfi_compiler::regmap::MultId;
use nvfi_compiler::{ExecutionPlan, PlanOp};
use nvfi_dataset::Dataset;
use nvfi_obs::trace;
use nvfi_quant::QuantModel;

use crate::report::Outcome;
use crate::rng::Rng;
use crate::stats::{median, median_ms, percentile};

/// Ops of the medium fixture's plan; the per-op rows are named after
/// their index.
const MEDIUM_OPS: usize = 22;
/// Interleaved repetitions of the per-op prefix profile.
const OP_REPS: usize = 21;
/// How far the per-op sum may stray from one full inference.
const OP_SUM_TOLERANCE: f64 = 0.35;
/// ResNet stage groups of the per-op profile.
const GROUPS: [&str; 6] = ["stem", "stage1", "stage2", "stage3", "stage4", "head"];

/// The per-layer table: every row a traced run reports, in a fixed order.
/// Rows a workload never exercises stay 0 (no spans, no counter moves).
pub struct LayerTable {
    order: Vec<(String, &'static str)>,
    values: BTreeMap<String, (f64, String)>,
}

impl LayerTable {
    pub fn new() -> Self {
        let mut order: Vec<(String, &'static str)> = Vec::new();
        let mut add = |name: &str, unit| order.push((name.to_string(), unit));
        add("quant.eval_set_ms", "ms");
        add("compiler.assemble_ms", "ms");
        add("compiler.verify_ms", "ms");
        add("compiler.reachability_ms", "ms");
        add("compiler.masked_frac", "ratio");
        add("accel.clean_ms_per_image", "ms");
        add("accel.permanent_ms_per_image", "ms");
        add("accel.inject_us", "us");
        add("accel.window_ms_per_image", "ms");
        for i in 0..MEDIUM_OPS {
            add(&format!("accel.op{i:02}_us"), "us");
        }
        for g in GROUPS {
            add(&format!("accel.{g}_us"), "us");
        }
        add("accel.op_sum_ms", "ms");
        add("accel.inference_ms", "ms");
        add("accel.ns_per_modelled_cycle", "ns");
        for c in [
            "accel.path_fast",
            "accel.path_fast_corrected",
            "accel.path_exact",
            "accel.golden_prefix_passes",
            "accel.golden_restores",
        ] {
            add(c, "count");
        }
        add("tensor.gemm_gops", "GOP/s");
        add("core.pool.clone_ms", "ms");
        add("core.golden.build_ms", "ms");
        add("core.golden.bytes", "bytes");
        add("core.campaign.baseline_ms", "ms");
        add("core.campaign.item_p50_ms", "ms");
        add("core.campaign.item_p90_ms", "ms");
        add("core.pool.shard_skew", "ratio");
        add("core.campaign.idle_frac", "ratio");
        add("dist.start_ms", "ms");
        add("dist.cold_submit_ms", "ms");
        add("dist.artifact_bytes", "bytes");
        add("dist.cache_hit_frac", "ratio");
        add("dist.tasks_per_submit", "count");
        add("dist.audits_per_task", "ratio");
        add("dist.requeues", "count");
        add("dist.integrity_rejects", "count");
        add("dist.queue_wait_ms", "ms");
        add("dist.ship_ms", "ms");
        add("dist.execute_ms", "ms");
        add("dist.merge_ms", "ms");
        add("dist.overhead_frac", "ratio");
        add("obs.trace_overhead_frac", "ratio");
        add("obs.dropped_events", "count");
        LayerTable {
            order,
            values: BTreeMap::new(),
        }
    }

    /// Sets a declared row.
    ///
    /// # Panics
    ///
    /// Panics on a name the table does not declare (a benchmark bug).
    pub fn set(&mut self, name: &str, value: f64, note: &str) {
        assert!(
            self.order.iter().any(|(n, _)| n == name),
            "undeclared per-layer metric {name}"
        );
        self.values
            .insert(name.to_string(), (value, note.to_string()));
    }

    /// Moves every declared row into `out`, in declaration order.
    pub fn emit(mut self, out: &mut Outcome) {
        for (name, unit) in self.order {
            let (value, note) = self
                .values
                .remove(&name)
                .unwrap_or_else(|| (0.0, "not exercised by this workload".to_string()));
            out.push(name, value, unit, &note);
        }
    }
}

/// `compiler.reachability_ms` and `compiler.masked_frac`: the static
/// fault-reachability analysis over the work items of `specs`.
pub fn reachability(plan: &ExecutionPlan, specs: &[CampaignSpec], table: &mut LayerTable) {
    let gated = PlatformConfig::default().accel.idle_lanes == IdleLanePolicy::Gated;
    let work: Vec<_> = specs
        .iter()
        .flat_map(|spec| {
            Campaign::expand_targets(&spec.selection)
                .into_iter()
                .flat_map(move |t| {
                    spec.kinds
                        .iter()
                        .map(move |&k| (t.clone(), k, spec.fault_window.as_ref()))
                })
        })
        .collect();
    let mut masked = 0;
    let ms = median_ms(5, || {
        let _s = trace::span("bench.compiler.reachability");
        masked = work
            .iter()
            .filter(|(t, k, w)| fault_provably_masked(plan, t, *k, gated, *w))
            .count();
    });
    let n = work.len().max(1);
    table.set(
        "compiler.reachability_ms",
        ms,
        &format!("fault_provably_masked over {} work items", work.len()),
    );
    table.set(
        "compiler.masked_frac",
        masked as f64 / n as f64,
        &format!("{masked} of {n} items provably masked"),
    );
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The single-call probes on the medium fixture: quantization, plan
/// assembly and verification, the engine's batched and windowed paths,
/// the per-op profile, the GEMM kernel, device cloning and the golden
/// cache.
pub fn probe(
    model: &QuantModel,
    eval: &Dataset,
    table: &mut LayerTable,
    out: &mut Outcome,
) -> Result<(), String> {
    let config = PlatformConfig::default();
    let n_img = eval.len();
    let mut qset = None;
    let ms = median_ms(9, || {
        let _s = trace::span("bench.quant.eval_set");
        qset = Some(QuantizedEvalSet::build(model, &eval.images));
    });
    let qset = qset.expect("quantized at least once");
    table.set(
        "quant.eval_set_ms",
        ms,
        &format!("QuantizedEvalSet::build, {n_img} images"),
    );

    let ms = median_ms(5, || {
        let _s = trace::span("bench.compiler.assemble");
        EmulationPlatform::assemble(model, config)
    });
    table.set("compiler.assemble_ms", ms, "EmulationPlatform::assemble");
    let mut dev = EmulationPlatform::assemble(model, config).map_err(err)?;
    let plan = dev.plan().clone();

    let mut verdict = Ok(());
    let ms = median_ms(9, || {
        let _s = trace::span("bench.compiler.verify");
        verdict = run_plan_verifier(&plan, VerifyMode::Strict);
    });
    if let Err(e) = verdict {
        out.fail_check(format!("plan verifier: {e}"));
    }
    table.set("compiler.verify_ms", ms, "run_plan_verifier, strict");

    // Batched classification on one device, clean and under a permanent
    // single-lane fault.
    let images = qset.view(0..n_img);
    let per_image = |ms: f64| ms / n_img as f64;
    let ms = median_ms(5, || {
        let _s = trace::span("bench.accel.clean");
        dev.classify_i8(images)
    });
    table.set(
        "accel.clean_ms_per_image",
        per_image(ms),
        "batched classify_i8, one device",
    );
    let fault = FaultConfig::new(vec![MultId::new(2, 5)], FaultKind::Constant(1));
    dev.inject(&fault);
    let ms = median_ms(5, || {
        let _s = trace::span("bench.accel.permanent");
        dev.classify_i8(images)
    });
    dev.clear_faults();
    table.set(
        "accel.permanent_ms_per_image",
        per_image(ms),
        "batched classify_i8 after inject of Constant(1) on one lane",
    );
    // One inject + clear pair takes well under a microsecond: time
    // batches of them.
    const PAIRS: usize = 1000;
    let ms = median_ms(21, || {
        for _ in 0..PAIRS {
            dev.inject(&fault);
            dev.clear_faults();
        }
    });
    table.set(
        "accel.inject_us",
        ms * 1e3 / PAIRS as f64,
        &format!("inject + clear_faults, median of 21 batches of {PAIRS}"),
    );

    op_profile(&mut dev, &qset, table, out)?;
    gemm(&plan, table);

    // One device added to a pool: each probe starts from a fresh device.
    let mut clone_ms = Vec::new();
    for _ in 0..3 {
        let d = EmulationPlatform::assemble(model, config).map_err(err)?;
        let t = Instant::now();
        let pool = {
            let _s = trace::span("bench.core.pool_clone");
            DevicePool::from_device(d, 2)
        };
        clone_ms.push(t.elapsed().as_secs_f64() * 1e3);
        drop(pool);
    }
    table.set(
        "core.pool.clone_ms",
        median(&clone_ms),
        "DevicePool::from_device, per device added",
    );

    // A 2000-cycle pulse in the middle of the MAC schedule: golden-prefix
    // capture, then windowed classification restoring from it.
    let mid = plan.total_mac_cycles() / 2;
    let window = mid..mid + 2000;
    let mut cache = None;
    let ms = median_ms(3, || {
        let _s = trace::span("bench.core.golden_build");
        cache = Some(GoldenActivationCache::build(
            &mut dev,
            &qset,
            &window,
            nvfi::campaign::GOLDEN_CACHE_DEFAULT_BYTES,
        ));
    });
    let cache = cache.expect("built at least once").map_err(err)?;
    let bytes = cache.as_ref().map_or(0, GoldenActivationCache::byte_size);
    table.set(
        "core.golden.build_ms",
        ms,
        &format!("GoldenActivationCache::build, {n_img} images"),
    );
    table.set("core.golden.bytes", bytes as f64, "golden cache size");
    let mut pool = DevicePool::from_device(dev, 1);
    pool.inject(&FaultConfig::new(
        vec![MultId::new(2, 5)],
        FaultKind::FlipBits { mask: 1 << 9 },
    ));
    let mut result = Ok(Vec::new());
    let ms = median_ms(3, || {
        let _s = trace::span("bench.accel.window");
        result = pool
            .set_fault_window(Some(window.clone()))
            .and_then(|()| pool.classify_i8_golden(&qset, cache.as_ref()));
    });
    result.map_err(err)?;
    table.set(
        "accel.window_ms_per_image",
        per_image(ms),
        "set_fault_window + classify_i8_golden, 2000-cycle pulse",
    );
    Ok(())
}

/// The ResNet stage an op belongs to: the stem conv reads the 3-channel
/// image, stage `s` convs write `stem width * 2^(s-1)` channels, and the
/// pool and linear ops form the head.
fn group(plan: &ExecutionPlan, i: usize) -> usize {
    let width = match &plan.ops[0] {
        PlanOp::Conv(c) => c.geom.k,
        _ => 1,
    };
    match &plan.ops[i] {
        _ if i == 0 => 0,
        PlanOp::Conv(c) => {
            let stage = 1 + (c.geom.k / width.max(1)).max(1).trailing_zeros() as usize;
            stage.min(4)
        }
        _ => 5,
    }
}

/// The per-op profile from outside the engine: op `b`'s time is the
/// median over interleaved repetitions of
/// `run_prefix_i8_view(img, b + 1) − run_prefix_i8_view(img, b)`.
fn op_profile(
    dev: &mut EmulationPlatform,
    qset: &QuantizedEvalSet,
    table: &mut LayerTable,
    out: &mut Outcome,
) -> Result<(), String> {
    let plan = dev.plan().clone();
    let n = plan.ops.len();
    let img = qset.view(0..1);
    let accel = dev.accel_mut();
    accel.run_inference_i8_view(img).map_err(err)?;
    let prefix_us = |accel: &mut nvfi_accel::Accelerator, b: usize| -> Result<f64, String> {
        let _s = trace::span("bench.accel.prefix");
        let t = Instant::now();
        accel.run_prefix_i8_view(img, b).map_err(err)?;
        Ok(t.elapsed().as_secs_f64() * 1e6)
    };
    // One full inference per repetition, interleaved with the prefixes,
    // so the per-op sum and the whole run see the same host conditions.
    let mut diffs = vec![Vec::new(); n];
    let mut full = Vec::new();
    for rep in 0..OP_REPS {
        for (b, d) in diffs.iter_mut().enumerate() {
            let (short, long) = if rep % 2 == 0 {
                let s = prefix_us(accel, b)?;
                (s, prefix_us(accel, b + 1)?)
            } else {
                let l = prefix_us(accel, b + 1)?;
                (prefix_us(accel, b)?, l)
            };
            d.push(long - short);
        }
        let _s = trace::span("bench.accel.inference");
        let t = Instant::now();
        accel.run_inference_i8_view(img).map_err(err)?;
        full.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let full_us = median(&full);
    let report = nvfi_accel::perf::plan_report(&plan, PlatformConfig::default().accel.clock_hz);

    println!("## per-op profile (one image, interleaved prefix differences, median of {OP_REPS})");
    println!(
        "{:<4} {:<7} {:>10} {:>10} {:>10} {:>8}",
        "op", "stage", "us", "spread_us", "cycles", "ns/cyc"
    );
    let mut group_us = [0.0; GROUPS.len()];
    let mut sum_us = 0.0;
    for (b, d) in diffs.iter().enumerate() {
        let us = median(d);
        let spread = percentile(d, 75.0) - percentile(d, 25.0);
        let g = group(&plan, b);
        group_us[g] += us;
        sum_us += us;
        if b < MEDIUM_OPS {
            table.set(
                &format!("accel.op{b:02}_us"),
                us,
                &format!("{} cycles modelled", report.op_cycles[b]),
            );
        }
        // An op below the run-to-run spread has no time of its own worth
        // printing; its stage row carries it.
        if us > spread {
            println!(
                "{b:<4} {:<7} {us:>10.1} {spread:>10.1} {:>10} {:>8.2}",
                GROUPS[g],
                report.op_cycles[b],
                us * 1e3 / report.op_cycles[b] as f64
            );
        } else {
            println!(
                "{b:<4} {:<7} {:>10} {spread:>10.1} {:>10}   (below spread, see stage)",
                GROUPS[g], "-", report.op_cycles[b]
            );
        }
    }
    for (g, us) in GROUPS.iter().zip(group_us) {
        println!("stage {g:<8} {us:>10.1} us");
        table.set(
            &format!("accel.{g}_us"),
            us,
            "sum of the stage's per-op medians",
        );
    }
    let ratio = sum_us / full_us;
    println!(
        "per-op sum {:.3} ms vs full run_inference_i8_view {:.3} ms (ratio {ratio:.3}, tolerance ±{OP_SUM_TOLERANCE})",
        sum_us / 1e3,
        full_us / 1e3
    );
    if (ratio - 1.0).abs() > OP_SUM_TOLERANCE {
        out.fail_check(format!(
            "per-op sum {sum_us:.0} us is not within {OP_SUM_TOLERANCE} of one inference ({full_us:.0} us)"
        ));
    }
    if n != MEDIUM_OPS {
        out.fail_check(format!(
            "medium plan has {n} ops, the table names {MEDIUM_OPS}"
        ));
    }
    table.set("accel.op_sum_ms", sum_us / 1e3, "sum of per-op medians");
    table.set(
        "accel.inference_ms",
        full_us / 1e3,
        "run_inference_i8_view, one image",
    );
    table.set(
        "accel.ns_per_modelled_cycle",
        full_us * 1e3 / report.total_cycles as f64,
        &format!(
            "host ns per modelled FPGA cycle ({} cycles)",
            report.total_cycles
        ),
    );
    Ok(())
}

/// `tensor.gemm_gops`: `gemm_i8_i32_into` on every conv GEMM shape of the
/// plan at the engine's mini-batch width.
fn gemm(plan: &ExecutionPlan, table: &mut LayerTable) {
    /// One conv op's GEMM: `a` (m × k weights) times `b` (k × n columns).
    struct Case {
        a: Vec<i8>,
        b: Vec<i8>,
        out: Vec<i32>,
        m: usize,
        k: usize,
        n: usize,
    }
    let batch = PlatformConfig::default().accel.batch;
    let mut rng = Rng::new(0x6E6D);
    let mut fill = |len: usize| -> Vec<i8> { (0..len).map(|_| rng.next_u64() as i8).collect() };
    let mut cases: Vec<Case> = plan
        .ops
        .iter()
        .filter_map(|op| match op {
            PlanOp::Conv(c) => {
                let g = c.geom;
                let (m, k, n) = (g.k, g.input.c * g.r * g.s, batch * g.oh * g.ow);
                Some(Case {
                    a: fill(m * k),
                    b: fill(k * n),
                    out: vec![0; m * n],
                    m,
                    k,
                    n,
                })
            }
            _ => None,
        })
        .collect();
    let ops: f64 = cases.iter().map(|c| 2.0 * (c.m * c.k * c.n) as f64).sum();
    let ms = median_ms(5, || {
        let _s = trace::span("bench.tensor.gemm");
        for c in &mut cases {
            nvfi_tensor::gemm::gemm_i8_i32_into(&c.a, &c.b, &mut c.out, c.m, c.k, c.n);
        }
    });
    std::hint::black_box(&cases);
    table.set(
        "tensor.gemm_gops",
        ops / (ms * 1e-3) / 1e9,
        &format!("{} conv GEMM shapes at batch {batch}", cases.len()),
    );
}
