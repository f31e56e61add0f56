//! The golden-prefix guarantee, asserted through the process-wide
//! `nvfi_accel::golden_prefix_passes` / `nvfi_accel::golden_restores`
//! probes: a windowed campaign captures the fault-free prefix of each
//! evaluation image exactly **once** — however many fault configurations
//! its work list expands to — and every windowed work item *restores* the
//! checkpoint instead of recomputing the prefix.
//!
//! The same run pins the engine's path counters: a windowed `Auto`
//! campaign adds lane deltas to the clean GEMM and never reaches the
//! per-product reference engine.
//!
//! The probe counters are process-wide, so this test lives in its own
//! integration-test binary (cargo runs test binaries one at a time): no
//! concurrently running test can capture or restore in between the counter
//! reads.

use zynq_nvdla_fi::nvfi::campaign::{Campaign, CampaignSpec, TargetSelection};
use zynq_nvdla_fi::nvfi::{EmulationPlatform, PlatformConfig};
use zynq_nvdla_fi::nvfi_accel::{golden_prefix_passes, golden_restores, FaultKind};
use zynq_nvdla_fi::nvfi_compiler::regmap::MultId;
use zynq_nvdla_fi::nvfi_dataset::{SynthCifar, SynthCifarConfig};

use nvfi_obs::metrics;

#[test]
fn campaign_computes_the_golden_prefix_exactly_once_per_image() {
    let q = zynq_nvdla_fi::nvfi::experiments::untrained_quant_model(4, 7);
    let data = SynthCifar::new(SynthCifarConfig {
        train: 0,
        test: 10,
        ..Default::default()
    })
    .generate();
    let probe = EmulationPlatform::assemble(&q, PlatformConfig::default()).unwrap();
    let total = probe.accel().total_mac_cycles().unwrap();
    let window = total / 2..total / 2 + total / 8;
    // Checkpoint stride at this window's boundary, for the budget test
    // below.
    let boundary = probe.accel().first_op_in_window(&window).unwrap();
    assert!(
        boundary > 0,
        "a mid-inference window has a non-empty prefix"
    );
    let stride: u64 = probe
        .plan()
        .live_in_surfaces(boundary)
        .iter()
        .map(|&(_, b)| b)
        .sum();
    // 3 target sets x 1 kind = 3 windowed work items over 2 threads: the
    // naive path would have recomputed the prefix of all 10 images for
    // every one of them.
    let spec = CampaignSpec {
        selection: TargetSelection::Fixed(vec![
            vec![MultId::new(0, 1)],
            vec![MultId::new(2, 3), MultId::new(5, 6)],
            MultId::all().collect(),
        ]),
        kinds: vec![FaultKind::Constant(131071)],
        eval_images: 10,
        threads: 2,
        fault_window: Some(window),
        ..Default::default()
    };
    let campaign = Campaign::new(&q, PlatformConfig::default());

    let path = |name: &str| metrics::counter(name).get();
    let exact_before = path("engine_path_exact");
    let delta_before = path("engine_path_fast_corrected");
    let prefix_before = golden_prefix_passes();
    let restore_before = golden_restores();
    let result = campaign.run(&spec, &data.test).unwrap();
    assert_eq!(
        path("engine_path_exact") - exact_before,
        0,
        "a windowed Auto campaign must never run the reference engine"
    );
    assert!(
        path("engine_path_fast_corrected") > delta_before,
        "the window's ops must add a lane delta to the clean GEMM"
    );
    assert_eq!(result.records.len(), 3);
    assert_eq!(result.total_inferences, 4 * 10);
    assert_eq!(
        golden_prefix_passes() - prefix_before,
        10,
        "a windowed campaign must capture the golden prefix exactly once \
         per image (the GoldenActivationCache built in Campaign::run) — \
         any extra pass means per-work-item prefix recomputation crept \
         back in"
    );
    assert_eq!(
        golden_restores() - restore_before,
        3 * 10,
        "every windowed work item must restore each image's checkpoint"
    );

    // A cache budget that only holds 4 of the 10 images: exactly 4
    // captures, and only those images restore (the rest recompute their
    // prefix inside full inferences, which the probes do not count).
    let partial = CampaignSpec {
        golden_cache_bytes: stride as usize * 4,
        ..spec.clone()
    };
    let prefix_before = golden_prefix_passes();
    let restore_before = golden_restores();
    let _ = campaign.run(&partial, &data.test).unwrap();
    assert_eq!(golden_prefix_passes() - prefix_before, 4);
    assert_eq!(golden_restores() - restore_before, 3 * 4);

    // Disabled cache: no captures, no restores.
    let disabled = CampaignSpec {
        golden_cache_bytes: 0,
        ..spec.clone()
    };
    let prefix_before = golden_prefix_passes();
    let restore_before = golden_restores();
    let _ = campaign.run(&disabled, &data.test).unwrap();
    assert_eq!(golden_prefix_passes() - prefix_before, 0);
    assert_eq!(golden_restores() - restore_before, 0);

    // One work item over 2 threads: the item and the fused baseline both
    // shard over a 2-device pool. The baseline captures each image once
    // (no restore) and the item restores each image once.
    let one_item = CampaignSpec {
        selection: TargetSelection::Fixed(vec![vec![MultId::new(0, 1)]]),
        ..spec.clone()
    };
    let prefix_before = golden_prefix_passes();
    let restore_before = golden_restores();
    let result = campaign.run(&one_item, &data.test).unwrap();
    assert_eq!(result.total_inferences, 2 * 10);
    assert_eq!(golden_prefix_passes() - prefix_before, 10);
    assert_eq!(golden_restores() - restore_before, 10);

    // A window-free campaign never touches the golden machinery.
    let unwindowed = CampaignSpec {
        fault_window: None,
        ..spec
    };
    let prefix_before = golden_prefix_passes();
    let _ = campaign.run(&unwindowed, &data.test).unwrap();
    assert_eq!(golden_prefix_passes() - prefix_before, 0);
}
