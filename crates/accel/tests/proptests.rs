//! Property-based equivalence: for random small convolution networks,
//! random input batches and random faults — every fault kind, lane sets
//! with idle and kernel-tail lanes, transient windows from a one-cycle
//! pulse to the whole schedule, batches of 1, 3 and 8 images — `ExecMode::Auto` (clean GEMM plus the
//! lane-sparse fault delta, per image and batched) equals the per-product
//! reference engine `ExecMode::Exact`, and with no faults both equal the
//! CPU reference executor.

use std::ops::Range;

use nvfi_accel::{AccelConfig, Accelerator, ExecMode, FaultConfig, FaultKind, IdleLanePolicy};
use nvfi_compiler::regmap::MultId;
use nvfi_compiler::ExecutionPlan;
use nvfi_hwnum::Requant;
use nvfi_quant::{QConv, QLinear, QOp, QOpKind, QuantModel};
use nvfi_tensor::{Mat, Shape4, Tensor};
use proptest::prelude::*;

/// Where a transient window sits in the plan's MAC-cycle schedule.
#[derive(Clone, Copy, Debug)]
enum WindowPick {
    /// A permanent fault.
    None,
    /// One cycle, anywhere in the schedule.
    Pulse,
    /// A random run of cycles inside the conv, which may start and end
    /// mid-pixel and cross kernel groups.
    Burst,
    /// A few cycles either side of the conv → linear op boundary.
    Straddle,
    /// Every cycle of the inference.
    Whole,
}

impl WindowPick {
    /// The concrete window for `plan`, placed by the random `pos`.
    fn window(self, plan: &ExecutionPlan, pos: u64) -> Option<Range<u64>> {
        let spans = plan.mac_cycle_spans();
        let total = plan.total_mac_cycles();
        match self {
            WindowPick::None => None,
            WindowPick::Pulse => {
                let c = 1 + pos % total;
                Some(c..c + 1)
            }
            WindowPick::Burst => {
                let conv = &spans[0];
                let len = conv.end - conv.start;
                let (a, b) = (pos % len, (pos >> 24) % len);
                Some(conv.start + a.min(b)..conv.start + a.max(b) + 1)
            }
            WindowPick::Straddle => {
                // Ops: conv, pool (empty span), linear.
                let (conv, head) = (&spans[0], &spans[2]);
                let start = head.start - 1 - pos % (conv.end - conv.start);
                let end = head.start + 1 + (pos / 7) % (head.end - head.start);
                Some(start..end)
            }
            WindowPick::Whole => Some(1..total + 1),
        }
    }
}

/// One random case: model, input batch, fault and window.
#[derive(Clone, Debug)]
struct Case {
    model: QuantModel,
    images: Tensor<f32>,
    targets: Vec<MultId>,
    kind: FaultKind,
    window: WindowPick,
    window_pos: u64,
    gated: bool,
}

/// A random one-conv + pool + linear quantized model, input batch, fault
/// and window.
fn case() -> impl Strategy<Value = Case> {
    (
        (
            1usize..12, // input channels (exercises idle lanes)
            1usize..14, // output channels (exercises kernel tails)
            4usize..7,  // spatial size
            1usize..3,  // stride
            0usize..2,  // pad
        ),
        (proptest::collection::vec(0usize..64, 1..5), any::<u64>()),
        (0u8..4, -131072i32..131072, any::<u32>(), any::<u32>()),
        (0u8..5, any::<u64>()),
        0usize..3, // batch size index into [1, 3, 8]
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(
            |(
                (c, k, hw, stride, pad),
                (lanes, extra),
                (kind_sel, value, a, b),
                (window_sel, window_pos),
                batch_sel,
                gated,
                seed,
            )| {
                let r = 3.min(hw + 2 * pad);
                let weight = Tensor::from_fn(Shape4::new(k, c, r, r), |k2, c2, r2, s2| {
                    (seed
                        .wrapping_mul(0x9E37_79B9)
                        .wrapping_add((k2 * 131 + c2 * 31 + r2 * 7 + s2) as u64)
                        % 255) as i8
                });
                let model = QuantModel {
                    input_shape: Shape4::new(1, c, hw, hw),
                    input_scale: 0.05,
                    ops: vec![
                        QOp {
                            input: 0,
                            kind: QOpKind::Conv(QConv {
                                weight,
                                bias: (0..k).map(|i| i as i32 * 3 - 5).collect(),
                                stride,
                                pad,
                                relu: true,
                                fuse_add: None,
                                requant: vec![Requant::from_scale(0.01).unwrap()],
                                add_requant: None,
                                out_scale: 0.1,
                            }),
                            out_scale: 0.1,
                        },
                        QOp {
                            input: 1,
                            kind: QOpKind::GlobalAvgPool,
                            out_scale: 0.1,
                        },
                        QOp {
                            input: 2,
                            kind: QOpKind::Linear(QLinear {
                                weight: Mat::from_vec(
                                    3,
                                    k,
                                    (0..3 * k).map(|i| (i as i8).wrapping_mul(37)).collect(),
                                ),
                                bias: vec![7, -9, 0],
                                out_scale: 0.1,
                            }),
                            out_scale: 0.1,
                        },
                    ],
                    output: 3,
                };
                let batch = [1, 3, 8][batch_sel];
                let images = Tensor::from_fn(Shape4::new(batch, c, hw, hw), |n, c2, h2, w2| {
                    ((seed as usize + n * 71 + c2 * 17 + h2 * 5 + w2) % 40) as f32 * 0.05 - 0.5
                });
                // Lane index = mac * 8 + mult. Besides the random lanes, add
                // an idle lane (multiplier j >= C) and a kernel-tail lane
                // (MAC m >= K mod 8) whenever the conv has them.
                let mut lanes = lanes;
                let (e0, e1, e2) = (
                    extra as usize,
                    (extra >> 16) as usize,
                    (extra >> 32) as usize,
                );
                if c < 8 {
                    lanes.push((e0 % 8) * 8 + c + e1 % (8 - c));
                }
                if k % 8 != 0 {
                    lanes.push((k % 8 + e2 % (8 - k % 8)) * 8 + e0 % 8);
                }
                let mut targets: Vec<MultId> = lanes.into_iter().map(MultId::from_lane).collect();
                targets.sort();
                targets.dedup();
                // Bit-granular kinds touch from one to all 18 wires.
                let wires = (a >> (b % 32)) | 1 << (b % 18);
                let kind = match kind_sel {
                    0 => FaultKind::StuckAtZero,
                    1 => FaultKind::Constant(value),
                    2 => FaultKind::StuckBits {
                        fsel: wires,
                        fdata: b,
                    },
                    _ => FaultKind::FlipBits { mask: wires },
                };
                let window = [
                    WindowPick::None,
                    WindowPick::Pulse,
                    WindowPick::Burst,
                    WindowPick::Straddle,
                    WindowPick::Whole,
                ][usize::from(window_sel)];
                Case {
                    model,
                    images,
                    targets,
                    kind,
                    window,
                    window_pos,
                    gated,
                }
            },
        )
}

fn plan_of(model: &QuantModel) -> ExecutionPlan {
    nvfi_compiler::compile(model, nvfi_compiler::lower::DEFAULT_DRAM_CAPACITY).expect("compiles")
}

/// A device for `plan` under `mode`, with `fault` and `window` armed.
fn device(
    plan: &ExecutionPlan,
    mode: ExecMode,
    gated: bool,
    fault: Option<&FaultConfig>,
    window: Option<Range<u64>>,
) -> Accelerator {
    let idle = if gated {
        IdleLanePolicy::Gated
    } else {
        IdleLanePolicy::ZeroFed
    };
    let mut accel = Accelerator::new(AccelConfig {
        mode,
        idle_lanes: idle,
        ..Default::default()
    });
    accel.load_plan(plan).expect("loads");
    if let Some(f) = fault {
        accel.inject(f);
    }
    accel
        .set_fault_window(window)
        .expect("window overlaps the plan");
    accel
}

fn run(
    model: &QuantModel,
    image: &Tensor<f32>,
    mode: ExecMode,
    gated: bool,
    fault: Option<&FaultConfig>,
) -> Vec<i32> {
    device(&plan_of(model), mode, gated, fault, None)
        .run_inference(image)
        .expect("runs")
        .logits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn auto_equals_exact_for_every_kind_lane_set_window_and_batch(case in case()) {
        let plan = plan_of(&case.model);
        let window = case.window.window(&plan, case.window_pos);
        let fault = FaultConfig::new(case.targets.clone(), case.kind);
        let qimgs = case.model.quantize_input(&case.images);
        let n = qimgs.shape().n;
        let arm = |mode| device(&plan, mode, case.gated, Some(&fault), window.clone());

        let mut exact = arm(ExecMode::Exact);
        let want: Vec<Vec<i32>> = (0..n)
            .map(|i| exact.run_inference_i8(&qimgs.slice_image(i)).unwrap().logits)
            .collect();
        let mut per_image = arm(ExecMode::Auto);
        let got: Vec<Vec<i32>> = (0..n)
            .map(|i| per_image.run_inference_i8(&qimgs.slice_image(i)).unwrap().logits)
            .collect();
        prop_assert_eq!(&got, &want, "per-image, window {:?}, {:?}", window, fault);
        let batched: Vec<Vec<i32>> = arm(ExecMode::Auto)
            .run_batch_i8_view(qimgs.as_slice())
            .unwrap()
            .into_iter()
            .map(|r| r.logits)
            .collect();
        prop_assert_eq!(&batched, &want, "batched, window {:?}, {:?}", window, fault);
    }

    #[test]
    fn fault_free_engines_match_cpu_reference(case in case()) {
        let image = case.images.slice_image(0);
        let want = nvfi_quant::exec::forward(&case.model, &case.model.quantize_input(&image), 1);
        let exact = run(&case.model, &image, ExecMode::Exact, case.gated, None);
        let auto = run(&case.model, &image, ExecMode::Auto, case.gated, None);
        prop_assert_eq!(&exact, &want[0]);
        prop_assert_eq!(&auto, &want[0]);
    }

    #[test]
    fn stuck_at_zero_equals_constant_zero(case in case()) {
        let image = case.images.slice_image(0);
        let a = run(&case.model, &image, ExecMode::Auto, case.gated,
            Some(&FaultConfig::new(case.targets.clone(), FaultKind::StuckAtZero)));
        let b = run(&case.model, &image, ExecMode::Auto, case.gated,
            Some(&FaultConfig::new(case.targets, FaultKind::Constant(0))));
        prop_assert_eq!(a, b);
    }
}
