//! The emulated NVDLA-style int8 CNN inference accelerator with
//! per-multiplier fault injection — the hardware half of the DATE 2025
//! platform, reproduced as a bit- and mapping-faithful simulator.
//!
//! # Microarchitecture
//!
//! The modelled datapath follows the paper's Fig. 1:
//!
//! * **CMAC**: 8 MAC units x 8 signed 8-bit multipliers. In one atomic op
//!   (one cycle) the array consumes one 8-channel activation word and an
//!   8x8 weight block, producing 8 partial sums. MAC unit `m` serves output
//!   channel `k` with `k % 8 == m`; multiplier `j` serves input channel `c`
//!   with `c % 8 == j`. The same physical multiplier is reused by every
//!   layer — the essential coupling that graph-level fault injection cannot
//!   express.
//! * **Fault injectors**: every multiplier output is an 18-bit lane with a
//!   per-wire override mux (`out[i] = fsel[i] ? fdata[i] : product[i]`),
//!   selected per multiplier by the 64-bit `sel_a:sel_b` register pair and
//!   programmed over the CSB/AXI4-Lite window ([`csb`]).
//! * **CACC/SDP/PDP**: i32 accumulation, then bias / fixed-point
//!   requantization / optional residual add / ReLU, and pooling. The SDP
//!   epilogue is the hot path's one non-GEMM loop per output element: it
//!   runs the exact 64-bit `Requant::apply_narrow` with each channel's
//!   constants fixed outside the pixel loop, so it auto-vectorizes, and it
//!   is unit-tested bit for bit against the CPU reference's per-element
//!   `sdp_postprocess` in `nvfi-quant`.
//! * **DRAM**: a byte-addressable memory holding packed feature surfaces
//!   and weights ([`dram`]). Its capacity is a logical bound; the host holds
//!   only the bytes up to the highest one written, so a device clone copies
//!   the plan footprint rather than the whole capacity.
//!
//! # Execution modes and the lane-sparse fault delta
//!
//! * [`ExecMode::Auto`] (default) is the one execution path. Every conv and
//!   linear op computes the clean batched im2col + GEMM, then adds the
//!   fault delta `Σ (apply(p) − p)` over the **selected lanes only**, and
//!   only over the products whose cycle falls inside the transient window
//!   ([`Accelerator::set_fault_window`]). Each plan op owns a fixed
//!   per-inference MAC-cycle span (`ExecutionPlan::mac_cycle_spans`, cached
//!   on the device at plan-load time) and its products retire in a
//!   closed-form order (kernel group → output pixel → channel block → tap),
//!   so a window maps to one contiguous product range per op. The injector
//!   mux and XOR are precomputed as 18-bit masks, so every fault kind —
//!   full overrides, [`FaultKind::StuckBits`], [`FaultKind::FlipBits`] —
//!   takes the same path. The idle-lane rules are the exact engine's:
//!   kernel-tail MACs are discarded, idle lanes and padded taps contribute
//!   `apply(0)` under [`IdleLanePolicy::ZeroFed`], and gated idle lanes
//!   contribute nothing. i32 accumulation wraps, so the result equals the
//!   per-product engine bit for bit.
//! * [`ExecMode::Exact`] pushes every single product through the injector
//!   muxes in the CMAC's atomic-op schedule — the reference engine. It
//!   exists as the oracle: the property tests in `tests/proptests.rs` and
//!   `tests/equivalence.rs` (every fault kind, lane set, window placement
//!   and batch size) compare [`ExecMode::Auto`] against it.
//!
//! The per-image entry points ([`Accelerator::run_inference_i8_view`] and
//! the prefix/suffix pair below) stage each op's surfaces through DRAM
//! around the same batched executors with a batch of one, so DRAM holds
//! every intermediate surface after a per-image run.
//!
//! The fault-free prefix of a windowed inference is also *restorable*:
//! [`Accelerator::run_prefix_i8_view`] runs ops `0..b` and leaves DRAM in
//! the boundary state, and [`Accelerator::run_suffix_i8_view`] re-seeds the
//! boundary's live-in surfaces (`ExecutionPlan::live_in_surfaces`) plus the
//! prefix cycle count and runs ops `b..` — bit-identical to the full run.
//! [`Accelerator::capture_prefix_i8_view`] copies those surfaces out after
//! the prefix, and [`Accelerator::run_inference_capture_i8_view`] does the
//! same in the middle of a full fault-free run. Fault-injection campaigns
//! build a campaign-lifetime golden-prefix activation cache on top of these
//! (`nvfi::GoldenActivationCache`), capturing each image's prefix once
//! (probed by [`golden_prefix_passes`]) and restoring it for every windowed
//! work item ([`golden_restores`]).
//!
//! # Weight-arena lifecycle
//!
//! [`Accelerator::load_plan`] / [`Accelerator::commit_cmd_fifo`] build a
//! **weight arena**: every conv/linear layer's packed weight region is
//! unpacked from the blocked DRAM layout once and cached as the dense
//! `K x (C*R*S)` GEMM operand. The cache is keyed by the backing DRAM
//! range, and the only two host-visible ways of mutating DRAM —
//! [`Accelerator::dma_write`] and [`Accelerator::flip_dram_bit`] — mark
//! every overlapping entry dirty; the next op that needs the entry
//! re-unpacks it from DRAM. Weight-memory SEU experiments therefore observe
//! exactly what a cold device would, which `tests/arena.rs` property-tests.
//!
//! # Scratch reuse invariants
//!
//! All per-op intermediates (DMA staging, unpacked activations, im2col
//! columns, i32 accumulators, SDP output, packed surfaces) live in a
//! per-device scratch arena whose buffers are resized per op but never
//! shrink, so steady-state inference allocates nothing on the heap. Two
//! invariants keep that safe: (1) every buffer is fully overwritten (or
//! explicitly zeroed) before use — nothing reads stale bytes from a
//! previous op or inference; (2) scratch never aliases DRAM — op inputs are
//! staged out of DRAM before any output is written back. The batched path
//! ([`Accelerator::run_batch_i8`]) additionally keeps **all** surfaces —
//! input, intermediates — in a per-address scratch map instead of DRAM;
//! results are bit-identical to the per-image path, but DRAM is only
//! touched for weight-arena refills and one final logits write per
//! mini-batch (the last image's, for parity with per-image runs), so
//! `dma_read` of surface addresses reflects per-image traffic only when
//! `batch == 1`.
//!
//! # Examples
//!
//! ```
//! use nvfi_accel::{Accelerator, AccelConfig, FaultConfig, FaultKind};
//! use nvfi_compiler::regmap::MultId;
//!
//! # fn demo(plan: &nvfi_compiler::ExecutionPlan, image: &nvfi_tensor::Tensor<f32>)
//! #     -> Result<(), nvfi_accel::AccelError> {
//! let mut accel = Accelerator::new(AccelConfig::default());
//! accel.load_plan(plan)?;
//! // Stuck-at-0 on the last multiplier of MAC unit 1:
//! accel.inject(&FaultConfig::new(vec![MultId::new(0, 7)], FaultKind::StuckAtZero));
//! let result = accel.run_inference(image)?;
//! println!("class {} in {:.3} ms", result.class, result.perf.latency_ms());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csb;
pub mod dram;
mod engine;
mod error;
pub mod fi;
pub mod perf;

pub use engine::{
    golden_prefix_passes, golden_restores, Accelerator, ExecMode, IdleLanePolicy, InferenceResult,
};
pub use error::AccelError;
pub use fi::{FaultConfig, FaultKind};
pub use perf::{AccelConfig, PerfReport, CLOCK_HZ_DEFAULT};
