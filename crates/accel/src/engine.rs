//! The execution engine: runs compiled plans on the modelled datapath.
//!
//! # Campaign-lifetime reuse
//!
//! A fault-injection campaign runs the *same* plan for every image of every
//! fault configuration, so all per-plan work is hoisted out of the
//! per-inference path:
//!
//! * the **weight arena** ([`WeightArena`]) unpacks every conv/linear
//!   layer's weights from the blocked DRAM surface format once, at
//!   [`Accelerator::load_plan`] time, and keeps them laid out as the dense
//!   `K x (C*R*S)` GEMM operand. Host-visible DRAM mutation
//!   ([`Accelerator::dma_write`], [`Accelerator::flip_dram_bit`]) that
//!   overlaps a cached weight region marks the entry dirty, and the next use
//!   re-unpacks from DRAM — so weight-memory SEU experiments observe exactly
//!   the same data a cold device would;
//! * the **scratch arena** ([`Scratch`]) owns every intermediate buffer the
//!   op executors need (DMA staging, unpacked activations, im2col columns,
//!   i32 accumulators, SDP output, packed surfaces). Buffers are resized per
//!   op but their capacity only grows, so steady-state inference performs
//!   zero heap allocation;
//! * [`Accelerator::run_batch_i8`] executes each op once over an image
//!   mini-batch: one im2col + GEMM per layer with the mini-batch's columns
//!   side by side, plus the lane-sparse fault delta. Per-column
//!   independence makes the batched result bit-identical to the per-image
//!   path; intermediate surfaces live in the scratch arena rather than DRAM
//!   (only the per-image path stages each op's surfaces through DRAM,
//!   around the same executors with a batch of one).

use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use nvfi_obs::metrics::{self, Counter};

use nvfi_compiler::plan::{ConvOp, ExecutionPlan, LinearOp, PlanOp, PoolKind, PoolOp, RegWrite};
use nvfi_compiler::regmap::MultId;
use nvfi_compiler::surface;
use nvfi_hwnum::{sat, I18};
use nvfi_tensor::{gemm, im2col, pool, ConvGeom, Shape4, Tensor};

use crate::csb::CsbSpace;
use crate::dram::Dram;
use crate::error::AccelError;
use crate::fi::{FaultConfig, FaultInjectorBank, LaneMux};
use crate::perf::{self, AccelConfig, PerfReport};

/// How convolutions are evaluated functionally.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The reference engine: every product goes through its injector mux
    /// in the CMAC's atomic-op schedule. Slow — the oracle the other mode
    /// is tested against.
    Exact,
    /// Clean im2col + GEMM, then the lane-sparse fault delta: `apply(p) - p`
    /// summed over the selected lanes' products whose cycle lies in the
    /// fault window. Bit-identical to [`ExecMode::Exact`] for every fault
    /// kind, with or without a window.
    #[default]
    Auto,
}

/// Process-wide count of golden-prefix captures
/// ([`Accelerator::run_prefix_i8_view`] calls), backed by the `nvfi_obs`
/// metrics registry under `golden_prefix_passes`. A test probe in the
/// spirit of `nvfi_quant::batch::quantization_passes`: a campaign must
/// capture the golden prefix of each image exactly once, however many
/// windowed work items later restore it.
fn golden_prefix_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| metrics::counter("golden_prefix_passes"))
}

/// Process-wide count of golden restores
/// ([`Accelerator::run_suffix_i8_view`] calls) — the cheap half of the
/// golden-prefix protocol. Registry name: `golden_restores`.
fn golden_restore_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| metrics::counter("golden_restores"))
}

/// Per-image counts of conv and linear op executions, by how the MAC
/// array was evaluated. The registry names date from an earlier
/// three-path engine and are kept for their readers:
///
/// * `engine_path_fast`: clean GEMM with an empty lane delta (no fault
///   active, or the fault window misses the op);
/// * `engine_path_fast_corrected`: clean GEMM plus a non-empty lane delta;
/// * `engine_path_exact`: the reference engine, only under
///   [`ExecMode::Exact`].
struct PathCounters {
    clean: Counter,
    delta: Counter,
    exact: Counter,
}

fn path_counters() -> &'static PathCounters {
    static C: OnceLock<PathCounters> = OnceLock::new();
    C.get_or_init(|| PathCounters {
        clean: metrics::counter("engine_path_fast"),
        delta: metrics::counter("engine_path_fast_corrected"),
        exact: metrics::counter("engine_path_exact"),
    })
}

/// Reads the process-wide golden-prefix capture counter (test probe).
#[must_use]
pub fn golden_prefix_passes() -> u64 {
    golden_prefix_counter().get()
}

/// Reads the process-wide golden-restore counter (test probe).
#[must_use]
pub fn golden_restores() -> u64 {
    golden_restore_counter().get()
}

/// What happens on multiplier lanes whose channel index exceeds the layer's
/// channel count (partial channel blocks).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum IdleLanePolicy {
    /// Idle lanes multiply zeros — their (overridable!) products still enter
    /// the adder tree, as in CMAC's zero-padded atomic ops. Default.
    #[default]
    ZeroFed,
    /// Idle lanes are clock-gated: no product, faults have no effect there.
    Gated,
}

/// Result of one inference.
#[derive(Clone, Debug)]
pub struct InferenceResult {
    /// Raw i32 logits read back from DRAM.
    pub logits: Vec<i32>,
    /// Argmax class.
    pub class: u8,
    /// Cycle/latency model output for this inference.
    pub perf: PerfReport,
}

/// One cached weight region: the DRAM backing range plus the unpacked
/// `(K, C, R, S)` tensor (whose dense buffer is also the row-major
/// `K x (C*R*S)` GEMM operand).
#[derive(Clone, Debug)]
struct WeightEntry {
    addr: u64,
    bytes: u64,
    shape: Shape4,
    weights: Tensor<i8>,
    /// DRAM under this entry changed since the last unpack.
    dirty: bool,
}

/// Plan-lifetime cache of unpacked weights, indexed by plan-op position.
#[derive(Clone, Debug, Default)]
struct WeightArena {
    entries: Vec<WeightEntry>,
    /// `by_op[i]` is the entry index of plan op `i`, if it has weights.
    by_op: Vec<Option<usize>>,
}

impl WeightArena {
    fn clear(&mut self) {
        self.entries.clear();
        self.by_op.clear();
    }

    /// Marks every entry overlapping `[addr, addr + len)` dirty.
    fn invalidate_overlap(&mut self, addr: u64, len: u64) {
        for e in &mut self.entries {
            if addr < e.addr.saturating_add(e.bytes) && e.addr < addr.saturating_add(len) {
                e.dirty = true;
            }
        }
    }
}

/// Reusable intermediate buffers of the op executors. Every field is
/// resized per use; capacities persist, so the steady state allocates
/// nothing.
#[derive(Clone, Debug, Default)]
struct Scratch {
    /// DMA staging for surface reads and arena refills.
    dma: Vec<i8>,
    /// im2col column matrix.
    cols: Vec<i8>,
    /// i32 accumulators of the current op.
    acc: Vec<i32>,
    /// Packed output surface to write back.
    packed: Vec<i8>,
    /// Logits of the linear head, image-major.
    logits: Vec<i32>,
    /// Quantized-input staging of the f32 convenience wrappers.
    qinput: Vec<i8>,
    /// Dense CHW surfaces (batch-major) by DRAM address: every surface of a
    /// batched run, and the staged inputs and outputs of the per-image path.
    batch_surfaces: HashMap<u64, Vec<i8>>,
}

/// The emulated accelerator device.
#[derive(Clone, Debug)]
pub struct Accelerator {
    config: AccelConfig,
    csb: CsbSpace,
    dram: Dram,
    plan: Option<Arc<ExecutionPlan>>,
    /// Functional MAC-array cycle counter (atomic ops retired by the
    /// current inference launch).
    cycle: u64,
    arena: WeightArena,
    scratch: Scratch,
    /// Cycle-model report of the loaded plan (fault-independent, so it is
    /// computed once per plan and cloned per inference).
    perf_template: Option<PerfReport>,
    /// Per-op MAC-cycle spans of the loaded plan
    /// ([`ExecutionPlan::mac_cycle_spans`], computed once per plan) — the
    /// schedule table that places a transient window inside each op.
    spans: Vec<Range<u64>>,
}

impl Accelerator {
    /// Creates a device with the given configuration.
    #[must_use]
    pub fn new(config: AccelConfig) -> Self {
        Accelerator {
            config,
            csb: CsbSpace::new(),
            dram: Dram::new(config.dram_capacity),
            plan: None,
            cycle: 0,
            arena: WeightArena::default(),
            scratch: Scratch::default(),
            perf_template: None,
            spans: Vec::new(),
        }
    }

    /// The device configuration.
    #[must_use]
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// CSB register write (AXI4-Lite).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::BadRegister`] for unmapped addresses.
    pub fn csb_write(&mut self, addr: u32, value: u32) -> Result<(), AccelError> {
        self.csb.write(addr, value)
    }

    /// CSB register read (AXI4-Lite).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::BadRegister`] for unmapped addresses.
    pub fn csb_read(&self, addr: u32) -> Result<u32, AccelError> {
        self.csb.read(addr)
    }

    /// Host DMA into DRAM. Invalidates any weight-arena entry whose backing
    /// region overlaps the written range.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::DramOutOfBounds`] on a bad range.
    pub fn dma_write(&mut self, addr: u64, bytes: &[i8]) -> Result<(), AccelError> {
        self.dram.write_i8(addr, bytes)?;
        self.arena.invalidate_overlap(addr, bytes.len() as u64);
        Ok(())
    }

    /// Host DMA out of DRAM.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::DramOutOfBounds`] on a bad range.
    pub fn dma_read(&mut self, addr: u64, len: u64) -> Result<Vec<i8>, AccelError> {
        self.dram.read_i8(addr, len)
    }

    /// Flips one bit of DRAM — a memory single-event upset (SEU). Pointing
    /// this at a weight region emulates weight-memory faults, complementing
    /// the datapath injectors (part of the paper's "study the impact of
    /// introducing various FT mechanisms" future-work agenda). A flip that
    /// lands in a cached weight region invalidates the arena entry, so the
    /// next inference re-reads the faulted bytes exactly as a cold device
    /// would.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::DramOutOfBounds`] if `addr` is outside DRAM.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 8`.
    pub fn flip_dram_bit(&mut self, addr: u64, bit: u8) -> Result<(), AccelError> {
        assert!(bit < 8, "bit index {bit} out of a byte");
        let byte = self.dram.read_i8(addr, 1)?[0];
        self.dram.write_i8(addr, &[byte ^ (1 << bit)])?;
        self.arena.invalidate_overlap(addr, 1);
        Ok(())
    }

    /// Exports the loaded plan's weight regions as a DRAM image: one
    /// `(addr, bytes)` record per conv/linear weight region, read from the
    /// device's **current** DRAM contents — so a weight-memory SEU injected
    /// with [`Accelerator::flip_dram_bit`] travels with the image. This is
    /// what a distributed campaign ships to remote workers once per session
    /// (the `nvfi-dist` coordinator), the software analogue of DMA-ing the
    /// programmed bitstream's weight memory to another board.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::NoPlan`] if no plan is loaded; propagates DRAM
    /// errors.
    pub fn export_weight_image(&mut self) -> Result<Vec<(u64, Vec<i8>)>, AccelError> {
        if self.plan.is_none() {
            return Err(AccelError::NoPlan);
        }
        let regions: Vec<(u64, u64)> = self
            .arena
            .entries
            .iter()
            .map(|e| (e.addr, e.bytes))
            .collect();
        let mut out = Vec::with_capacity(regions.len());
        for (addr, bytes) in regions {
            out.push((addr, self.dram.read_i8(addr, bytes)?));
        }
        Ok(out)
    }

    /// Imports a weight image exported by [`Accelerator::export_weight_image`]
    /// (or carried by [`ExecutionPlan::weight_image`]): DMA-writes every
    /// region, invalidating overlapping weight-arena entries so the next
    /// inference unpacks the imported bytes exactly as a cold device would.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::DramOutOfBounds`] if a region does not fit.
    pub fn import_weight_image(&mut self, regions: &[(u64, Vec<i8>)]) -> Result<(), AccelError> {
        for (addr, bytes) in regions {
            self.dma_write(*addr, bytes)?;
        }
        Ok(())
    }

    /// Loads a compiled plan: validates it against the DRAM capacity,
    /// preloads the packed weight regions and builds the weight arena.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::BadPlan`] if the plan does not fit.
    pub fn load_plan(&mut self, plan: &ExecutionPlan) -> Result<(), AccelError> {
        if plan.dram_size > self.config.dram_capacity {
            return Err(AccelError::BadPlan(format!(
                "plan needs {} bytes, device has {}",
                plan.dram_size, self.config.dram_capacity
            )));
        }
        for (addr, bytes) in &plan.weight_image {
            self.dram.write_i8(*addr, bytes)?;
        }
        self.install_plan(Arc::new(plan.clone()))
    }

    /// Loads a plan that was streamed into the command FIFO as register
    /// writes (see [`nvfi_compiler::plan::encode_reg_stream`]). Weights must
    /// be DMA'd separately, exactly as a real driver would; the arena
    /// entries built here start dirty-on-write, so weight DMA arriving after
    /// the commit is picked up on first use.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::BadPlan`] if the FIFO contents do not decode.
    pub fn commit_cmd_fifo(&mut self) -> Result<(), AccelError> {
        let plan = nvfi_compiler::plan::decode_words(&self.csb.cmd_fifo)
            .map_err(|e| AccelError::BadPlan(e.to_string()))?;
        if plan.dram_size > self.config.dram_capacity {
            return Err(AccelError::BadPlan("plan exceeds dram".into()));
        }
        self.install_plan(Arc::new(plan))
    }

    /// Shared tail of the two plan loaders: resets the run state and builds
    /// the weight arena from the plan's current DRAM contents.
    fn install_plan(&mut self, plan: Arc<ExecutionPlan>) -> Result<(), AccelError> {
        // A window programmed before the plan (or valid for a previous
        // plan) must be re-validated against this plan's schedule, or a
        // stale past-the-end window would silently disarm every injection.
        if let Some(w) = &self.csb.fi.window {
            Self::validate_window(w, plan.total_mac_cycles())?;
        }
        self.cycle = 0;
        self.perf_template = Some(perf::plan_report(&plan, self.config.clock_hz));
        self.spans = plan.mac_cycle_spans();
        self.arena.clear();
        self.arena.by_op = vec![None; plan.ops.len()];
        for (i, op) in plan.ops.iter().enumerate() {
            let (addr, shape) = match op {
                PlanOp::Conv(c) => (c.weight_addr, c.geom.weight_shape()),
                PlanOp::Linear(l) => (l.weight_addr, Shape4::new(l.out_f, l.in_f, 1, 1)),
                PlanOp::Pool(_) => continue,
            };
            let bytes = surface::weight_bytes(shape.n, shape.c, shape.h, shape.w) as u64;
            self.arena.by_op[i] = Some(self.arena.entries.len());
            self.arena.entries.push(WeightEntry {
                addr,
                bytes,
                shape,
                weights: Tensor::zeros(shape),
                dirty: true,
            });
        }
        self.plan = Some(plan);
        // Eager unpack so campaign steady state starts warm.
        for i in 0..self.arena.by_op.len() {
            self.refresh_weights(i)?;
        }
        Ok(())
    }

    /// Re-unpacks the weights of plan op `op_idx` from DRAM if the cached
    /// copy is stale (or was never filled).
    fn refresh_weights(&mut self, op_idx: usize) -> Result<(), AccelError> {
        let Some(Some(ei)) = self.arena.by_op.get(op_idx).copied() else {
            return Ok(());
        };
        if !self.arena.entries[ei].dirty {
            return Ok(());
        }
        let (addr, bytes, shape) = {
            let e = &self.arena.entries[ei];
            (e.addr, e.bytes, e.shape)
        };
        self.dram.read_i8_into(addr, bytes, &mut self.scratch.dma)?;
        let e = &mut self.arena.entries[ei];
        surface::unpack_weights_into(&self.scratch.dma, shape, e.weights.as_mut_slice());
        e.dirty = false;
        Ok(())
    }

    /// Applies the register writes of `stream` (FI programming, command
    /// FIFO, ...) in order.
    ///
    /// # Errors
    ///
    /// Propagates the first failing write.
    pub fn apply_reg_stream(&mut self, stream: &[RegWrite]) -> Result<(), AccelError> {
        for w in stream {
            self.csb_write(w.addr, w.value)?;
        }
        Ok(())
    }

    /// Programs a fault configuration through the CSB registers.
    pub fn inject(&mut self, fault: &FaultConfig) {
        self.inject_writes(&fault.reg_writes());
    }

    /// Programs a fault from an already-encoded register stream.
    ///
    /// [`FaultConfig::reg_writes`] allocates the stream; when the same fault
    /// is re-injected across every member of a device pool, encoding it once
    /// and replaying the writes per device keeps re-injection allocation-free.
    pub fn inject_writes(&mut self, writes: &[RegWrite]) {
        for w in writes {
            self.csb
                .write(w.addr, w.value)
                .expect("FI registers are mapped");
        }
    }

    /// Disables all fault injection.
    pub fn clear_faults(&mut self) {
        self.csb.fi = FaultInjectorBank::new();
    }

    /// Whether a run could differ from the golden one: an injector is
    /// active ([`FaultInjectorBank::any_active`]) or a transient window is
    /// armed. Golden-prefix captures refuse such a device.
    #[must_use]
    pub fn faults_armed(&self) -> bool {
        self.csb.fi.any_active() || self.csb.fi.window.is_some()
    }

    /// Restricts injection to a cycle window (a transient / "pulse" fault).
    /// Under [`ExecMode::Auto`] the window maps to one contiguous range of
    /// each op's products, and only the selected lanes' products in that
    /// range add a fault delta to the clean GEMM; ops the window misses run
    /// the clean GEMM alone.
    ///
    /// Cycle numbering restarts at every launched inference (see
    /// [`Accelerator::mac_cycles_retired`]), so the window describes a pulse
    /// relative to inference start: every image of a campaign experiences
    /// the same transient, regardless of which device of a pool — or which
    /// position in a mini-batch — it lands on.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::BadPlan`] if a plan is loaded and the window
    /// cannot overlap any retired MAC cycle (`1..=total`): such a "pulse"
    /// would silently run a fault-free campaign.
    pub fn set_fault_window(&mut self, window: Option<Range<u64>>) -> Result<(), AccelError> {
        if let Some(w) = &window {
            self.validate_fault_window(w)?;
        }
        self.csb.fi.window = window;
        Ok(())
    }

    /// Read-only validation of a prospective transient window: the
    /// plan-schedule overlap check of [`Accelerator::set_fault_window`]
    /// (when a plan is loaded) without mutating the device — for callers
    /// that want to surface window errors up front.
    ///
    /// # Errors
    ///
    /// Same contract as [`Accelerator::set_fault_window`].
    pub fn validate_fault_window(&self, window: &Range<u64>) -> Result<(), AccelError> {
        if let Some(plan) = &self.plan {
            Self::validate_window(window, plan.total_mac_cycles())?;
        }
        Ok(())
    }

    /// Rejects a transient window that cannot overlap any retired MAC cycle
    /// (`1..=total`) of a plan. Shared by [`Accelerator::set_fault_window`]
    /// and the plan loaders (a window programmed before — or across — plan
    /// loads is re-validated at install time).
    fn validate_window(w: &Range<u64>, total: u64) -> Result<(), AccelError> {
        if w.start >= w.end || w.end <= 1 || w.start > total {
            return Err(AccelError::BadPlan(format!(
                "transient fault window {}..{} cannot overlap any MAC \
                 cycle of this plan (the per-inference counter retires \
                 cycles 1..={total}); the campaign would be a \
                 fault-free no-op",
                w.start, w.end
            )));
        }
        Ok(())
    }

    /// The per-inference MAC-cycle span `[start, end)` of every plan op, in
    /// retired-counter numbering (see [`ExecutionPlan::mac_cycle_spans`]).
    /// Empty without a loaded plan.
    #[must_use]
    pub fn mac_cycle_spans(&self) -> &[Range<u64>] {
        &self.spans
    }

    /// Total MAC cycles one inference of the loaded plan retires.
    #[must_use]
    pub fn total_mac_cycles(&self) -> Option<u64> {
        self.plan.as_ref().map(|p| p.total_mac_cycles())
    }

    /// Index of the first plan op whose MAC-cycle span intersects `window`
    /// — the earliest op that can observe a transient fault in that window.
    /// `None` without a plan or when the window misses every op.
    #[must_use]
    pub fn first_op_in_window(&self, window: &Range<u64>) -> Option<usize> {
        self.spans.iter().position(|s| span_intersects(s, window))
    }

    /// MAC cycles retired by ops `0..boundary` — the value the cycle counter
    /// holds when op `boundary` starts, which a golden restore
    /// ([`Accelerator::run_suffix_i8_view`]) must re-seed.
    ///
    /// # Panics
    ///
    /// Panics if `boundary > ops.len()` of the loaded plan (or none is).
    #[must_use]
    pub fn prefix_mac_cycles(&self, boundary: usize) -> u64 {
        if boundary == self.spans.len() {
            return self.spans.last().map_or(0, |s| s.end - 1);
        }
        self.spans[boundary].start - 1
    }

    /// The functional MAC-array cycle counter: atomic ops retired by the
    /// most recent inference launch ([`Accelerator::run_inference_i8`] run,
    /// or one [`Accelerator::run_batch_i8`] batch, which counts every
    /// image's cycles). The counter restarts at each launch; transient fault
    /// windows are placed by the plan's per-inference schedule, so they are
    /// per-inference-deterministic.
    #[must_use]
    pub fn mac_cycles_retired(&self) -> u64 {
        self.cycle
    }

    /// Quantizes, runs and classifies one f32 image (shape `(1, C, H, W)`).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::NoPlan`] without a loaded plan,
    /// [`AccelError::BadPlan`] if `image` is not exactly one plan-shaped
    /// image, or any engine error.
    pub fn run_inference(&mut self, image: &Tensor<f32>) -> Result<InferenceResult, AccelError> {
        let plan = self.plan.as_ref().ok_or(AccelError::NoPlan)?;
        let s = image.shape();
        if s.n != 1 || s != plan.input_shape.with_n(1) {
            return Err(AccelError::BadPlan(format!(
                "input {s} does not match plan input {} (single image)",
                plan.input_shape
            )));
        }
        let scale = plan.input_scale;
        let mut qimg = std::mem::take(&mut self.scratch.qinput);
        nvfi_quant::batch::quantize_slice_into(image.as_slice(), scale, &mut qimg);
        let result = self.run_inference_i8_view(&qimg);
        self.scratch.qinput = qimg;
        result
    }

    /// Runs one pre-quantized i8 image.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::NoPlan`] without a loaded plan,
    /// [`AccelError::BadPlan`] if `image` is not exactly one plan-shaped
    /// image (multi-image batches go through
    /// [`Accelerator::run_batch_i8`]), or any engine error.
    pub fn run_inference_i8(&mut self, image: &Tensor<i8>) -> Result<InferenceResult, AccelError> {
        let plan = self.plan.as_ref().ok_or(AccelError::NoPlan)?;
        let s = image.shape();
        if s.n != 1 || s != plan.input_shape.with_n(1) {
            return Err(AccelError::BadPlan(format!(
                "input {s} does not match plan input {} (single image)",
                plan.input_shape
            )));
        }
        self.run_inference_i8_view(image.image(0))
    }

    /// Runs one pre-quantized i8 image borrowed as a dense CHW slice — the
    /// zero-copy entry point device pools drive with sub-views of a
    /// campaign-lifetime quantized evaluation set.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::NoPlan`] without a loaded plan,
    /// [`AccelError::BadPlan`] if `image.len()` is not exactly one plan
    /// input image, or any engine error.
    pub fn run_inference_i8_view(&mut self, image: &[i8]) -> Result<InferenceResult, AccelError> {
        let plan = self.plan.clone().ok_or(AccelError::NoPlan)?;
        // Per-inference cycle numbering: transient windows gate on cycles
        // since *this* launch, not since plan load.
        self.cycle = 0;
        self.write_input_surface(&plan, image)?;
        self.exec_ops(&plan, 0, plan.ops.len())?;
        self.read_result(&plan)
    }

    /// Runs only the plan's prefix `ops[0..boundary]` on one pre-quantized
    /// i8 image, leaving DRAM in exactly the state a full run would have at
    /// that op boundary (and the cycle counter at the prefix's retired
    /// count). This is the **capture** half of the golden-prefix protocol: a
    /// campaign runs it fault-free once per image, snapshots the boundary's
    /// live-in surfaces (see `ExecutionPlan::live_in_surfaces`) and replays
    /// them into [`Accelerator::run_suffix_i8_view`] for every windowed work
    /// item. Counted by the process-wide [`golden_prefix_passes`] probe.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::NoPlan`] without a loaded plan,
    /// [`AccelError::BadPlan`] on a shape mismatch or `boundary` outside the
    /// plan, or any engine error.
    pub fn run_prefix_i8_view(&mut self, image: &[i8], boundary: usize) -> Result<(), AccelError> {
        let plan = self.plan.clone().ok_or(AccelError::NoPlan)?;
        if boundary > plan.ops.len() {
            return Err(AccelError::BadPlan(format!(
                "prefix boundary {boundary} outside the {}-op plan",
                plan.ops.len()
            )));
        }
        self.cycle = 0;
        self.write_input_surface(&plan, image)?;
        self.exec_ops(&plan, 0, boundary)?;
        golden_prefix_counter().inc();
        Ok(())
    }

    /// [`Accelerator::run_prefix_i8_view`], then appends the bytes of the
    /// boundary's live-in `surfaces` to `out`, back to back in order — one
    /// golden-prefix capture, in the layout
    /// [`Accelerator::run_suffix_i8_view`] restores.
    ///
    /// # Errors
    ///
    /// As [`Accelerator::run_prefix_i8_view`], plus
    /// [`AccelError::DramOutOfBounds`] for a surface outside DRAM.
    pub fn capture_prefix_i8_view(
        &mut self,
        image: &[i8],
        boundary: usize,
        surfaces: &[(u64, u64)],
        out: &mut Vec<i8>,
    ) -> Result<(), AccelError> {
        self.run_prefix_i8_view(image, boundary)?;
        for &(addr, bytes) in surfaces {
            self.dram.read_i8_into(addr, bytes, &mut self.scratch.dma)?;
            out.extend_from_slice(&self.scratch.dma);
        }
        Ok(())
    }

    /// One full inference that captures on its way:
    /// [`Accelerator::capture_prefix_i8_view`] at `boundary`, then the
    /// suffix `ops[boundary..]` continues from the live DRAM state. The
    /// result is bit-identical to [`Accelerator::run_inference_i8_view`];
    /// the run counts one [`golden_prefix_passes`] and no
    /// [`golden_restores`].
    ///
    /// # Errors
    ///
    /// As [`Accelerator::capture_prefix_i8_view`].
    pub fn run_inference_capture_i8_view(
        &mut self,
        image: &[i8],
        boundary: usize,
        surfaces: &[(u64, u64)],
        out: &mut Vec<i8>,
    ) -> Result<InferenceResult, AccelError> {
        let plan = self.plan.clone().ok_or(AccelError::NoPlan)?;
        self.capture_prefix_i8_view(image, boundary, surfaces, out)?;
        self.exec_ops(&plan, boundary, plan.ops.len())?;
        self.read_result(&plan)
    }

    /// Runs the plan's suffix `ops[boundary..]` from a restored golden
    /// prefix: `surfaces` names the boundary's live-in `(addr, bytes)`
    /// regions and `data` holds their bytes back to back, exactly as
    /// captured after [`Accelerator::run_prefix_i8_view`]. The cycle counter
    /// is re-seeded with the prefix's retired count, so transient fault
    /// windows observe the same absolute cycle numbers as a full run —
    /// results are bit-identical to [`Accelerator::run_inference_i8_view`]
    /// of the same image (property-tested in `tests/equivalence.rs`).
    /// Counted by the process-wide [`golden_restores`] probe.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::NoPlan`] without a loaded plan,
    /// [`AccelError::BadPlan`] if `boundary` is outside the plan or `data`
    /// does not match `surfaces`, or any engine error.
    pub fn run_suffix_i8_view(
        &mut self,
        boundary: usize,
        surfaces: &[(u64, u64)],
        data: &[i8],
    ) -> Result<InferenceResult, AccelError> {
        let plan = self.plan.clone().ok_or(AccelError::NoPlan)?;
        if boundary > plan.ops.len() {
            return Err(AccelError::BadPlan(format!(
                "suffix boundary {boundary} outside the {}-op plan",
                plan.ops.len()
            )));
        }
        let need: u64 = surfaces.iter().map(|(_, b)| b).sum();
        if need != data.len() as u64 {
            return Err(AccelError::BadPlan(format!(
                "golden restore of {} bytes against a {}-byte live-in set",
                data.len(),
                need
            )));
        }
        let mut off = 0usize;
        for &(addr, bytes) in surfaces {
            let bytes = bytes as usize;
            self.dram.write_i8(addr, &data[off..off + bytes])?;
            // Activation surfaces never alias weight regions by allocator
            // construction, but keep the DRAM-mutation contract anyway.
            self.arena.invalidate_overlap(addr, bytes as u64);
            off += bytes;
        }
        self.cycle = self.prefix_mac_cycles(boundary);
        self.exec_ops(&plan, boundary, plan.ops.len())?;
        golden_restore_counter().inc();
        self.read_result(&plan)
    }

    /// Packs one dense-CHW i8 image into the plan's input surface.
    fn write_input_surface(
        &mut self,
        plan: &ExecutionPlan,
        image: &[i8],
    ) -> Result<(), AccelError> {
        let in_shape = plan.input_shape.with_n(1);
        if image.len() != in_shape.image_len() {
            return Err(AccelError::BadPlan(format!(
                "input of {} pixels does not match plan input {} ({} pixels)",
                image.len(),
                plan.input_shape,
                in_shape.image_len()
            )));
        }
        self.scratch.packed.resize(
            surface::surface_bytes(in_shape.c, in_shape.h, in_shape.w),
            0,
        );
        surface::pack_surface_into(image, in_shape, &mut self.scratch.packed);
        let packed = std::mem::take(&mut self.scratch.packed);
        self.dram.write_i8(plan.input_addr, &packed)?;
        self.scratch.packed = packed;
        Ok(())
    }

    /// Executes plan ops `[from, to)` on one image through DRAM: each op's
    /// input (and residual) surfaces are unpacked from DRAM into the scratch
    /// surface map, the batched executor runs with a batch of one, and the
    /// op's output is packed back to DRAM.
    fn exec_ops(&mut self, plan: &ExecutionPlan, from: usize, to: usize) -> Result<(), AccelError> {
        for (i, op) in plan.ops.iter().enumerate().take(to).skip(from) {
            match op {
                PlanOp::Conv(c) => {
                    let g = &c.geom;
                    let out_shape = Shape4::new(1, g.k, g.oh, g.ow);
                    self.stage_surface(c.input_addr, g.input.with_n(1))?;
                    if let Some(addr) = c.fuse_add_addr {
                        self.stage_surface(addr, out_shape)?;
                    }
                    self.exec_conv_batch(i, c, 1)?;
                    self.write_surface(c.output_addr, out_shape)?;
                }
                PlanOp::Pool(p) => {
                    self.stage_surface(p.input_addr, p.in_shape.with_n(1))?;
                    self.exec_pool_batch(p, 1);
                    self.write_surface(p.output_addr, p.out_shape())?;
                }
                PlanOp::Linear(l) => {
                    self.stage_surface(l.input_addr, Shape4::new(1, l.in_f, 1, 1))?;
                    self.exec_linear_batch(i, l, 1)?;
                    self.dram.write_i32(l.output_addr, &self.scratch.logits)?;
                }
            }
        }
        Ok(())
    }

    /// Unpacks the one-image DRAM surface of `shape` at `addr` into the
    /// scratch surface map.
    fn stage_surface(&mut self, addr: u64, shape: Shape4) -> Result<(), AccelError> {
        let bytes = surface::surface_bytes(shape.c, shape.h, shape.w) as u64;
        self.dram.read_i8_into(addr, bytes, &mut self.scratch.dma)?;
        let dense = self.scratch.batch_surfaces.entry(addr).or_default();
        dense.resize(shape.image_len(), 0);
        surface::unpack_surface_into(&self.scratch.dma, shape, dense);
        Ok(())
    }

    /// Packs the one-image scratch surface of `shape` at `addr` back to
    /// DRAM.
    fn write_surface(&mut self, addr: u64, shape: Shape4) -> Result<(), AccelError> {
        let dense = &self.scratch.batch_surfaces[&addr];
        let packed = &mut self.scratch.packed;
        packed.resize(surface::surface_bytes(shape.c, shape.h, shape.w), 0);
        surface::pack_surface_into(dense, shape, packed);
        self.dram.write_i8(addr, packed)
    }

    /// Reads the logits back and assembles an [`InferenceResult`].
    fn read_result(&mut self, plan: &ExecutionPlan) -> Result<InferenceResult, AccelError> {
        let logits = self.dram.read_i32(plan.output_addr, plan.num_classes)?;
        let class = nvfi_quant::exec::argmax(&logits);
        Ok(InferenceResult {
            logits,
            class,
            perf: self.perf_report(),
        })
    }

    fn perf_report(&self) -> PerfReport {
        self.perf_template.clone().expect("plan loaded")
    }

    /// Runs a mini-batch of pre-quantized i8 images.
    ///
    /// Each layer executes once for the whole batch — the images' im2col
    /// columns sit side by side in one GEMM, and the lane delta of any fault
    /// kind and window is added per image column block — with intermediate
    /// surfaces held in the scratch arena instead of DRAM. The result is
    /// bit-identical to running [`Accelerator::run_inference_i8`] per image
    /// (output columns are independent, and every image sees the same
    /// per-inference cycle numbering). A batch of one runs the per-image
    /// path, so its DRAM surfaces match a single inference.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::NoPlan`] without a loaded plan, or any engine
    /// error.
    pub fn run_batch_i8(
        &mut self,
        images: &Tensor<i8>,
    ) -> Result<Vec<InferenceResult>, AccelError> {
        let plan = self.plan.as_ref().ok_or(AccelError::NoPlan)?;
        let bs = images.shape();
        if bs.n > 0 && bs.with_n(1) != plan.input_shape.with_n(1) {
            return Err(AccelError::BadPlan(format!(
                "input {bs} does not match plan input {}",
                plan.input_shape
            )));
        }
        self.run_batch_i8_view(images.as_slice())
    }

    /// Runs a mini-batch of pre-quantized i8 images borrowed as dense,
    /// back-to-back CHW slices — [`Accelerator::run_batch_i8`] without the
    /// owning [`Tensor`]: device pools point this at sub-views of a
    /// campaign-lifetime quantized evaluation set, so the per-call cost is
    /// zero copies and zero quantization. Every fault kind and transient
    /// window runs batched; only a batch of one takes the per-image path.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::NoPlan`] without a loaded plan,
    /// [`AccelError::BadPlan`] if `images.len()` is not a whole number of
    /// plan input images, or any engine error.
    pub fn run_batch_i8_view(&mut self, images: &[i8]) -> Result<Vec<InferenceResult>, AccelError> {
        let plan = self.plan.clone().ok_or(AccelError::NoPlan)?;
        let image_len = plan.input_shape.with_n(1).image_len();
        if !images.len().is_multiple_of(image_len) {
            return Err(AccelError::BadPlan(format!(
                "batch of {} pixels is not a whole number of plan input images \
                 ({} pixels each)",
                images.len(),
                image_len
            )));
        }
        let b_n = images.len() / image_len;
        if b_n == 0 {
            return Ok(Vec::new());
        }
        if b_n == 1 {
            return Ok(vec![self.run_inference_i8_view(images)?]);
        }
        self.cycle = 0;
        // Seed the surface map with the (already dense NCHW) input batch.
        let input_buf = self
            .scratch
            .batch_surfaces
            .entry(plan.input_addr)
            .or_default();
        input_buf.clear();
        input_buf.extend_from_slice(images);
        let mut has_head = false;
        for (i, op) in plan.ops.iter().enumerate() {
            match op {
                PlanOp::Conv(c) => self.exec_conv_batch(i, c, b_n)?,
                PlanOp::Pool(p) => self.exec_pool_batch(p, b_n),
                PlanOp::Linear(l) => {
                    self.exec_linear_batch(i, l, b_n)?;
                    has_head = true;
                }
            }
        }
        if !has_head {
            return Err(AccelError::BadPlan("plan has no linear head".into()));
        }
        let per_image = self.scratch.logits.len() / b_n;
        // DRAM parity for the last image's logits (per-image runs leave the
        // most recent inference's logits at the output address).
        let last = &self.scratch.logits[(b_n - 1) * per_image..];
        self.dram.write_i32(plan.output_addr, last)?;
        Ok(self
            .scratch
            .logits
            .chunks_exact(per_image)
            .map(|logits| InferenceResult {
                logits: logits.to_vec(),
                class: nvfi_quant::exec::argmax(logits),
                perf: self.perf_report(),
            })
            .collect())
    }

    /// Classifies a batch of f32 images: one quantization pass over the
    /// whole batch, then [`Accelerator::classify_batch_i8`]. A thin
    /// quantize-then-delegate wrapper — quantization is elementwise, so the
    /// predictions are bit-identical to quantizing per mini-batch (or per
    /// image).
    ///
    /// # Errors
    ///
    /// Propagates the first engine error.
    pub fn classify_batch(&mut self, images: &Tensor<f32>) -> Result<Vec<u8>, AccelError> {
        let plan = self.plan.as_ref().ok_or(AccelError::NoPlan)?;
        let s = images.shape();
        if s.n > 0 && s.with_n(1) != plan.input_shape.with_n(1) {
            return Err(AccelError::BadPlan(format!(
                "input {s} does not match plan input {}",
                plan.input_shape
            )));
        }
        let scale = plan.input_scale;
        let mut qbatch = std::mem::take(&mut self.scratch.qinput);
        nvfi_quant::batch::quantize_slice_into(images.as_slice(), scale, &mut qbatch);
        let result = self.classify_batch_i8(&qbatch);
        self.scratch.qinput = qbatch;
        result
    }

    /// Classifies a batch of pre-quantized i8 images borrowed as dense,
    /// back-to-back CHW slices, in mini-batches of [`AccelConfig::batch`]
    /// images. Each mini-batch is a borrowed sub-view
    /// — no per-call copy and no quantization, which is what lets a
    /// fault-injection campaign quantize its evaluation set exactly once.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::BadPlan`] if `images.len()` is not a whole
    /// number of plan input images; propagates the first engine error.
    pub fn classify_batch_i8(&mut self, images: &[i8]) -> Result<Vec<u8>, AccelError> {
        let plan = self.plan.as_ref().ok_or(AccelError::NoPlan)?;
        let image_len = plan.input_shape.with_n(1).image_len();
        if !images.len().is_multiple_of(image_len) {
            return Err(AccelError::BadPlan(format!(
                "batch of {} pixels is not a whole number of plan input images \
                 ({} pixels each)",
                images.len(),
                image_len
            )));
        }
        let n = images.len() / image_len;
        let batch = self.config.batch.max(1);
        let mut out = Vec::with_capacity(n);
        let mut n0 = 0;
        while n0 < n {
            let nn = (n0 + batch).min(n);
            for r in self.run_batch_i8_view(&images[n0 * image_len..nn * image_len])? {
                out.push(r.class);
            }
            n0 = nn;
        }
        Ok(out)
    }

    /// Top-1 accuracy over a labelled set.
    ///
    /// # Errors
    ///
    /// Propagates the first engine error.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != images.shape().n`.
    pub fn accuracy(&mut self, images: &Tensor<f32>, labels: &[u8]) -> Result<f64, AccelError> {
        assert_eq!(images.shape().n, labels.len());
        if labels.is_empty() {
            return Ok(0.0);
        }
        let preds = self.classify_batch(images)?;
        let correct = preds.iter().zip(labels).filter(|(p, y)| p == y).count();
        Ok(correct as f64 / labels.len() as f64)
    }

    // -- internal op execution ---------------------------------------------

    /// Batched convolution: surfaces come from and go to the scratch
    /// surface map; one MAC-array pass covers the whole mini-batch.
    fn exec_conv_batch(
        &mut self,
        op_idx: usize,
        op: &ConvOp,
        b_n: usize,
    ) -> Result<(), AccelError> {
        self.refresh_weights(op_idx)?;
        let g = op.geom;
        let n_cols = g.oh * g.ow;
        let out_len = g.k * n_cols;
        let input = self
            .scratch
            .batch_surfaces
            .remove(&op.input_addr)
            .expect("batched conv input surface computed");
        assert_eq!(
            input.len(),
            b_n * g.input.image_len(),
            "batched input length mismatch"
        );
        self.mac_array(op_idx, &g, &input, b_n);
        // SDP per image into the batched output surface. The output buffer
        // is owned (pulled out of the map), so the residual can stay a
        // borrow of its map entry.
        let scratch = &mut self.scratch;
        let mut out = scratch
            .batch_surfaces
            .remove(&op.output_addr)
            .unwrap_or_default();
        out.resize(b_n * out_len, 0);
        {
            let residual = op.fuse_add_addr.map(|addr| {
                if addr == op.input_addr {
                    return &input[..];
                }
                scratch
                    .batch_surfaces
                    .get(&addr)
                    .map(Vec::as_slice)
                    .expect("batched residual surface computed")
            });
            for b in 0..b_n {
                sdp_into(
                    op,
                    &g,
                    &scratch.acc,
                    b_n * n_cols,
                    b * n_cols,
                    residual.map(|r| &r[b * out_len..(b + 1) * out_len]),
                    &mut out[b * out_len..(b + 1) * out_len],
                );
            }
        }
        // Re-insert the input first: if the allocator aliased the output
        // onto the input region, DRAM semantics say the write wins.
        scratch.batch_surfaces.insert(op.input_addr, input);
        scratch.batch_surfaces.insert(op.output_addr, out);
        Ok(())
    }

    fn exec_pool_batch(&mut self, op: &PoolOp, b_n: usize) {
        let s = op.in_shape;
        let in_len = s.image_len();
        let o = op.out_shape();
        let out_len = o.image_len();
        let input = self
            .scratch
            .batch_surfaces
            .remove(&op.input_addr)
            .expect("batched pool input surface computed");
        let mut out = self
            .scratch
            .batch_surfaces
            .remove(&op.output_addr)
            .unwrap_or_default();
        out.resize(b_n * out_len, 0);
        for b in 0..b_n {
            pool_into(
                op,
                &input[b * in_len..(b + 1) * in_len],
                &mut out[b * out_len..(b + 1) * out_len],
            );
        }
        self.scratch.batch_surfaces.insert(op.input_addr, input);
        self.scratch.batch_surfaces.insert(op.output_addr, out);
    }

    /// Batched linear head — on the MAC array a 1x1 convolution over a 1x1
    /// image. The biased logits land in `scratch.logits`, image-major.
    fn exec_linear_batch(
        &mut self,
        op_idx: usize,
        op: &LinearOp,
        b_n: usize,
    ) -> Result<(), AccelError> {
        self.refresh_weights(op_idx)?;
        let g = ConvGeom::new(Shape4::new(1, op.in_f, 1, 1), op.out_f, 1, 1, 1, 0);
        let input = self
            .scratch
            .batch_surfaces
            .remove(&op.input_addr)
            .expect("batched linear input surface computed");
        assert_eq!(
            input.len(),
            b_n * op.in_f,
            "batched linear input length mismatch"
        );
        self.mac_array(op_idx, &g, &input, b_n);
        let scratch = &mut self.scratch;
        scratch.logits.clear();
        for b in 0..b_n {
            let acc = &scratch.acc;
            scratch
                .logits
                .extend((0..op.out_f).map(|o| acc[o * b_n + b].wrapping_add(op.bias[o])));
        }
        scratch.batch_surfaces.insert(op.input_addr, input);
        Ok(())
    }

    /// Runs the MAC array of plan op `op_idx` — a convolution of geometry
    /// `g` — over the `b_n` dense CHW images back to back in `input`, and
    /// retires the op's cycles for every image. Leaves the
    /// `K x (b_n * OH*OW)` accumulators in `scratch.acc`, image `b`'s
    /// columns at offset `b * OH*OW`.
    ///
    /// [`ExecMode::Exact`] runs the reference engine per image; otherwise
    /// this is the clean im2col + GEMM plus the lane-sparse fault delta.
    fn mac_array(&mut self, op_idx: usize, g: &ConvGeom, input: &[i8], b_n: usize) {
        let span = self.spans[op_idx].clone();
        let n_cols = g.oh * g.ow;
        let wide_n = b_n * n_cols;
        let in_len = g.input.image_len();
        let crs = g.input.c * g.r * g.s;
        let fi = &self.csb.fi;
        let gated = self.config.idle_lanes == IdleLanePolicy::Gated;
        let weights =
            &self.arena.entries[self.arena.by_op[op_idx].expect("MAC op has weights")].weights;
        let scratch = &mut self.scratch;
        scratch.acc.resize(g.k * wide_n, 0);
        scratch.acc.fill(0);
        let counters = path_counters();
        if self.config.mode == ExecMode::Exact {
            for b in 0..b_n {
                // Cycle numbering is per inference: every image of the
                // batch starts the op at its span.
                let mut cycle = span.start - 1;
                conv_exact_into(
                    fi,
                    gated,
                    &mut cycle,
                    &input[b * in_len..(b + 1) * in_len],
                    weights,
                    g,
                    &mut scratch.acc,
                    wide_n,
                    b * n_cols,
                );
            }
            counters.exact.add(b_n as u64);
        } else {
            scratch.cols.resize(crs * wide_n, 0);
            for b in 0..b_n {
                im2col::im2col_into_offset(
                    &input[b * in_len..(b + 1) * in_len],
                    g,
                    &mut scratch.cols,
                    wide_n,
                    b * n_cols,
                );
            }
            gemm::gemm_i8_i32_into(
                weights.as_slice(),
                &scratch.cols,
                &mut scratch.acc,
                g.k,
                crs,
                wide_n,
            );
            let armed = armed_products(fi.window.as_ref(), &span);
            if fi.any_active() && !armed.is_empty() {
                LaneDelta {
                    mux: fi.lane_mux(),
                    gated,
                    g,
                    weights: weights.as_slice(),
                    cols: &scratch.cols,
                    b_n,
                }
                .add_into(fi.selected_lanes(), armed, &mut scratch.acc);
                counters.delta.add(b_n as u64);
            } else {
                counters.clean.add(b_n as u64);
            }
        }
        self.cycle += (span.end - span.start) * b_n as u64;
    }
}

/// Whether two half-open cycle ranges overlap (an empty range — e.g. a
/// pool op's span — never does, even when it sits strictly inside the
/// other range).
fn span_intersects(a: &Range<u64>, b: &Range<u64>) -> bool {
    !a.is_empty() && !b.is_empty() && a.start < b.end && b.start < a.end
}

/// The op-local products `[lo, hi)` the injectors are armed for: product
/// `t` of an op retires at cycle `span.start + t`, so a window maps to one
/// contiguous range. Without a window, every product.
fn armed_products(window: Option<&Range<u64>>, span: &Range<u64>) -> Range<usize> {
    let (lo, hi) = match window {
        Some(w) => (
            w.start.clamp(span.start, span.end),
            w.end.clamp(span.start, span.end),
        ),
        None => (span.start, span.end),
    };
    (lo - span.start) as usize..(hi - span.start) as usize
}

/// The reference engine: every product through its injector mux.
/// Schedule (defines the cycle numbering for transient windows):
/// kernel-group -> output row -> output col -> channel-block -> tap.
/// `acc` holds element `(k, oy, ox)` at
/// `k * row_stride + col_off + oy * OW + ox` (pre-zeroed), which lets the
/// batched executor place one image's column block inside the wide
/// accumulator matrix.
#[allow(clippy::too_many_arguments)]
fn conv_exact_into(
    fi: &FaultInjectorBank,
    gated: bool,
    cycle: &mut u64,
    input: &[i8],
    weights: &Tensor<i8>,
    g: &ConvGeom,
    acc: &mut [i32],
    row_stride: usize,
    col_off: usize,
) {
    let (kg_n, cb_n) = (g.k.div_ceil(8), g.input.c.div_ceil(8));
    let (h, w) = (g.input.h, g.input.w);
    for kg in 0..kg_n {
        for oy in 0..g.oh {
            for ox in 0..g.ow {
                for cb in 0..cb_n {
                    for r in 0..g.r {
                        for s in 0..g.s {
                            *cycle += 1;
                            let iy = (oy * g.stride + r) as isize - g.pad as isize;
                            let ix = (ox * g.stride + s) as isize - g.pad as isize;
                            let in_bounds =
                                iy >= 0 && ix >= 0 && iy < h as isize && ix < w as isize;
                            for m in 0..8usize {
                                let k = kg * 8 + m;
                                if k >= g.k {
                                    continue; // kernel-tail MAC output discarded
                                }
                                let mut psum = 0i32;
                                for j in 0..8usize {
                                    let c = cb * 8 + j;
                                    let idle = c >= g.input.c;
                                    if idle && gated {
                                        continue;
                                    }
                                    let a = if idle || !in_bounds {
                                        0i8
                                    } else {
                                        input[(c * h + iy as usize) * w + ix as usize]
                                    };
                                    let wv = if idle { 0i8 } else { weights.at(k, c, r, s) };
                                    let p = fi.apply(m * 8 + j, I18::from_product(a, wv), *cycle);
                                    psum = psum.wrapping_add(p.value());
                                }
                                let slot = &mut acc[k * row_stride + col_off + oy * g.ow + ox];
                                *slot = slot.wrapping_add(psum);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The lane-sparse fault delta of one MAC op over a mini-batch: adds
/// `Σ (apply(p) − p)` over the selected lanes' armed products to the clean
/// GEMM accumulators, which makes them exactly what [`conv_exact_into`]
/// accumulates (the i32 adds wrap, so the sum splits any way).
///
/// Product `t` of the op retires in the CMAC schedule kernel group →
/// output pixel → channel block → tap, so
/// `t = (kg * OH*OW + pix) * Q + cb * R*S + r * S + s` with
/// `Q = ceil(C/8) * R*S` products per pixel. Per kernel group, an armed
/// range of `t` is a run of whole pixels plus at most one partial pixel at
/// each end. Lane `(m, j)` serves kernels `k ≡ m` and channels `c ≡ j`
/// (mod 8), under the exact engine's rules: kernel-tail MACs (`k ≥ K`) are
/// discarded, idle lanes (`c ≥ C`) add `apply(0)` unless gated, and padded
/// taps — zero in the im2col matrix — add `apply(0)`.
struct LaneDelta<'a> {
    mux: LaneMux,
    gated: bool,
    g: &'a ConvGeom,
    /// Dense `K x C*R*S` weights.
    weights: &'a [i8],
    /// The batched `C*R*S x (b_n * OH*OW)` im2col matrix.
    cols: &'a [i8],
    b_n: usize,
}

impl LaneDelta<'_> {
    /// Adds the delta of every lane in `lanes` over the op-local products
    /// `armed` to the `K x (b_n * OH*OW)` accumulators.
    fn add_into(&self, lanes: impl Iterator<Item = MultId>, armed: Range<usize>, acc: &mut [i32]) {
        let q_n = self.g.input.c.div_ceil(8) * self.g.r * self.g.s;
        let per_kg = self.g.oh * self.g.ow * q_n;
        for lane in lanes {
            let j = usize::from(lane.mult);
            for k in (usize::from(lane.mac)..self.g.k).step_by(8) {
                let base = k / 8 * per_kg;
                let lo = armed.start.clamp(base, base + per_kg) - base;
                let hi = armed.end.clamp(base, base + per_kg) - base;
                if lo >= hi {
                    continue;
                }
                let (p0, q0) = (lo / q_n, lo % q_n);
                let (p1, q1) = (hi / q_n, hi % q_n);
                if p0 == p1 {
                    self.add_partial(acc, k, j, p0, q0..q1);
                    continue;
                }
                let mut first_full = p0;
                if q0 > 0 {
                    self.add_partial(acc, k, j, p0, q0..q_n);
                    first_full += 1;
                }
                self.add_pixels(acc, k, j, first_full..p1);
                if q1 > 0 {
                    self.add_partial(acc, k, j, p1, 0..q1);
                }
            }
        }
    }

    /// Adds lane `(k mod 8, j)`'s delta over every product of the output
    /// pixels `pixels` of each image: one contiguous pass per im2col row.
    fn add_pixels(&self, acc: &mut [i32], k: usize, j: usize, pixels: Range<usize>) {
        if pixels.is_empty() {
            return;
        }
        let (c_n, rs) = (self.g.input.c, self.g.r * self.g.s);
        let n_cols = self.g.oh * self.g.ow;
        let wide_n = self.b_n * n_cols;
        let real_blocks = c_n.saturating_sub(j).div_ceil(8);
        let idle = (c_n.div_ceil(8) - real_blocks) * rs;
        // Whole images make one run of columns; otherwise one per image.
        let whole = pixels.len() == n_cols;
        let (runs, len) = if whole {
            (1, wide_n)
        } else {
            (self.b_n, pixels.len())
        };
        for run in 0..runs {
            let col0 = if whole {
                0
            } else {
                run * n_cols + pixels.start
            };
            let a = &mut acc[k * wide_n + col0..][..len];
            for cb in 0..real_blocks {
                for t in 0..rs {
                    let row = (cb * 8 + j) * rs + t;
                    let w = i32::from(self.weights[k * c_n * rs + row]);
                    let x = &self.cols[row * wide_n + col0..][..len];
                    for (a, &x) in a.iter_mut().zip(x) {
                        *a = a.wrapping_add(self.mux.delta(w * i32::from(x)));
                    }
                }
            }
            if idle > 0 && !self.gated {
                let d = self.mux.delta(0).wrapping_mul(idle as i32);
                for a in a.iter_mut() {
                    *a = a.wrapping_add(d);
                }
            }
        }
    }

    /// Adds lane `(k mod 8, j)`'s delta over the products `qs`
    /// (`q = cb * R*S + r * S + s`) of output pixel `pix` of each image.
    fn add_partial(&self, acc: &mut [i32], k: usize, j: usize, pix: usize, qs: Range<usize>) {
        let (c_n, rs) = (self.g.input.c, self.g.r * self.g.s);
        let n_cols = self.g.oh * self.g.ow;
        let wide_n = self.b_n * n_cols;
        for b in 0..self.b_n {
            let col = b * n_cols + pix;
            let mut d = 0i32;
            for q in qs.clone() {
                let c = q / rs * 8 + j;
                if c < c_n {
                    let row = c * rs + q % rs;
                    let p = i32::from(self.weights[k * c_n * rs + row])
                        * i32::from(self.cols[row * wide_n + col]);
                    d = d.wrapping_add(self.mux.delta(p));
                } else if !self.gated {
                    d = d.wrapping_add(self.mux.delta(0));
                }
            }
            acc[k * wide_n + col] = acc[k * wide_n + col].wrapping_add(d);
        }
    }
}

/// SDP post-processing of one image: bias, per-channel requantization,
/// optional rescaled residual add, ReLU, saturation. Reads accumulator
/// element `(k, oy, ox)` at `k * row_stride + col_off + oy * OW + ox` and
/// writes the dense `K x OH x OW` output.
///
/// Bit-identical to [`nvfi_quant::exec::sdp_postprocess`] per element, but
/// not built on it: that function widens to `i128` inside
/// [`nvfi_hwnum::Requant::apply`], which keeps the pixel loop scalar. Here
/// each channel's requantizers, bias and ReLU floor are fixed before the
/// pixel loop, both requantizations use the exact 64-bit
/// [`nvfi_hwnum::Requant::apply_narrow`], and ReLU plus i8 saturation is
/// one clamp to `[relu ? 0 : -128, 127]`, so the loop auto-vectorizes.
/// The CPU reference keeps `sdp_postprocess` as the oracle.
fn sdp_into(
    op: &ConvOp,
    g: &ConvGeom,
    acc: &[i32],
    row_stride: usize,
    col_off: usize,
    residual: Option<&[i8]>,
    out: &mut [i8],
) {
    let n_pix = g.oh * g.ow;
    let lo = if op.relu { 0 } else { i64::from(i8::MIN) };
    let hi = i64::from(i8::MAX);
    for k in 0..g.k {
        let rq = op.requant_for(k);
        let bias = op.bias[k];
        let arow = &acc[k * row_stride + col_off..k * row_stride + col_off + n_pix];
        let orow = &mut out[k * n_pix..(k + 1) * n_pix];
        match residual {
            Some(res) => {
                let add_rq = op.add_requant.expect("add requant");
                let rrow = &res[k * n_pix..(k + 1) * n_pix];
                for ((o, &a), &rv) in orow.iter_mut().zip(arow).zip(rrow) {
                    let v =
                        rq.apply_narrow(a.wrapping_add(bias)) + add_rq.apply_narrow(i32::from(rv));
                    *o = v.clamp(lo, hi) as i8;
                }
            }
            None => {
                for (o, &a) in orow.iter_mut().zip(arow) {
                    *o = rq.apply_narrow(a.wrapping_add(bias)).clamp(lo, hi) as i8;
                }
            }
        }
    }
}

/// PDP pooling of one dense CHW image into a dense CHW output, bit-exact
/// with [`pool::maxpool2d`] / [`nvfi_quant::exec::pdp_global_avg`].
fn pool_into(op: &PoolOp, input: &[i8], out: &mut [i8]) {
    let s = op.in_shape;
    match op.kind {
        PoolKind::Max => {
            let (k, stride) = (op.k, op.stride);
            assert!(
                k > 0 && stride > 0,
                "pooling window and stride must be positive"
            );
            assert!(
                s.h >= k
                    && s.w >= k
                    && (s.h - k).is_multiple_of(stride)
                    && (s.w - k).is_multiple_of(stride),
                "pool {k}/{stride} does not tile {s}"
            );
            let oh = (s.h - k) / stride + 1;
            let ow = (s.w - k) / stride + 1;
            for c in 0..s.c {
                let plane = &input[c * s.h * s.w..(c + 1) * s.h * s.w];
                let oplane = &mut out[c * oh * ow..(c + 1) * oh * ow];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = plane[oy * stride * s.w + ox * stride];
                        for r in 0..k {
                            let row = &plane[(oy * stride + r) * s.w + ox * stride..][..k];
                            for &v in row {
                                if v > best {
                                    best = v;
                                }
                            }
                        }
                        oplane[oy * ow + ox] = best;
                    }
                }
            }
        }
        PoolKind::GlobalAvg => {
            let area = (s.h * s.w) as u32;
            for c in 0..s.c {
                let plane = &input[c * s.h * s.w..(c + 1) * s.h * s.w];
                let mut sum = 0i32;
                for &v in plane {
                    sum = sum.wrapping_add(v as i32);
                }
                out[c] = sat::to_i8(i64::from(pool::rounded_div(sum, area)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvfi_dataset::{SynthCifar, SynthCifarConfig};
    use nvfi_nn::fold::fold_resnet;
    use nvfi_nn::resnet::ResNet;
    use nvfi_quant::{quantize, QuantConfig};

    /// `sdp_into` equals the CPU reference's per-element `sdp_postprocess`
    /// for residual on/off × ReLU on/off × per-channel/broadcast
    /// requantizers, on accumulators and biases over the whole wrapping-i32
    /// range (fault-blown sums are where the 64-bit bound matters), read
    /// from a column block inside a wider accumulator matrix.
    #[test]
    fn sdp_into_equals_sdp_postprocess() {
        use nvfi_hwnum::Requant;
        use nvfi_quant::exec::sdp_postprocess;
        // xorshift64: a fixed, dependency-free stream of test values.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let g = ConvGeom::new(Shape4::new(1, 2, 6, 5), 8, 1, 1, 1, 0);
        let n_pix = g.oh * g.ow;
        let (row_stride, col_off) = (3 * n_pix, n_pix);
        // Alternate full-range and small accumulators so both saturated
        // and in-range outputs occur; the edges come first.
        let mut acc: Vec<i32> = (0..g.k * row_stride)
            .map(|i| {
                if i % 2 == 0 {
                    next() as i32
                } else {
                    (next() % 4001) as i32 - 2000
                }
            })
            .collect();
        for (k, edge) in [i32::MIN, i32::MAX, 0, -1, 1].into_iter().enumerate() {
            for ch in 0..g.k {
                acc[ch * row_stride + col_off + k] = edge;
            }
        }
        let mut bias: Vec<i32> = (0..g.k).map(|_| (next() % 201) as i32 - 100).collect();
        bias[1] = i32::MAX;
        bias[2] = i32::MIN;
        let residual: Vec<i8> = (0..g.k * n_pix).map(|_| next() as i8).collect();
        let per_channel = vec![
            Requant::from_parts(i32::MAX, 0),
            Requant::from_parts(1 << 30, Requant::MAX_SHIFT),
            Requant::from_scale(0.0173).unwrap(),
            Requant::from_scale(1.0).unwrap(),
            Requant::from_parts((next() >> 33) as i32, (next() % 63) as u8),
            Requant::from_parts((next() >> 33) as i32, (next() % 32) as u8),
            Requant::from_scale(3.0e-9).unwrap(),
            Requant::from_parts(0, 5),
        ];
        for requant in [
            per_channel.clone(),
            vec![Requant::from_scale(0.05).unwrap()],
        ] {
            for add_requant in [None, Some(Requant::from_scale(0.7).unwrap())] {
                for relu in [false, true] {
                    let op = ConvOp {
                        geom: g,
                        input_addr: 0,
                        output_addr: 0,
                        weight_addr: 0,
                        bias: bias.clone(),
                        requant: requant.clone(),
                        add_requant,
                        fuse_add_addr: add_requant.map(|_| 0),
                        relu,
                    };
                    let res = add_requant.map(|_| &residual[..]);
                    let mut out = vec![0i8; g.k * n_pix];
                    sdp_into(&op, &g, &acc, row_stride, col_off, res, &mut out);
                    for k in 0..g.k {
                        for p in 0..n_pix {
                            let a = acc[k * row_stride + col_off + p].wrapping_add(bias[k]);
                            let r = add_requant.map(|rq| (residual[k * n_pix + p], rq));
                            let want = sdp_postprocess(a, op.requant_for(k), r, relu);
                            assert_eq!(
                                out[k * n_pix + p],
                                want,
                                "k={k} p={p} acc={a} residual={r:?} relu={relu} requant={}",
                                op.requant_for(k)
                            );
                        }
                    }
                }
            }
        }
    }

    /// A device holds no more DRAM than its plan's footprint, after
    /// `load_plan` and after a per-image run that stages every surface
    /// through DRAM; a clone holds the same bytes.
    #[test]
    fn device_holds_only_the_plan_footprint() {
        let data = SynthCifar::new(SynthCifarConfig {
            train: 16,
            test: 1,
            ..Default::default()
        })
        .generate();
        let deploy = fold_resnet(&ResNet::new(4, &[1, 1], 10, 42), 32);
        let q = quantize(&deploy, &data.train.images, &QuantConfig::default()).unwrap();
        let plan = nvfi_compiler::compile(&q, nvfi_compiler::lower::DEFAULT_DRAM_CAPACITY).unwrap();
        let footprint = usize::try_from(plan.dram_size).unwrap();

        let mut accel = Accelerator::new(AccelConfig::default());
        assert_eq!(accel.dram.held_len(), 0);
        accel.load_plan(&plan).unwrap();
        assert!(accel.dram.held_len() > 0, "weights are written at load");
        assert!(
            accel.dram.held_len() <= footprint,
            "held {} > plan footprint {footprint}",
            accel.dram.held_len()
        );
        accel
            .run_inference(&data.test.images.slice_image(0))
            .unwrap();
        assert!(accel.dram.held_len() <= footprint);
        assert_eq!(accel.clone().dram.held_len(), accel.dram.held_len());
    }
}
