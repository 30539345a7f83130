//! The GT-Pin engine: ties the binary rewriter, the trace-buffer
//! post-processing, and user tools together, and attaches to a GPU
//! exactly where Figure 1 of the paper modifies the stack.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use gpu_device::driver::BinaryRewriter;
use gpu_device::gpu::{Gpu, LaunchInfo, LaunchObserver};
use gpu_device::memory::TraceBuffer;

use crate::profile::{InvocationProfile, KernelOverhead, ProgramProfile};
use crate::rewriter::{rewrite_binary, RewriteConfig, RewriteLayout, SendSite};
use crate::static_info::StaticKernelInfo;
use crate::tool::{Tool, ToolContext};

struct KernelRecord {
    static_info: StaticKernelInfo,
    layout: RewriteLayout,
    overhead: KernelOverhead,
}

struct Engine {
    config: RewriteConfig,
    kernels: Vec<KernelRecord>,
    invocations: Vec<InvocationProfile>,
    next_slot: u32,
    next_tag: u32,
    site_table: HashMap<u32, SendSite>,
    tools: Vec<Rc<RefCell<dyn Tool>>>,
}

impl Engine {
    fn rewrite(&mut self, kernel_index: usize, binary: &[u8]) -> Result<Vec<u8>, String> {
        if kernel_index == 0 {
            // A fresh clBuildProgram: start a new layout epoch.
            self.kernels.clear();
            self.site_table.clear();
            self.next_slot = 0;
            self.next_tag = 0;
        }
        if kernel_index != self.kernels.len() {
            gtpin_obs::warn!(
                "kernel {kernel_index} rewritten out of order (have {})",
                self.kernels.len()
            );
            return Err(format!(
                "kernel {kernel_index} rewritten out of order (have {})",
                self.kernels.len()
            ));
        }
        let mut span = gtpin_obs::span("engine.rewrite");
        span.arg_u64("kernel_index", kernel_index as u64);
        let rw = rewrite_binary(binary, &self.config, self.next_slot, self.next_tag)?;
        match gtpin_analyze::verify_rewrite(binary, &rw.bytes) {
            Ok(report) => {
                gtpin_obs::counter_add("engine.rewrites_verified", 1);
                if span.active() {
                    span.arg_u64("verified_probes", report.probes as u64);
                }
            }
            Err(e) => {
                gtpin_obs::warn!("rewrite verification failed: {e}");
                gtpin_obs::counter_add("engine.rewrites_verify_failed", 1);
                return Err(format!("rewrite verification failed: {e}"));
            }
        }
        if span.active() {
            span.arg_u64("static_instructions", rw.static_info.static_instructions);
            span.arg_u64("instrumented_instructions", rw.instrumented_instructions);
            span.arg_u64("send_sites", rw.layout.send_sites.len() as u64);
        }
        self.next_slot += rw.layout.slots_used();
        self.next_tag += rw.layout.send_sites.len() as u32;
        for site in &rw.layout.send_sites {
            self.site_table.insert(site.tag, *site);
        }
        for tool in &self.tools {
            tool.borrow_mut()
                .on_kernel_build(kernel_index, &rw.static_info);
        }
        self.kernels.push(KernelRecord {
            overhead: KernelOverhead {
                original_static: rw.static_info.static_instructions,
                instrumented_static: rw.instrumented_instructions,
            },
            static_info: rw.static_info,
            layout: rw.layout,
        });
        Ok(rw.bytes)
    }

    fn post_process(&mut self, info: &LaunchInfo, trace: &mut TraceBuffer) {
        let Some(record) = self.kernels.get(info.kernel.index()) else {
            gtpin_obs::warn!(
                "launch {} references kernel {} with no rewrite record; skipping post-process",
                info.launch_index,
                info.kernel.index()
            );
            return;
        };
        let mut span = gtpin_obs::span("engine.post_process");
        if span.active() {
            span.arg_u64("launch_index", info.launch_index as u64);
            span.arg_str("kernel", info.kernel_name.clone());
            // The paper's headline self-measurement: how much slower
            // this launch ran because of injected trace traffic.
            let ratio = info.stats.overhead_ratio();
            span.arg_f64("overhead_ratio", ratio);
            span.arg_u64("trace_bytes", info.stats.trace_bytes);
            gtpin_obs::counter_add("engine.launches", 1);
            gtpin_obs::hist_ns("engine.overhead_ratio_pct", (ratio * 100.0) as u64);
            gtpin_obs::gauge_set("engine.overhead_ratio", ratio);
        }
        let layout = &record.layout;
        let st = &record.static_info;

        let mut bb_counts = vec![0u64; st.num_blocks()];
        if self.config.count_basic_blocks {
            for (bb, count) in bb_counts.iter_mut().enumerate() {
                *count = trace.slot(layout.block_slot(bb) as usize);
            }
        }

        let mut instructions = 0u64;
        let mut per_category = [0u64; 5];
        let mut per_width = [0u64; 5];
        let mut bytes_read = 0u64;
        let mut bytes_written = 0u64;
        for (bb, &count) in bb_counts.iter().enumerate() {
            let blk = &st.blocks[bb];
            instructions += count * blk.instructions;
            for c in 0..5 {
                per_category[c] += count * blk.per_category[c];
                per_width[c] += count * blk.per_width[c];
            }
            bytes_read += count * blk.bytes_read;
            bytes_written += count * blk.bytes_written;
        }

        let thread_cycles = layout.timer_slot.map(|slot| trace.slot(slot as usize));

        let mem_trace: Vec<(u32, u64)> = if self.config.trace_memory {
            trace.records().iter().map(|r| (r.tag, r.value)).collect()
        } else {
            Vec::new()
        };

        let profile = InvocationProfile {
            launch_index: info.launch_index,
            kernel_index: info.kernel.0,
            kernel_name: info.kernel_name.clone(),
            global_work_size: info.global_work_size,
            args_digest: args_digest(&info.args),
            bb_counts,
            instructions,
            per_category,
            per_width,
            bytes_read,
            bytes_written,
            thread_cycles,
            mem_trace,
            dropped_records: info.stats.trace_dropped,
            quarantined_records: info.stats.trace_quarantined,
        };

        let kernels: Vec<&StaticKernelInfo> = self.kernels.iter().map(|k| &k.static_info).collect();
        let ctx = ToolContext {
            kernels: &kernels,
            send_sites: &self.site_table,
        };
        for tool in &self.tools {
            tool.borrow_mut().on_kernel_complete(&profile, &ctx);
        }
        self.invocations.push(profile);
    }

    fn snapshot(&self, app: &str) -> ProgramProfile {
        ProgramProfile {
            app: app.to_string(),
            kernels: self.kernels.iter().map(|k| k.static_info.clone()).collect(),
            overheads: self.kernels.iter().map(|k| k.overhead).collect(),
            invocations: self.invocations.clone(),
        }
    }
}

fn args_digest(args: &[ocl_runtime::api::ArgValue]) -> u64 {
    args.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, a| {
        (h ^ a.digest()).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The user-facing GT-Pin handle.
///
/// Construct one, [`attach`](GtPin::attach) it to a [`Gpu`], run the
/// program through the OpenCL runtime, then read the
/// [`ProgramProfile`].
///
/// # Example
///
/// ```
/// use gtpin_core::{GtPin, RewriteConfig};
/// use gpu_device::{Gpu, GpuConfig};
///
/// let mut gpu = Gpu::new(GpuConfig::hd4000());
/// let gtpin = GtPin::new(RewriteConfig::default());
/// gtpin.attach(&mut gpu);
/// // ... run a HostProgram through OclRuntime::new(gpu) ...
/// ```
pub struct GtPin {
    state: Rc<RefCell<Engine>>,
}

impl std::fmt::Debug for GtPin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.borrow();
        f.debug_struct("GtPin")
            .field("kernels", &s.kernels.len())
            .field("invocations", &s.invocations.len())
            .finish()
    }
}

impl GtPin {
    /// A GT-Pin instance with the given instrumentation configuration.
    ///
    /// Every rewrite is checked by the [`gtpin_analyze`]
    /// instrumentation-safety verifier, and a failure aborts the
    /// build like a JIT error.
    pub fn new(config: RewriteConfig) -> GtPin {
        GtPin {
            state: Rc::new(RefCell::new(Engine {
                config,
                kernels: Vec::new(),
                invocations: Vec::new(),
                next_slot: 0,
                next_tag: 0,
                site_table: HashMap::new(),
                tools: Vec::new(),
            })),
        }
    }

    /// Register a custom analysis tool. The tool is called at every
    /// kernel build and after every kernel invocation; keep a clone
    /// of the `Rc` to inspect it afterwards.
    pub fn add_tool(&self, tool: Rc<RefCell<dyn Tool>>) {
        self.state.borrow_mut().tools.push(tool);
    }

    /// Attach to a GPU: installs the binary rewriter on the driver
    /// and the trace-buffer post-processor on the launch path.
    pub fn attach(&self, gpu: &mut Gpu) {
        gpu.set_rewriter(Box::new(RewriterAdapter {
            state: self.state.clone(),
        }));
        gpu.set_observer(Box::new(ObserverAdapter {
            state: self.state.clone(),
        }));
    }

    /// Snapshot the profile collected so far.
    pub fn profile(&self, app: &str) -> ProgramProfile {
        self.state.borrow().snapshot(app)
    }

    /// Number of invocations observed so far.
    pub fn num_invocations(&self) -> usize {
        self.state.borrow().invocations.len()
    }
}

struct RewriterAdapter {
    state: Rc<RefCell<Engine>>,
}

impl BinaryRewriter for RewriterAdapter {
    fn rewrite(&mut self, kernel_index: usize, binary: &[u8]) -> Result<Vec<u8>, String> {
        self.state.borrow_mut().rewrite(kernel_index, binary)
    }
}

struct ObserverAdapter {
    state: Rc<RefCell<Engine>>,
}

impl LaunchObserver for ObserverAdapter {
    fn on_kernel_complete(&mut self, info: &LaunchInfo, trace: &mut TraceBuffer) {
        self.state.borrow_mut().post_process(info, trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gen_isa::ExecSize;
    use gpu_device::GpuConfig;
    use ocl_runtime::api::{ArgValue, KernelId, SyncCall};
    use ocl_runtime::host::{HostScriptBuilder, ProgramSource};
    use ocl_runtime::ir::{AccessPattern, IrOp, KernelIr, TripCount};
    use ocl_runtime::runtime::{OclRuntime, Schedule};

    fn program() -> ocl_runtime::host::HostProgram {
        let mut k = KernelIr::new("stream", 2);
        k.body = vec![
            IrOp::LoopBegin {
                trip: TripCount::Arg(0),
            },
            IrOp::Compute {
                ops: 6,
                width: ExecSize::S16,
            },
            IrOp::Load {
                arg: 1,
                bytes: 64,
                width: ExecSize::S16,
                pattern: AccessPattern::Linear,
            },
            IrOp::LoopEnd,
        ];
        let mut k2 = KernelIr::new("post", 0);
        k2.body = vec![IrOp::Move {
            ops: 12,
            width: ExecSize::S8,
        }];
        let source = ProgramSource {
            kernels: vec![k, k2],
        };
        let mut b = HostScriptBuilder::new("app", source);
        for i in 1..=3u64 {
            b.set_arg(KernelId(0), 0, ArgValue::Scalar(4 * i));
            b.set_arg(KernelId(0), 1, ArgValue::Buffer(0));
            b.launch(KernelId(0), 64);
        }
        b.launch(KernelId(1), 32);
        b.sync(SyncCall::Finish);
        b.finish().unwrap()
    }

    fn profiled_run() -> (ProgramProfile, gpu_device::Gpu) {
        let mut gpu = Gpu::new(GpuConfig::hd4000());
        let gtpin = GtPin::new(RewriteConfig::default());
        gtpin.attach(&mut gpu);
        let mut rt = OclRuntime::new(gpu);
        rt.run(&program(), Schedule::Replay).unwrap();
        (gtpin.profile("app"), rt.into_device())
    }

    #[test]
    fn profile_reconstructs_app_instruction_counts() {
        let (profile, gpu) = profiled_run();
        assert_eq!(profile.num_invocations(), 4);
        assert_eq!(profile.unique_kernels(), 2);

        // Ground truth: run the same program uninstrumented and
        // compare native counters.
        let mut clean = OclRuntime::new(Gpu::new(GpuConfig::hd4000()));
        clean.run(&program(), Schedule::Replay).unwrap();
        let native = clean.into_device();
        for (inv, launch) in profile.invocations.iter().zip(native.launches()) {
            assert_eq!(
                inv.instructions, launch.stats.instructions,
                "GT-Pin reconstruction equals native count for launch {}",
                inv.launch_index
            );
            assert_eq!(inv.bytes_read, launch.stats.bytes_read);
            assert_eq!(inv.bytes_written, launch.stats.bytes_written);
            assert_eq!(inv.per_category, launch.stats.per_category);
            assert_eq!(inv.per_width, launch.stats.per_width);
        }
        // The instrumented run itself executed MORE than the app.
        let instrumented_total: u64 = gpu.launches().iter().map(|l| l.stats.instructions).sum();
        assert!(instrumented_total > profile.total_instructions());
    }

    #[test]
    fn overhead_factor_is_within_the_papers_band() {
        let (profile, gpu) = profiled_run();
        let app = profile.total_instructions() as f64;
        let instrumented: u64 = gpu.launches().iter().map(|l| l.stats.instructions).sum();
        let factor = instrumented as f64 / app;
        assert!(
            factor > 1.0 && factor < 10.0,
            "dynamic overhead {factor:.2}× should sit in the paper's 2–10× band (shape)"
        );
        assert!((profile.dynamic_overhead_factor() - factor).abs() / factor < 0.25);
    }

    #[test]
    fn launches_with_bigger_args_count_more_instructions() {
        let (profile, _) = profiled_run();
        assert!(profile.invocations[2].instructions > profile.invocations[0].instructions);
    }

    #[test]
    fn args_digest_distinguishes_launches() {
        let (profile, _) = profiled_run();
        assert_ne!(
            profile.invocations[0].args_digest,
            profile.invocations[1].args_digest
        );
    }

    #[test]
    fn verified_run_profiles_identically() {
        let mut gpu = Gpu::new(GpuConfig::hd4000());
        let gtpin = GtPin::new(RewriteConfig {
            count_basic_blocks: true,
            time_kernels: true,
            trace_memory: true,
            naive_per_instruction_counters: false,
        });
        gtpin.attach(&mut gpu);
        let mut rt = OclRuntime::new(gpu);
        rt.run(&program(), Schedule::Replay).unwrap();
        let profile = gtpin.profile("app");
        assert_eq!(
            profile.num_invocations(),
            4,
            "verifier accepted every rewrite"
        );
    }

    #[test]
    fn rebuild_resets_layout() {
        let mut gpu = Gpu::new(GpuConfig::hd4000());
        let gtpin = GtPin::new(RewriteConfig::default());
        gtpin.attach(&mut gpu);
        let mut rt = OclRuntime::new(gpu);
        rt.run(&program(), Schedule::Replay).unwrap();
        rt.run(&program(), Schedule::Replay).unwrap();
        let profile = gtpin.profile("app");
        assert_eq!(
            profile.unique_kernels(),
            2,
            "second build replaced, not appended"
        );
        assert_eq!(
            profile.num_invocations(),
            8,
            "invocations accumulate across runs"
        );
    }
}
