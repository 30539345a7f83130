//! The OpenCL runtime: executes host programs against a device,
//! maintaining argument state and synchronization epochs.

use std::collections::BTreeMap;

use crate::api::{ApiCall, ApiCallKind, ArgValue, KernelId};
use crate::cofluent::{CofluentReport, InvocationTiming};
use crate::device::{Device, DeviceError};
use crate::host::HostProgram;

/// How the runtime orders unsynchronized work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// "Native" execution: between synchronization calls the queue
    /// may legally complete launch groups in a different order; the
    /// seed makes a particular ordering reproducible. This models the
    /// non-determinism the paper works around with CoFluent
    /// recordings (Section V-E).
    Natural {
        /// Ordering seed (varies per trial on real hardware).
        seed: u64,
    },
    /// Replay of a recording: the script order is followed exactly.
    Replay,
}

/// Errors from running a host program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The program failed validation before execution.
    BadProgram(String),
    /// The device reported an error.
    Device(DeviceError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::BadProgram(s) => write!(f, "invalid host program: {s}"),
            RunError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<DeviceError> for RunError {
    fn from(e: DeviceError) -> RunError {
        RunError::Device(e)
    }
}

/// The result of one program execution: the CoFluent-style API and
/// timing report plus the resolved call order (which a recording
/// captures).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-call-kind counts, timings, and invocation records.
    pub cofluent: CofluentReport,
    /// The exact call order that executed (input script after
    /// scheduling). Replaying this order reproduces the run.
    pub resolved_calls: Vec<ApiCall>,
}

/// The OpenCL runtime bound to one device.
#[derive(Debug)]
pub struct OclRuntime<D> {
    device: D,
}

impl<D: Device> OclRuntime<D> {
    /// A runtime driving `device`.
    pub fn new(device: D) -> OclRuntime<D> {
        OclRuntime { device }
    }

    /// Access the device (e.g. to read profiling state GT-Pin left
    /// behind).
    pub fn device(&self) -> &D {
        &self.device
    }

    /// Consume the runtime, returning the device.
    pub fn into_device(self) -> D {
        self.device
    }

    /// Execute a host program under the given schedule.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::BadProgram`] for malformed programs and
    /// [`RunError::Device`] when the device faults.
    pub fn run(
        &mut self,
        program: &HostProgram,
        schedule: Schedule,
    ) -> Result<RunReport, RunError> {
        program.check().map_err(RunError::BadProgram)?;
        let calls = match schedule {
            Schedule::Replay => program.calls.clone(),
            Schedule::Natural { seed } => natural_order(&program.calls, seed),
        };

        let mut kind_counts = [0u64; 3];
        let mut per_call_counts: BTreeMap<String, u64> = BTreeMap::new();
        let mut invocations: Vec<InvocationTiming> = Vec::new();
        let mut args: Vec<Vec<Option<ArgValue>>> = program
            .source
            .kernels
            .iter()
            .map(|k| vec![None; k.num_args as usize])
            .collect();
        let mut sync_epoch = 0u32;
        let mut saw_work_in_epoch = false;

        for call in &calls {
            let kind = call.kind();
            let kidx = ApiCallKind::ALL
                .iter()
                .position(|&k| k == kind)
                .expect("kind in ALL");
            kind_counts[kidx] += 1;
            *per_call_counts.entry(call.name().to_string()).or_insert(0) += 1;

            match call {
                ApiCall::BuildProgram => {
                    self.device.build_program(&program.source)?;
                }
                ApiCall::SetKernelArg {
                    kernel,
                    index,
                    value,
                } => {
                    let slots = &mut args[kernel.index()];
                    let i = *index as usize;
                    if i >= slots.len() {
                        return Err(RunError::BadProgram(format!(
                            "{kernel}: argument index {index} past declared num_args"
                        )));
                    }
                    slots[i] = Some(*value);
                }
                ApiCall::EnqueueNDRangeKernel {
                    kernel,
                    global_work_size,
                } => {
                    let bound = bind_args(*kernel, &args[kernel.index()])?;
                    let timing = self
                        .device
                        .launch_kernel(*kernel, &bound, *global_work_size)?;
                    let kernel_name = program
                        .source
                        .kernel(*kernel)
                        .map(|k| k.name.clone())
                        .unwrap_or_default();
                    invocations.push(InvocationTiming {
                        index: invocations.len() as u32,
                        kernel: *kernel,
                        kernel_name,
                        global_work_size: *global_work_size,
                        args: bound,
                        seconds: timing.seconds,
                        sync_epoch,
                    });
                    saw_work_in_epoch = true;
                }
                ApiCall::Sync(s) => {
                    self.device.synchronize(*s);
                    if saw_work_in_epoch {
                        sync_epoch += 1;
                        saw_work_in_epoch = false;
                    }
                }
                _ => {}
            }
        }

        let num_sync_epochs = sync_epoch + u32::from(saw_work_in_epoch);
        Ok(RunReport {
            cofluent: CofluentReport {
                app: program.name.clone(),
                device: self.device.device_name(),
                total_api_calls: calls.len() as u64,
                kind_counts,
                per_call_counts,
                invocations,
                num_sync_epochs,
            },
            resolved_calls: calls,
        })
    }
}

fn bind_args(kernel: KernelId, slots: &[Option<ArgValue>]) -> Result<Vec<ArgValue>, DeviceError> {
    slots
        .iter()
        .enumerate()
        .map(|(i, v)| {
            v.ok_or(DeviceError::MissingArg {
                kernel,
                index: i as u8,
            })
        })
        .collect()
}

/// Reorder launch groups within each synchronization epoch, the way
/// an out-of-order queue legally may. A *launch group* is a maximal
/// run of calls ending in `clEnqueueNDRangeKernel` (its argument
/// setup travels with it); other calls keep their positions relative
/// to group boundaries.
fn natural_order(calls: &[ApiCall], seed: u64) -> Vec<ApiCall> {
    // Arguments bound exactly once in the whole program ("stable":
    // buffers, configuration) are global state every later launch
    // depends on — their binding pins the order. Arguments re-bound
    // repeatedly ("volatile": per-launch sizes) travel with the
    // launch group that snapshots them.
    let mut bind_counts: BTreeMap<(KernelId, u8), u32> = BTreeMap::new();
    for call in calls {
        if let ApiCall::SetKernelArg { kernel, index, .. } = call {
            *bind_counts.entry((*kernel, *index)).or_insert(0) += 1;
        }
    }
    let is_stable =
        |kernel: KernelId, index: u8| bind_counts.get(&(kernel, index)).copied().unwrap_or(0) <= 1;

    let mut out = Vec::with_capacity(calls.len());
    let mut epoch_groups: Vec<Vec<ApiCall>> = Vec::new();
    let mut pending: Vec<ApiCall> = Vec::new();
    let mut epoch_index = 0u64;

    let flush_epoch = |groups: &mut Vec<Vec<ApiCall>>, out: &mut Vec<ApiCall>, epoch_index: u64| {
        if groups.len() > 1 {
            let rot = (mix(seed, epoch_index) as usize) % groups.len();
            groups.rotate_left(rot);
        }
        for g in groups.drain(..) {
            out.extend(g);
        }
    };

    for call in calls {
        match call {
            ApiCall::SetKernelArg { kernel, index, .. } => {
                if is_stable(*kernel, *index) {
                    // One-time binding: global state, pins the order.
                    epoch_groups.push(std::mem::take(&mut pending));
                    flush_epoch(&mut epoch_groups, &mut out, epoch_index);
                    out.push(call.clone());
                } else {
                    pending.push(call.clone());
                }
            }
            ApiCall::EnqueueWriteBuffer { .. } => {
                // Buffer uploads travel with the launch group they
                // precede; in-order completion is only guaranteed at
                // synchronization calls.
                pending.push(call.clone());
            }
            ApiCall::EnqueueNDRangeKernel { kernel, .. } => {
                // A group may only move if every argument binding it
                // carries targets the launched kernel — otherwise the
                // launch depends on (or the group re-binds) state
                // other launches observe, and order is pinned.
                let self_contained = !pending.is_empty()
                    && pending.iter().all(|c| match c {
                        ApiCall::SetKernelArg { kernel: k, .. } => k == kernel,
                        _ => true,
                    });
                if self_contained {
                    pending.push(call.clone());
                    epoch_groups.push(std::mem::take(&mut pending));
                } else {
                    epoch_groups.push(std::mem::take(&mut pending));
                    flush_epoch(&mut epoch_groups, &mut out, epoch_index);
                    out.push(call.clone());
                }
            }
            ApiCall::Sync(_) => {
                // Arg-only tails stay put, then the sync closes the epoch.
                epoch_groups.push(std::mem::take(&mut pending));
                flush_epoch(&mut epoch_groups, &mut out, epoch_index);
                epoch_index += 1;
                out.push(call.clone());
            }
            _ => {
                // Non-launch, non-sync calls act as barriers for
                // reordering (program setup/cleanup order is fixed).
                epoch_groups.push(std::mem::take(&mut pending));
                flush_epoch(&mut epoch_groups, &mut out, epoch_index);
                out.push(call.clone());
            }
        }
    }
    epoch_groups.push(std::mem::take(&mut pending));
    flush_epoch(&mut epoch_groups, &mut out, epoch_index);
    out
}

fn mix(seed: u64, x: u64) -> u64 {
    let mut v = seed ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    v ^= v >> 33;
    v = v.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    v ^= v >> 33;
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SyncCall;
    use crate::device::test_support::FakeDevice;
    use crate::host::{HostScriptBuilder, ProgramSource};
    use crate::ir::KernelIr;

    fn two_kernel_program(launches_per_epoch: usize, epochs: usize) -> HostProgram {
        let source = ProgramSource {
            kernels: vec![KernelIr::new("a", 1), KernelIr::new("b", 1)],
        };
        let mut b = HostScriptBuilder::new("app", source);
        for _ in 0..epochs {
            for i in 0..launches_per_epoch {
                let k = KernelId((i % 2) as u32);
                b.set_arg(k, 0, ArgValue::Scalar(i as u64));
                b.launch(k, 64 * (i as u64 + 1));
            }
            b.sync(SyncCall::Finish);
        }
        b.finish().unwrap()
    }

    #[test]
    fn replay_executes_script_order() {
        let p = two_kernel_program(4, 2);
        let mut rt = OclRuntime::new(FakeDevice::default());
        let report = rt.run(&p, Schedule::Replay).unwrap();
        assert_eq!(report.resolved_calls, p.calls);
        assert_eq!(report.cofluent.invocations.len(), 8);
        assert_eq!(report.cofluent.num_sync_epochs, 2);
    }

    #[test]
    fn natural_schedule_preserves_per_launch_arguments() {
        let p = two_kernel_program(5, 3);
        let mut rt = OclRuntime::new(FakeDevice::default());
        let natural = rt.run(&p, Schedule::Natural { seed: 7 }).unwrap();
        let mut rt2 = OclRuntime::new(FakeDevice::default());
        let replay = rt2.run(&p, Schedule::Replay).unwrap();

        // Same multiset of (kernel, args, gws) launches...
        let key = |i: &InvocationTiming| (i.kernel, i.args.clone(), i.global_work_size);
        let mut a: Vec<_> = natural.cofluent.invocations.iter().map(key).collect();
        let mut b: Vec<_> = replay.cofluent.invocations.iter().map(key).collect();
        a.sort();
        b.sort();
        assert_eq!(
            a, b,
            "scheduling never separates a launch from its arguments"
        );
    }

    #[test]
    fn natural_schedule_actually_reorders_some_seed() {
        let p = two_kernel_program(6, 2);
        let mut reordered = false;
        for seed in 0..16 {
            let mut rt = OclRuntime::new(FakeDevice::default());
            let natural = rt.run(&p, Schedule::Natural { seed }).unwrap();
            if natural.resolved_calls != p.calls {
                reordered = true;
                break;
            }
        }
        assert!(reordered, "at least one seed perturbs the order");
    }

    #[test]
    fn natural_schedule_is_deterministic_per_seed() {
        let p = two_kernel_program(6, 2);
        let run = |seed| {
            let mut rt = OclRuntime::new(FakeDevice::default());
            rt.run(&p, Schedule::Natural { seed })
                .unwrap()
                .resolved_calls
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn missing_argument_is_a_device_error() {
        let source = ProgramSource {
            kernels: vec![KernelIr::new("a", 2)],
        };
        let mut b = HostScriptBuilder::new("app", source);
        b.set_arg(KernelId(0), 0, ArgValue::Scalar(1));
        b.launch(KernelId(0), 64);
        let p = b.finish().unwrap();
        let mut rt = OclRuntime::new(FakeDevice::default());
        let err = rt.run(&p, Schedule::Replay).unwrap_err();
        assert_eq!(
            err,
            RunError::Device(DeviceError::MissingArg {
                kernel: KernelId(0),
                index: 1
            })
        );
    }

    #[test]
    fn kind_counts_sum_to_total() {
        let p = two_kernel_program(3, 2);
        let mut rt = OclRuntime::new(FakeDevice::default());
        let r = rt.run(&p, Schedule::Replay).unwrap().cofluent;
        assert_eq!(r.kind_counts.iter().sum::<u64>(), r.total_api_calls);
        assert_eq!(r.kind_counts[0], 6, "six kernel launches");
        assert_eq!(r.kind_counts[1], 2, "two syncs");
    }

    #[test]
    fn one_time_bindings_always_precede_every_launch() {
        // A buffer argument bound once must stay ahead of all
        // launches under every natural schedule — moving it would
        // leave earlier launches without the binding.
        let source = ProgramSource {
            kernels: vec![KernelIr::new("a", 2)],
        };
        let mut b = HostScriptBuilder::new("app", source);
        b.set_arg(KernelId(0), 1, ArgValue::Buffer(7)); // stable: bound once
        for i in 0..6u64 {
            b.set_arg(KernelId(0), 0, ArgValue::Scalar(i)); // volatile
            b.launch(KernelId(0), 64);
        }
        b.sync(SyncCall::Finish);
        let p = b.finish().unwrap();

        for seed in 0..24 {
            let mut rt = OclRuntime::new(FakeDevice::default());
            let report = rt.run(&p, Schedule::Natural { seed }).unwrap();
            let stable_pos = report
                .resolved_calls
                .iter()
                .position(|c| matches!(c, ApiCall::SetKernelArg { index: 1, .. }))
                .expect("stable binding present");
            let first_launch = report
                .resolved_calls
                .iter()
                .position(|c| matches!(c, ApiCall::EnqueueNDRangeKernel { .. }))
                .expect("launches present");
            assert!(
                stable_pos < first_launch,
                "seed {seed}: stable binding at {stable_pos} must precede launch at {first_launch}"
            );
            // And every launch sees its buffer argument bound.
            for (_, args, _) in &rt.device().launches {
                assert_eq!(args.len(), 2, "both arguments bound at execution");
            }
        }
    }

    #[test]
    fn trailing_unsynced_work_counts_as_an_epoch() {
        let source = ProgramSource {
            kernels: vec![KernelIr::new("a", 0)],
        };
        let mut b = HostScriptBuilder::new("app", source);
        b.launch(KernelId(0), 64);
        let p = b.finish().unwrap();
        let mut rt = OclRuntime::new(FakeDevice::default());
        let r = rt.run(&p, Schedule::Replay).unwrap().cofluent;
        assert_eq!(r.num_sync_epochs, 1);
    }
}
