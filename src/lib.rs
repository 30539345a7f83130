//! # gtpin-suite
//!
//! Facade crate for the GT-Pin reproduction. Re-exports every
//! workspace crate under one roof so examples and integration tests
//! can `use gtpin_suite::...`.
//!
//! See the individual crates for the real APIs:
//!
//! * [`isa`] — the GEN-flavoured GPU instruction set,
//! * [`runtime`] — the OpenCL host/runtime model and CoFluent tracer,
//! * [`device`] — the GPU device model (JIT, executor, timing,
//!   detailed simulator),
//! * [`gtpin`] — the GT-Pin binary instrumentation engine and tools,
//! * [`analyze`] — CFG dataflow analyses, kernel lints, and the
//!   instrumentation-safety verifier the engine runs on every rewrite,
//! * [`obs`] — the `GTPIN_OBS` telemetry registry and exporters,
//! * [`faults`] — the `GTPIN_FAULTS` deterministic fault-injection
//!   registry,
//! * [`durable`] — the crash-consistent write-ahead run journal
//!   behind `--resume` of `gtpin explore`, `chaos` and `serve`,
//! * [`serve`] — the `gtpin serve` profiling daemon: Unix-socket
//!   protocol, admission control, journaled sessions with resume,
//! * [`chaos`] — the seeded end-to-end chaos harness behind
//!   `gtpin chaos` (scenario generation, kill/resume schedules,
//!   invariant oracles, shrinking),
//! * [`par`] — deterministic fan-out, the supervisor, and the one
//!   `RunConfig` (thread count and supervision limits) every binary
//!   parses its `GTPIN_*` knobs into, refusing any it does not read,
//! * [`simpoint`] — SimPoint-style clustering,
//! * [`selection`] — simulation subset selection,
//! * [`workloads`] — the 25 benchmark applications.
//!
//! [`GtPinError`] unifies every layer's typed error behind one enum.

pub mod error;

pub use error::GtPinError;
pub use gen_isa as isa;
pub use gpu_device as device;
pub use gtpin_analyze as analyze;
pub use gtpin_chaos as chaos;
pub use gtpin_core as gtpin;
pub use gtpin_durable as durable;
pub use gtpin_faults as faults;
pub use gtpin_obs as obs;
pub use gtpin_par as par;
pub use gtpin_serve as serve;
pub use ocl_runtime as runtime;
pub use simpoint;
pub use subset_select as selection;
pub use workloads;
