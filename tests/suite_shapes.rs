//! The characterization shapes of Figures 3–4, asserted as tests:
//! the headline qualitative facts the paper reports must hold in the
//! reproduced suite, at test scale. The full tables come from
//! `paper-report`, whose test-scale digest `scripts/check.sh` pins.

use gtpin_suite::device::GpuConfig;
use gtpin_suite::gtpin::AppCharacterization;
use gtpin_suite::isa::{ExecSize, OpcodeCategory};
use gtpin_suite::selection::profile_app;
use gtpin_suite::workloads::{build_program, spec_by_name, Scale};

fn characterize(name: &str) -> AppCharacterization {
    let spec = spec_by_name(name).expect("known app");
    let program = build_program(&spec, Scale::Test);
    let profiled = profile_app(&program, GpuConfig::hd4000(), 1).expect("profiles");
    AppCharacterization::new(&profiled.cofluent, &profiled.profile)
}

#[test]
fn proc_gpu_is_computation_dominated() {
    // Figure 4a: proc-gpu stands out at ~91% computation.
    let c = characterize("sandra-proc-gpu");
    assert!(
        c.category_fraction(OpcodeCategory::Computation) > 0.70,
        "proc-gpu computation fraction {:.2}",
        c.category_fraction(OpcodeCategory::Computation)
    );
}

#[test]
fn crypto_reads_dwarf_writes() {
    // Figure 4c: the two cryptography applications read the most.
    let c = characterize("sandra-crypt-aes256");
    assert!(
        c.bytes_read > 5 * c.bytes_written,
        "aes256 reads {} vs writes {}",
        c.bytes_read,
        c.bytes_written
    );
}

#[test]
fn sony_apps_write_more_than_they_read() {
    // Figure 4c: the seven Sony apps are write-heavy; proj-r5 extreme.
    let c = characterize("sonyvegas-proj-r5");
    assert!(
        c.bytes_written > 20 * c.bytes_read,
        "proj-r5 writes {} vs reads {}",
        c.bytes_written,
        c.bytes_read
    );
}

#[test]
fn simd2_is_never_used_and_wide_simd_dominates() {
    // Figure 4b: 2-wide instructions are never used; 16- and 8-wide
    // together dominate.
    for name in [
        "cb-graphics-t-rex",
        "cb-throughput-juliaset",
        "sandra-crypt-aes128",
    ] {
        let c = characterize(name);
        assert_eq!(
            c.width_fraction(ExecSize::S2),
            0.0,
            "{name}: width 2 never used"
        );
        let wide = c.width_fraction(ExecSize::S16) + c.width_fraction(ExecSize::S8);
        assert!(wide > 0.6, "{name}: wide SIMD fraction {wide:.2}");
    }
}

#[test]
fn bitcoin_has_the_lowest_kernel_call_fraction() {
    // Figure 3a: throughput-bitcoin launches kernels with only ~4.5%
    // of its API calls; part-sim-32k with ~76.5%.
    let bitcoin = characterize("cb-throughput-bitcoin");
    let partsim = characterize("cb-physics-part-sim-32k");
    assert!(
        bitcoin.kernel_call_fraction < 0.10,
        "bitcoin kernel fraction {:.3}",
        bitcoin.kernel_call_fraction
    );
    assert!(
        partsim.kernel_call_fraction > 0.5,
        "part-sim-32k kernel fraction {:.3}",
        partsim.kernel_call_fraction
    );
}

#[test]
fn juliaset_is_sync_heavy_with_few_calls() {
    // Figure 3a: juliaset has the highest sync share and the fewest
    // total API calls.
    let julia = characterize("cb-throughput-juliaset");
    assert!(
        julia.sync_call_fraction > 0.12,
        "sync {:.3}",
        julia.sync_call_fraction
    );
    let trex = characterize("cb-graphics-t-rex");
    assert!(julia.total_api_calls < trex.total_api_calls / 3);
}

#[test]
fn control_fraction_is_single_digit_percent() {
    // Figure 4a: control averages 7.3% across the suite.
    for name in ["cb-physics-ocean-surf", "sonyvegas-proj-r3"] {
        let c = characterize(name);
        let ctl = c.category_fraction(OpcodeCategory::Control);
        assert!(
            (0.02..0.16).contains(&ctl),
            "{name}: control fraction {ctl:.3} should be single-digit-ish percent"
        );
    }
}
