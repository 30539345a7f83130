//! Determinism properties of the parallel exploration engine: the
//! memoized, fanned-out `Exploration::run_with_threads` must be
//! bitwise identical to the serial un-memoized path at every thread
//! count.

use proptest::prelude::*;
use simpoint::SimpointConfig;
use subset_select::{all_configs, evaluate_config, AppData, Exploration, InvRecord, KernelShape};

prop_compose! {
    fn arb_invocation(index: u32, epoch: u32)(
        kernel in 0u32..3,
        gws in prop::sample::select(vec![64u64, 256, 512]),
        trip in 1u64..20,
        spi_scale in 1u64..6,
    ) -> InvRecord {
        let instructions = 500 + trip * 120;
        InvRecord {
            index,
            kernel_index: kernel,
            global_work_size: gws,
            args_digest: trip.wrapping_mul(0x9E37_79B9) ^ kernel as u64,
            bb_counts: vec![1, trip, trip / 2 + 1],
            instructions,
            bytes_read: instructions * 3,
            bytes_written: instructions / 2,
            seconds: instructions as f64 * spi_scale as f64 * 1e-9,
            sync_epoch: epoch,
            dropped_records: 0,
            quarantined_records: 0,
        }
    }
}

fn arb_app() -> impl Strategy<Value = AppData> {
    (2u32..4, 2u32..5).prop_flat_map(|(epochs, per_epoch)| {
        let mut strategies = Vec::new();
        for e in 0..epochs {
            for i in 0..per_epoch {
                strategies.push(arb_invocation(e * per_epoch + i, e));
            }
        }
        strategies.prop_map(|invocations| AppData {
            app: "prop".into(),
            kernels: (0..3)
                .map(|k| KernelShape {
                    name: format!("k{k}"),
                    block_sizes: vec![6, 40, 12],
                })
                .collect(),
            invocations,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The memoized parallel exploration equals the serial
    /// per-config path — same selections, same SPI errors to the
    /// bit — at every thread count, and ratios always sum to one.
    #[test]
    fn exploration_is_thread_count_invariant(data in arb_app(), target in 1_000u64..50_000) {
        let sp = SimpointConfig::default();

        // Ground truth: the old path, one table build per config.
        let unmemoized: Vec<_> = all_configs(target)
            .into_iter()
            .filter_map(|cfg| evaluate_config(&data, cfg, &sp).ok())
            .collect();

        let serial = Exploration::run_with_threads(&data, target, &sp, 1);
        prop_assert_eq!(&serial.evaluations, &unmemoized, "memoization changed results");

        for threads in 2..=8usize {
            let par = Exploration::run_with_threads(&data, target, &sp, threads);
            prop_assert_eq!(par.evaluations.len(), serial.evaluations.len());
            for (p, s) in par.evaluations.iter().zip(&serial.evaluations) {
                prop_assert_eq!(p, s, "evaluation diverged at {} threads", threads);
                prop_assert_eq!(
                    p.error_pct.to_bits(),
                    s.error_pct.to_bits(),
                    "error bits at {} threads", threads
                );
                prop_assert_eq!(
                    p.projected_spi.to_bits(),
                    s.projected_spi.to_bits(),
                    "projection bits at {} threads", threads
                );
                prop_assert!((p.selection.total_ratio() - 1.0).abs() < 1e-9);
            }
        }
    }
}
