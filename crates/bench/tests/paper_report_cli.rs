//! The `paper-report` command line: anything but `--scale test` or
//! `--scale default` is refused before any work runs.

use std::process::Command;

#[test]
fn unknown_scale_exits_nonzero_without_a_report() {
    for args in [&["--scale", "full"][..], &["--scale"], &[]] {
        let out = Command::new(env!("CARGO_BIN_EXE_paper-report"))
            .args(args)
            .output()
            .expect("paper-report starts");
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("test, default") || stderr.contains("usage"),
            "{stderr}"
        );
    }
}
