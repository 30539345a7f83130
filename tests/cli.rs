//! The `gtpin` command line, run as a process: a run budget set by
//! knob ends in a partial report and `error[budget]`, a malformed or
//! unknown `GTPIN_*` variable is a usage error before any work,
//! `select` takes its scale by name, and a flag may come before the
//! app it qualifies.

use std::ffi::OsStr;
use std::os::unix::ffi::OsStrExt;
use std::process::{Command, Output};

/// Run `gtpin args` with exactly `knobs` as its `GTPIN_*` environment,
/// so an inherited knob (a `GTPIN_OBS=1` test run) cannot change it.
fn gtpin(args: &[&str], knobs: &[(&str, &OsStr)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gtpin"));
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("GTPIN_") {
            cmd.env_remove(name);
        }
    }
    cmd.args(args)
        .envs(knobs.iter().copied())
        .output()
        .expect("gtpin starts")
}

#[test]
fn a_task_budget_prints_the_partial_report_then_fails() {
    let out = gtpin(
        &["explore", "sandra-crypt-aes128", "--scale", "test"],
        &[("GTPIN_MAX_TASKS", OsStr::new("1"))],
    );
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let row = stdout
        .lines()
        .find(|l| l.starts_with("sandra-crypt-aes128"))
        .unwrap_or_else(|| panic!("no app row in {stdout}"));
    assert_eq!(row.split_whitespace().nth(1), Some("budget"), "{row}");
    assert!(stdout.contains("run budget exhausted"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error[budget]:"), "{stderr}");
}

/// Asserts `gtpin list` under `name=value` is a usage error naming it.
fn refused(name: &str, value: &OsStr) {
    let out = gtpin(&["list"], &[(name, value)]);
    assert_eq!(out.status.code(), Some(2), "{name}={value:?} was accepted");
    assert!(
        out.stdout.is_empty(),
        "{name}={value:?} still listed the apps"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error[cli]:") && stderr.contains(name),
        "{stderr}"
    );
}

#[test]
fn a_retired_knob_is_refused_by_name() {
    refused("GTPIN_SIM_THREADS", OsStr::new("4"));
}

#[test]
fn a_malformed_knob_is_refused() {
    refused("GTPIN_THREADS", OsStr::new("four"));
    // Not Unicode: refused as malformed, not taken as unset.
    refused("GTPIN_THREADS", OsStr::from_bytes(b"4\xff"));
}

#[test]
fn select_honours_a_named_scale() {
    let out = gtpin(&["select", "sandra-crypt-aes128", "--scale", "test"], &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("co-opt @"), "{stdout}");
}

#[test]
fn select_refuses_an_unknown_scale_by_name() {
    let out = gtpin(&["select", "sandra-crypt-aes128", "--scale", "huge"], &[]);
    assert_ne!(out.status.code(), Some(0));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown scale huge"), "{stderr}");
}

/// `gtpin <cmd> --scale test <app>` prints what `gtpin <cmd> <app>
/// --scale test` prints: the app is the first positional argument,
/// not the first argument.
fn scale_may_precede_the_app(cmd: &str) {
    let app = "sandra-crypt-aes128";
    let after = gtpin(&[cmd, app, "--scale", "test"], &[]);
    let before = gtpin(&[cmd, "--scale", "test", app], &[]);
    for out in [&after, &before] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{stderr}");
    }
    assert!(!after.stdout.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&before.stdout),
        String::from_utf8_lossy(&after.stdout)
    );
}

#[test]
fn select_takes_its_scale_before_the_app() {
    scale_may_precede_the_app("select");
}

#[test]
fn sim_takes_its_scale_before_the_app() {
    scale_may_precede_the_app("sim");
}
