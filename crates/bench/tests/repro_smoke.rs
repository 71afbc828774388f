//! Smoke test for the `repro` harness: every table/figure subcommand must
//! run to completion in `--quick` mode on the smallest dataset and print
//! its report header. This keeps the reproduction harness from rotting as
//! the library evolves. The heavyweight subcommands are release-only
//! (`--ignored` under debug): a debug-mode power-method ground truth run
//! takes tens of minutes.

use std::process::Command;

fn run(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs");
    assert!(
        output.status.success(),
        "repro {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn table_reports_run() {
    let out = run(&["table3", "--quick", "--tier", "small"]);
    assert!(out.contains("grqc-sim"), "{out}");
    let out = run(&["table1", "--quick", "--dataset", "as-sim"]);
    assert!(out.to_lowercase().contains("eps"), "{out}");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug-mode repro runs take tens of minutes; run with --release"
)]
fn timing_figures_run() {
    for fig in ["fig1", "fig2", "fig3", "fig4"] {
        let out = run(&[fig, "--quick", "--tier", "small", "--dataset", "as-sim"]);
        assert!(out.contains("as-sim"), "{fig}: {out}");
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug-mode repro runs take tens of minutes; run with --release"
)]
fn accuracy_figures_run() {
    for fig in ["fig5", "fig6", "fig7"] {
        let out = run(&[fig, "--quick", "--dataset", "as-sim", "--runs", "1"]);
        assert!(out.contains("as-sim"), "{fig}: {out}");
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug-mode repro runs take tens of minutes; run with --release"
)]
fn scale_figures_run() {
    let out = run(&["fig9", "--quick", "--dataset", "as-sim"]);
    assert!(out.contains("as-sim"), "{out}");
    let out = run(&["fig10", "--quick", "--dataset", "as-sim"]);
    assert!(out.contains("as-sim"), "{out}");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug-mode repro runs take tens of minutes; run with --release"
)]
fn extensions_report_runs() {
    let out = run(&["extensions", "--quick", "--dataset", "as-sim"]);
    assert!(out.contains("top-k"), "{out}");
    assert!(out.contains("dynamic"), "{out}");
    assert!(out.contains("mapped engine"), "{out}");
}

#[test]
fn unknown_command_fails() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("figNaN")
        .output()
        .expect("repro binary runs");
    assert!(!output.status.success());
}
