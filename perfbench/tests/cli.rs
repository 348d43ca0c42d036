//! End-to-end checks of the `perfbench` command: a short run of each
//! workload succeeds and prints the contract's result line, and one
//! wrong key or one flipped artifact byte makes it fail.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    // Each test gets its own working directory, so concurrent runs never
    // share scratch registries.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(args.join("_").replace('-', ""));
    std::fs::create_dir_all(&dir).expect("create test working directory");
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("perfbench runs")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_owned()
}

fn result(out: &Output) -> serde_json::Value {
    serde_json::from_str(&last_line(out)).expect("last line is the JSON result")
}

#[test]
fn short_runs_pass_and_print_every_metric() {
    for workload in ["serve-hot", "plan-cold", "import-run"] {
        for trace in ["0", "1"] {
            let out = run(&[
                "--workload",
                workload,
                "--seed",
                "5",
                "--seconds",
                "1",
                "--trace",
                trace,
            ]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{workload} trace {trace}:\n{stdout}");
            assert!(stdout.contains("host {\"cpu\":"), "fingerprint missing");
            let v = result(&out);
            assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
            let attempted = v.get("attempted").and_then(|a| a.as_u64()).unwrap_or(0);
            assert!(attempted > 0);
            // Closed loops never exceed the quota or the queue, and
            // serve-hot's reference rate stays far below both.
            assert_eq!(v.get("failed").and_then(|f| f.as_u64()), Some(0));
            let metrics = v
                .get("metrics")
                .and_then(|m| m.as_object())
                .expect("metrics");
            assert_eq!(metrics.len(), if trace == "0" { 8 } else { 28 });
        }
    }
}

#[test]
fn a_wrong_key_fails_the_run() {
    for workload in ["serve-hot", "plan-cold", "import-run"] {
        let out = run(&[
            "--workload",
            workload,
            "--seed",
            "6",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--inject",
            "wrong-key",
        ]);
        assert!(!out.status.success(), "{workload} accepted a wrong key");
        let v = result(&out);
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(false));
    }
}

#[test]
fn a_flipped_artifact_byte_fails_the_run() {
    for workload in ["serve-hot", "plan-cold", "import-run"] {
        let out = run(&[
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--inject",
            "flip-byte",
        ]);
        assert!(!out.status.success(), "{workload} accepted a flipped byte");
        let v = result(&out);
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(false));
    }
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    let out = run(&["--workload", "nope"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
