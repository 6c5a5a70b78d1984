//! Command-line contract of the `figures` binary: unknown `--` flags are
//! errors (exit 2 with a hint), the same as unknown figure ids, so a typo
//! such as `--quik` cannot silently run at standard scale.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures")).args(args).output().expect("figures runs")
}

#[test]
fn unknown_flags_exit_2_with_a_hint() {
    for flag in ["--no-such-flag", "--quik", "--fast-forward"] {
        let out = figures(&[flag, "--list"]);
        assert_eq!(out.status.code(), Some(2), "{flag} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag `{flag}`")), "{flag}: {stderr}");
        assert!(stderr.contains("--quick"), "the hint lists the known flags: {stderr}");
        assert!(out.stdout.is_empty(), "{flag}: nothing may run before the rejection");
    }
}

#[test]
fn known_flags_are_accepted() {
    let out = figures(&["--list", "--quick", "--json", "--threads", "1", "--dram-model=queued"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("summary"));
}

#[test]
fn unknown_figure_ids_exit_2() {
    let out = figures(&["no-such-figure", "--quick"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown figure `no-such-figure`"));
}
