//! CI driver for the analysis layers.
//!
//! ```text
//! ftc-analysis lint [--root DIR]
//! ftc-analysis fsm  [--nodes N] [--limit N] [--depth N] [--spurious N] [--sabotage]
//! ```
//!
//! Both subcommands exit non-zero when they find anything, so they slot
//! directly into CI next to `clippy -D warnings`. The happens-before
//! race detector runs over real traces via the `races` binary in
//! `ftc-bench` (it needs a cluster to trace).

use ftc_analysis::{check_fsm, lint_workspace, FsmConfig};
use std::path::PathBuf;
use std::process::ExitCode;

fn arg_value(flag: &str) -> Option<String> {
    std::env::args()
        .position(|a| a == flag)
        .and_then(|i| std::env::args().nth(i + 1))
}

fn arg_or<T: std::str::FromStr>(flag: &str, default: T) -> T {
    match arg_value(flag) {
        Some(v) => match v.parse() {
            Ok(parsed) => parsed,
            // lint:allow(err-catchall): any unparsable flag value exits
            // with the usage error; the error type is generic here.
            Err(_) => {
                eprintln!("invalid value {v:?} for {flag}");
                std::process::exit(2);
            }
        },
        None => default,
    }
}

fn main() -> ExitCode {
    let cmd = std::env::args().nth(1);
    match cmd.as_deref() {
        Some("lint") => run_lint(),
        Some("fsm") => run_fsm(),
        _ => {
            eprintln!("usage: ftc-analysis <lint|fsm> [options]");
            ExitCode::from(2)
        }
    }
}

fn run_lint() -> ExitCode {
    let root = arg_value("--root")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    let findings = match lint_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("lint walk failed under {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("lint: clean");
        ExitCode::SUCCESS
    } else {
        println!("lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

fn run_fsm() -> ExitCode {
    let d = FsmConfig::default();
    let config = FsmConfig {
        nodes: arg_or("--nodes", d.nodes),
        timeout_limit: arg_or("--limit", d.timeout_limit),
        depth: arg_or("--depth", d.depth),
        spurious: arg_or("--spurious", d.spurious),
        sabotage: std::env::args().any(|a| a == "--sabotage"),
    };
    let report = check_fsm(&config);
    println!("{report}");
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
