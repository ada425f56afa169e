//! The `chaos` and `races` command lines are strict: a typo is an error
//! (exit 2), never a silently different run.

use std::process::Command;

fn exit_code(bin: &str, args: &[&str]) -> Option<i32> {
    Command::new(bin)
        .args(args)
        .output()
        .expect("binary runs")
        .status
        .code()
}

#[test]
fn typoed_flags_exit_2() {
    let chaos = env!("CARGO_BIN_EXE_chaos");
    for args in [
        &["--seeed", "3", "--campaign", "2"][..],
        &["--seed"],
        &["--seed", "three"],
        &["--compare", "--policy", "ring"],
        &["--compare", "--explore"],
        &["--scenario", "no-such-scenario"],
        &["--self-test", "no-such-test"],
    ] {
        assert_eq!(exit_code(chaos, args), Some(2), "chaos {args:?}");
    }
    let races = env!("CARGO_BIN_EXE_races");
    assert_eq!(exit_code(races, &["--campaign", "2"]), Some(2));
}

#[test]
fn economy_self_test_passes() {
    let chaos = env!("CARGO_BIN_EXE_chaos");
    assert_eq!(exit_code(chaos, &["--self-test", "economy"]), Some(0));
}
