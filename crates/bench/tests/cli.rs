//! Every bench command line is strict: a typo or an unparsable value is
//! an error (exit 2), never a silently different run.

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
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_races"), &["--campaign", "2"][..]),
        (env!("CARGO_BIN_EXE_fig4"), &["--node", "4"]),
        (env!("CARGO_BIN_EXE_fig5"), &["--scael", "4"]),
        (env!("CARGO_BIN_EXE_fig5"), &["--scale", "four"]),
        (env!("CARGO_BIN_EXE_fig6a"), &["--sede", "7"]),
        (env!("CARGO_BIN_EXE_fig6b"), &["--trial", "5"]),
        (env!("CARGO_BIN_EXE_ablation_placement"), &["--key", "10"]),
        (env!("CARGO_BIN_EXE_ablation_cascade"), &["--scale"]),
        (env!("CARGO_BIN_EXE_ftc-top"), &["--once", "--armoured"]),
    ] {
        assert_eq!(exit_code(bin, args), Some(2), "{bin} {args:?}");
    }
}

#[test]
fn economy_self_test_passes() {
    let chaos = env!("CARGO_BIN_EXE_chaos");
    assert_eq!(exit_code(chaos, &["--self-test", "economy"]), Some(0));
}
