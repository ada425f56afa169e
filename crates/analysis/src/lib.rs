//! # ftc-analysis — static and dynamic analyses for the FT-Cache repo
//!
//! Three layers, all offline (nothing here runs on the request path):
//!
//! * [`hb`] — a happens-before race detector. The transport piggybacks a
//!   vector clock on every message leg (see `ftc_net::trace`); upper
//!   layers record shared-state transitions (ring-epoch changes,
//!   detector suspicion/declare/revive, cache-map mutations). The
//!   checker replays the log, reconstructs the happens-before relation,
//!   and flags conflicting event pairs that are causally *unordered* —
//!   e.g. a read served under ring epoch `e` concurrent with the
//!   membership update that retired epoch `e`.
//! * [`fsm`] — an exhaustive bounded model checker for the node-health
//!   and recache lifecycle. It drives the *real* `ftc_core::NodeHealth`
//!   table and `ftc_hashring::HashRing` through every interleaving of
//!   {kill, revive, late, silent ping, pong, shed, reply} to a depth
//!   bound, asserting the chaos-harness invariants and the settling
//!   rules on every reachable state.
//! * [`lint`] — repo-specific source lints enforced in CI: no
//!   `unwrap`/`expect` outside test code, no `Err(_)` catch-alls in
//!   fallback logic without an explicit waiver, a justification
//!   comment on every atomic-ordering choice, and a `SAFETY:` comment on
//!   every `unsafe`.
//! * [`explore`] — a bounded-DFS schedule explorer over the virtual-time
//!   driver's recorded choice points (`ftc_time::with_virtual_sched`),
//!   with partial-order-reduction-lite pruning keyed on vector-clock
//!   execution fingerprints.
//! * [`linz`] — a Wing–Gong-style linearizability checker over the
//!   per-op histories the transport records (`ftc_net::history`), with
//!   an epoch-aware freshness rule and the documented hinted-handoff
//!   exception.
//! * [`replay`] — the one text format both chaos-campaign seeds and
//!   explored schedules serialize through for byte-identical replay.
//!
//! The `ftc-analysis` binary exposes `lint` and `fsm` subcommands for CI;
//! the `races` binary in `ftc-bench` feeds chaos-campaign traces through
//! [`hb::check_trace`]; the `chaos` binary's `--explore` / `--check-linz`
//! modes drive [`explore`] and [`linz`] over whole virtual clusters.

#![warn(missing_docs)]

pub mod explore;
pub mod fsm;
pub mod hb;
pub mod lint;
pub mod linz;
pub mod replay;

pub use explore::{bounded_dfs, fingerprint_trace, DfsConfig, DfsReport, RunOutcome, Violation};
pub use fsm::{check_fsm, check_fsm_with, FsmConfig, FsmReport, Sabotage};
pub use hb::{check_trace, forge_stale_epoch_read, RaceFinding, RaceKind};
pub use lint::{lint_source, lint_workspace, LintFinding};
pub use linz::{
    check_history, forge_corrupt_read_value, forge_stale_linz_read, LinzReport, LinzViolation,
};
pub use replay::{Replayable, REPLAY_MAGIC};
