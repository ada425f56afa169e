//! Typed errors for cluster and server lifecycle operations.
//!
//! Boot and revive paths used to `expect()` on thread spawning; under OS
//! resource exhaustion that panicked the whole harness mid-campaign. These
//! errors surface the failure to the caller, who can record it (the chaos
//! harness counts a failed boot as a violation) or abort cleanly.

use ftc_hashring::NodeId;
use std::fmt;
use std::io;

/// Failures surfaced by cluster and server lifecycle operations.
#[derive(Debug)]
pub enum CoreError {
    /// Spawning a background thread failed (typically OS thread or memory
    /// exhaustion).
    Spawn {
        /// What was being spawned (e.g. `"transport listener"`).
        what: &'static str,
        /// The node the thread belongs to.
        node: NodeId,
        /// The underlying OS error.
        source: io::Error,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Spawn { what, node, source } => {
                write!(f, "failed to spawn {what} for {node}: {source}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Spawn { source, .. } => Some(source),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::Spawn {
            what: "hvac server",
            node: NodeId(3),
            source: io::Error::new(io::ErrorKind::OutOfMemory, "no threads"),
        };
        let msg = e.to_string();
        assert!(msg.contains("hvac server"), "{msg}");
        assert!(msg.contains("n3"), "{msg}");
        assert!(std::error::Error::source(&e).is_some());
    }
}
