//! Counter sets: one declaration per counter (see [`counter_set!`](crate::counter_set!)).

/// Declare a counter set: one declaration per counter.
///
/// Turns a list of `field: "exposition_name"` entries into everything a
/// subsystem's statistics need:
///
/// - the live struct, one [`Counter`](crate::Counter) per field;
/// - a `Copy` snapshot struct with the same `pub` field names, as `u64`;
/// - `snapshot()` on the live struct and a saturating `merge()` on the
///   snapshot (aggregation across clients, nodes or incarnations);
/// - the [`Export`](crate::Export) impl, one counter sample per field in
///   declaration order.
///
/// A field may carry one label (`{cause = "killed"}`), so several fields
/// can share a metric family.
///
/// ## Snapshot consistency
///
/// Most counters are independent tallies, incremented and loaded Relaxed.
/// Some sets pair *initiations* with *completions* (an RPC sent, then
/// answered), and a snapshot must never show the completion without the
/// initiation (`ok > sent`). A field marked `completion` is incremented
/// with [`Counter::inc_completion`](crate::Counter::inc_completion)
/// (Release), and `snapshot()` loads every completion first, with Acquire,
/// in declaration order, before any other field. A completion seen by the
/// snapshot then carries every count its thread made before it. When one
/// completion refines another (a drop's cause, counted after the drop),
/// declare the refinement first, so it is loaded first.
///
/// ```
/// ftc_obs::counter_set! {
///     /// Requests a toy server handled.
///     pub struct ToyStats => ToyStatsSnapshot {
///         /// Requests received.
///         received: "toy_received_total",
///         /// Requests answered.
///         answered: "toy_answered_total" completion,
///         /// Requests refused because the queue was full.
///         refused_full: "toy_refused_total" {cause = "full"},
///     }
/// }
///
/// use ftc_obs::{render_prometheus, Export};
/// let stats = ToyStats::default();
/// stats.received.inc();
/// stats.answered.inc_completion();
/// let snap = stats.snapshot().merge(&ToyStatsSnapshot { refused_full: 2, ..Default::default() });
/// assert_eq!((snap.received, snap.answered, snap.refused_full), (1, 1, 2));
/// assert!(render_prometheus(&snap.export()).contains("toy_refused_total{cause=\"full\"} 2"));
/// ```
#[macro_export]
macro_rules! counter_set {
    (@acquire $out:ident . $field:ident = $src:expr, completion) => {
        $out.$field = $src.get_completion();
    };
    (@acquire $out:ident . $field:ident = $src:expr) => {};
    (@relaxed $out:ident . $field:ident = $src:expr, completion) => {};
    (@relaxed $out:ident . $field:ident = $src:expr) => {
        $out.$field = $src.get();
    };
    (
        $(#[$attr:meta])*
        $vis:vis struct $live:ident => $snap:ident {
            $(
                $(#[$doc:meta])*
                $field:ident: $name:literal $({$key:ident = $value:literal})? $($completion:ident)?
            ),* $(,)?
        }
    ) => {
        $(#[$attr])*
        #[derive(Debug, Default)]
        $vis struct $live {
            $($(#[$doc])* pub $field: $crate::Counter,)*
        }

        #[doc = concat!("Plain-value snapshot of [`", stringify!($live), "`].")]
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $snap {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl $live {
            /// Snapshot every counter: `completion` fields first, with
            /// Acquire, then the rest (see `ftc_obs::counter_set!`).
            pub fn snapshot(&self) -> $snap {
                let mut out = $snap::default();
                $($crate::counter_set!(@acquire out.$field = self.$field $(, $completion)?);)*
                $($crate::counter_set!(@relaxed out.$field = self.$field $(, $completion)?);)*
                out
            }
        }

        impl $snap {
            /// Field-wise sum, saturating: an aggregate near `u64::MAX`
            /// pins at the ceiling instead of panicking or wrapping.
            pub fn merge(&self, other: &Self) -> Self {
                $snap {
                    $($field: self.$field.saturating_add(other.$field),)*
                }
            }
        }

        impl $crate::Export for $snap {
            fn export_into(&self, out: &mut Vec<$crate::Sample>) {
                $(out.push(
                    $crate::Sample::counter($name, self.$field)
                        $(.with_label(stringify!($key), $value))?
                );)*
            }
        }
    };
}
