//! The rank's counter block: every statistic the library keeps about one
//! rank, declared once.
//!
//! One [`RankCounters`] is created where the rank is launched and shared
//! (`Arc`) by the transport, its lazy connection table, the communicator
//! layer and the rank's failure-state handle, which bump it directly. Each of
//! its six sections is declared next to what it counts, by
//! `counter_section!`, as one list of fields from which the public snapshot
//! type (`TransportStats`, `DataPlaneStats`, `CompletionStats`,
//! `ProgressStats`, `PlanCacheStats`, `WaitStats`) and the live section are
//! both emitted.
//! Counters are relaxed atomics: nothing synchronizes through a count — the
//! data it describes is published by the transport's own protocol — so a bump
//! is one `fetch_add` and a snapshot is one load per field, under no lock.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::plan::PlanCacheSection;
use crate::progress::ProgressSection;
use crate::spin::WaitSection;
use crate::transport::{CompletionSection, DataPlaneSection, TransportSection};

/// One counter of the block: bumped and read through a shared reference.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n` to the count.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The count so far.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Every counter of one rank (see the module documentation).
#[derive(Debug, Default)]
pub struct RankCounters {
    /// Two-sided, one-sided, lazy-connection and collective traffic.
    pub transport: TransportSection,
    /// The shared-window single-copy data plane.
    pub data_plane: DataPlaneSection,
    /// The progress engine.
    pub progress: ProgressSection,
    /// The plan caches of all the rank's communicators.
    pub plan_cache: PlanCacheSection,
    /// Blocking waits, per wait site.
    pub waits: WaitSection,
    /// How the data plane's completion lines went out.
    pub completions: CompletionSection,
}

/// Declare one section of [`RankCounters`]: the snapshot struct `Stats` (with
/// the attributes given), whose `u64` fields are the counters, and its live
/// form `Section` — one [`Counter`] per field — with `snapshot()`. Fields
/// under `state` are not counts: the snapshot holds them at `Default` for the
/// section's owner to fill.
macro_rules! counter_section {
    (
        $(#[$meta:meta])*
        $stats:ident / $live:ident { $($(#[$doc:meta])* $field:ident,)* }
        $(state { $($(#[$sdoc:meta])* $sfield:ident: $sty:ty,)* })?
    ) => {
        $(#[$meta])*
        pub struct $stats {
            $($(#[$doc])* pub $field: u64,)*
            $($($(#[$sdoc])* pub $sfield: $sty,)*)?
        }

        #[doc = concat!("The live form of [`", stringify!($stats), "`]: a section of the rank's")]
        #[doc = "[`crate::counters::RankCounters`]."]
        #[derive(Debug, Default)]
        pub struct $live {
            $($(#[$doc])* pub $field: $crate::counters::Counter,)*
        }

        impl $live {
            #[doc = concat!("Read every counter into a [`", stringify!($stats), "`].")]
            pub fn snapshot(&self) -> $stats {
                $stats {
                    $($field: self.$field.get(),)*
                    $($($sfield: Default::default(),)*)?
                }
            }
        }
    };
}
pub(crate) use counter_section;
