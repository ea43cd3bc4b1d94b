//! Identifier newtypes for kernel objects.

use core::fmt;

/// Handle to a simulation event (the SLDL `event` primitive).
///
/// Events carry no data; they are pure synchronization points with
/// delta-cycle `notify`/`wait` semantics (see [`ProcCtx::notify`] and
/// [`ProcCtx::wait`]). Events are created with [`ProcCtx::event_new`] or
/// [`Simulation::event_new`] and may be deleted with [`ProcCtx::event_del`].
///
/// [`ProcCtx::notify`]: crate::ProcCtx::notify
/// [`ProcCtx::wait`]: crate::ProcCtx::wait
/// [`ProcCtx::event_new`]: crate::ProcCtx::event_new
/// [`ProcCtx::event_del`]: crate::ProcCtx::event_del
/// [`Simulation::event_new`]: crate::Simulation::event_new
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub(crate) u32);

impl EventId {
    /// Raw index of this event, useful for trace post-processing.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evt{}", self.0)
    }
}

/// Handle to a simulated process (the SLDL behavior instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub(crate) u32);

impl ProcessId {
    /// Raw index of this process, useful for trace post-processing.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(EventId(3).to_string(), "evt3");
        assert_eq!(ProcessId(7).to_string(), "proc7");
    }

    #[test]
    fn index_round_trip() {
        assert_eq!(EventId(9).index(), 9);
        assert_eq!(ProcessId(2).index(), 2);
    }
}
