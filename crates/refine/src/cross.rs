//! Cross-PE rendezvous channel for architecture models.
//!
//! When dynamic-scheduling refinement maps the two parties of a rendezvous
//! channel onto *different* processing elements, each side must block
//! through its own RTOS instance while waking the partner through the
//! partner's instance — the abstract equivalent of the paper's bus channel
//! with an interrupt on the receiving side: the cross-notify arrives on the
//! remote RTOS in interrupt context (it dispatches immediately only if that
//! CPU is idle; a running task is preempted at its next delay boundary).

use std::sync::Arc;

use rtos_model::{Rtos, RtosEvent};
use sldl_sim::sync::Mutex;
use sldl_sim::{ProcCtx, RecordKind};

struct CrossState {
    pending_senders: u64,
    pending_receivers: u64,
    grants_to_senders: u64,
    grants_to_receivers: u64,
    /// Cumulative grant totals (never decremented; the fields above are
    /// consumable tokens). Exported via [`CrossRendezvous::fairness`].
    sender_grants_total: u64,
    receiver_grants_total: u64,
}

/// Cumulative grant counts of one cross-PE rendezvous: how often each side
/// arrived second and was granted by an already-waiting partner. A heavily
/// one-sided split identifies the rate-limiting party of the link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrossFairness {
    /// Grants handed to blocked senders (receiver arrived second).
    pub grants_to_senders: u64,
    /// Grants handed to blocked receivers (sender arrived second).
    pub grants_to_receivers: u64,
}

/// A rendezvous whose sender tasks live on `sender_os` and receiver tasks
/// on `receiver_os`. Clonable; all clones share the same state.
pub struct CrossRendezvous {
    sender_os: Rtos,
    receiver_os: Rtos,
    sender_wake: RtosEvent,
    receiver_wake: RtosEvent,
    /// When set, every grant lands in the trace as an instant on the
    /// `xchan:{label}` track (`grant:sender` / `grant:receiver`).
    label: Option<Arc<str>>,
    state: Arc<Mutex<CrossState>>,
}

impl Clone for CrossRendezvous {
    fn clone(&self) -> Self {
        CrossRendezvous {
            sender_os: self.sender_os.clone(),
            receiver_os: self.receiver_os.clone(),
            sender_wake: self.sender_wake,
            receiver_wake: self.receiver_wake,
            label: self.label.clone(),
            state: Arc::clone(&self.state),
        }
    }
}

impl core::fmt::Debug for CrossRendezvous {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("CrossRendezvous")
            .field("sender_os", &self.sender_os.name())
            .field("receiver_os", &self.receiver_os.name())
            .field("pending_senders", &st.pending_senders)
            .field("pending_receivers", &st.pending_receivers)
            .finish()
    }
}

impl CrossRendezvous {
    /// Creates a cross-PE rendezvous between the two RTOS instances.
    #[must_use]
    pub fn new(sender_os: Rtos, receiver_os: Rtos) -> Self {
        let sender_wake = sender_os.event_new();
        let receiver_wake = receiver_os.event_new();
        CrossRendezvous {
            sender_os,
            receiver_os,
            sender_wake,
            receiver_wake,
            label: None,
            state: Arc::new(Mutex::new(CrossState {
                pending_senders: 0,
                pending_receivers: 0,
                grants_to_senders: 0,
                grants_to_receivers: 0,
                sender_grants_total: 0,
                receiver_grants_total: 0,
            })),
        }
    }

    /// Like [`new`](CrossRendezvous::new), additionally emitting a trace
    /// instant on the `xchan:{label}` track at every grant.
    #[must_use]
    pub fn named(sender_os: Rtos, receiver_os: Rtos, label: &str) -> Self {
        let mut c = CrossRendezvous::new(sender_os, receiver_os);
        c.label = Some(Arc::from(label));
        c
    }

    /// Cumulative grant totals of this rendezvous.
    #[must_use]
    pub fn fairness(&self) -> CrossFairness {
        let st = self.state.lock();
        CrossFairness {
            grants_to_senders: st.sender_grants_total,
            grants_to_receivers: st.receiver_grants_total,
        }
    }

    fn grant_instant(&self, ctx: &ProcCtx, side: &str) {
        if let Some(label) = &self.label {
            ctx.record(RecordKind::Marker {
                track: format!("xchan:{label}"),
                label: format!("grant:{side}"),
            });
        }
    }

    /// Blocks the calling task (on the sender PE) until a receiver arrives.
    pub async fn send(&self, ctx: &ProcCtx) {
        let partner_waiting = {
            let mut st = self.state.lock();
            if st.pending_receivers > 0 {
                st.pending_receivers -= 1;
                st.grants_to_receivers += 1;
                st.receiver_grants_total += 1;
                true
            } else {
                st.pending_senders += 1;
                false
            }
        };
        if partner_waiting {
            self.grant_instant(ctx, "receiver");
            // Wakes the partner through *its* RTOS: from this PE's point
            // of view that is an interrupt-context notify.
            self.receiver_os.event_notify(ctx, self.receiver_wake).await;
            return;
        }
        loop {
            self.sender_os.event_wait(ctx, self.sender_wake).await;
            let mut st = self.state.lock();
            if st.grants_to_senders > 0 {
                st.grants_to_senders -= 1;
                return;
            }
        }
    }

    /// Blocks the calling task (on the receiver PE) until a sender arrives.
    pub async fn recv(&self, ctx: &ProcCtx) {
        let partner_waiting = {
            let mut st = self.state.lock();
            if st.pending_senders > 0 {
                st.pending_senders -= 1;
                st.grants_to_senders += 1;
                st.sender_grants_total += 1;
                true
            } else {
                st.pending_receivers += 1;
                false
            }
        };
        if partner_waiting {
            self.grant_instant(ctx, "sender");
            self.sender_os.event_notify(ctx, self.sender_wake).await;
            return;
        }
        loop {
            self.receiver_os.event_wait(ctx, self.receiver_wake).await;
            let mut st = self.state.lock();
            if st.grants_to_receivers > 0 {
                st.grants_to_receivers -= 1;
                return;
            }
        }
    }
}
