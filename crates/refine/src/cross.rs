//! Cross-PE rendezvous channel for architecture models.
//!
//! When dynamic-scheduling refinement maps the two parties of a rendezvous
//! channel onto *different* processing elements, each side must block
//! through its own RTOS instance while waking the partner through the
//! partner's instance — the abstract equivalent of the paper's bus channel
//! with an interrupt on the receiving side: the cross-notify arrives on the
//! remote RTOS in interrupt context (it dispatches immediately only if that
//! CPU is idle; a running task is preempted at its next delay boundary).

use std::cell::RefCell;
use std::rc::Rc;

use rtos_model::{Rtos, RtosEvent};
use sldl_sim::{LabelId, ProcCtx, TraceHandle, TrackId};

#[derive(Default)]
struct CrossState {
    pending_senders: u64,
    pending_receivers: u64,
    grants_to_senders: u64,
    grants_to_receivers: u64,
    /// Cumulative grant totals (never decremented; the fields above are
    /// consumable tokens). Exported via [`CrossRendezvous::fairness`].
    sender_grants_total: u64,
    receiver_grants_total: u64,
    /// The `xchan:` track and the `grant:sender` / `grant:receiver`
    /// labels, interned into the trace the rendezvous records into.
    grant_ids: Option<(TraceHandle, TrackId, LabelId, LabelId)>,
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
#[derive(Clone)]
pub struct CrossRendezvous {
    sender_os: Rtos,
    receiver_os: Rtos,
    sender_wake: RtosEvent,
    receiver_wake: RtosEvent,
    /// Every grant lands in the trace as an instant on the
    /// `xchan:{label}` track (`grant:sender` / `grant:receiver`).
    label: Rc<str>,
    state: Rc<RefCell<CrossState>>,
}

impl core::fmt::Debug for CrossRendezvous {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let st = self.state.borrow();
        f.debug_struct("CrossRendezvous")
            .field("sender_os", &self.sender_os.name())
            .field("receiver_os", &self.receiver_os.name())
            .field("pending_senders", &st.pending_senders)
            .field("pending_receivers", &st.pending_receivers)
            .finish()
    }
}

impl CrossRendezvous {
    /// Creates a cross-PE rendezvous between the two RTOS instances that
    /// emits a trace instant on the `xchan:{label}` track at every grant.
    #[must_use]
    pub fn new(sender_os: Rtos, receiver_os: Rtos, label: &str) -> Self {
        let sender_wake = sender_os.event_new();
        let receiver_wake = receiver_os.event_new();
        CrossRendezvous {
            sender_os,
            receiver_os,
            sender_wake,
            receiver_wake,
            label: Rc::from(label),
            state: Rc::default(),
        }
    }

    /// Cumulative grant totals of this rendezvous.
    #[must_use]
    pub fn fairness(&self) -> CrossFairness {
        let st = self.state.borrow();
        CrossFairness {
            grants_to_senders: st.sender_grants_total,
            grants_to_receivers: st.receiver_grants_total,
        }
    }

    /// Records a `grant:sender` or `grant:receiver` instant, interning
    /// the names on first use in each trace.
    fn grant_instant(&self, ctx: &ProcCtx, to_sender: bool) {
        let Some(handle) = ctx.trace_handle() else {
            return;
        };
        let slot = &mut self.state.borrow_mut().grant_ids;
        if slot.as_ref().is_none_or(|t| t.0 != handle) {
            let track = handle.intern_track(&format!("xchan:{}", self.label));
            let sender = handle.intern_label("grant:sender");
            let receiver = handle.intern_label("grant:receiver");
            *slot = Some((handle, track, sender, receiver));
        }
        let (handle, track, sender, receiver) = slot.as_ref().expect("installed above");
        handle.marker(
            ctx.now(),
            *track,
            if to_sender { *sender } else { *receiver },
        );
    }

    /// Blocks the calling task (on the sender PE) until a receiver arrives.
    pub async fn send(&self, ctx: &ProcCtx) {
        let partner_waiting = {
            let mut st = self.state.borrow_mut();
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
            self.grant_instant(ctx, false);
            // Wakes the partner through *its* RTOS: from this PE's point
            // of view that is an interrupt-context notify.
            self.receiver_os.event_notify(ctx, self.receiver_wake).await;
            return;
        }
        loop {
            self.sender_os.event_wait(ctx, self.sender_wake).await;
            let mut st = self.state.borrow_mut();
            if st.grants_to_senders > 0 {
                st.grants_to_senders -= 1;
                return;
            }
        }
    }

    /// Blocks the calling task (on the receiver PE) until a sender arrives.
    pub async fn recv(&self, ctx: &ProcCtx) {
        let partner_waiting = {
            let mut st = self.state.borrow_mut();
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
            self.grant_instant(ctx, true);
            self.sender_os.event_notify(ctx, self.sender_wake).await;
            return;
        }
        loop {
            self.receiver_os.event_wait(ctx, self.receiver_wake).await;
            let mut st = self.state.borrow_mut();
            if st.grants_to_receivers > 0 {
                st.grants_to_receivers -= 1;
                return;
            }
        }
    }
}
