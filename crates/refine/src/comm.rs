//! Communication refinement: lowering cross-PE channels onto timed,
//! arbitrated bus transactions.
//!
//! Dynamic-scheduling refinement ([`run_architecture`]) leaves every
//! cross-PE rendezvous as an abstract, zero-time [`CrossRendezvous`]. The
//! paper's design flow continues one step further: the communication
//! architecture maps those channels onto shared buses, turning each
//! message into a request/grant/transfer/release transaction whose time
//! is charged through the sending PE's RTOS and whose completion lands on
//! the receiving PE as an interrupt. This module provides that step:
//!
//! * [`BusMap`] — the declarative communication architecture (named
//!   buses plus channel → bus assignments), spec-side like PE
//!   partitioning;
//! * [`SharedBus`] / [`BusPort`] — a [`sldl_sim::bus::Bus`] instantiated
//!   for a run, with the RTOS wake-up plumbing each master needs to block
//!   while arbitrating;
//! * [`BusChannel`] — one lowered channel: rendezvous match phase, bus
//!   transaction on the sender's RTOS (`time_wait`), and an
//!   interrupt-driven delivery on the receiver's RTOS
//!   (`event_notify` from interrupt context + `interrupt_return`).
//!
//! ## Zero-latency equivalence
//!
//! A channel lowered onto an ideal bus ([`BusConfig::ideal`]:
//! zero clock, infinite width, zero setup) performs *exactly* the kernel
//! operations of the [`CrossRendezvous`] it refines — same event waits,
//! same notifies, in the same order — so the refined model's schedule is
//! byte-identical to the abstract one. The bus only appears in the
//! transaction statistics ([`SharedBus::stats`]).
//!
//! [`run_architecture`]: crate::run_architecture

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use rtos_model::{Rtos, RtosEvent};
use sldl_sim::bus::{Bus, BusConfig, BusStats, MasterId};
use sldl_sim::{LabelId, ProcCtx, TraceHandle, TrackId};

use crate::cross::{CrossFairness, CrossRendezvous};

/// One channel → bus assignment in a [`BusMap`].
#[derive(Debug, Clone)]
pub struct BusBinding {
    /// Index of the bus (as returned by [`BusMap::add_bus`]).
    pub bus: usize,
    /// Modeled payload size of one message on this channel.
    pub bytes_per_msg: u64,
    /// Arbitration priority of this channel's master port (lower = more
    /// urgent under fixed-priority arbitration).
    pub priority: u32,
}

/// Declarative communication architecture: named buses and the cross-PE
/// channels lowered onto them. Channels *not* assigned keep their
/// abstract [`CrossRendezvous`] — [`BusMap::ideal`] (no buses at all) is
/// therefore today's behavior exactly.
#[derive(Debug, Clone, Default)]
pub struct BusMap {
    buses: Vec<BusConfig>,
    assignments: Vec<(String, BusBinding)>,
}

impl BusMap {
    /// An empty map: every cross-PE channel stays abstract.
    #[must_use]
    pub fn ideal() -> Self {
        BusMap::default()
    }

    /// Adds a bus, returning its index for [`assign`](BusMap::assign).
    pub fn add_bus(&mut self, cfg: BusConfig) -> usize {
        self.buses.push(cfg);
        self.buses.len() - 1
    }

    /// Lowers channel `channel` onto bus `binding.bus`.
    ///
    /// # Panics
    ///
    /// Panics if the bus index is unknown or the channel is already
    /// assigned.
    pub fn assign(&mut self, channel: impl Into<String>, binding: BusBinding) -> &mut Self {
        let channel = channel.into();
        assert!(
            binding.bus < self.buses.len(),
            "BusMap: unknown bus index {} for channel `{channel}`",
            binding.bus
        );
        assert!(
            self.assignments.iter().all(|(c, _)| *c != channel),
            "BusMap: channel `{channel}` assigned twice"
        );
        self.assignments.push((channel, binding));
        self
    }

    /// The configured buses, in [`add_bus`](BusMap::add_bus) order.
    #[must_use]
    pub fn buses(&self) -> &[BusConfig] {
        &self.buses
    }

    /// The assigned channel names, in [`assign`](BusMap::assign) order.
    pub(crate) fn assigned_channels(&self) -> impl Iterator<Item = &str> {
        self.assignments.iter().map(|(c, _)| c.as_str())
    }

    /// The binding of `channel`, if it was assigned to a bus.
    #[must_use]
    pub fn binding(&self, channel: &str) -> Option<&BusBinding> {
        self.assignments
            .iter()
            .find(|(c, _)| c == channel)
            .map(|(_, b)| b)
    }
}

/// Wake-up plumbing of one registered master: the RTOS it blocks through
/// and the event its grant arrives on.
struct Waker {
    os: Rtos,
    wake: RtosEvent,
}

/// A bus instantiated for one run, shared by every [`BusChannel`] lowered
/// onto it. Clonable; all clones share the same state.
#[derive(Clone)]
pub struct SharedBus {
    bus: Bus,
    wakers: Rc<RefCell<Vec<Waker>>>,
}

impl core::fmt::Debug for SharedBus {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SharedBus")
            .field("name", &self.bus.config().name)
            .finish()
    }
}

impl SharedBus {
    /// Instantiates a bus from its configuration.
    #[must_use]
    pub fn new(cfg: BusConfig) -> Self {
        SharedBus {
            bus: Bus::new(cfg),
            wakers: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// The bus configuration.
    #[must_use]
    pub fn config(&self) -> &BusConfig {
        self.bus.config()
    }

    /// Registers a master port blocking through `os`. Call before the
    /// simulation starts.
    #[must_use]
    pub fn port(&self, name: impl Into<String>, os: &Rtos, priority: u32) -> BusPort {
        let master = self.bus.register_master(name, priority);
        let wake = os.event_new();
        self.wakers.borrow_mut().push(Waker {
            os: os.clone(),
            wake,
        });
        BusPort {
            shared: self.clone(),
            master,
            os: os.clone(),
            wake,
        }
    }

    /// Snapshot of the bus statistics.
    #[must_use]
    pub fn stats(&self) -> BusStats {
        self.bus.stats()
    }
}

/// One master port of a [`SharedBus`], bound to the RTOS instance its
/// owning task blocks through.
#[derive(Debug, Clone)]
pub struct BusPort {
    shared: SharedBus,
    master: MasterId,
    os: Rtos,
    wake: RtosEvent,
}

impl BusPort {
    /// Acquires bus ownership, blocking the calling task through its own
    /// RTOS while a competing master holds the bus.
    pub async fn acquire(&self, ctx: &ProcCtx) {
        if self.shared.bus.acquire(ctx, self.master) {
            return;
        }
        loop {
            self.os.event_wait(ctx, self.wake).await;
            if self.shared.bus.owns(self.master) {
                return;
            }
        }
    }

    /// Releases the bus; the arbiter picks the next queued master and this
    /// port wakes it through *that* master's RTOS (an interrupt-context
    /// notify from this PE's point of view).
    pub async fn release(&self, ctx: &ProcCtx) {
        if let Some(next) = self.shared.bus.release(ctx, self.master) {
            let (os, wake) = {
                let w = &self.shared.wakers.borrow()[next.0 as usize];
                (w.os.clone(), w.wake)
            };
            os.event_notify(ctx, wake).await;
        }
    }
}

struct ChanQ<T> {
    payloads: VecDeque<T>,
    ready: u64,
    /// The receive-interrupt track and the `rx:` label, interned into the
    /// trace the channel records into.
    rx_ids: Option<(TraceHandle, TrackId, LabelId)>,
}

struct Chan<T> {
    cross: CrossRendezvous,
    port: BusPort,
    receiver_os: Rtos,
    data_ready: RtosEvent,
    name: String,
    /// `bus:{bus}`, the label of the sender's transfer segments.
    xfer_label: String,
    bytes_per_msg: u64,
    zero_cost: bool,
    q: RefCell<ChanQ<T>>,
}

/// A cross-PE channel lowered onto a bus: rendezvous match phase, timed
/// arbitrated transfer charged to the sender's RTOS, interrupt-driven
/// delivery on the receiver's RTOS. With a zero-cost bus configuration
/// the transaction machinery is skipped entirely and the channel performs
/// exactly the kernel operations of its abstract [`CrossRendezvous`].
pub struct BusChannel<T> {
    inner: Rc<Chan<T>>,
}

// Written out because a derive would require `T: Clone`.
impl<T> Clone for BusChannel<T> {
    fn clone(&self) -> Self {
        BusChannel {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T> core::fmt::Debug for BusChannel<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let c = &self.inner;
        f.debug_struct("BusChannel")
            .field("name", &c.name)
            .field("bus", &c.port.shared.config().name)
            .field("bytes_per_msg", &c.bytes_per_msg)
            .field("zero_cost", &c.zero_cost)
            .finish()
    }
}

impl<T> BusChannel<T> {
    /// Lowers channel `name` (senders on `sender_os`, receivers on
    /// `receiver_os`) onto `bus`, registering the sender side as a master
    /// port with the given arbitration `priority`.
    #[must_use]
    pub fn new(
        name: &str,
        sender_os: Rtos,
        receiver_os: Rtos,
        bus: &SharedBus,
        bytes_per_msg: u64,
        priority: u32,
    ) -> Self {
        let cross = CrossRendezvous::new(sender_os.clone(), receiver_os.clone(), name);
        let port = bus.port(format!("{}:{name}", sender_os.name()), &sender_os, priority);
        let data_ready = receiver_os.event_new();
        BusChannel {
            inner: Rc::new(Chan {
                cross,
                port,
                receiver_os,
                data_ready,
                name: name.to_string(),
                xfer_label: format!("bus:{}", bus.config().name),
                bytes_per_msg,
                zero_cost: bus.config().is_zero_cost(),
                q: RefCell::new(ChanQ {
                    payloads: VecDeque::new(),
                    ready: 0,
                    rx_ids: None,
                }),
            }),
        }
    }

    /// Sends `value` to the receiver PE: rendezvous with a receiver, win
    /// the bus, charge the transfer through the sender's RTOS, then raise
    /// the receive interrupt on the remote RTOS.
    pub async fn send(&self, ctx: &ProcCtx, value: T) {
        let c = &*self.inner;
        if c.zero_cost {
            // Structurally identical to the abstract rendezvous: the data
            // moves at the match point, no extra kernel operations. Only
            // the bus statistics see the message.
            c.q.borrow_mut().payloads.push_back(value);
            c.port.shared.bus.count_zero_transfer(c.bytes_per_msg);
            c.cross.send(ctx).await;
            return;
        }
        // Match phase: block until a receiver has arrived (the paper's
        // two-party channel protocol precedes the bus transaction).
        c.cross.send(ctx).await;
        // Arbitration + data phase, charged to the sending task.
        c.port.acquire(ctx).await;
        let dur = c
            .port
            .shared
            .bus
            .transfer_begin(ctx, c.port.master, c.bytes_per_msg);
        if !dur.is_zero() {
            c.port.os.time_wait_as(ctx, dur, &c.xfer_label).await;
        }
        c.port.shared.bus.transfer_end(ctx, c.port.master);
        c.port.release(ctx).await;
        // Delivery: the transfer-complete interrupt lands on the receiver
        // PE; its ISR publishes the data and returns through the RTOS.
        {
            let mut q = c.q.borrow_mut();
            q.payloads.push_back(value);
            q.ready += 1;
            if let Some(handle) = ctx.trace_handle() {
                if q.rx_ids.as_ref().is_none_or(|t| t.0 != handle) {
                    let track = handle.intern_track(&format!("{}:irq", c.receiver_os.name()));
                    let label = handle.intern_label(&format!("rx:{}", c.name));
                    q.rx_ids = Some((handle, track, label));
                }
                let (handle, track, label) = q.rx_ids.as_ref().expect("installed above");
                handle.marker(ctx.now(), *track, *label);
            }
        }
        c.receiver_os.event_notify(ctx, c.data_ready).await;
        c.receiver_os.interrupt_return(ctx);
    }

    /// Receives one message: rendezvous with a sender, then block until
    /// its bus transfer completes and the receive interrupt publishes the
    /// data.
    pub async fn recv(&self, ctx: &ProcCtx) -> T {
        let c = &*self.inner;
        c.cross.recv(ctx).await;
        if c.zero_cost {
            return c
                .q
                .borrow_mut()
                .payloads
                .pop_front()
                .expect("rendezvous completed without a payload");
        }
        loop {
            {
                let mut q = c.q.borrow_mut();
                if q.ready > 0 {
                    q.ready -= 1;
                    return q
                        .payloads
                        .pop_front()
                        .expect("data-ready signaled without a payload");
                }
            }
            c.receiver_os.event_wait(ctx, c.data_ready).await;
        }
    }

    /// Cumulative rendezvous fairness counters of the match phase.
    #[must_use]
    pub fn fairness(&self) -> CrossFairness {
        self.inner.cross.fairness()
    }

    /// The channel name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Statistics of the bus this channel is lowered onto (shared with
    /// every other channel on the same bus).
    #[must_use]
    pub fn bus_stats(&self) -> BusStats {
        self.inner.port.shared.stats()
    }
}
