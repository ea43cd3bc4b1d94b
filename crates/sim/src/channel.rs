//! Communication channels built purely on events.
//!
//! Channels are generic over a [`SyncLayer`]: the specification model uses
//! [`SldlSync`] (raw kernel events), and the RTOS model of the reproduced
//! paper substitutes its own event service — *exactly* the refinement of
//! Figure 7: "existing SLDL channels are reused by refining their internal
//! synchronization primitives to map to corresponding RTOS calls".

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use crate::ids::EventId;
use crate::kernel::ProcCtx;
use crate::trace::TraceHandle;

/// A synchronization service that channels are written against.
///
/// Implemented by [`SldlSync`] (raw SLDL events) and by the RTOS model
/// (`rtos-model::Rtos`), so the same channel code runs unmodified in both
/// the specification and the architecture model.
// The executor is single-threaded, so the futures need no `Send` bound.
#[allow(async_fn_in_trait)]
pub trait SyncLayer: Clone + 'static {
    /// Handle type for this layer's events.
    type Ev: Copy + core::fmt::Debug;

    /// Allocates a fresh event in this layer.
    fn ev_new(&self) -> Self::Ev;

    /// Suspends the calling process until `e` is notified.
    async fn ev_wait(&self, ctx: &ProcCtx, e: Self::Ev);

    /// Notifies `e`, waking all processes blocked on it. Awaited because
    /// a layer may make the notifier pass a preemption point (the RTOS
    /// model does).
    async fn ev_notify(&self, ctx: &ProcCtx, e: Self::Ev);
}

/// The raw SLDL synchronization layer: kernel events with delta-cycle
/// semantics. Obtained from [`Simulation::sync_layer`] or
/// [`ProcCtx::sync_layer`].
///
/// [`Simulation::sync_layer`]: crate::Simulation::sync_layer
/// [`ProcCtx::sync_layer`]: crate::ProcCtx::sync_layer
#[derive(Clone)]
pub struct SldlSync {
    pub(crate) shared: Rc<crate::kernel::Shared>,
}

impl core::fmt::Debug for SldlSync {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("SldlSync")
    }
}

impl SldlSync {
    /// Declares a wait-for edge for deadlock detection: `waiter` (e.g. a
    /// task name) is blocked on `resource` (e.g. a mutex name), which is
    /// currently held by `holder`. A waiter has at most one outstanding
    /// edge; declaring again replaces it. The kernel checks the declared
    /// graph for cycles when all activity is exhausted and reports any
    /// cycle through [`RunError::Deadlock`](crate::RunError::Deadlock);
    /// blocked processes without a cycle end the run normally.
    ///
    /// Synchronization layers built on the kernel (e.g. the RTOS model's
    /// mutex) call this when a process blocks on an owned resource and
    /// [`clear_wait`](SldlSync::clear_wait) once it acquires it.
    pub fn declare_wait(
        &self,
        waiter: impl Into<String>,
        resource: impl Into<String>,
        holder: impl Into<String>,
    ) {
        self.shared
            .declare_wait(waiter.into(), resource.into(), holder.into());
    }

    /// Removes `waiter`'s declared wait-for edge, if any (called once the
    /// resource was acquired or the wait was abandoned).
    pub fn clear_wait(&self, waiter: &str) {
        self.shared.clear_wait(waiter);
    }

    /// The simulation's trace, if one was configured
    /// ([`SimulationBuilder::trace`](crate::SimulationBuilder::trace)).
    /// Layers built on the kernel record to it without being handed it.
    #[must_use]
    pub fn trace_handle(&self) -> Option<TraceHandle> {
        self.shared.trace_handle()
    }

    /// Whether the simulation's invariant oracle is armed
    /// ([`SimulationBuilder::oracle`](crate::SimulationBuilder::oracle)).
    /// Layers built on the kernel arm their own conformance checks with
    /// it.
    #[must_use]
    pub fn oracle_armed(&self) -> bool {
        self.shared.oracle_armed()
    }
}

impl SyncLayer for SldlSync {
    type Ev = EventId;

    fn ev_new(&self) -> EventId {
        self.shared.alloc_event()
    }

    async fn ev_wait(&self, ctx: &ProcCtx, e: EventId) {
        ctx.wait(e).await;
    }

    async fn ev_notify(&self, ctx: &ProcCtx, e: EventId) {
        ctx.notify(e);
    }
}

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

/// A counting semaphore channel (the `sem` of the paper's Figure 3 bus
/// interface: the ISR releases it, the bus driver acquires it).
///
/// Clonable; all clones share the same state.
#[derive(Clone)]
pub struct Semaphore<L: SyncLayer> {
    layer: L,
    ev: L::Ev,
    count: Rc<Cell<u64>>,
}

impl<L: SyncLayer> core::fmt::Debug for Semaphore<L> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Semaphore")
            .field("count", &self.count.get())
            .finish()
    }
}

impl<L: SyncLayer> Semaphore<L> {
    /// Creates a semaphore with `initial` permits on the given sync layer.
    pub fn new(initial: u64, layer: L) -> Self {
        let ev = layer.ev_new();
        Semaphore {
            layer,
            ev,
            count: Rc::new(Cell::new(initial)),
        }
    }

    /// Blocks until a permit is available, then takes it.
    pub async fn acquire(&self, ctx: &ProcCtx) {
        while !self.try_acquire() {
            self.layer.ev_wait(ctx, self.ev).await;
        }
    }

    /// Takes a permit if one is available without blocking.
    pub fn try_acquire(&self) -> bool {
        let count = self.count.get();
        if count > 0 {
            self.count.set(count - 1);
            true
        } else {
            false
        }
    }

    /// Returns a permit and wakes blocked acquirers.
    pub async fn release(&self, ctx: &ProcCtx) {
        self.count.set(self.count.get() + 1);
        self.layer.ev_notify(ctx, self.ev).await;
    }

    /// Current number of available permits.
    #[must_use]
    pub fn permits(&self) -> u64 {
        self.count.get()
    }
}

// ---------------------------------------------------------------------------
// Queue
// ---------------------------------------------------------------------------

struct QueueInner<T, L: SyncLayer> {
    layer: L,
    /// "Ready": notified when an item is enqueued.
    erdy: L::Ev,
    /// "Acknowledge": notified when an item is dequeued.
    eack: L::Ev,
    capacity: Option<usize>,
    items: RefCell<VecDeque<T>>,
}

/// A FIFO message queue channel (the `c_queue` of the paper's Figure 7),
/// optionally bounded. `send` blocks while full; `recv` blocks while empty.
///
/// Clonable; all clones share the same state.
pub struct Queue<T, L: SyncLayer> {
    inner: Rc<QueueInner<T, L>>,
}

// Written out because a derive would require `T: Clone`.
impl<T, L: SyncLayer> Clone for Queue<T, L> {
    fn clone(&self) -> Self {
        Queue {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T, L: SyncLayer> core::fmt::Debug for Queue<T, L> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Queue")
            .field("len", &self.len())
            .field("capacity", &self.inner.capacity)
            .finish()
    }
}

impl<T, L: SyncLayer> Queue<T, L> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (use [`Handshake`] for rendezvous).
    pub fn bounded(capacity: usize, layer: L) -> Self {
        assert!(capacity > 0, "bounded queue capacity must be nonzero");
        Self::with_capacity(Some(capacity), layer)
    }

    /// Creates a queue with no capacity limit (`send` never blocks).
    pub fn unbounded(layer: L) -> Self {
        Self::with_capacity(None, layer)
    }

    fn with_capacity(capacity: Option<usize>, layer: L) -> Self {
        let erdy = layer.ev_new();
        let eack = layer.ev_new();
        Queue {
            inner: Rc::new(QueueInner {
                layer,
                erdy,
                eack,
                capacity,
                items: RefCell::default(),
            }),
        }
    }

    /// Enqueues `value`, blocking while the queue is full.
    pub async fn send(&self, ctx: &ProcCtx, value: T) {
        let q = &*self.inner;
        while q.capacity.is_some_and(|c| q.items.borrow().len() >= c) {
            q.layer.ev_wait(ctx, q.eack).await;
        }
        q.items.borrow_mut().push_back(value);
        q.layer.ev_notify(ctx, q.erdy).await;
    }

    /// Dequeues the next value, blocking while the queue is empty.
    pub async fn recv(&self, ctx: &ProcCtx) -> T {
        let q = &*self.inner;
        loop {
            let popped = q.items.borrow_mut().pop_front();
            if let Some(v) = popped {
                q.layer.ev_notify(ctx, q.eack).await;
                return v;
            }
            q.layer.ev_wait(ctx, q.erdy).await;
        }
    }

    /// Dequeues the next value if one is available, without blocking.
    pub async fn try_recv(&self, ctx: &ProcCtx) -> Option<T> {
        let q = &*self.inner;
        let v = q.items.borrow_mut().pop_front();
        if v.is_some() {
            q.layer.ev_notify(ctx, q.eack).await;
        }
        v
    }

    /// Number of queued items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.items.borrow().len()
    }

    /// Whether the queue holds no items.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.items.borrow().is_empty()
    }
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

#[derive(Default)]
struct HandshakeState {
    pending_senders: u64,
    pending_receivers: u64,
    grants_to_senders: u64,
    grants_to_receivers: u64,
}

/// A rendezvous channel: `send` and `recv` both block until a matching
/// partner arrives (double-handshake synchronization, the `c1`/`c2` channels
/// of the paper's Figure 3 example).
///
/// Clonable; all clones share the same state.
#[derive(Clone)]
pub struct Handshake<L: SyncLayer> {
    layer: L,
    sender_wake: L::Ev,
    receiver_wake: L::Ev,
    state: Rc<RefCell<HandshakeState>>,
}

impl<L: SyncLayer> core::fmt::Debug for Handshake<L> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let st = self.state.borrow();
        f.debug_struct("Handshake")
            .field("pending_senders", &st.pending_senders)
            .field("pending_receivers", &st.pending_receivers)
            .finish()
    }
}

impl<L: SyncLayer> Handshake<L> {
    /// Creates a rendezvous channel on the given sync layer.
    pub fn new(layer: L) -> Self {
        let sender_wake = layer.ev_new();
        let receiver_wake = layer.ev_new();
        Handshake {
            layer,
            sender_wake,
            receiver_wake,
            state: Rc::default(),
        }
    }

    /// Blocks until a receiver has arrived (or is already waiting).
    pub async fn send(&self, ctx: &ProcCtx) {
        let partner_waiting = {
            let mut st = self.state.borrow_mut();
            if st.pending_receivers > 0 {
                st.pending_receivers -= 1;
                st.grants_to_receivers += 1;
                true
            } else {
                st.pending_senders += 1;
                false
            }
        };
        if partner_waiting {
            self.layer.ev_notify(ctx, self.receiver_wake).await;
            return;
        }
        loop {
            self.layer.ev_wait(ctx, self.sender_wake).await;
            let mut st = self.state.borrow_mut();
            if st.grants_to_senders > 0 {
                st.grants_to_senders -= 1;
                return;
            }
        }
    }

    /// Blocks until a sender has arrived (or is already waiting).
    pub async fn recv(&self, ctx: &ProcCtx) {
        let partner_waiting = {
            let mut st = self.state.borrow_mut();
            if st.pending_senders > 0 {
                st.pending_senders -= 1;
                st.grants_to_senders += 1;
                true
            } else {
                st.pending_receivers += 1;
                false
            }
        };
        if partner_waiting {
            self.layer.ev_notify(ctx, self.sender_wake).await;
            return;
        }
        loop {
            self.layer.ev_wait(ctx, self.receiver_wake).await;
            let mut st = self.state.borrow_mut();
            if st.grants_to_receivers > 0 {
                st.grants_to_receivers -= 1;
                return;
            }
        }
    }
}
