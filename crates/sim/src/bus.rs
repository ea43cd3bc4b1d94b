//! Transaction-level shared-bus model for inter-PE communication.
//!
//! The paper's design flow continues past dynamic-scheduling refinement
//! into *communication refinement*: abstract channels between processing
//! elements become timed transactions over a shared bus, arbitrated among
//! the masters attached to it. This module is the kernel-level substrate
//! for that step — it models the bus protocol (request, grant, transfer,
//! release) and its cost, while staying agnostic of any RTOS layer:
//! callers drive the protocol from their own process context and charge
//! the returned transfer time however their execution model requires
//! (plain `waitfor` in an unscheduled model, `time_wait` through the
//! owning PE's RTOS in an architecture model).
//!
//! ## Protocol
//!
//! 1. [`Bus::acquire`] — request ownership. If the bus is free the caller
//!    is granted immediately; otherwise it is queued and the call returns
//!    `false` (the caller blocks however it likes, then re-checks with
//!    [`Bus::owns`] after each wake-up).
//! 2. [`Bus::transfer_begin`] / [`Bus::transfer_end`] — bracket the data
//!    phase. `transfer_begin` returns the modeled transfer time
//!    ([`BusConfig::transfer_time`]) which the caller consumes between
//!    the two calls.
//! 3. [`Bus::release`] — hand the bus to the next master per the
//!    arbitration policy. Ownership transfers *inside* the release (the
//!    grant is decided and recorded at release time); the returned
//!    [`MasterId`] tells the caller whom to wake.
//!
//! ## Tracing
//!
//! With a trace attached to the simulation, every protocol step lands on
//! the `bus:{name}` track: `req:{master}` / `grant:{master}` /
//! `contend:{master}` markers and one `xfer:{master}:{bytes}` span per
//! transfer. The records are the kernel's ordinary
//! [`RecordKind::Marker`](crate::RecordKind::Marker) and span records, so
//! they survive Chrome export and re-ingestion unchanged. The bus interns
//! its track and each master's labels once per trace, at their first
//! record; without a trace it formats nothing.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use crate::kernel::ProcCtx;
use crate::time::SimTime;
use crate::trace::{LabelId, TraceHandle, TrackId};

/// Bus arbitration policy deciding which queued master is granted next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arbitration {
    /// Lowest priority value wins; ties broken by request order.
    FixedPriority,
    /// Masters are served in cyclic master-index order starting after the
    /// releasing master.
    RoundRobin,
}

impl Arbitration {
    /// Stable policy name (used in trace params and results documents).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Arbitration::FixedPriority => "fixed_priority",
            Arbitration::RoundRobin => "round_robin",
        }
    }
}

/// Static parameters of one named bus.
#[derive(Debug, Clone)]
pub struct BusConfig {
    /// Bus name (trace track `bus:{name}`).
    pub name: String,
    /// Duration of one bus clock cycle (one beat moves `data_width`
    /// bytes). Zero models an infinitely fast clock.
    pub clock_period: Duration,
    /// Bytes moved per beat. Zero models an infinitely wide bus (any
    /// payload moves in zero beats).
    pub data_width: u32,
    /// Fixed per-transfer cost (address phase, arbitration overhead).
    pub setup: Duration,
    /// Arbitration policy among queued masters.
    pub arbitration: Arbitration,
}

impl BusConfig {
    /// A named bus with the given timing parameters.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        clock_period: Duration,
        data_width: u32,
        setup: Duration,
        arbitration: Arbitration,
    ) -> Self {
        BusConfig {
            name: name.into(),
            clock_period,
            data_width,
            setup,
            arbitration,
        }
    }

    /// The ideal bus: zero clock, infinite width, zero setup — every
    /// transfer takes zero time. Lowering a channel onto an ideal bus is
    /// structurally identical to the abstract rendezvous it refines.
    #[must_use]
    pub fn ideal(name: impl Into<String>) -> Self {
        BusConfig::new(
            name,
            Duration::ZERO,
            0,
            Duration::ZERO,
            Arbitration::FixedPriority,
        )
    }

    /// True when every transfer on this bus takes zero simulated time.
    #[must_use]
    pub fn is_zero_cost(&self) -> bool {
        self.setup.is_zero() && (self.data_width == 0 || self.clock_period.is_zero())
    }

    /// Modeled time to move `bytes` over the bus: `setup` plus one clock
    /// period per `data_width`-byte beat (rounded up).
    #[must_use]
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        let beats = if self.data_width == 0 || self.clock_period.is_zero() {
            0
        } else {
            bytes.div_ceil(u64::from(self.data_width))
        };
        self.setup
            + self.clock_period * u32::try_from(beats.min(u64::from(u32::MAX))).expect("clamped")
    }
}

/// Identifier of one master port registered on a bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MasterId(pub u32);

impl MasterId {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Per-master grant accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MasterGrants {
    /// Master port name.
    pub master: String,
    /// Times this master was granted the bus.
    pub grants: u64,
}

/// Aggregate statistics of one bus, snapshotted by [`Bus::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Bus name.
    pub name: String,
    /// Completed transfers.
    pub transactions: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Modeled bus occupancy (sum of transfer times).
    pub busy: Duration,
    /// Longest request → grant wait any master suffered.
    pub max_wait: Duration,
    /// Requests that found the bus busy and had to queue.
    pub contended: u64,
    /// Per-master grant counts, in registration order.
    pub grants: Vec<MasterGrants>,
}

struct MasterState {
    name: String,
    priority: u32,
    /// Request time while queued (None = not waiting).
    waiting_since: Option<SimTime>,
    grants: u64,
}

/// The ids one bus interned into the trace it records into.
struct BusTrace {
    handle: TraceHandle,
    track: TrackId,
    /// Per master, interned at the master's first record.
    masters: Vec<Option<MasterLabels>>,
}

/// The interned labels of one master.
#[derive(Clone, Copy)]
struct MasterLabels {
    req: LabelId,
    grant: LabelId,
    contend: LabelId,
    /// Byte count and `xfer:{master}:{bytes}` label of the last transfer.
    xfer: Option<(u64, LabelId)>,
}

#[derive(Default)]
struct Core {
    owner: Option<MasterId>,
    /// Queued masters in request order.
    queue: Vec<MasterId>,
    masters: Vec<MasterState>,
    transactions: u64,
    bytes: u64,
    busy: Duration,
    max_wait: Duration,
    contended: u64,
    /// The ids this bus interned into the trace it records into.
    trace: Option<BusTrace>,
}

struct Inner {
    cfg: BusConfig,
    core: RefCell<Core>,
}

/// One shared bus instance. Clonable; all clones share the same state.
#[derive(Clone)]
pub struct Bus {
    inner: Rc<Inner>,
}

impl core::fmt::Debug for Bus {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let core = self.inner.core.borrow();
        f.debug_struct("Bus")
            .field("name", &self.inner.cfg.name)
            .field("owner", &core.owner)
            .field("queued", &core.queue.len())
            .finish()
    }
}

impl Bus {
    /// Creates a bus from its configuration.
    #[must_use]
    pub fn new(cfg: BusConfig) -> Self {
        Bus {
            inner: Rc::new(Inner {
                cfg,
                core: RefCell::default(),
            }),
        }
    }

    /// The bus configuration.
    #[must_use]
    pub fn config(&self) -> &BusConfig {
        &self.inner.cfg
    }

    /// Registers a master port. `priority` matters only under
    /// [`Arbitration::FixedPriority`] (lower value = more urgent).
    pub fn register_master(&self, name: impl Into<String>, priority: u32) -> MasterId {
        let mut core = self.inner.core.borrow_mut();
        let id = MasterId(u32::try_from(core.masters.len()).expect("master ids exhausted"));
        core.masters.push(MasterState {
            name: name.into(),
            priority,
            waiting_since: None,
            grants: 0,
        });
        id
    }

    /// Calls `record` with the trace `ctx` records into, the bus track,
    /// and `master`'s labels and name. Interns the track and the labels on
    /// first use in each trace; does nothing when no trace is attached.
    fn record(
        &self,
        core: &mut Core,
        ctx: &ProcCtx,
        master: MasterId,
        record: impl FnOnce(&TraceHandle, TrackId, &mut MasterLabels, &str),
    ) {
        let Some(handle) = ctx.trace_handle() else {
            return;
        };
        let slot = &mut core.trace;
        if slot.as_ref().is_none_or(|t| t.handle != handle) {
            let track = handle.intern_track(&format!("bus:{}", self.inner.cfg.name));
            *slot = Some(BusTrace {
                handle,
                track,
                masters: Vec::new(),
            });
        }
        let t = slot.as_mut().expect("installed above");
        let i = master.index();
        if t.masters.len() <= i {
            t.masters.resize(i + 1, None);
        }
        let name = &core.masters[i].name;
        let handle = &t.handle;
        let labels = t.masters[i].get_or_insert_with(|| MasterLabels {
            req: handle.intern_label(&format!("req:{name}")),
            grant: handle.intern_label(&format!("grant:{name}")),
            contend: handle.intern_label(&format!("contend:{name}")),
            xfer: None,
        });
        record(handle, t.track, labels, name);
    }

    /// Records the marker `pick` chooses among `master`'s labels.
    fn mark(
        &self,
        core: &mut Core,
        ctx: &ProcCtx,
        master: MasterId,
        pick: fn(&MasterLabels) -> LabelId,
    ) {
        self.record(core, ctx, master, |t, track, labels, _| {
            t.marker(ctx.now(), track, pick(labels));
        });
    }

    /// Requests bus ownership for `master`. Returns `true` when granted
    /// immediately (the bus was free); `false` when queued behind the
    /// current owner — the caller must block and poll [`Bus::owns`] after
    /// each wake-up (it is woken by the releasing master's runtime once
    /// [`Bus::release`] picks it).
    ///
    /// # Panics
    ///
    /// Panics if `master` already owns or already queued on the bus.
    pub fn acquire(&self, ctx: &ProcCtx, master: MasterId) -> bool {
        let mut core = self.inner.core.borrow_mut();
        assert!(
            core.owner != Some(master) && !core.queue.contains(&master),
            "bus {}: master {} acquired twice",
            self.inner.cfg.name,
            core.masters[master.index()].name
        );
        self.mark(&mut core, ctx, master, |l| l.req);
        if core.owner.is_none() {
            core.owner = Some(master);
            core.masters[master.index()].grants += 1;
            self.mark(&mut core, ctx, master, |l| l.grant);
            true
        } else {
            core.contended += 1;
            core.masters[master.index()].waiting_since = Some(ctx.now());
            core.queue.push(master);
            self.mark(&mut core, ctx, master, |l| l.contend);
            false
        }
    }

    /// True while `master` owns the bus.
    #[must_use]
    pub fn owns(&self, master: MasterId) -> bool {
        self.inner.core.borrow().owner == Some(master)
    }

    /// Begins the data phase of a transfer of `bytes`, returning the
    /// modeled transfer time the caller must consume before calling
    /// [`Bus::transfer_end`].
    ///
    /// # Panics
    ///
    /// Panics if `master` does not own the bus.
    pub fn transfer_begin(&self, ctx: &ProcCtx, master: MasterId, bytes: u64) -> Duration {
        let dur = self.inner.cfg.transfer_time(bytes);
        let mut core = self.inner.core.borrow_mut();
        assert_eq!(
            core.owner,
            Some(master),
            "bus {}: transfer without ownership",
            self.inner.cfg.name
        );
        core.transactions += 1;
        core.bytes += bytes;
        core.busy += dur;
        self.record(&mut core, ctx, master, |t, track, labels, name| {
            let label = match labels.xfer {
                Some((b, label)) if b == bytes => label,
                _ => {
                    let label = t.intern_label(&format!("xfer:{name}:{bytes}"));
                    labels.xfer = Some((bytes, label));
                    label
                }
            };
            t.span_begin(ctx.now(), track, label);
        });
        dur
    }

    /// Ends the data phase begun by [`Bus::transfer_begin`].
    pub fn transfer_end(&self, ctx: &ProcCtx, master: MasterId) {
        let mut core = self.inner.core.borrow_mut();
        assert_eq!(
            core.owner,
            Some(master),
            "bus {}: transfer_end without ownership",
            self.inner.cfg.name
        );
        self.record(&mut core, ctx, master, |t, track, _, _| {
            t.span_end(ctx.now(), track);
        });
    }

    /// Releases the bus and grants it to the next queued master per the
    /// arbitration policy. Ownership transfers here — the grant time and
    /// the grantee's wait are accounted at release — and the new owner is
    /// returned so the caller can wake it through its own runtime.
    ///
    /// # Panics
    ///
    /// Panics if `master` does not own the bus.
    pub fn release(&self, ctx: &ProcCtx, master: MasterId) -> Option<MasterId> {
        let mut core = self.inner.core.borrow_mut();
        assert_eq!(
            core.owner,
            Some(master),
            "bus {}: release without ownership",
            self.inner.cfg.name
        );
        core.owner = None;
        if core.queue.is_empty() {
            return None;
        }
        let pos = match self.inner.cfg.arbitration {
            Arbitration::FixedPriority => {
                // Min priority value; ties broken by request order.
                let mut best = 0usize;
                for (i, m) in core.queue.iter().enumerate().skip(1) {
                    if core.masters[m.index()].priority
                        < core.masters[core.queue[best].index()].priority
                    {
                        best = i;
                    }
                }
                best
            }
            Arbitration::RoundRobin => {
                // First queued master after the releaser in cyclic
                // master-index order.
                let n = core.masters.len() as u32;
                let key = |m: MasterId| (m.0 + n - master.0 - 1) % n;
                let mut best = 0usize;
                for (i, m) in core.queue.iter().enumerate().skip(1) {
                    if key(*m) < key(core.queue[best]) {
                        best = i;
                    }
                }
                best
            }
        };
        let next = core.queue.remove(pos);
        let now = ctx.now();
        let waited = core.masters[next.index()]
            .waiting_since
            .take()
            .map_or(Duration::ZERO, |since| now.saturating_since(since));
        core.max_wait = core.max_wait.max(waited);
        core.owner = Some(next);
        core.masters[next.index()].grants += 1;
        self.mark(&mut core, ctx, next, |l| l.grant);
        Some(next)
    }

    /// Counts a zero-cost logical transfer without touching ownership or
    /// the trace — used by communication layers whose zero-latency path
    /// must stay structurally identical to the abstract channel it
    /// refines (no extra kernel operations, no extra records).
    pub fn count_zero_transfer(&self, bytes: u64) {
        let mut core = self.inner.core.borrow_mut();
        core.transactions += 1;
        core.bytes += bytes;
    }

    /// Snapshot of the bus statistics.
    #[must_use]
    pub fn stats(&self) -> BusStats {
        let core = self.inner.core.borrow();
        BusStats {
            name: self.inner.cfg.name.clone(),
            transactions: core.transactions,
            bytes: core.bytes,
            busy: core.busy,
            max_wait: core.max_wait,
            contended: core.contended,
            grants: core
                .masters
                .iter()
                .map(|m| MasterGrants {
                    master: m.name.clone(),
                    grants: m.grants,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_rounds_beats_up() {
        let cfg = BusConfig::new(
            "b",
            Duration::from_nanos(100),
            4,
            Duration::from_nanos(50),
            Arbitration::FixedPriority,
        );
        assert_eq!(cfg.transfer_time(0), Duration::from_nanos(50));
        assert_eq!(cfg.transfer_time(1), Duration::from_nanos(150));
        assert_eq!(cfg.transfer_time(4), Duration::from_nanos(150));
        assert_eq!(cfg.transfer_time(5), Duration::from_nanos(250));
        assert!(!cfg.is_zero_cost());
    }

    #[test]
    fn ideal_config_is_zero_cost() {
        let cfg = BusConfig::ideal("b");
        assert!(cfg.is_zero_cost());
        assert_eq!(cfg.transfer_time(1 << 20), Duration::ZERO);
        // Infinite width with a nonzero setup still costs the setup.
        let setup = BusConfig::new(
            "b",
            Duration::ZERO,
            0,
            Duration::from_nanos(10),
            Arbitration::RoundRobin,
        );
        assert!(!setup.is_zero_cost());
        assert_eq!(setup.transfer_time(9), Duration::from_nanos(10));
    }

    #[test]
    fn narrower_bus_never_transfers_faster() {
        let time = |width: u32| {
            BusConfig::new(
                "b",
                Duration::from_nanos(100),
                width,
                Duration::ZERO,
                Arbitration::FixedPriority,
            )
            .transfer_time(31)
        };
        let widths = [32u32, 16, 8, 4, 2, 1];
        for pair in widths.windows(2) {
            assert!(
                time(pair[0]) <= time(pair[1]),
                "width {} must not be slower than width {}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn arbitration_inside_a_simulation() {
        use crate::{Child, Simulation, TraceConfig};
        // Three masters hammer the bus; fixed priority must prefer the
        // most urgent queued master at each release.
        let mut sim = Simulation::builder().trace(TraceConfig::default()).build();
        let trace = sim.trace_handle().expect("trace configured");
        let bus = Bus::new(BusConfig::new(
            "test",
            Duration::from_micros(1),
            1,
            Duration::ZERO,
            Arbitration::FixedPriority,
        ));
        let m0 = bus.register_master("m0", 0);
        let m1 = bus.register_master("m1", 1);
        let done = sim.event_new();

        // m1 grabs the bus first, m0 queues, release must grant m0.
        let b = bus.clone();
        sim.spawn(Child::new("holder", move |ctx| async move {
            assert!(b.acquire(&ctx, m1));
            let d = b.transfer_begin(&ctx, m1, 4);
            ctx.waitfor(d).await;
            b.transfer_end(&ctx, m1);
            assert_eq!(b.release(&ctx, m1), Some(m0));
            ctx.notify(done);
        }));
        let b = bus.clone();
        sim.spawn(Child::new("contender", move |ctx| async move {
            // Queue behind the holder in the same instant.
            assert!(!b.acquire(&ctx, m0));
            ctx.wait(done).await;
            assert!(b.owns(m0));
            let d = b.transfer_begin(&ctx, m0, 2);
            ctx.waitfor(d).await;
            b.transfer_end(&ctx, m0);
            assert_eq!(b.release(&ctx, m0), None);
        }));
        sim.run().unwrap();

        let st = bus.stats();
        assert_eq!(st.transactions, 2);
        assert_eq!(st.bytes, 6);
        assert_eq!(st.busy, Duration::from_micros(6));
        assert_eq!(st.contended, 1);
        assert_eq!(st.max_wait, Duration::from_micros(4));
        assert_eq!(st.grants[0].grants, 1);
        assert_eq!(st.grants[1].grants, 1);

        // The protocol landed on the bus track as ordinary markers/spans.
        let records = trace.take();
        let on_bus: Vec<&str> = crate::trace::markers(&records, "bus:test")
            .into_iter()
            .map(|m| m.1)
            .collect();
        assert_eq!(
            on_bus,
            vec!["req:m1", "grant:m1", "req:m0", "contend:m0", "grant:m0"]
        );
        let spans = crate::trace::segments(&records);
        assert_eq!(spans["bus:test"].len(), 2);
        assert_eq!(spans["bus:test"][0].label, "xfer:m1:4");
    }

    #[test]
    fn round_robin_rotates_from_the_releaser() {
        use crate::{Child, Simulation};
        let mut sim = Simulation::new();
        let bus = Bus::new(BusConfig::new(
            "rr",
            Duration::from_micros(1),
            1,
            Duration::ZERO,
            Arbitration::RoundRobin,
        ));
        // All three registered with equal priority; m2 holds, m0 and m1
        // queue. Round robin from m2 grants m0 first.
        let m0 = bus.register_master("m0", 0);
        let m1 = bus.register_master("m1", 0);
        let m2 = bus.register_master("m2", 0);
        let b = bus.clone();
        sim.spawn(Child::new("driver", move |ctx| async move {
            assert!(b.acquire(&ctx, m2));
            assert!(!b.acquire(&ctx, m1));
            assert!(!b.acquire(&ctx, m0));
            assert_eq!(b.release(&ctx, m2), Some(m0));
            assert_eq!(b.release(&ctx, m0), Some(m1));
            assert_eq!(b.release(&ctx, m1), None);
        }));
        sim.run().unwrap();
    }
}
