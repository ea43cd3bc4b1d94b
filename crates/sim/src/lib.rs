//! # sldl-sim — a discrete-event SLDL simulation kernel
//!
//! This crate is the substrate for the reproduction of *RTOS Modeling for
//! System Level Design* (Gerstlauer, Yu, Gajski — DATE 2003). The paper
//! builds its abstract RTOS model *on top of* an existing system-level
//! design language (SpecC); this crate provides the equivalent simulation
//! kernel: processes, delta-cycle events, timed waits (`waitfor`), parallel
//! composition (`par`), channels, and trace recording.
//!
//! ## Quick start
//!
//! ```
//! use sldl_sim::{Child, Simulation};
//! use std::time::Duration;
//!
//! let mut sim = Simulation::new();
//! let done = sim.event_new();
//!
//! sim.spawn(Child::new("producer", move |ctx| async move {
//!     ctx.waitfor(Duration::from_micros(100)).await;
//!     ctx.notify(done);
//! }));
//! sim.spawn(Child::new("consumer", move |ctx| async move {
//!     ctx.wait(done).await;
//!     assert_eq!(ctx.now().as_micros(), 100);
//! }));
//!
//! let report = sim.run().unwrap();
//! assert!(report.blocked.is_empty());
//! ```
//!
//! ## Semantics
//!
//! * Process bodies are `async` blocks that await every suspension
//!   (`wait*`, `waitfor`, `par`). One single-threaded executor polls them
//!   in the order the scheduler picks, so at most one process executes at
//!   a time and simulations are deterministic.
//! * [`ProcCtx::notify`] has SpecC delta-cycle semantics: every process
//!   waiting on the event when the current delta's runnable processes have
//!   all yielded is resumed; then the notification expires. A `notify` with
//!   no waiter is lost — exactly the hazard real SLDL models must handle.
//! * Time advances to the earliest pending `waitfor`/timed notification
//!   once no runnable process and no pending notification remains.
//!
//! ## Layering
//!
//! Channels in [`channel`] are generic over [`channel::SyncLayer`], so the
//! RTOS model crate can substitute its own event service — the literal
//! Figure 7 refinement from the paper.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

//! ## Robustness
//!
//! The kernel also hosts the workspace's fault-injection and
//! health-monitoring substrate:
//!
//! * [`FaultPlan`] — seeded, deterministic injection of WCET jitter,
//!   dropped/duplicated notifications and spurious event releases
//!   (see [`fault`]).
//! * [`ChaosPlan`] — seeded, deterministic perturbation of *kernel*
//!   scheduling decisions (same-delta dispatch order) and
//!   the opt-in [`KernelInvariants`] oracle checking the kernel's own
//!   consistency at delta-flush and teardown boundaries (see [`chaos`]).
//! * [`StallPolicy`] / [`RunError::Deadlock`] — wait-for-graph deadlock
//!   detection at quiescence, with edges declared by synchronization
//!   layers through [`SldlSync::declare_wait`].
//! * [`RunError::ModelMisuse`] — structured reporting of model misuse
//!   (formerly bare panics), with `file:line` caller context.
//! * [`RunError::InvariantViolation`] — structured reporting of oracle
//!   and layer-conformance violations, naming the invariant and subject.

pub mod bus;
pub mod channel;
pub mod chaos;
mod error;
pub mod fault;
mod ids;
mod kernel;
pub mod prelude;
pub mod rng;
pub mod sync;
pub mod trace;

mod time;
mod wheel;

pub use bus::{Arbitration, Bus, BusConfig, BusStats, MasterGrants, MasterId};
pub use channel::{Handshake, Queue, Semaphore, SldlSync, SyncLayer};
pub use chaos::{ChaosPlan, ChaosRecord, InjectedChaos, KernelInvariants};
pub use error::{AbortReason, ModelError, RunError, WaitEdge};
pub use fault::{FaultPlan, FaultRecord, InjectedFault, SpuriousRelease, WcetJitter};
pub use ids::{EventId, ProcessId};
pub use kernel::{Child, ProcCtx, Report, Simulation, SimulationBuilder, StallPolicy};
pub use rng::SmallRng;
pub use time::SimTime;
pub use trace::{
    DecisionReason, KernelStats, LabelId, Record, RecordKind, SinkConfig, Trace, TraceConfig,
    TraceHandle, TrackId,
};
