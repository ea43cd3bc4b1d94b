//! The commonly-used surface of the simulation kernel in one import.
//!
//! Nearly every example, test and downstream model needs the same handful
//! of items: the builder/handle types to construct and drive a
//! simulation, the plan types to perturb it, and the error types to
//! interpret how it ended. Instead of curating a long `use sldl_sim::{…}`
//! list per file, bring them in with
//!
//! ```
//! use sldl_sim::prelude::*;
//!
//! let mut sim = Simulation::new();
//! let evt = sim.event_new();
//! sim.spawn(Child::new("p", move |ctx| async move { ctx.notify(evt) }));
//! let report: Report = sim.run().unwrap();
//! assert!(report.blocked.is_empty());
//! ```
//!
//! The prelude re-exports (not re-defines) items; anything here is also
//! reachable under its canonical path at the crate root.

pub use crate::channel::{Handshake, Queue, Semaphore, SldlSync, SyncLayer};
pub use crate::chaos::{ChaosPlan, ChaosRecord, InjectedChaos, KernelInvariants};
pub use crate::error::{AbortReason, ModelError, RunError, WaitEdge};
pub use crate::fault::{FaultPlan, FaultRecord, InjectedFault, SpuriousRelease, WcetJitter};
pub use crate::ids::{EventId, ProcessId};
pub use crate::kernel::{Child, ProcCtx, Report, Simulation, SimulationBuilder, StallPolicy};
pub use crate::rng::SmallRng;
pub use crate::time::SimTime;
pub use crate::trace::{KernelStats, Record, RecordKind, Trace, TraceConfig, TraceHandle};
