//! # rtos-model — an abstract RTOS model for system-level design
//!
//! Reproduction of the primary contribution of *RTOS Modeling for System
//! Level Design* (Gerstlauer, Yu, Gajski — DATE 2003): a high-level model
//! of a real-time operating system written **on top of** an SLDL simulation
//! kernel ([`sldl_sim`]), providing the key features of any RTOS — task
//! management, real-time scheduling, preemption, task synchronization and
//! interrupt handling — so that the dynamic behavior of multi-tasking
//! systems can be validated in abstract architecture models, long before a
//! real RTOS and instruction-set simulator exist.
//!
//! ## The interface (paper Figure 4)
//!
//! | Paper call          | This crate                                  |
//! |---------------------|---------------------------------------------|
//! | `init`              | [`Rtos::init`]                              |
//! | `start(alg)`        | [`Rtos::start`]                             |
//! | `interrupt_return`  | [`Rtos::interrupt_return`]                  |
//! | `task_create`       | [`Rtos::task_create`] + [`TaskParams`]      |
//! | `task_terminate`    | [`Rtos::task_terminate`]                    |
//! | `task_sleep`        | [`Rtos::task_sleep`]                        |
//! | `task_activate`     | [`Rtos::task_activate`]                     |
//! | `task_endcycle`     | [`Rtos::task_endcycle`]                     |
//! | `task_kill`         | [`Rtos::task_kill`]                         |
//! | `par_start`         | [`Rtos::par_start`]                         |
//! | `par_end`           | [`Rtos::par_end`]                           |
//! | `event_new`         | [`Rtos::event_new`]                         |
//! | `event_del`         | [`Rtos::event_del`]                         |
//! | `event_wait`        | [`Rtos::event_wait`]                        |
//! | `event_notify`      | [`Rtos::event_notify`]                      |
//! | `time_wait`         | [`Rtos::time_wait`]                         |
//!
//! Task bodies are `async` blocks on the kernel's executor. A call that
//! can suspend the calling task — it blocks, or passes a preemption point
//! where a more urgent task may take the CPU — is an `async fn` and must
//! be awaited: `task_activate`, `task_sleep`, `task_endcycle`, `par_end`,
//! `event_wait`, `event_wait_timeout`, `event_notify` and `time_wait`, plus
//! [`RtosMutex`]'s `lock`, `lock_timeout` and `unlock`. The rest never
//! suspend the caller (`task_terminate` and `interrupt_return` dispatch
//! another task without waiting for it) and stay plain calls.
//!
//! ## Example: two tasks under priority scheduling
//!
//! ```
//! use rtos_model::{Priority, Rtos, SchedAlg, TaskParams};
//! use sldl_sim::{Child, Simulation};
//! use std::time::Duration;
//!
//! let mut sim = Simulation::new();
//! let os = Rtos::new("pe0", sim.sync_layer());
//! os.start(SchedAlg::PriorityPreemptive);
//!
//! for (name, prio, work_us) in [("hi", 1u32, 100u64), ("lo", 2, 300)] {
//!     let os = os.clone();
//!     sim.spawn(Child::new(name, move |ctx| async move {
//!         let me = os.task_create(&TaskParams::aperiodic(name, Priority(prio)));
//!         os.task_activate(&ctx, me).await;
//!         os.time_wait(&ctx, Duration::from_micros(work_us)).await;
//!         os.task_terminate(&ctx);
//!     }));
//! }
//!
//! let report = sim.run().unwrap();
//! // Serialized: 100us + 300us, not max(100, 300).
//! assert_eq!(report.end_time.as_micros(), 400);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
mod metrics;
mod mutex;
pub mod readyq;
mod rtos;
mod sched;
mod task;

pub use metrics::{MetricsSnapshot, TaskStats};
pub use mutex::{InheritancePolicy, MutexError, RtosMutex};
pub use rtos::{CycleOutcome, Rtos, RtosEvent, TimeSlice, Watchdog, WatchdogAction};
pub use sched::SchedAlg;
pub use task::{MissPolicy, Priority, TaskId, TaskKind, TaskParams, TaskState};
