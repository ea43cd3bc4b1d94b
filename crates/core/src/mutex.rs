//! RTOS-level mutual exclusion with optional priority inheritance.
//!
//! The paper's RTOS model covers "task synchronization" through events; a
//! real RTOS also ships a mutex, and the classic hazard it guards against —
//! *priority inversion* — is exactly the kind of dynamic behavior the
//! abstract model exists to expose early. [`RtosMutex`] provides
//! `lock`/`unlock` built on RTOS events, with the [basic priority
//! inheritance protocol][pip]: while a more urgent task is blocked on the
//! mutex, the owner runs at the blocked task's priority, bounding the
//! inversion to the length of the critical section.
//!
//! [pip]: https://en.wikipedia.org/wiki/Priority_inheritance

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use sldl_sim::ProcCtx;

use crate::rtos::{Rtos, RtosEvent};
use crate::task::TaskId;

/// Whether a mutex applies the priority-inheritance protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InheritancePolicy {
    /// Owners inherit the priority of their most urgent waiter.
    #[default]
    Inherit,
    /// Plain blocking mutex: priority inversion is possible.
    None,
}

/// Failure modes of [`RtosMutex::lock_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutexError {
    /// The calling task already owns the mutex. `lock_timeout` treats the
    /// mutex as non-recursive — re-acquiring would self-deadlock a task
    /// that forgot it holds the lock, so the hazard is reported as an
    /// error instead of blocking forever.
    AlreadyOwned,
    /// The timeout elapsed before the mutex became free.
    Timeout,
}

impl core::fmt::Display for MutexError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MutexError::AlreadyOwned => write!(f, "mutex already owned by the calling task"),
            MutexError::Timeout => write!(f, "mutex acquisition timed out"),
        }
    }
}

impl std::error::Error for MutexError {}

#[derive(Debug, Default)]
struct MutexState {
    owner: Option<TaskId>,
    /// Tasks currently blocked in `lock`.
    waiters: Vec<TaskId>,
    /// Recursion guard: depth of nested locks by the owner.
    depth: u32,
}

/// A mutual-exclusion lock for RTOS tasks, with optional priority
/// inheritance. Clonable; all clones share the same lock.
///
/// ```
/// use rtos_model::{InheritancePolicy, Priority, Rtos, RtosMutex, SchedAlg, TaskParams};
/// use sldl_sim::{Child, Simulation};
/// use std::time::Duration;
///
/// let mut sim = Simulation::new();
/// let os = Rtos::new("pe", sim.sync_layer());
/// os.start(SchedAlg::PriorityPreemptive);
/// let m = RtosMutex::new(os.clone(), InheritancePolicy::Inherit);
///
/// let os2 = os.clone();
/// sim.spawn(Child::new("t", move |ctx| async move {
///     let me = os2.task_create(&TaskParams::aperiodic("t", Priority(1)));
///     os2.task_activate(&ctx, me).await;
///     m.lock(&ctx).await;
///     os2.time_wait(&ctx, Duration::from_micros(10)).await;
///     m.unlock(&ctx).await;
///     os2.task_terminate(&ctx);
/// }));
/// sim.run().unwrap();
/// ```
#[derive(Clone)]
pub struct RtosMutex {
    os: Rtos,
    name: Rc<str>,
    policy: InheritancePolicy,
    freed: RtosEvent,
    state: Rc<RefCell<MutexState>>,
}

impl core::fmt::Debug for RtosMutex {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let st = self.state.borrow();
        f.debug_struct("RtosMutex")
            .field("name", &self.name)
            .field("owner", &st.owner)
            .field("waiters", &st.waiters.len())
            .field("policy", &self.policy)
            .finish()
    }
}

impl RtosMutex {
    /// Creates a mutex on the given RTOS instance with a generated name.
    #[must_use]
    pub fn new(os: Rtos, policy: InheritancePolicy) -> Self {
        let freed = os.event_new();
        let name = format!("mutex{}", freed.index());
        Self::build(os, policy, freed, name)
    }

    /// Creates a mutex named `name` — the resource name reported in the
    /// kernel's wait-for graph and in
    /// [`RunError::Deadlock`](sldl_sim::RunError::Deadlock) cycles.
    #[must_use]
    pub fn named(os: Rtos, policy: InheritancePolicy, name: impl Into<String>) -> Self {
        let freed = os.event_new();
        Self::build(os, policy, freed, name.into())
    }

    fn build(os: Rtos, policy: InheritancePolicy, freed: RtosEvent, name: String) -> Self {
        RtosMutex {
            os,
            name: Rc::from(name),
            policy,
            freed,
            state: Rc::default(),
        }
    }

    /// The mutex's resource name (used in deadlock reports).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Stable trace id of this mutex (its RTOS event index) — the `mutex`
    /// field of the `"{pe}:mutex"` trace records.
    fn trace_id(&self) -> u32 {
        u32::try_from(self.freed.index()).unwrap_or(u32::MAX)
    }

    /// Declares the kernel wait-for edge `me --[this mutex]--> owner` so
    /// the stall checker can name lock cycles.
    fn declare_edge(&self, me: TaskId, owner: TaskId) {
        self.os.sync_layer().declare_wait(
            self.os.task_name(me),
            &*self.name,
            self.os.task_name(owner),
        );
    }

    fn clear_edge(&self, me: TaskId) {
        self.os.sync_layer().clear_wait(&self.os.task_name(me));
    }

    /// Acquires the mutex, blocking the calling task while another task
    /// owns it. Recursive locking by the owner is allowed (unlock once per
    /// lock).
    ///
    /// # Panics
    ///
    /// Panics if the caller is not a running RTOS task.
    pub async fn lock(&self, ctx: &ProcCtx) {
        let me = self
            .os
            .current_task(ctx)
            .expect("mutex lock from a non-task process");
        loop {
            {
                let mut st = self.state.borrow_mut();
                match st.owner {
                    None => {
                        st.owner = Some(me);
                        st.depth = 1;
                        drop(st);
                        self.os.trace_mutex_acquired(ctx.now(), me, self.trace_id());
                        return;
                    }
                    Some(owner) if owner == me => {
                        st.depth += 1;
                        return;
                    }
                    Some(owner) => {
                        st.waiters.push(me);
                        drop(st);
                        self.declare_edge(me, owner);
                        if self.policy == InheritancePolicy::Inherit {
                            // The owner inherits our (current) priority.
                            self.inherit(owner, me);
                        }
                        self.os
                            .trace_mutex_wait(ctx.now(), me, owner, self.trace_id());
                    }
                }
            }
            // Block until the owner releases, then re-contend.
            self.os.event_wait(ctx, self.freed).await;
            self.clear_edge(me);
            let mut st = self.state.borrow_mut();
            st.waiters.retain(|&t| t != me);
        }
    }

    /// Like [`lock`](RtosMutex::lock) with an upper bound on the blocking
    /// time, treating the mutex as **non-recursive**:
    ///
    /// * `Err(`[`MutexError::AlreadyOwned`]`)` if the calling task already
    ///   holds the mutex (the self-deadlock hazard, reported instead of
    ///   blocking forever);
    /// * `Err(`[`MutexError::Timeout`]`)` if `timeout` simulated time
    ///   elapses before the mutex becomes free;
    /// * `Ok(())` once acquired (release with
    ///   [`unlock`](RtosMutex::unlock) as usual).
    ///
    /// # Panics
    ///
    /// Panics if the caller is not a running RTOS task.
    pub async fn lock_timeout(&self, ctx: &ProcCtx, timeout: Duration) -> Result<(), MutexError> {
        let me = self
            .os
            .current_task(ctx)
            .expect("mutex lock_timeout from a non-task process");
        let deadline = ctx.now() + timeout;
        loop {
            let owner = {
                let mut st = self.state.borrow_mut();
                match st.owner {
                    None => {
                        st.owner = Some(me);
                        st.depth = 1;
                        drop(st);
                        self.os.trace_mutex_acquired(ctx.now(), me, self.trace_id());
                        return Ok(());
                    }
                    Some(owner) if owner == me => return Err(MutexError::AlreadyOwned),
                    Some(owner) => owner,
                }
            };
            let now = ctx.now();
            if now >= deadline {
                return Err(MutexError::Timeout);
            }
            self.state.borrow_mut().waiters.push(me);
            self.declare_edge(me, owner);
            if self.policy == InheritancePolicy::Inherit {
                self.inherit(owner, me);
            }
            self.os.trace_mutex_wait(now, me, owner, self.trace_id());
            let fired = self
                .os
                .event_wait_timeout(ctx, self.freed, deadline - now)
                .await;
            self.clear_edge(me);
            self.state.borrow_mut().waiters.retain(|&t| t != me);
            if !fired {
                return Err(MutexError::Timeout);
            }
        }
    }

    /// Applies priority inheritance: `owner` runs at least as urgently as
    /// `waiter`.
    fn inherit(&self, owner: TaskId, waiter: TaskId) {
        let waiter_prio = self.os.task_priority(waiter);
        self.os.boost_priority(owner, waiter_prio);
    }

    /// Releases the mutex, restoring the caller's base priority and waking
    /// all waiters to re-contend (the most urgent wins the CPU).
    ///
    /// # Panics
    ///
    /// Panics if the caller does not own the mutex.
    pub async fn unlock(&self, ctx: &ProcCtx) {
        let me = self
            .os
            .current_task(ctx)
            .expect("mutex unlock from a non-task process");
        let fully_released = {
            let mut st = self.state.borrow_mut();
            assert_eq!(st.owner, Some(me), "unlock by non-owner task");
            st.depth -= 1;
            if st.depth == 0 {
                st.owner = None;
                true
            } else {
                false
            }
        };
        if fully_released {
            self.os.trace_mutex_released(ctx.now(), me, self.trace_id());
            if self.policy == InheritancePolicy::Inherit {
                self.os.restore_priority(me);
            }
            // Wake every waiter; they re-contend, the scheduler picks the
            // most urgent, and the unlocking task passes through the
            // notify preemption point.
            self.os.event_notify(ctx, self.freed).await;
        }
    }

    /// Tries to acquire without blocking; `true` on success.
    ///
    /// # Panics
    ///
    /// Panics if the caller is not a running RTOS task.
    pub fn try_lock(&self, ctx: &ProcCtx) -> bool {
        let me = self
            .os
            .current_task(ctx)
            .expect("mutex try_lock from a non-task process");
        let mut st = self.state.borrow_mut();
        match st.owner {
            None => {
                st.owner = Some(me);
                st.depth = 1;
                drop(st);
                self.os.trace_mutex_acquired(ctx.now(), me, self.trace_id());
                true
            }
            Some(owner) if owner == me => {
                st.depth += 1;
                true
            }
            Some(_) => false,
        }
    }
}
