//! # dsv-sim — deterministic discrete-event simulation core
//!
//! This crate is the foundation of the `dsv` workspace, a reproduction of the
//! SIGCOMM 2001 study *"On the Impact of Policing and Rate Guarantees in
//! Diff-Serv Networks: A Video Streaming Application Perspective"*.
//!
//! Everything above this crate (network substrate, Diff-Serv conditioning,
//! streaming servers and clients, video quality measurement) is expressed as
//! events on a single virtual clock. The design goals, in order:
//!
//! 1. **Determinism** — a simulation is a pure function of its configuration
//!    and RNG seed. Two runs with the same seed produce byte-identical packet
//!    traces and therefore identical quality scores. There is no wall clock
//!    and no OS interaction anywhere in the workspace.
//! 2. **Stability** — events scheduled for the same instant are delivered in
//!    the order they were scheduled (FIFO tie-breaking via a sequence
//!    counter), so component interleavings never depend on heap internals.
//! 3. **Simplicity** — in the spirit of event-driven stacks such as smoltcp,
//!    the engine is a time-ordered queue and a dispatch loop; components are
//!    state machines that take `now` explicitly and never block. The queue
//!    is a hierarchical timing wheel (`O(1)` schedule/pop for the
//!    simulator's near-future-dominated workload); the original binary
//!    heap remains as the ordering reference the tests compare it with
//!    ([`EventQueue::with_backend`]).
//!
//! The three building blocks are:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time,
//! * [`EventQueue`] — a time-ordered queue of typed events, with
//!   [reserved stamps](stamped) for events that may never be needed,
//! * [`World`] and [`run`] / [`run_until`] — the dispatch loop,
//! * [`SimRng`] — a seeded random number generator with the distribution
//!   helpers the workload generators need.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod queue;
pub mod rng;
pub mod stamped;
pub mod time;
mod wheel;

pub use engine::{run, run_until, Settled, World};
pub use queue::{EventQueue, QueueBackend};
pub use rng::SimRng;
pub use stamped::Stamp;
pub use time::{SimDuration, SimTime};
