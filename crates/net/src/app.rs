//! The application interface for hosts.
//!
//! Streaming servers, clients, transport endpoints and cross-traffic
//! generators are all [`Application`]s: event-driven state machines attached
//! to host nodes. They interact with the network exclusively through an
//! [`AppCtx`] command buffer — sends and timers are recorded during the
//! callback and executed by the network afterwards, which keeps borrows
//! simple and interleavings deterministic.
//!
//! An application whose sends are fixed in advance can also send ahead:
//! nothing reaches its host before [`AppCtx::send_horizon`], so every
//! packet it would send before then can leave at one callback, each at
//! its own instant ([`AppCtx::send_at`]).
//!
//! An application that only updates its own state on some packets
//! *absorbs* them ([`Application::absorbs`]): the network hands it those
//! packets without dispatching an event for each.

use dsv_sim::{SimDuration, SimTime};

use crate::packet::{Dscp, FlowId, FragmentInfo, NodeId, Packet, Proto};

/// Everything the network needs to materialize an outgoing packet.
#[derive(Debug, Clone)]
pub struct SendSpec<P> {
    /// Destination host.
    pub dst: NodeId,
    /// Flow label for classification and accounting.
    pub flow: FlowId,
    /// Bytes on the wire including headers.
    pub size: u32,
    /// Initial DSCP marking (hosts may pre-mark, as the paper's remote
    /// server pre-marked EF; edge conditioners may re-mark).
    pub dscp: Dscp,
    /// Transport tag.
    pub proto: Proto,
    /// Fragmentation bookkeeping if this is an IP fragment.
    pub fragment: Option<FragmentInfo>,
    /// Application payload.
    pub payload: P,
}

/// Commands an application can issue during a callback.
#[derive(Debug)]
pub enum AppCommand<P> {
    /// Transmit a packet via this host's access port.
    Send(SendSpec<P>),
    /// Transmit a packet via this host's access port at `at`, an instant
    /// from now up to the callback's send horizon.
    SendAt {
        /// When the packet is handed to the port.
        at: SimTime,
        /// The instant the callback that hands it over at `at` counts as
        /// filed at.
        filed: SimTime,
        /// The packet.
        spec: SendSpec<P>,
    },
    /// Request an [`Application::on_timer`] callback after `delay` carrying
    /// `token`.
    SetTimer {
        /// Delay from now.
        delay: SimDuration,
        /// The instant the timer counts as filed at: now, unless it was set
        /// with [`AppCtx::set_timer_filed_at`].
        filed: SimTime,
        /// Opaque token returned in the callback.
        token: u64,
    },
}

/// The command buffer handed to application callbacks.
pub struct AppCtx<P> {
    now: SimTime,
    host: NodeId,
    horizon: SimTime,
    commands: Vec<AppCommand<P>>,
}

impl<P> AppCtx<P> {
    /// Create a context for a callback at `now` on `host`, with no send
    /// horizon beyond `now`. Exposed so that transport/application unit
    /// tests can drive state machines directly.
    pub fn new(now: SimTime, host: NodeId) -> Self {
        Self::with_buffer(now, host, now, Vec::new())
    }

    /// Create a context with send horizon `horizon` that records commands
    /// into a recycled buffer. The network threads one buffer through
    /// every callback so steady-state dispatch allocates nothing.
    pub fn with_buffer(
        now: SimTime,
        host: NodeId,
        horizon: SimTime,
        commands: Vec<AppCommand<P>>,
    ) -> Self {
        debug_assert!(commands.is_empty());
        debug_assert!(horizon >= now);
        AppCtx {
            now,
            host,
            horizon,
            commands,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The host this application is attached to.
    pub fn host(&self) -> NodeId {
        self.host
    }

    /// Queue a packet for transmission.
    pub fn send(&mut self, spec: SendSpec<P>) {
        self.commands.push(AppCommand::Send(spec));
    }

    /// No packet reaches this host before this instant: none is in flight
    /// toward it, every route toward it takes at least its inbound
    /// lookahead, and the run stops before then. An application whose
    /// next sends depend only on what reaches it may therefore send, with
    /// [`AppCtx::send_at`], every packet it would send before this instant
    /// now. It is `now` while a packet toward the host is in flight.
    pub fn send_horizon(&self) -> SimTime {
        self.horizon
    }

    /// Queue a packet to be handed to the host's port at `at`: now, or an
    /// instant before [`AppCtx::send_horizon`]. The network puts it on the
    /// wire at its own instant and files its events as a send at `at`
    /// would have; `filed` is the instant the callback that would hand it
    /// over then counts as filed at (for a packet due now, this
    /// callback's), which places its send among the trace entries at `at`.
    /// Packets sent ahead leave in the order they are queued, so `at`
    /// never decreases within a host; once a host has sent ahead, an
    /// ordinary [`AppCtx::send`] before the last such instant panics.
    pub fn send_at(&mut self, at: SimTime, filed: SimTime, spec: SendSpec<P>) {
        debug_assert!(
            at == self.now || (at > self.now && at < self.horizon),
            "a packet is sent ahead from now to before the send horizon"
        );
        debug_assert!(filed <= at, "a send counts as filed by its instant");
        self.commands.push(AppCommand::SendAt { at, filed, spec });
    }

    /// Request a timer callback after `delay` carrying `token`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.set_timer_filed_at(delay, self.now, token);
    }

    /// [`AppCtx::set_timer`], stamped as if it had been set at `filed`, an
    /// instant from now up to when it falls due. An application that
    /// computes ahead what a chain of its own timers would have done sets
    /// one timer in their place, stamped where the chain would have set
    /// its last one: it then sorts against every event filed at any other
    /// instant exactly as that timer would have (see
    /// [`dsv_sim::EventQueue::reserve_filed_at`]).
    pub fn set_timer_filed_at(&mut self, delay: SimDuration, filed: SimTime, token: u64) {
        debug_assert!(
            filed >= self.now && filed <= self.now + delay,
            "a timer is filed between now and when it falls due"
        );
        self.commands.push(AppCommand::SetTimer {
            delay,
            filed,
            token,
        });
    }

    /// Drain accumulated commands (consumed by the network after the
    /// callback returns).
    pub fn take_commands(&mut self) -> Vec<AppCommand<P>> {
        std::mem::take(&mut self.commands)
    }

    /// Number of buffered commands (test helper).
    pub fn pending_commands(&self) -> usize {
        self.commands.len()
    }
}

/// An event-driven application attached to a host.
pub trait Application<P> {
    /// Called once when the simulation starts (or at the host's configured
    /// start time).
    fn on_start(&mut self, ctx: &mut AppCtx<P>);

    /// Called when a packet addressed to this host is fully received.
    fn on_packet(&mut self, ctx: &mut AppCtx<P>, pkt: Packet<P>);

    /// Called when a timer set via [`AppCtx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut AppCtx<P>, token: u64);

    /// The payloads this application absorbs: those on which
    /// [`Application::on_packet`] only updates the application's own
    /// state and issues no command. The network asks once, when it is
    /// built (or the application is put on its host), and hands such
    /// packets over without dispatching an event for each; a callback for
    /// one that issues a command panics. `None`, the default, absorbs
    /// nothing.
    fn absorbs(&self) -> Option<fn(&P) -> bool> {
        None
    }
}

/// A keepable handle to an application owned by the network via
/// [`Shared`]: read (or mutate) the application's state from outside the
/// simulation, typically after the run finishes.
///
/// The handle is an `Arc<Mutex<…>>` so a network owning a `Shared`
/// application stays `Send`. The lock is uncontended by construction —
/// the network never re-enters an application (commands are buffered),
/// and experiment code reads handles only after the run — so
/// [`Handle::borrow`] keeps the ergonomics (and call sites) of the
/// `Rc<RefCell<…>>` it replaced.
pub struct Handle<T>(std::sync::Arc<std::sync::Mutex<T>>);

impl<T> Handle<T> {
    /// Lock and borrow the application state.
    ///
    /// # Panics
    /// Panics if the mutex is poisoned (an application callback panicked
    /// on another thread — the run is already lost at that point).
    pub fn borrow(&self) -> std::sync::MutexGuard<'_, T> {
        self.0.lock().expect("application state poisoned")
    }
}

impl<T> Clone for Handle<T> {
    fn clone(&self) -> Self {
        Handle(self.0.clone())
    }
}

/// A delegating adapter that lets the experiment code keep a [`Handle`] to
/// an application after handing it to the network: build the application
/// with [`Shared::new`], give the network the `Shared`, and read the
/// handle's state back once the run finishes.
pub struct Shared<T>(std::sync::Arc<std::sync::Mutex<T>>);

impl<T> Shared<T> {
    /// Wrap a freshly built application, returning the keepable handle and
    /// the boxed adapter in one step.
    pub fn new(app: T) -> (Handle<T>, Shared<T>) {
        let arc = std::sync::Arc::new(std::sync::Mutex::new(app));
        (Handle(arc.clone()), Shared(arc))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.0.lock().expect("application state poisoned")
    }
}

impl<P, T: Application<P>> Application<P> for Shared<T> {
    fn on_start(&mut self, ctx: &mut AppCtx<P>) {
        self.lock().on_start(ctx);
    }
    fn on_packet(&mut self, ctx: &mut AppCtx<P>, pkt: Packet<P>) {
        self.lock().on_packet(ctx, pkt);
    }
    fn on_timer(&mut self, ctx: &mut AppCtx<P>, token: u64) {
        self.lock().on_timer(ctx, token);
    }
    fn absorbs(&self) -> Option<fn(&P) -> bool> {
        self.lock().absorbs()
    }
}

/// An application that ignores everything (placeholder for pure sink hosts
/// whose statistics are collected by the network itself).
#[derive(Debug, Default)]
pub struct NullApp;

impl<P> Application<P> for NullApp {
    fn on_start(&mut self, _ctx: &mut AppCtx<P>) {}
    fn on_packet(&mut self, _ctx: &mut AppCtx<P>, _pkt: Packet<P>) {}
    fn on_timer(&mut self, _ctx: &mut AppCtx<P>, _token: u64) {}
    fn absorbs(&self) -> Option<fn(&P) -> bool> {
        Some(|_| true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_buffers_commands_in_order() {
        let mut ctx: AppCtx<()> = AppCtx::new(SimTime::from_secs(1), NodeId(3));
        assert_eq!(ctx.now(), SimTime::from_secs(1));
        assert_eq!(ctx.host(), NodeId(3));
        ctx.set_timer(SimDuration::from_millis(10), 42);
        ctx.send(SendSpec {
            dst: NodeId(9),
            flow: FlowId(1),
            size: 500,
            dscp: Dscp::BEST_EFFORT,
            proto: Proto::Udp,
            fragment: None,
            payload: (),
        });
        assert_eq!(ctx.pending_commands(), 2);
        let cmds = ctx.take_commands();
        assert_eq!(cmds.len(), 2);
        assert!(matches!(cmds[0], AppCommand::SetTimer { token: 42, .. }));
        assert!(matches!(&cmds[1], AppCommand::Send(s) if s.dst == NodeId(9)));
        assert_eq!(ctx.pending_commands(), 0);
    }
}
