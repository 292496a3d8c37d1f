//! The absorbing host's reference: every packet to it dispatched.
//!
//! A host whose application absorbs a packet takes it from its inbox
//! without an event (DESIGN.md §6b, "Absorbed packets"). [`Dispatched`]
//! forwards every callback to the application it wraps but keeps the
//! default answer to `Application::absorbs`, so every packet reaches its
//! host by an `Arrive`; the tests that include this file compare the two.

use dsv_net::app::{AppCtx, Application, NullApp};
use dsv_net::network::Network;
use dsv_net::packet::{NodeId, Packet};

/// Delegates every callback to the application it wraps, but keeps the
/// default answer to [`Application::absorbs`].
pub struct Dispatched<P>(Box<dyn Application<P> + Send>);

impl<P> Application<P> for Dispatched<P> {
    fn on_start(&mut self, ctx: &mut AppCtx<P>) {
        self.0.on_start(ctx);
    }

    fn on_packet(&mut self, ctx: &mut AppCtx<P>, pkt: Packet<P>) {
        self.0.on_packet(ctx, pkt);
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<P>, token: u64) {
        self.0.on_timer(ctx, token);
    }
}

/// Put the application on each of `hosts` behind [`Dispatched`].
pub fn dispatch_every_packet<P: Send + 'static>(net: &mut Network<P>, hosts: &[NodeId]) {
    for &host in hosts {
        let app = net.replace_app(host, Box::new(NullApp));
        net.replace_app(host, Box::new(Dispatched(app)));
    }
}
