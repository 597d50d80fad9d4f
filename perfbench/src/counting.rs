//! A counting [`RoutingFunction`] decorator: the traced run's view of the
//! routing layer, built from outside the program.
//!
//! Every `port` call is forwarded unchanged and counted.  When the wrapped
//! function is a [`LandmarkRouting`], a non-delivering call is split into a
//! cluster hit (the router stores a direct port for the destination) or a
//! landmark fallback, by asking `direct_port` the same question `port` asked.

use graphkit::NodeId;
use routemodel::{Action, Header, RoutingFunction};
use routeschemes::landmark::LandmarkRouting;
use std::any::Any;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const SLOTS: usize = 16;

/// One thread's counters, on a cache line of its own so that the serving
/// workers do not contend.
#[repr(align(128))]
#[derive(Default)]
struct Slot {
    port_calls: AtomicU64,
    cluster_hits: AtomicU64,
    fallbacks: AtomicU64,
}

static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SLOT: usize = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS;
}

/// Counts merged over every thread that routed through the decorator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortCounts {
    pub port_calls: u64,
    pub cluster_hits: u64,
    pub fallbacks: u64,
}

impl PortCounts {
    /// Cluster hits over non-delivering lookups (0 when there were none).
    pub fn hit_ratio(&self) -> f64 {
        let lookups = self.cluster_hits + self.fallbacks;
        if lookups == 0 {
            0.0
        } else {
            self.cluster_hits as f64 / lookups as f64
        }
    }
}

/// The decorator.  It owns the wrapped function (trait objects of
/// `RoutingFunction` are `'static`); [`Counting::into_inner`] hands it back.
pub struct Counting {
    inner: Box<dyn RoutingFunction + Send + Sync>,
    slots: [Slot; SLOTS],
}

impl Counting {
    pub fn new(inner: Box<dyn RoutingFunction + Send + Sync>) -> Self {
        Counting {
            inner,
            slots: Default::default(),
        }
    }

    pub fn into_inner(self) -> Box<dyn RoutingFunction + Send + Sync> {
        self.inner
    }

    /// The counts so far.  Read after the routing threads have been joined.
    pub fn counts(&self) -> PortCounts {
        let sum = |f: fn(&Slot) -> &AtomicU64| {
            self.slots
                .iter()
                .map(|s| f(s).load(Ordering::Relaxed))
                .sum()
        };
        PortCounts {
            port_calls: sum(|s| &s.port_calls),
            cluster_hits: sum(|s| &s.cluster_hits),
            fallbacks: sum(|s| &s.fallbacks),
        }
    }

    fn landmark(&self) -> Option<&LandmarkRouting> {
        let any: &dyn Any = &*self.inner;
        any.downcast_ref::<LandmarkRouting>()
    }
}

impl RoutingFunction for Counting {
    fn init(&self, source: NodeId, dest: NodeId) -> Header {
        self.inner.init(source, dest)
    }

    fn port(&self, node: NodeId, header: &Header) -> Action {
        let action = self.inner.port(node, header);
        // Relaxed: plain statistics, read only after the workers are joined.
        let slot = &self.slots[SLOT.with(|s| *s)];
        slot.port_calls.fetch_add(1, Ordering::Relaxed);
        if node != header.dest {
            if let Some(lm) = self.landmark() {
                let counter = if lm.direct_port(node, header.dest).is_some() {
                    &slot.cluster_hits
                } else {
                    &slot.fallbacks
                };
                counter.fetch_add(1, Ordering::Relaxed);
            }
        }
        action
    }

    fn next_header(&self, node: NodeId, header: &Header) -> Header {
        self.inner.next_header(node, header)
    }

    fn init_into(&self, source: NodeId, dest: NodeId, header: &mut Header) {
        self.inner.init_into(source, dest, header);
    }

    fn next_header_into(&self, node: NodeId, header: &mut Header) {
        self.inner.next_header_into(node, header);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn declared_header_words(&self) -> usize {
        self.inner.declared_header_words()
    }
}

/// Stands in for an instance's routing function while the [`Counting`]
/// decorator holds it.  Never routes.
pub struct Vacant;

impl RoutingFunction for Vacant {
    fn init(&self, _source: NodeId, dest: NodeId) -> Header {
        Header::to_dest(dest)
    }

    fn port(&self, _node: NodeId, _header: &Header) -> Action {
        Action::Deliver
    }
}
