//! The software switch of the threaded runtime: an atomically-updated
//! priority rule table mapping packets to worker indices. Generator
//! threads call [`Router::route`] on every packet; the controller swaps
//! rules during a move.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use opennf_packet::{Filter, Packet};

/// One rule: priority, match, worker index.
#[derive(Debug, Clone)]
struct Rule {
    priority: u16,
    filter: Filter,
    worker: usize,
}

/// The rule table. Cheap reads (every packet), rare writes (moves).
#[derive(Default)]
pub struct Router {
    rules: RwLock<Vec<Rule>>,
    /// Data-plane lookups so far ([`Router::route`] calls). The controller
    /// watches this to tell a quiet data plane from a busy one when it
    /// sizes the post-flip quiet window.
    lookups: AtomicU64,
}

impl Router {
    /// Creates an empty router.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs a rule. Higher priority wins; equal priority, later
    /// install wins. Installing an existing `(priority, filter)` pair
    /// replaces that rule — a flow set that ping-pongs between workers
    /// keeps one rule, not one per move.
    pub fn install(&self, priority: u16, filter: Filter, worker: usize) {
        let mut rules = self.rules.write();
        let pos = rules.iter().position(|r| r.priority <= priority).unwrap_or(rules.len());
        let stale = rules[pos..]
            .iter()
            .take_while(|r| r.priority == priority)
            .position(|r| r.filter == filter);
        if let Some(i) = stale {
            rules.remove(pos + i);
        }
        rules.insert(pos, Rule { priority, filter, worker });
    }

    /// Routes a packet to a worker index, if any rule matches. This is the
    /// data plane's lookup: each call counts as data-plane activity.
    pub fn route(&self, pkt: &Packet) -> Option<usize> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.lookup(pkt)
    }

    /// [`Router::route`] without the activity count: the controller's own
    /// re-homing lookups must not look like data-plane traffic.
    pub(crate) fn lookup(&self, pkt: &Packet) -> Option<usize> {
        let rules = self.rules.read();
        rules.iter().find(|r| r.filter.matches_packet(pkt)).map(|r| r.worker)
    }

    /// Data-plane lookups so far. A lookup that read the table before an
    /// [`Router::install`] is visible to a read taken after that install
    /// returns (the count is bumped before the read lock is taken, and
    /// the lock hand-over orders it before the writer).
    pub(crate) fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.read().len()
    }

    /// True when no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.rules.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opennf_packet::FlowKey;

    fn pkt(src: &str) -> Packet {
        Packet::builder(
            1,
            FlowKey::tcp(src.parse().unwrap(), 1, "1.1.1.1".parse().unwrap(), 80),
        )
        .build()
    }

    #[test]
    fn priority_routing() {
        let r = Router::new();
        r.install(0, Filter::any(), 0);
        r.install(10, Filter::from_src("10.0.0.0/8".parse().unwrap()), 1);
        assert_eq!(r.route(&pkt("10.1.1.1")), Some(1));
        assert_eq!(r.route(&pkt("11.1.1.1")), Some(0));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn reinstalling_a_rule_replaces_it() {
        let r = Router::new();
        r.install(0, Filter::any(), 0);
        let net = Filter::from_src("10.0.0.0/8".parse().unwrap());
        r.install(10, net, 1);
        // An overlapping rule of the same priority, installed later.
        r.install(10, Filter::from_src("10.1.0.0/16".parse().unwrap()), 2);
        let len = r.len();
        for i in 0..100 {
            r.install(10, net, 3 + i % 2);
        }
        assert_eq!(r.len(), len, "ping-pong installs of one (priority, filter) add no rule");
        assert_eq!(r.route(&pkt("10.9.9.9")), Some(4), "the last install is the one in force");
        // Equal priority, later install wins — also for a replaced rule.
        assert_eq!(r.route(&pkt("10.1.1.1")), Some(4));
    }

    #[test]
    fn only_route_counts_as_data_plane_activity() {
        let r = Router::new();
        r.install(0, Filter::any(), 0);
        assert_eq!(r.lookup(&pkt("10.0.0.1")), Some(0));
        assert_eq!(r.lookups(), 0);
        assert_eq!(r.route(&pkt("10.0.0.1")), Some(0));
        assert_eq!(r.lookups(), 1);
    }

    #[test]
    fn empty_router_routes_nothing() {
        let r = Router::new();
        assert!(r.is_empty());
        assert_eq!(r.route(&pkt("10.0.0.1")), None);
    }

    #[test]
    fn concurrent_reads_during_write() {
        use std::sync::Arc;
        let r = Arc::new(Router::new());
        r.install(0, Filter::any(), 0);
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        let _ = r.route(&pkt("10.0.0.1"));
                    }
                })
            })
            .collect();
        for i in 0..50 {
            r.install(1 + i, Filter::any(), (i % 2) as usize);
        }
        for h in readers {
            h.join().unwrap();
        }
        assert_eq!(r.len(), 51);
    }
}
