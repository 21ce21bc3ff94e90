//! `Stamped<N>`: a benchmark-owned NF wrapper, plugged in through the
//! public `NetworkFunction` trait, that records when each packet reached
//! the NF — and the exactly-once check every packet workload ends with.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::api::{
    Chunk, CostModel, Filter, FlowId, LogRecord, NetworkFunction, NfFault, Packet, StateError,
};

/// One packet as the NF saw it.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    pub uid: u64,
    /// Now minus the packet's `ingress_ns` (its due time) on the
    /// benchmark's epoch.
    pub latency_ns: u64,
    /// The packet was event-buffered and replayed (`do_not_buffer` set).
    pub replayed: bool,
}

/// Shared with the benchmark's main thread, which reads it after the
/// worker has been joined.
pub type StampLog = Arc<Mutex<Vec<Stamp>>>;

/// Delegates every southbound call to `inner`; stamps `process_packet`.
pub struct Stamped<N> {
    inner: N,
    epoch: Instant,
    log: StampLog,
}

impl<N> Stamped<N> {
    pub fn new(inner: N, epoch: Instant) -> (Self, StampLog) {
        let log = StampLog::default();
        (
            Stamped {
                inner,
                epoch,
                log: log.clone(),
            },
            log,
        )
    }
}

impl<N: NetworkFunction> NetworkFunction for Stamped<N> {
    fn nf_type(&self) -> &'static str {
        self.inner.nf_type()
    }

    fn process_packet(&mut self, pkt: &Packet) -> Result<(), NfFault> {
        let now_ns = self.epoch.elapsed().as_nanos() as u64;
        self.log
            .lock()
            .expect("stamp log lock is never held across a panic")
            .push(Stamp {
                uid: pkt.uid,
                latency_ns: now_ns.saturating_sub(pkt.ingress_ns),
                replayed: pkt.do_not_buffer,
            });
        self.inner.process_packet(pkt)
    }

    fn drain_logs(&mut self) -> Vec<LogRecord> {
        self.inner.drain_logs()
    }

    fn list_perflow(&self, filter: &Filter) -> Vec<FlowId> {
        self.inner.list_perflow(filter)
    }

    fn get_perflow(&mut self, filter: &Filter) -> Vec<Chunk> {
        self.inner.get_perflow(filter)
    }

    fn put_perflow(&mut self, chunks: Vec<Chunk>) -> Result<(), StateError> {
        self.inner.put_perflow(chunks)
    }

    fn del_perflow(&mut self, flow_ids: &[FlowId]) {
        self.inner.del_perflow(flow_ids)
    }

    fn list_multiflow(&self, filter: &Filter) -> Vec<FlowId> {
        self.inner.list_multiflow(filter)
    }

    fn get_multiflow(&mut self, filter: &Filter) -> Vec<Chunk> {
        self.inner.get_multiflow(filter)
    }

    fn put_multiflow(&mut self, chunks: Vec<Chunk>) -> Result<(), StateError> {
        self.inner.put_multiflow(chunks)
    }

    fn del_multiflow(&mut self, flow_ids: &[FlowId]) {
        self.inner.del_multiflow(flow_ids)
    }

    fn get_allflows(&mut self) -> Vec<Chunk> {
        self.inner.get_allflows()
    }

    fn put_allflows(&mut self, chunks: Vec<Chunk>) -> Result<(), StateError> {
        self.inner.put_allflows(chunks)
    }

    fn cost_model(&self) -> CostModel {
        self.inner.cost_model()
    }
}

/// How many of the uids `1..=sent` were *not* processed exactly once
/// across all instances: lost ones plus duplicated ones plus uids nobody
/// sent.
pub fn not_exactly_once(sent: u64, processed_logs: &[&[u64]]) -> u64 {
    let mut all: Vec<u64> = processed_logs
        .iter()
        .flat_map(|l| l.iter().copied())
        .collect();
    all.sort_unstable();
    let total = all.len() as u64;
    all.dedup();
    let foreign = all.iter().filter(|&&u| u == 0 || u > sent).count() as u64;
    let distinct_ours = all.len() as u64 - foreign;
    (sent - distinct_ours) + (total - all.len() as u64) + foreign
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{api, gen};

    #[test]
    fn exactly_once_counts_lost_duplicated_and_foreign() {
        assert_eq!(not_exactly_once(5, &[&[1, 3, 5], &[4, 2]]), 0);
        assert_eq!(not_exactly_once(5, &[&[1, 3], &[4, 2]]), 1, "5 lost");
        assert_eq!(not_exactly_once(5, &[&[1, 3, 5, 3], &[4, 2]]), 1, "3 twice");
        assert_eq!(not_exactly_once(3, &[&[1, 2, 3, 9]]), 1, "9 never sent");
        assert_eq!(not_exactly_once(3, &[]), 3);
    }

    #[test]
    fn stamped_delegates_and_records_replay_mark_and_latency() {
        let epoch = Instant::now();
        let (mut nf, log) = Stamped::new(api::monitor(), epoch);
        let key = gen::flow_keys(&mut api::SimRng::new(1), 0, 1)[0];
        nf.process_packet(&gen::syn(1, key)).unwrap();
        let mut replayed = gen::ack(2, key);
        replayed.do_not_buffer = true;
        replayed.ingress_ns = u64::MAX; // due in the far future: clamps to 0
        nf.process_packet(&replayed).unwrap();
        assert_eq!(
            nf.list_perflow(&Filter::any()).len(),
            1,
            "inner NF saw the packets"
        );
        let chunks = nf.get_perflow(&Filter::any());
        let ids: Vec<FlowId> = chunks.iter().map(|c| c.flow_id).collect();
        nf.del_perflow(&ids);
        assert_eq!(nf.list_perflow(&Filter::any()).len(), 0);
        nf.put_perflow(chunks).unwrap();
        assert_eq!(nf.list_perflow(&Filter::any()).len(), 1);
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 2);
        assert!(!log[0].replayed && log[1].replayed);
        assert_eq!(log[1].latency_ns, 0);
        assert_eq!((log[0].uid, log[1].uid), (1, 2));
    }
}
