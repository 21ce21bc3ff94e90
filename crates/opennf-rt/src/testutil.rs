//! Test-only helpers shared across the crate's unit tests.

use opennf_nf::{Chunk, LogRecord, NetworkFunction, NfFault, StateError};
use opennf_nfs::AssetMonitor;
use opennf_packet::{Filter, FlowId, Packet};

/// The NF call a [`PanicNf`] panics in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicAt {
    /// `process_packet`, on the packet with this uid.
    Packet(u64),
    GetPerflow,
    PutPerflow,
    DelPerflow,
}

/// An NF that behaves like an [`AssetMonitor`] but panics in one call — a
/// stand-in for an NF implementation bug.
pub struct PanicNf {
    inner: AssetMonitor,
    at: PanicAt,
}

impl PanicNf {
    /// Panics in the call `at`.
    pub fn new(at: PanicAt) -> Self {
        PanicNf { inner: AssetMonitor::new(), at }
    }

    fn trip(&self, call: PanicAt) {
        if self.at == call {
            panic!("injected NF bug in {call:?}");
        }
    }
}

impl NetworkFunction for PanicNf {
    fn nf_type(&self) -> &'static str {
        "panic-monitor"
    }

    fn process_packet(&mut self, pkt: &Packet) -> Result<(), NfFault> {
        self.trip(PanicAt::Packet(pkt.uid));
        self.inner.process_packet(pkt)
    }

    fn drain_logs(&mut self) -> Vec<LogRecord> {
        self.inner.drain_logs()
    }

    fn list_perflow(&self, filter: &Filter) -> Vec<FlowId> {
        self.inner.list_perflow(filter)
    }

    fn get_perflow(&mut self, filter: &Filter) -> Vec<Chunk> {
        self.trip(PanicAt::GetPerflow);
        self.inner.get_perflow(filter)
    }

    fn put_perflow(&mut self, chunks: Vec<Chunk>) -> Result<(), StateError> {
        self.trip(PanicAt::PutPerflow);
        self.inner.put_perflow(chunks)
    }

    fn del_perflow(&mut self, flow_ids: &[FlowId]) {
        self.trip(PanicAt::DelPerflow);
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
}
