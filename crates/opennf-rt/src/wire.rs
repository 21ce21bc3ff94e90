//! The JSON wire protocol (§7: "The controller and NFs exchange JSON
//! messages to invoke southbound functions, provide function results, and
//! send events"). Every message crossing a channel is serialized to a JSON
//! string and parsed on the far side — exactly the cost profile the
//! paper's controller has (and §8.3 profiles).

use opennf_nf::Chunk;
use opennf_packet::{Filter, FlowId, Packet};
use serde::{Deserialize, Serialize};

/// Event actions on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum WireAction {
    /// Process normally.
    Process,
    /// Buffer until disable.
    Buffer,
    /// Drop (the packet survives in the event).
    Drop,
}

impl From<WireAction> for opennf_nf::EventAction {
    fn from(a: WireAction) -> Self {
        match a {
            WireAction::Process => opennf_nf::EventAction::Process,
            WireAction::Buffer => opennf_nf::EventAction::Buffer,
            WireAction::Drop => opennf_nf::EventAction::Drop,
        }
    }
}

/// Southbound calls on the wire.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "call", rename_all = "snake_case")]
pub enum WireCall {
    /// Export per-flow state.
    GetPerflow {
        /// Selector.
        filter: Filter,
    },
    /// Import per-flow chunks.
    PutPerflow {
        /// Chunks.
        chunks: Vec<Chunk>,
    },
    /// Delete per-flow state.
    DelPerflow {
        /// Flow ids.
        flow_ids: Vec<FlowId>,
    },
    /// Streamed export: like [`WireCall::GetPerflow`], but the worker
    /// answers with a run of [`WireReply::ChunkBatch`] responses of at
    /// most `batch` chunks each, all correlated to the request id, the
    /// final one flagged `last` (sent even when empty, so the stream
    /// always terminates). The concurrent op engine pipelines these:
    /// early batches are already being imported at the destination while
    /// later ones are still being serialized at the source.
    GetPerflowChunked {
        /// Selector.
        filter: Filter,
        /// Max chunks per batch reply.
        batch: usize,
    },
    /// Export multi-flow state.
    GetMultiflow {
        /// Selector.
        filter: Filter,
    },
    /// Import multi-flow chunks.
    PutMultiflow {
        /// Chunks.
        chunks: Vec<Chunk>,
    },
    /// Export all-flows state.
    GetAllflows,
    /// Import all-flows chunks.
    PutAllflows {
        /// Chunks.
        chunks: Vec<Chunk>,
    },
    /// `enableEvents(filter, action)`.
    EnableEvents {
        /// Selector.
        filter: Filter,
        /// Action.
        action: WireAction,
    },
    /// `disableEvents(filter)`.
    DisableEvents {
        /// Selector.
        filter: Filter,
    },
    /// P2P bulk transfer (footnote 10): export matching per-flow state and
    /// stream the chunk batches straight to worker `peer` — the controller
    /// only gets the export summary back. An empty `only` means every flow
    /// matching `filter`; a retry narrows it to the unconfirmed flows.
    TransferPerflow {
        /// Selector.
        filter: Filter,
        /// Destination worker index.
        peer: usize,
        /// Retry narrowing; empty = all matching flows.
        only: Vec<FlowId>,
    },
    /// Abort a P2P transfer at the destination: delete the listed imports
    /// and tombstone every round whose correlation id is `<= through_id`,
    /// so straggler chunk batches still in flight are discarded instead of
    /// resurrecting state.
    AbortTransfer {
        /// Flows to delete (the destination's confirmed imports).
        flow_ids: Vec<FlowId>,
        /// Highest transfer correlation id being aborted.
        through_id: u64,
    },
}

/// Replies on the wire.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "reply", rename_all = "snake_case")]
pub enum WireReply {
    /// Exported chunks.
    Chunks {
        /// The chunks.
        chunks: Vec<Chunk>,
    },
    /// Completion.
    Done,
    /// Error string.
    Error {
        /// What went wrong.
        message: String,
    },
    /// P2P source summary: which flows were shipped to the peer, and how
    /// many chunk bytes. The controller reconciles this against the
    /// destination's [`WireReply::TransferDone`].
    TransferExported {
        /// Flows exported this round, in serialization order.
        flow_ids: Vec<FlowId>,
        /// Total chunk bytes shipped.
        bytes: u64,
    },
    /// P2P destination summary: the flows this round imported, sent when
    /// its `last` chunk batch arrives. Scoped to the round so that an
    /// earlier op's imports can never confirm a later op's flows; the
    /// controller accumulates the rounds of one op.
    TransferDone {
        /// Every flow imported under this round's correlation id.
        imported: Vec<FlowId>,
    },
    /// One batch of a streamed export ([`WireCall::GetPerflowChunked`]).
    ChunkBatch {
        /// Batch sequence number within the stream.
        seq: u64,
        /// True on the stream's final batch.
        last: bool,
        /// The chunk payload.
        chunks: Vec<Chunk>,
    },
    /// P2P destination progress: the flows one *non-final* chunk batch
    /// imported, acked as it lands. The controller accumulates these so
    /// a retry after a dropped [`WireReply::TransferDone`] re-requests
    /// only the flows no batch ever confirmed — batch-granular partial
    /// recovery instead of refetching the whole scope.
    TransferProgress {
        /// Sequence number of the confirmed chunk batch.
        seq: u64,
        /// Flows that batch imported.
        flow_ids: Vec<FlowId>,
    },
}

/// Events on the wire.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "event", rename_all = "snake_case")]
pub enum WireEvent {
    /// A packet matching an event filter arrived.
    PacketReceived {
        /// Copy of the packet.
        packet: Packet,
    },
    /// A `do-not-drop` packet finished processing.
    PacketProcessed {
        /// Copy of the packet.
        packet: Packet,
    },
    /// The NF crashed (panicked) while processing; this is the worker's
    /// last message before its thread exits.
    NfFailed {
        /// The panic payload, stringified.
        reason: String,
    },
}

/// Any message on a channel: always shipped as serialized JSON.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum WireMsg {
    /// Data-plane packet toward an instance.
    Packet {
        /// The packet.
        packet: Packet,
    },
    /// Controller → NF request.
    Request {
        /// Correlation id.
        id: u64,
        /// The call.
        call: WireCall,
        /// Span link: raw id of the controller telemetry span that sent
        /// this request, if telemetry is on — the worker's frame-decode
        /// span adopts it as parent, tying both sides of the southbound
        /// exchange into one trace tree.
        span: Option<u64>,
    },
    /// Controller → NF request under an idempotency fence: the worker
    /// applies a given `(epoch, id, seq)` at most once and discards calls
    /// from an epoch older than the newest it has seen. Calls reissued
    /// after a controller recovery travel in this envelope, so
    /// channel-level duplication — or a reissue racing its pre-crash
    /// original — cannot double-apply.
    Fenced {
        /// Controller recovery epoch.
        epoch: u64,
        /// Fence sequence number (unique per send within an epoch).
        seq: u64,
        /// Correlation id.
        id: u64,
        /// The call.
        call: WireCall,
        /// Span link (see [`WireMsg::Request::span`]).
        span: Option<u64>,
    },
    /// NF → controller response.
    Response {
        /// Correlation id.
        id: u64,
        /// The reply.
        reply: WireReply,
    },
    /// NF → controller event.
    Event {
        /// Which worker raised it.
        worker: usize,
        /// The event.
        ev: WireEvent,
    },
    /// Worker → worker chunk batch of a P2P bulk transfer (footnote 10).
    /// Never crosses a controller link. `id` is the correlation id of the
    /// [`WireCall::TransferPerflow`] that started the round; the
    /// destination answers the controller with `Response { id,
    /// TransferDone }` once the `last` batch lands.
    P2pChunks {
        /// Correlation id of the originating transfer request.
        id: u64,
        /// Batch sequence number within the round (diagnostics).
        seq: u64,
        /// True on the round's final batch.
        last: bool,
        /// The chunk payload.
        chunks: Vec<Chunk>,
    },
    /// Stop the worker thread.
    Shutdown,
}

impl WireMsg {
    /// Serializes to the JSON wire form.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("wire message serializes")
    }

    /// Serializes the JSON wire form appended to `out`, so callers can
    /// reuse one buffer across many messages instead of allocating a
    /// fresh `String` each time.
    pub fn write_json(&self, out: &mut String) {
        self.to_value().encode_json_into(out);
    }

    /// Parses from the JSON wire form.
    pub fn from_json(s: &str) -> Result<WireMsg, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// A reusable frame assembler: messages accumulated since the last
/// [`finish`](FrameBuf::finish) are coalesced into one channel payload, a
/// length-prefixed netstring run (`#<len>:<json><len>:<json>…`) that skips
/// the closing-bracket scan on decode. State digests are independent of
/// the framing (they hash NF chunks, not wire bytes).
///
/// The internal buffers keep their capacity across frames, so
/// steady-state encoding does no per-message allocation.
#[derive(Default)]
pub struct FrameBuf {
    scratch: String,
    tmp: String,
    count: usize,
}

impl FrameBuf {
    /// An empty assembler.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Appends one message to the frame under assembly.
    pub fn push(&mut self, msg: &WireMsg) {
        use std::fmt::Write;
        self.tmp.clear();
        msg.write_json(&mut self.tmp);
        if self.count == 0 {
            self.scratch.push('#');
        }
        let _ = write!(self.scratch, "{}:", self.tmp.len());
        self.scratch.push_str(&self.tmp);
        self.count += 1;
    }

    /// Messages accumulated since the last `finish`.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no messages are pending.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Takes the assembled frame, leaving the assembler empty (capacity
    /// retained). `None` when nothing was pushed.
    pub fn finish(&mut self) -> Option<String> {
        if self.count == 0 {
            return None;
        }
        let out = self.scratch.clone();
        self.scratch.clear();
        self.count = 0;
        Some(out)
    }
}

/// Decodes one channel payload into the messages it frames. Two forms are
/// on the wire: the `#`-prefixed netstring run a [`FrameBuf`] emits, and a
/// bare JSON object ([`WireMsg::to_json`] — single unframed sends).
/// Anything else, a JSON array included, is an error.
pub fn decode_frame(raw: &str) -> Result<Vec<WireMsg>, serde_json::Error> {
    let Some(mut rest) = raw.strip_prefix('#') else {
        return WireMsg::from_json(raw).map(|m| vec![m]);
    };
    let truncated = || serde_json::Error("netstring truncated".into());
    let mut out = Vec::new();
    while !rest.is_empty() {
        let colon =
            rest.find(':').ok_or_else(|| serde_json::Error("netstring missing ':'".into()))?;
        let len: usize = rest[..colon]
            .parse()
            .map_err(|_| serde_json::Error("netstring bad length".into()))?;
        // The length is peer-controlled: a hostile prefix must not
        // overflow the end offset, and one that lands inside a UTF-8
        // codepoint must not slice there.
        let end = (colon + 1).checked_add(len).ok_or_else(truncated)?;
        let body = rest.get(colon + 1..end).ok_or_else(truncated)?;
        out.push(WireMsg::from_json(body)?);
        rest = &rest[end..];
    }
    Ok(out)
}

/// Encodes a run of messages into channel payloads the way the runtime
/// ships them: coalesced into frames of at most `batch` messages, through
/// one reused buffer.
pub fn encode_frames(msgs: &[WireMsg], batch: usize) -> Vec<String> {
    let batch = batch.max(1);
    let mut buf = FrameBuf::new();
    let mut out = Vec::with_capacity(msgs.len().div_ceil(batch));
    for m in msgs {
        buf.push(m);
        if buf.len() >= batch {
            out.extend(buf.finish());
        }
    }
    out.extend(buf.finish());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use opennf_packet::FlowKey;

    #[test]
    fn roundtrip_request() {
        let m = WireMsg::Request {
            id: 7,
            call: WireCall::GetPerflow { filter: Filter::any() },
            span: Some(12),
        };
        let js = m.to_json();
        assert!(js.contains("\"type\":\"request\""));
        assert!(js.contains("get_perflow"));
        match WireMsg::from_json(&js).unwrap() {
            WireMsg::Request { id: 7, call: WireCall::GetPerflow { .. }, span: Some(12) } => {}
            other => panic!("bad roundtrip: {other:?}"),
        }
        // A pre-span-link request (no `span` member) still parses: the
        // field is an Option, and missing means None.
        let legacy = js.replace(",\"span\":12", "");
        assert!(!legacy.contains("span"), "span member stripped: {legacy}");
        match WireMsg::from_json(&legacy).unwrap() {
            WireMsg::Request { id: 7, span: None, .. } => {}
            other => panic!("bad legacy parse: {other:?}"),
        }
    }

    #[test]
    fn roundtrip_fenced_request() {
        let m = WireMsg::Fenced {
            epoch: 2,
            seq: 41,
            id: 7,
            call: WireCall::DisableEvents { filter: Filter::any() },
            span: None,
        };
        let js = m.to_json();
        assert!(js.contains("\"type\":\"fenced\""));
        match WireMsg::from_json(&js).unwrap() {
            WireMsg::Fenced {
                epoch: 2, seq: 41, id: 7, call: WireCall::DisableEvents { .. }, ..
            } => {}
            other => panic!("bad roundtrip: {other:?}"),
        }
    }

    #[test]
    fn roundtrip_chunk_batch_and_progress() {
        let m = WireMsg::Response {
            id: 3,
            reply: WireReply::ChunkBatch { seq: 2, last: true, chunks: Vec::new() },
        };
        match WireMsg::from_json(&m.to_json()).unwrap() {
            WireMsg::Response {
                id: 3,
                reply: WireReply::ChunkBatch { seq: 2, last: true, chunks },
            } => assert!(chunks.is_empty()),
            other => panic!("bad roundtrip: {other:?}"),
        }
        let m = WireMsg::Response {
            id: 4,
            reply: WireReply::TransferProgress { seq: 1, flow_ids: vec![FlowId::host("9.9.9.9".parse().unwrap())] },
        };
        match WireMsg::from_json(&m.to_json()).unwrap() {
            WireMsg::Response {
                id: 4,
                reply: WireReply::TransferProgress { seq: 1, flow_ids },
            } => assert_eq!(flow_ids, vec![FlowId::host("9.9.9.9".parse().unwrap())]),
            other => panic!("bad roundtrip: {other:?}"),
        }
    }

    #[test]
    fn roundtrip_event_with_packet() {
        let k = FlowKey::tcp("10.0.0.1".parse().unwrap(), 1, "2.2.2.2".parse().unwrap(), 80);
        let p = Packet::builder(9, k).payload(&b"x"[..]).build();
        let m = WireMsg::Event { worker: 1, ev: WireEvent::PacketReceived { packet: p.clone() } };
        match WireMsg::from_json(&m.to_json()).unwrap() {
            WireMsg::Event { worker: 1, ev: WireEvent::PacketReceived { packet } } => {
                assert_eq!(packet, p)
            }
            other => panic!("bad roundtrip: {other:?}"),
        }
    }

    #[test]
    fn roundtrip_nf_failed() {
        let m = WireMsg::Event {
            worker: 2,
            ev: WireEvent::NfFailed { reason: "index out of bounds".into() },
        };
        match WireMsg::from_json(&m.to_json()).unwrap() {
            WireMsg::Event { worker: 2, ev: WireEvent::NfFailed { reason } } => {
                assert_eq!(reason, "index out of bounds")
            }
            other => panic!("bad roundtrip: {other:?}"),
        }
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(WireMsg::from_json("{not json").is_err());
        assert!(WireMsg::from_json("{\"type\":\"nope\"}").is_err());
    }

    fn sample_msgs(n: u64) -> Vec<WireMsg> {
        let k = FlowKey::tcp("10.0.0.1".parse().unwrap(), 1, "2.2.2.2".parse().unwrap(), 80);
        (1..=n)
            .map(|uid| WireMsg::Event {
                worker: 0,
                ev: WireEvent::PacketProcessed { packet: Packet::builder(uid, k).build() },
            })
            .collect()
    }

    #[test]
    fn frames_roundtrip_in_order() {
        let msgs = sample_msgs(10);
        let frames = encode_frames(&msgs, 4);
        assert_eq!(frames.len(), 3, "10 msgs at batch=4 => 4+4+2");
        let mut got = Vec::new();
        for f in &frames {
            got.extend(decode_frame(f).unwrap());
        }
        assert_eq!(got.len(), 10);
        for (a, b) in got.iter().zip(&msgs) {
            assert_eq!(a.to_json(), b.to_json());
        }
    }

    /// The netstring format, pinned byte for byte: `#`, then per message
    /// its JSON length in decimal, `:`, and the JSON itself.
    #[test]
    fn two_message_frame_is_golden_bytes() {
        let msgs = [
            WireMsg::Request { id: 7, call: WireCall::GetAllflows, span: None },
            WireMsg::Response { id: 7, reply: WireReply::Done },
        ];
        let frames = encode_frames(&msgs, 2);
        assert_eq!(
            frames,
            [concat!(
                r##"#68:{"type":"request","id":7,"call":{"call":"get_allflows"},"span":null}"##,
                r##"51:{"type":"response","id":7,"reply":{"reply":"done"}}"##
            )]
        );
        let got = decode_frame(&frames[0]).unwrap();
        assert_eq!(got.len(), 2);
        // The other form on the wire: one bare object.
        assert_eq!(decode_frame(&msgs[1].to_json()).unwrap().len(), 1);
    }

    #[test]
    fn hostile_frames_are_errors_not_panics() {
        let one = sample_msgs(1)[0].to_json();
        // The retired JSON-array framing.
        assert!(decode_frame(&format!("[{one}]")).is_err());
        // Truncated body, and a length whose end offset overflows usize.
        assert!(decode_frame("#999:{\"type\"").is_err());
        assert!(decode_frame("#18446744073709551615:{}").is_err());
        // A length that lands inside the two-byte 'é'.
        assert!(decode_frame("#1:é").is_err());
        assert!(decode_frame("#x:{}").is_err());
        assert!(decode_frame("#2{}").is_err());
    }

    #[test]
    fn frame_buf_reuses_capacity() {
        let msgs = sample_msgs(8);
        let mut buf = FrameBuf::new();
        for m in &msgs {
            buf.push(m);
        }
        let first = buf.finish().unwrap();
        assert!(buf.is_empty());
        for m in &msgs {
            buf.push(m);
        }
        assert_eq!(buf.finish().unwrap(), first, "assembler state fully resets");
    }
}
