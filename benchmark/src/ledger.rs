//! The request ledger: a service workload's seeded stream replayed on one
//! thread through the public functions the server calls, in server order,
//! with a span around each stage.
//!
//! What the replay costs per request is the request's *inline* cost. What
//! the served request costs beyond that — threads, channels, wake-ups, the
//! session registry, sockets — is the hop residual:
//! `hop = cpu_ns_per_op - inline`.
//!
//! One span covers one stage of one window of 32 requests, which keeps the
//! clock reads to a few per cent of the work they time. The replay follows
//! the server's rules for when a batch flushes (full, or a read from a
//! session with writes pending, or nothing more to wait for), so groups
//! form as they do under the closed-loop driver.

use std::fmt::Write;
use std::time::Instant;

use tm_server::protocol::{FrameBuf, Request, RequestFrame, Response, ResponseFrame};
use tm_server::{Admission, AdmissionPolicy, BatchPolicy, Batcher, PendingWrite, WriteOp};
use tm_stm::{ReadOps, TmEngine, TxnOps, WORD_BYTES};

use crate::svc::{Plan, Stream, CONNS, KEYS, WINDOW};

const NO_PARENT: u32 = u32::MAX;

/// One timed stage of one window.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, [`NO_PARENT`] at top level.
    pub parent: u32,
    /// The window of requests the span belongs to.
    pub window: u32,
}

/// Spans in a preallocated buffer; a tracer that is off reads no clock.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// The innermost open span.
    current: u32,
    window: u32,
}

impl Tracer {
    pub fn new(on: bool, capacity: usize) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
            current: NO_PARENT,
            window: 0,
        }
    }

    /// Run `body` inside a span called `name`.
    fn span<R>(&mut self, name: &'static str, body: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return body(self);
        }
        let index = self.spans.len() as u32;
        let parent = std::mem::replace(&mut self.current, index);
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            window: self.window,
        });
        let result = body(self);
        self.spans[index as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.current = parent;
        result
    }

    /// Sum over all spans of the span's duration minus its children's.
    pub fn self_time_ns(&self) -> u64 {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if span.parent != NO_PARENT {
                let child = span.end_ns - span.start_ns;
                own[span.parent as usize] = own[span.parent as usize].saturating_sub(child);
            }
        }
        own.iter().sum()
    }

    /// One JSON object per line: name, start, end, parent and window.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (index, s) in self.spans.iter().enumerate() {
            let parent = match s.parent {
                NO_PARENT => "null".to_string(),
                p => p.to_string(),
            };
            let _ = writeln!(
                out,
                "{{\"span\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"window\":{}}}",
                s.name, s.start_ns, s.end_ns, s.window
            );
        }
        out
    }
}

/// What the replay hands back.
pub struct Replay {
    /// Wall time of the whole replay, clock reads included.
    pub elapsed_ns: u64,
    /// Increments applied, for the conservation check.
    pub applied_delta: u64,
    pub tracer: Tracer,
}

/// The server-side state of the replay. Sessions are pinned to workers
/// (`session % workers`) and each worker owns one batcher.
struct Served<'e, E: TmEngine> {
    engine: &'e E,
    admission: Admission,
    batchers: Vec<Batcher>,
    /// Responses of the window being served, in arrival order.
    responses: Vec<ResponseFrame>,
    applied_delta: u64,
}

impl<E: TmEngine> Served<'_, E> {
    /// Commit every pending group of `worker`, one transaction per group.
    fn flush(&mut self, worker: usize) {
        for group in self.batchers[worker].drain() {
            let answers = self.engine.run(worker as u32, |txn| {
                let mut out = Vec::with_capacity(group.ops.len());
                for pw in &group.ops {
                    out.push(match &pw.op {
                        WriteOp::Add { key, delta } => {
                            Response::Added(txn.update_add(key * WORD_BYTES, *delta)?)
                        }
                        WriteOp::MultiAdd { keys, delta } => {
                            for key in keys {
                                txn.update_add(key * WORD_BYTES, *delta)?;
                            }
                            Response::MultiAdded {
                                applied: keys.len() as u32,
                            }
                        }
                        other => unreachable!("streams never issue {other:?}"),
                    });
                }
                Ok(out)
            });
            for (pw, response) in group.ops.into_iter().zip(answers) {
                let cost = pw.op.keys().len() as u64;
                self.applied_delta += cost;
                self.admission.release(cost);
                self.responses.push(ResponseFrame {
                    id: pw.id,
                    response,
                });
            }
        }
    }

    /// What the worker does with one decoded frame.
    fn serve(&mut self, session: usize, frame: RequestFrame, tracer: &mut Tracer) {
        let addr = |key: u64| (key % KEYS) * WORD_BYTES;
        let id = frame.id;
        let worker = session % self.batchers.len();
        if !frame.request.is_write() && self.batchers[worker].has_session(session as u64) {
            tracer.span("flush", |_| self.flush(worker));
        }
        let op = match frame.request {
            Request::Get { key } => {
                let value = self
                    .engine
                    .run_read(worker as u32, |txn| txn.read(addr(key)));
                self.responses.push(ResponseFrame {
                    id,
                    response: Response::Value(value),
                });
                return;
            }
            Request::MultiGet { keys } => {
                let values = self.engine.run_read(worker as u32, |txn| {
                    keys.iter()
                        .map(|&k| txn.read(addr(k)))
                        .collect::<Result<Vec<_>, _>>()
                });
                self.responses.push(ResponseFrame {
                    id,
                    response: Response::Values(values),
                });
                return;
            }
            Request::Add { key, delta } => WriteOp::Add {
                key: key % KEYS,
                delta,
            },
            Request::MultiAdd { keys, delta } => WriteOp::MultiAdd {
                keys: keys.into_iter().map(|k| k % KEYS).collect(),
                delta,
            },
            other => unreachable!("streams never issue {other:?}"),
        };
        let admitted = self.admission.try_admit(op.keys().len() as u64);
        assert!(
            admitted,
            "a closed loop of {CONNS}x{WINDOW} stays under the budget"
        );
        self.batchers[worker].push(
            PendingWrite {
                session: session as u64,
                id,
                token: None,
                op,
            },
            Instant::now(),
        );
        if self.batchers[worker].should_flush(Instant::now()) {
            tracer.span("flush", |_| self.flush(worker));
        }
    }
}

/// Replay `requests` requests of the workload's stream through `engine`.
pub fn replay<E: TmEngine>(
    engine: &E,
    plan: &Plan,
    seed: u64,
    requests: u64,
    trace: bool,
) -> Replay {
    let windows = requests / WINDOW as u64;
    // Top-level stages per window, plus room for a flush per request.
    let mut tracer = Tracer::new(trace, windows as usize * (8 + WINDOW));
    let mut stream = Stream::new(seed, plan.mix, plan.spread);
    let mut served = Served {
        engine,
        admission: Admission::new(AdmissionPolicy::default()),
        batchers: (0..CONNS.min(plan.workers as usize))
            .map(|_| Batcher::new(BatchPolicy::grouped()))
            .collect(),
        responses: Vec::with_capacity(WINDOW),
        applied_delta: 0,
    };
    let (mut inbound, mut outbound) = (FrameBuf::new(), FrameBuf::new());
    let mut next_id = 1u64;
    // The driver alternates connections window by window.
    let t0 = Instant::now();
    for window in 0..windows {
        tracer.window = window as u32;
        let session = window as usize % CONNS;
        let mut wire: Vec<Vec<u8>> = tracer.span("req_encode", |_| {
            (0..WINDOW)
                .map(|_| {
                    let frame = RequestFrame {
                        id: next_id,
                        request: stream.next(),
                    };
                    next_id += 1;
                    frame.encode()
                })
                .collect()
        });
        if plan.tcp {
            // The socket reader reassembles frames from the byte stream.
            wire = tracer.span("framebuf_in", |_| reframe(&mut inbound, &wire));
        }
        let frames: Vec<RequestFrame> = tracer.span("req_decode", |_| {
            wire.iter()
                .map(|bytes| RequestFrame::decode(bytes).expect("own encoding"))
                .collect()
        });
        tracer.span("serve", |tracer| {
            for frame in frames {
                served.serve(session, frame, tracer);
            }
            // The driver now blocks on its answers: whatever is still
            // batched flushes (on the server, when the budget runs out).
            let worker = session % served.batchers.len();
            tracer.span("flush", |_| served.flush(worker));
        });
        let mut wire: Vec<Vec<u8>> = tracer.span("resp_encode", |_| {
            served
                .responses
                .drain(..)
                .map(|frame| frame.encode())
                .collect()
        });
        if plan.tcp {
            wire = tracer.span("framebuf_out", |_| reframe(&mut outbound, &wire));
        }
        tracer.span("resp_decode", |_| {
            for bytes in &wire {
                std::hint::black_box(ResponseFrame::decode(bytes).expect("own encoding"));
            }
        });
    }
    Replay {
        elapsed_ns: t0.elapsed().as_nanos() as u64,
        applied_delta: served.applied_delta,
        tracer,
    }
}

/// Push frames through a [`FrameBuf`] as one byte stream and slice them
/// back out.
fn reframe(buf: &mut FrameBuf, frames: &[Vec<u8>]) -> Vec<Vec<u8>> {
    for bytes in frames {
        buf.extend(bytes);
    }
    std::iter::from_fn(|| buf.next_frame().expect("own framing")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svc::{plan, tagless_engine};
    use crate::workload::{Workload, HEAP_WORDS};

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, 4);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let [outer, inner] = &t.spans[..] else {
            panic!("two spans")
        };
        assert_eq!((outer.parent, inner.parent), (NO_PARENT, 0));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(t.self_time_ns(), outer.end_ns - outer.start_ns);
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"inner\"") && text.contains("\"parent\":0"));
    }

    #[test]
    fn replay_conserves_and_is_deterministic() {
        let plan = plan(Workload::SvcWrite);
        let run = |trace| {
            let engine = tagless_engine();
            let replay = replay(&engine, &plan, 7, 640, trace);
            assert_eq!(engine.heap_sum(HEAP_WORDS), replay.applied_delta);
            (replay.applied_delta, replay.tracer.spans.len())
        };
        let (traced, spans) = run(true);
        let (untraced, none) = run(false);
        assert_eq!(traced, untraced);
        assert!(traced >= 640, "every request adds at least 1");
        assert!(spans >= 20 * 5 && none == 0);
    }
}
