//! The JSONL trace writer.
//!
//! A [`TraceEmitter`] stamps every [`TraceEvent`] with a sequence number and
//! a clock reading and writes it as one JSON line. Emission is infallible by
//! design — a broken trace sink must never abort a training run — with the
//! first I/O failure latched and queryable via [`TraceEmitter::had_error`].

use std::cell::{Cell, RefCell};
use std::io::{self, Write};
use std::path::Path;
use std::rc::Rc;

use sthsl_chaos::Io;

use crate::clock::Clock;
use crate::event::TraceEvent;
use crate::json::Json;

/// Writes trace events as JSON lines to an arbitrary sink.
pub struct TraceEmitter {
    out: RefCell<Box<dyn Write>>,
    clock: Rc<dyn Clock>,
    seq: Cell<u64>,
    failed: Cell<bool>,
}

impl TraceEmitter {
    /// An emitter over `out`, timestamping with `clock`.
    pub fn new(out: Box<dyn Write>, clock: Rc<dyn Clock>) -> Self {
        TraceEmitter { out: RefCell::new(out), clock, seq: Cell::new(0), failed: Cell::new(false) }
    }

    /// An emitter writing to the file at `path`, creating parent
    /// directories. The sink is [`Io::open_writer`]'s: a truncated,
    /// buffered file for [`RealIo`](sthsl_chaos::RealIo), and a stream that
    /// injects write faults for [`FaultyIo`](sthsl_chaos::FaultyIo).
    pub fn to_file(io: &dyn Io, path: &Path, clock: Rc<dyn Clock>) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                io.create_dir_all(parent)?;
            }
        }
        Ok(Self::new(io.open_writer(path)?, clock))
    }

    /// Append one event as a JSON line: `{"seq":…,"t_ns":…,"type":…,…}`.
    pub fn emit(&self, event: &TraceEvent) {
        let mut fields = vec![
            ("seq".to_string(), Json::Int(i64::try_from(self.seq.get()).unwrap_or(i64::MAX))),
            ("t_ns".to_string(), Json::Int(i64::try_from(self.clock.now_ns()).unwrap_or(i64::MAX))),
        ];
        fields.extend(event.fields());
        self.seq.set(self.seq.get().saturating_add(1));
        let line = Json::Obj(fields).render();
        if writeln!(self.out.borrow_mut(), "{line}").is_err() {
            self.failed.set(true);
        }
    }

    /// Events emitted so far (= next sequence number).
    pub fn events_emitted(&self) -> u64 {
        self.seq.get()
    }

    /// Whether any write to the sink has failed.
    pub fn had_error(&self) -> bool {
        self.failed.get()
    }

    /// Flush the sink (e.g. the buffered file from [`TraceEmitter::to_file`]).
    pub fn flush(&self) -> io::Result<()> {
        self.out.borrow_mut().flush()
    }
}

/// Decode one line of a JSONL trace back into its [`TraceEvent`], ignoring
/// the `seq`/`t_ns` envelope.
pub fn parse_trace_line(line: &str) -> Result<TraceEvent, String> {
    let j = crate::json::parse(line.trim()).map_err(|e| e.to_string())?;
    TraceEvent::from_json(&j)
}

/// Decode a whole JSONL trace, skipping blank lines. The `Err` carries the
/// 1-based line number of the first malformed record.
pub fn parse_trace(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(parse_trace_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::FakeClock;

    /// A `Write` sink sharing its buffer with the test.
    #[derive(Clone, Default)]
    struct SharedBuf(Rc<RefCell<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.borrow_mut().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn emitted_lines_carry_envelope_and_roundtrip() {
        let buf = SharedBuf::default();
        let emitter = TraceEmitter::new(Box::new(buf.clone()), Rc::new(FakeClock::new(100)));
        let events = vec![
            TraceEvent::Manifest { run: "t".into(), seed: 1, args: vec![] },
            TraceEvent::Counter { name: "n".into(), value: 2 },
        ];
        for ev in &events {
            emitter.emit(ev);
        }
        assert_eq!(emitter.events_emitted(), 2);
        assert!(!emitter.had_error());

        let text = String::from_utf8(buf.0.borrow().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        // Fake clock: one reading per event, 100 ns apart.
        assert!(lines[0].starts_with(r#"{"seq":0,"t_ns":100,"type":"manifest""#), "{}", lines[0]);
        assert!(lines[1].starts_with(r#"{"seq":1,"t_ns":200,"type":"counter""#), "{}", lines[1]);
        assert_eq!(parse_trace(&text).unwrap(), events);
    }

    #[test]
    fn sink_failure_is_latched_not_fatal() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("sink gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let emitter = TraceEmitter::new(Box::new(Broken), Rc::new(FakeClock::new(1)));
        emitter.emit(&TraceEvent::Counter { name: "n".into(), value: 1 });
        assert!(emitter.had_error());
    }

    #[test]
    fn parse_trace_reports_first_bad_line() {
        let err = parse_trace("{\"type\":\"counter\",\"name\":\"n\",\"value\":1}\nnot json\n")
            .unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }
}
