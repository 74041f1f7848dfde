//! The JSONL run journal: a process-global line sink that instrumented
//! code (the cleaning session, the CLI, the serve daemon) streams one JSON
//! record per line into. With no sink installed, [`emit`] is a cheap
//! no-op, so emitting code does not need to know whether anyone is
//! listening.
//!
//! Journal I/O must never abort a run, but it must not fail *silently*
//! either: every failed write or flush bumps the `journal.write_errors`
//! counter and records the error, and [`take_sink`] surfaces the last one
//! at shutdown so callers can warn that the journal is incomplete.

use std::io::Write;
use std::sync::{LazyLock, Mutex};

static SINK: LazyLock<Mutex<Option<Box<dyn Write + Send>>>> = LazyLock::new(|| Mutex::new(None));

/// The most recent journal write/flush error, kept until [`take_sink`] so a
/// dropped line is visible after the fact even though [`emit`] itself
/// never propagates failures.
static LAST_ERROR: Mutex<Option<String>> = Mutex::new(None);

fn record_error(context: &str, e: &std::io::Error) {
    crate::counter_add("journal.write_errors", 1);
    *LAST_ERROR.lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
        Some(format!("{context}: {e}"));
}

/// Install (or with `None` remove) the journal sink. Removing drops the
/// previous writer after flushing it; a flush failure is recorded like a
/// failed [`emit`] (counter + last-error), not discarded. Returns whether
/// a previous sink was replaced.
pub fn set_sink(sink: Option<Box<dyn Write + Send>>) -> bool {
    let mut slot = SINK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(mut old) = slot.take() {
        if let Err(e) = old.flush() {
            record_error("flush on sink replacement", &e);
        }
        *slot = sink;
        return true;
    }
    *slot = sink;
    false
}

/// Remove and return the current sink (flushed), together with the last
/// recorded journal error — the shutdown path: callers that care whether
/// the journal is complete check the error half before declaring the file
/// good. Clears the recorded error.
pub fn take_sink() -> (Option<Box<dyn Write + Send>>, Option<String>) {
    let mut slot = SINK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let sink = match slot.take() {
        Some(mut old) => {
            if let Err(e) = old.flush() {
                record_error("flush on take_sink", &e);
            }
            Some(old)
        }
        None => None,
    };
    let error = LAST_ERROR.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take();
    (sink, error)
}

/// Whether a sink is currently installed.
pub fn has_sink() -> bool {
    SINK.lock().unwrap_or_else(std::sync::PoisonError::into_inner).is_some()
}

/// Write one journal line (a newline is appended) and flush, so records
/// stream out as the run progresses. Returns `false` when no sink is
/// installed or the write failed; journal I/O must never abort a run, so
/// failures are recorded (`journal.write_errors` counter + last-error,
/// surfaced by [`take_sink`]) instead of propagated.
pub fn emit(line: &str) -> bool {
    let mut slot = SINK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let Some(sink) = slot.as_mut() else {
        return false;
    };
    let result = sink
        .write_all(line.as_bytes())
        .and_then(|()| sink.write_all(b"\n"))
        .and_then(|()| sink.flush());
    if let Err(e) = result {
        record_error("write_line", &e);
        // A broken sink (closed pipe, full disk) is dropped so later emits
        // become cheap no-ops instead of failing repeatedly.
        *slot = None;
        return false;
    }
    true
}

/// A `Write` implementation collecting into a shared byte buffer — lets
/// tests install an in-memory journal sink and read it back after a run.
#[derive(Debug, Clone, Default)]
pub struct SharedBuffer(std::sync::Arc<Mutex<Vec<u8>>>);

impl SharedBuffer {
    /// New empty buffer.
    pub fn new() -> Self {
        SharedBuffer::default()
    }

    /// Copy of the collected bytes as UTF-8 text.
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
            .into_owned()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner).extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Journal state is process-global; serialize the tests touching it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    /// A sink that fails after `ok_writes` successful writes, and whose
    /// flush fails when `fail_flush` is set — the closed-pipe/full-disk
    /// simulator.
    struct FailingSink {
        ok_writes: usize,
        fail_flush: bool,
    }

    impl Write for FailingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.ok_writes == 0 {
                return Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pipe closed"));
            }
            self.ok_writes -= 1;
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            if self.fail_flush {
                return Err(std::io::Error::other("flush failed"));
            }
            Ok(())
        }
    }

    #[test]
    fn emit_without_sink_is_noop() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_sink(None);
        assert!(!has_sink());
        assert!(!emit("{\"dropped\":true}"));
    }

    #[test]
    fn emit_streams_lines_to_sink() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let buffer = SharedBuffer::new();
        set_sink(Some(Box::new(buffer.clone())));
        assert!(has_sink());
        assert!(emit("{\"a\":1}"));
        assert!(emit("{\"b\":2}"));
        set_sink(None);
        assert_eq!(buffer.contents(), "{\"a\":1}\n{\"b\":2}\n");
        assert!(!emit("{\"after\":3}"));
        assert_eq!(buffer.contents(), "{\"a\":1}\n{\"b\":2}\n", "no writes after removal");
    }

    #[test]
    fn write_failures_are_counted_and_surfaced_on_take() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let _ = take_sink(); // clear any recorded error from other tests
        crate::set_enabled(true);
        crate::reset();
        set_sink(Some(Box::new(FailingSink { ok_writes: 0, fail_flush: false })));
        assert!(!emit("{\"doomed\":true}"), "broken-pipe write must report failure");
        assert!(!has_sink(), "a broken sink is dropped");
        assert_eq!(crate::snapshot().counter("journal.write_errors"), 1);
        let (sink, error) = take_sink();
        assert!(sink.is_none(), "the broken sink was already dropped");
        let error = error.expect("the failed write must be surfaced");
        assert!(error.contains("pipe closed"), "{error}");
        // take_sink clears the record: a second take reports a clean state.
        assert_eq!(take_sink().1, None);
        crate::set_enabled(false);
    }

    #[test]
    fn replacement_flush_failure_is_recorded_not_discarded() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let _ = take_sink();
        crate::set_enabled(true);
        crate::reset();
        set_sink(Some(Box::new(FailingSink { ok_writes: usize::MAX, fail_flush: true })));
        // Replacing the sink flushes the old one; that flush fails and the
        // failure must land in the counter + last-error, not in `let _`.
        let replaced = set_sink(Some(Box::new(SharedBuffer::new())));
        assert!(replaced);
        assert_eq!(crate::snapshot().counter("journal.write_errors"), 1);
        let (_, taken) = take_sink();
        let error = taken.expect("take_sink surfaces the recorded flush failure");
        assert!(error.contains("flush failed"), "{error}");
        crate::set_enabled(false);
    }
}
