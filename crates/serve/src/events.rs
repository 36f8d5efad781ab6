//! Live per-job event streams: an append-only byte buffer with blocking
//! tail reads.
//!
//! The solve's JSONL sink writes here (one flush per event — see the obs
//! crate's line-buffered contract), and any number of
//! `GET /jobs/{id}/events` streamers tail it concurrently. Readers block
//! on a condvar until more bytes arrive or the job closes the buffer, so
//! progress reaches the socket the moment the placer emits it.

use std::io::{self, Write};
use std::sync::{Arc, Condvar};
use std::time::Duration;

use crate::sync::{lock_or_recover, Rank, RankedMutex};

#[derive(Debug, Default)]
struct BufState {
    bytes: Vec<u8>,
    closed: bool,
}

/// An append-only event buffer, closed exactly once when its job reaches a
/// terminal state.
#[derive(Debug)]
pub struct EventBuf {
    state: RankedMutex<BufState>,
    grew: Condvar,
}

impl EventBuf {
    /// A fresh, open buffer.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            state: RankedMutex::new(Rank::Events, BufState::default()),
            grew: Condvar::new(),
        })
    }

    /// Appends bytes and wakes tailing readers.
    pub fn append(&self, data: &[u8]) {
        let mut st = lock_or_recover(&self.state);
        st.bytes.extend_from_slice(data);
        drop(st);
        self.grew.notify_all();
    }

    /// Marks the stream complete and wakes tailing readers one last time.
    pub fn close(&self) {
        lock_or_recover(&self.state).closed = true;
        self.grew.notify_all();
    }

    /// Whether [`Self::close`] has run.
    pub fn is_closed(&self) -> bool {
        lock_or_recover(&self.state).closed
    }

    /// A snapshot of everything appended so far.
    pub fn snapshot(&self) -> Vec<u8> {
        lock_or_recover(&self.state).bytes.clone()
    }

    /// Blocks until bytes beyond `from` exist (returning them) or the
    /// buffer is closed with nothing further (returning `None`). The
    /// `patience` bound keeps a streamer responsive to its own socket
    /// errors even if a job stays silent for minutes.
    pub fn read_past(&self, from: usize, patience: Duration) -> Option<Vec<u8>> {
        let mut st = lock_or_recover(&self.state);
        loop {
            if st.bytes.len() > from {
                return Some(st.bytes[from..].to_vec());
            }
            if st.closed {
                return None;
            }
            let (next, timed_out) = st.wait_timeout(&self.grew, patience);
            st = next;
            if timed_out {
                // Let the caller decide whether to keep waiting (an empty
                // slice distinguishes "still open, nothing new" from EOF).
                return Some(Vec::new());
            }
        }
    }
}

/// `Write` adapter the JSONL sink plugs into: every write appends to the
/// buffer, every flush wakes readers (flush is implicit in `append`).
#[derive(Debug, Clone)]
pub struct EventBufWriter(pub Arc<EventBuf>);

impl Write for EventBufWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.0.append(data);
        Ok(data.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn tail_sees_appends_then_eof() {
        let buf = EventBuf::new();
        buf.append(b"line1\n");
        let got = buf
            .read_past(0, Duration::from_millis(50))
            .expect("bytes available");
        assert_eq!(got, b"line1\n");
        // Nothing new and still open → empty progress tick.
        let tick = buf
            .read_past(6, Duration::from_millis(10))
            .expect("open stream ticks");
        assert!(tick.is_empty());
        buf.close();
        assert!(buf.read_past(6, Duration::from_millis(10)).is_none());
    }

    #[test]
    fn concurrent_reader_wakes_on_append() {
        let buf = EventBuf::new();
        let reader = {
            let buf = Arc::clone(&buf);
            std::thread::spawn(move || buf.read_past(0, Duration::from_secs(5)))
        };
        std::thread::sleep(Duration::from_millis(20));
        buf.append(b"x");
        let got = reader.join().expect("reader thread").expect("bytes");
        assert_eq!(got, b"x");
    }
}
