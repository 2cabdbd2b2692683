//! A minimal stream runtime: a worker thread draining a crossbeam channel
//! into a [`StreamPipeline`]. Producers (ingest adapters, generators) send
//! [`Event`]s; [`StreamRuntime::shutdown`] stops the worker even if
//! producer handles are still alive — the worker drains what is already
//! queued, flushes open windows, and returns the final report.

use crate::event::Event;
use crate::pipeline::{StreamPipeline, StreamPipelineReport};
use crossbeam::channel::{bounded, RecvTimeoutError, Sender};
use fstore_common::{FsError, Result};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Handle to a running stream worker.
pub struct StreamRuntime {
    sender: Option<Sender<Event>>,
    stop: Arc<AtomicBool>,
    worker: Option<JoinHandle<Result<StreamPipelineReport>>>,
}

impl StreamRuntime {
    /// Spawn a worker draining into `pipeline`. `capacity` bounds the
    /// in-flight queue (backpressure: senders block when it is full).
    pub fn spawn(mut pipeline: StreamPipeline, capacity: usize) -> Self {
        let (tx, rx) = bounded::<Event>(capacity.max(1));
        let stop = Arc::new(AtomicBool::new(false));
        let stop_worker = Arc::clone(&stop);
        let worker = std::thread::spawn(move || -> Result<StreamPipelineReport> {
            loop {
                match rx.recv_timeout(std::time::Duration::from_millis(20)) {
                    Ok(event) => {
                        pipeline.push(&event)?;
                    }
                    Err(RecvTimeoutError::Disconnected) => break,
                    Err(RecvTimeoutError::Timeout) => {
                        if stop_worker.load(Ordering::Acquire) {
                            // drain anything that raced in, then stop
                            while let Ok(event) = rx.try_recv() {
                                pipeline.push(&event)?;
                            }
                            break;
                        }
                    }
                }
            }
            pipeline.flush()?;
            Ok(pipeline.report())
        });
        StreamRuntime {
            sender: Some(tx),
            stop,
            worker: Some(worker),
        }
    }

    /// A cloneable sender for producers.
    pub fn sender(&self) -> Sender<Event> {
        self.sender
            .as_ref()
            .expect("runtime already shut down")
            .clone()
    }

    /// Close the stream and wait for the worker; returns the final report.
    /// Safe even while producer handles from [`StreamRuntime::sender`] are
    /// still alive — their next `send` fails once the worker exits.
    pub fn shutdown(mut self) -> Result<StreamPipelineReport> {
        self.stop.store(true, Ordering::Release);
        drop(self.sender.take());
        match self.worker.take().expect("shutdown called twice").join() {
            Ok(r) => r,
            Err(_) => Err(FsError::Stream("stream worker panicked".into())),
        }
    }
}

impl Drop for StreamRuntime {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        drop(self.sender.take());
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::StreamAggregator;
    use crate::window::WindowSpec;
    use fstore_common::{Duration, EntityKey, Timestamp, Value};
    use fstore_query::AggFunc;
    use fstore_storage::{OfflineDb, OnlineStore};
    use std::sync::Arc;

    fn make_pipeline(
        online: &Arc<OnlineStore>,
        offline: &OfflineDb,
        feature: &str,
    ) -> StreamPipeline {
        let agg = StreamAggregator::new(
            feature,
            AggFunc::Count,
            WindowSpec::tumbling(Duration::minutes(1)),
            Duration::ZERO,
        )
        .unwrap();
        StreamPipeline::new(agg, "user", Arc::clone(online), offline.clone()).unwrap()
    }

    #[test]
    fn runtime_drains_flushes_and_reports() {
        let online = Arc::new(OnlineStore::default());
        let offline = OfflineDb::new();
        let pipeline = make_pipeline(&online, &offline, "clicks_1m");
        let rt = StreamRuntime::spawn(pipeline, 64);

        let tx = rt.sender();
        let producer = std::thread::spawn(move || {
            for i in 0..120 {
                tx.send(Event::new("u1", Timestamp::millis(i * 1_000), 1.0))
                    .unwrap();
            }
            // producer drops its sender when done
        });
        producer.join().unwrap();
        let report = rt.shutdown().unwrap();

        assert_eq!(report.events_in, 120);
        assert_eq!(report.windows_emitted, 2, "two minutes of data");
        assert_eq!(report.late_dropped, 0);
        let e = online
            .get("user", &EntityKey::new("u1"), "clicks_1m")
            .unwrap();
        assert_eq!(e.value, Value::Int(60));
    }

    #[test]
    fn shutdown_with_live_external_senders_does_not_hang() {
        let online = Arc::new(OnlineStore::default());
        let offline = OfflineDb::new();
        let pipeline = make_pipeline(&online, &offline, "f");
        let rt = StreamRuntime::spawn(pipeline, 4);
        // an external producer handle that outlives the runtime
        let tx = rt.sender();
        rt.sender()
            .send(Event::new("u", Timestamp::EPOCH, 1.0))
            .unwrap();
        let report = rt.shutdown().unwrap(); // must not deadlock on `tx`
        assert_eq!(report.events_in, 1);
        // the worker is gone: the straggler's send now fails
        assert!(tx.send(Event::new("u", Timestamp::EPOCH, 1.0)).is_err());
    }

    #[test]
    fn queued_events_survive_shutdown() {
        let online = Arc::new(OnlineStore::default());
        let offline = OfflineDb::new();
        let pipeline = make_pipeline(&online, &offline, "g");
        let rt = StreamRuntime::spawn(pipeline, 64);
        for i in 0..10 {
            rt.sender()
                .send(Event::new("u", Timestamp::millis(i), 1.0))
                .unwrap();
        }
        let report = rt.shutdown().unwrap();
        assert_eq!(
            report.events_in, 10,
            "everything queued before shutdown is processed"
        );
        assert_eq!(report.windows_emitted, 1);
    }
}
