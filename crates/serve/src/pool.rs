//! The fixed worker pool: N threads draining the bounded queue.
//!
//! Each job carries its own reply channel, so connection threads block on
//! their result (with a deadline) while workers stay decoupled from the
//! network. Workers take a fresh `Arc` snapshot of the model zoo per job —
//! that is what makes `/admin/reload` an atomic swap: in-flight jobs keep
//! the snapshot they started with, new jobs see the new models, and nobody
//! blocks. A panicking diagnosis is caught per job; the worker answers 500
//! and keeps serving.

use crate::metrics::Metrics;
use crate::queue::Bounded;
use aiio::{AiioService, DiagnoseError, DiagnosisReport};
use aiio_darshan::JobLog;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, RwLock};

/// The shared, hot-swappable model slot. Readers clone the inner `Arc`
/// (cheap) and never hold the lock across a diagnosis.
pub type ModelSlot = RwLock<Arc<AiioService>>;

/// Why one job failed.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The (corrupt or hand-rolled) zoo has no usable models → 422.
    EmptyZoo,
    /// The log fails [`JobLog::validate`] → 422.
    InvalidLog(aiio_darshan::InvalidJobLog),
    /// The diagnosis panicked; the panic was isolated to this job → 500.
    WorkerPanicked,
}

/// One unit of work for the pool.
pub struct Job {
    pub log: JobLog,
    /// Position within its batch (0 for single requests).
    pub index: usize,
    /// Where the owning connection waits for the answer.
    pub reply: SyncSender<(usize, Result<DiagnosisReport, JobError>)>,
}

/// Take the current model snapshot without holding the lock during
/// inference. A poisoned slot still holds a valid `Arc` (writers only
/// replace it wholesale), so serving continues after a writer panic.
///
/// The read guard is an expression temporary: it dies at the end of this
/// statement, so the critical section is exactly one `Arc` bump — nothing
/// blocking can run under it (the AIIO-R002 invariant by construction).
pub fn snapshot(slot: &ModelSlot) -> Arc<AiioService> {
    Arc::clone(&slot.read().unwrap_or_else(|p| p.into_inner()))
}

/// Atomically publish a new service; in-flight snapshots are unaffected.
pub fn swap(slot: &ModelSlot, service: AiioService) {
    *slot.write().unwrap_or_else(|p| p.into_inner()) = Arc::new(service);
}

/// The running pool; joining waits for every worker to drain and exit.
pub struct Pool {
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Spawn `workers` threads draining `queue` until it is closed.
    pub fn spawn(
        workers: usize,
        queue: Arc<Bounded<Job>>,
        slot: Arc<ModelSlot>,
        metrics: Arc<Metrics>,
    ) -> Pool {
        let handles = (0..workers.max(1))
            .map(|worker_id| {
                let queue = Arc::clone(&queue);
                let slot = Arc::clone(&slot);
                let metrics = Arc::clone(&metrics);
                std::thread::Builder::new()
                    .name(format!("aiio-worker-{worker_id}"))
                    .spawn(move || worker_loop(worker_id, &queue, &slot, &metrics))
            })
            .filter_map(|spawned| spawned.ok())
            .collect();
        Pool { handles }
    }

    /// Number of live worker threads.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// True if no workers were spawned (out of threads).
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Wait for every worker to finish (the queue must be closed first or
    /// this blocks forever).
    pub fn join(self) {
        for h in self.handles {
            let _ = h.join();
        }
    }
}

fn worker_loop(worker_id: usize, queue: &Bounded<Job>, slot: &ModelSlot, metrics: &Metrics) {
    while let Some(job) = queue.pop() {
        let service = snapshot(slot);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| service.try_diagnose(&job.log)));
        let result = match outcome {
            Ok(Ok(report)) => {
                metrics.record_inference(report.predictions_mib_s.iter().map(|(k, _)| *k));
                metrics.diagnoses_total.fetch_add(1, Ordering::Relaxed);
                Ok(report)
            }
            Ok(Err(DiagnoseError::EmptyZoo)) => Err(JobError::EmptyZoo),
            Ok(Err(DiagnoseError::InvalidLog(e))) => Err(JobError::InvalidLog(e)),
            Err(_panic) => {
                metrics.worker_panics_total.fetch_add(1, Ordering::Relaxed);
                Err(JobError::WorkerPanicked)
            }
        };
        metrics.record_worker_job(worker_id);
        // The requester may have timed out and dropped its receiver; that
        // is its business, not an error here.
        let _ = job.reply.send((job.index, result));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aiio::TrainConfig;
    use aiio_iosim::{DatabaseSampler, SamplerConfig, Simulator};
    use std::sync::mpsc::sync_channel;

    fn tiny_service() -> AiioService {
        let db = DatabaseSampler::new(SamplerConfig {
            n_jobs: 80,
            seed: 3,
            noise_sigma: 0.0,
        })
        .generate();
        let mut cfg = TrainConfig::fast();
        cfg.zoo = cfg.zoo.with_kinds(&[aiio::ModelKind::XgboostLike]);
        cfg.diagnosis.max_evals = 64;
        AiioService::train(&cfg, &db).unwrap()
    }

    fn a_log() -> JobLog {
        let spec = aiio_iosim::IorConfig::parse("ior -w -t 1k -b 1m -Y")
            .unwrap()
            .to_spec();
        Simulator::default().simulate(&spec, 1, 2022, 1)
    }

    #[test]
    fn pool_serves_jobs_and_drains_on_close() {
        let queue = Arc::new(Bounded::new(8));
        let slot = Arc::new(RwLock::new(Arc::new(tiny_service())));
        let metrics = Arc::new(Metrics::new(2));
        let pool = Pool::spawn(
            2,
            Arc::clone(&queue),
            Arc::clone(&slot),
            Arc::clone(&metrics),
        );
        let (tx, rx) = sync_channel(4);
        for index in 0..4 {
            queue
                .try_push(Job {
                    log: a_log(),
                    index,
                    reply: tx.clone(),
                })
                .unwrap();
        }
        let mut seen = Vec::new();
        for _ in 0..4 {
            let (index, result) = rx.recv().unwrap();
            assert!(result.is_ok());
            seen.push(index);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        queue.close();
        pool.join();
        assert_eq!(metrics.worker_job_counts().iter().sum::<u64>(), 4);
    }

    /// A trained service with its models stripped — simulates a corrupt
    /// persisted file.
    fn empty_zoo_service() -> AiioService {
        let s = serde_json::to_string(&tiny_service()).unwrap();
        let mut v = serde_json::parse_value(&s).unwrap();
        let serde::Value::Map(fields) = &mut v else {
            panic!("service serializes as an object")
        };
        let zoo = fields
            .iter_mut()
            .find(|(k, _)| k == "zoo")
            .map(|(_, v)| v)
            .unwrap();
        let serde::Value::Map(zoo_fields) = zoo else {
            panic!("zoo serializes as an object")
        };
        for (k, v) in zoo_fields.iter_mut() {
            if k == "models" {
                *v = serde::Value::Seq(Vec::new());
            }
        }
        serde_json::from_str(&serde_json::to_string(&v).unwrap()).unwrap()
    }

    #[test]
    fn empty_zoo_is_a_typed_job_error() {
        let empty = empty_zoo_service();
        assert!(empty.zoo().models().is_empty());
        let queue = Arc::new(Bounded::new(2));
        let slot = Arc::new(RwLock::new(Arc::new(empty)));
        let metrics = Arc::new(Metrics::new(1));
        let pool = Pool::spawn(1, Arc::clone(&queue), slot, metrics);
        let (tx, rx) = sync_channel(1);
        queue
            .try_push(Job {
                log: a_log(),
                index: 0,
                reply: tx,
            })
            .unwrap();
        let (_, result) = rx.recv().unwrap();
        assert_eq!(result, Err(JobError::EmptyZoo));
        queue.close();
        pool.join();
    }

    #[test]
    fn hot_swap_does_not_disturb_serving() {
        let queue = Arc::new(Bounded::new(8));
        let service = tiny_service();
        let slot = Arc::new(RwLock::new(Arc::new(service.clone())));
        let metrics = Arc::new(Metrics::new(2));
        let pool = Pool::spawn(2, Arc::clone(&queue), Arc::clone(&slot), metrics);
        let (tx, rx) = sync_channel(8);
        for index in 0..3 {
            queue
                .try_push(Job {
                    log: a_log(),
                    index,
                    reply: tx.clone(),
                })
                .unwrap();
        }
        swap(&slot, service);
        for index in 3..6 {
            queue
                .try_push(Job {
                    log: a_log(),
                    index,
                    reply: tx.clone(),
                })
                .unwrap();
        }
        for _ in 0..6 {
            assert!(rx.recv().unwrap().1.is_ok());
        }
        queue.close();
        pool.join();
    }
}
