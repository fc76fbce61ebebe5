//! Dynamic batch formation: close on max-size OR deadline, first wins.
//!
//! Per DeepRecSys, the batcher trades queueing delay against per-item
//! efficiency: a batch closes as soon as it holds
//! `max_batch_requests` requests *or* `batch_timeout` has elapsed since
//! its first (lead) request was picked up — whichever fires first. The
//! timeout bounds how long a lone request can be held hostage waiting
//! for co-batched traffic.
//!
//! Batching must be semantically invisible. [`merge_inputs`] concatenates
//! request inputs row-wise and [`split_rows`] slices predictions back;
//! both are bit-exact because every engine operator is row-independent:
//! dense GEMMs accumulate strictly within an output row, SLS pools
//! strictly within a `lengths` segment, and feature interaction is
//! per-row. The property test in `tests/frontend_properties.rs` pins
//! this end to end.

use super::arrival::QueuedRequest;
use super::queue::Dequeuer;
use crate::channel::RecvTimeoutError;
use dlrm_model::graph::SparseInput;
use dlrm_tensor::Matrix;
use dlrm_workload::BatchInputs;
use std::time::{Duration, Instant};

/// One request inside a formed batch, with its pickup timestamp (the
/// boundary between queue-wait and batch-assembly time).
#[derive(Debug)]
pub(crate) struct BatchEntry {
    /// The queued request.
    pub(crate) queued: QueuedRequest,
    /// When the batcher dequeued it.
    pub(crate) dequeued_at: Instant,
}

/// A closed batch ready for a worker.
#[derive(Debug)]
pub(crate) struct FormedBatch {
    /// Member requests in pickup order; the first is the *lead* request
    /// whose trace id labels the batch's execution spans.
    pub(crate) entries: Vec<BatchEntry>,
    /// When the batch closed (size or deadline reached).
    pub(crate) closed_at: Instant,
}

/// Runs the batch-formation loop until the admission queue disconnects:
/// dequeue a lead request (blocking), then fill until `max_requests` or
/// `lead pickup + timeout`, whichever first, and `emit` the batch —
/// which may block (a full ready-queue lane; arrivals then back up into
/// the admission queue and shed there) and returns `false` when nobody
/// is left to execute batches.
pub(crate) fn batcher_loop(
    dequeuer: Dequeuer<QueuedRequest>,
    max_requests: usize,
    timeout: Duration,
    mut emit: impl FnMut(FormedBatch) -> bool,
) {
    assert!(max_requests > 0, "batches must hold at least one request");
    'outer: loop {
        let lead = match dequeuer.recv() {
            Ok(q) => q,
            Err(_) => break 'outer, // load generator done, queue drained
        };
        let deadline = Instant::now() + timeout;
        let mut entries = vec![BatchEntry {
            queued: lead,
            dequeued_at: Instant::now(),
        }];
        let mut disconnected = false;
        while entries.len() < max_requests {
            match dequeuer.recv_deadline(deadline) {
                Ok(q) => entries.push(BatchEntry {
                    queued: q,
                    dequeued_at: Instant::now(),
                }),
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        let batch = FormedBatch {
            entries,
            closed_at: Instant::now(),
        };
        if !emit(batch) || disconnected {
            break 'outer; // workers gone, or no more arrivals possible
        }
    }
}

/// Row-concatenates request inputs into one engine batch, returning the
/// merged inputs and each request's row count (for [`split_rows`]).
///
/// Dense rows stack in order; each table's sparse indices and lengths
/// concatenate in the same order. Bit-exact by the row-independence
/// argument in the module docs.
///
/// # Panics
///
/// Panics if `parts` is empty or the requests disagree on dense feature
/// width or table count.
#[must_use]
pub fn merge_inputs(parts: &[&BatchInputs]) -> (BatchInputs, Vec<usize>) {
    assert!(!parts.is_empty(), "cannot merge an empty batch");
    let cols = parts[0].dense.cols();
    let tables = parts[0].sparse.len();
    let mut row_counts = Vec::with_capacity(parts.len());
    // Sized once, up front: growing from empty re-copies at every doubling.
    let mut dense_data = Vec::with_capacity(parts.iter().map(|p| p.dense.as_slice().len()).sum());
    for p in parts {
        assert_eq!(p.dense.cols(), cols, "dense feature width mismatch");
        assert_eq!(p.sparse.len(), tables, "table count mismatch");
        row_counts.push(p.dense.rows());
        dense_data.extend_from_slice(p.dense.as_slice());
    }
    let total_rows: usize = row_counts.iter().sum();
    let dense = Matrix::from_vec(total_rows, cols, dense_data);
    let sparse = (0..tables)
        .map(|ti| {
            // `concat` allocates each merged vector once, at its final size.
            let of_table = || parts.iter().map(|p| &p.sparse[ti]);
            let indices = of_table().map(|s| s.indices.as_slice()).collect::<Vec<_>>().concat();
            let lengths = of_table().map(|s| s.lengths.as_slice()).collect::<Vec<_>>().concat();
            SparseInput::new(indices, lengths)
        })
        .collect();
    (BatchInputs { dense, sparse }, row_counts)
}

/// Slices a merged prediction matrix back into per-request matrices of
/// `row_counts[i]` rows each — the inverse of [`merge_inputs`]'s row
/// stacking.
///
/// # Panics
///
/// Panics if `row_counts` does not sum to the matrix's row count.
#[must_use]
pub fn split_rows(merged: &Matrix, row_counts: &[usize]) -> Vec<Matrix> {
    let total: usize = row_counts.iter().sum();
    assert_eq!(
        total,
        merged.rows(),
        "row counts do not cover the merged matrix"
    );
    let cols = merged.cols();
    let mut out = Vec::with_capacity(row_counts.len());
    let mut lo = 0;
    for &rows in row_counts {
        let data = merged.as_slice()[lo * cols..(lo + rows) * cols].to_vec();
        out.push(Matrix::from_vec(rows, cols, data));
        lo += rows;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::queue::admission_queue;
    use crate::frontend::FrontendRequest;

    fn inputs(rows: usize, tag: f32) -> BatchInputs {
        let dense = Matrix::from_vec(rows, 2, (0..rows * 2).map(|i| tag + i as f32).collect());
        let sparse = vec![SparseInput::new(
            (0..rows as u64).collect(),
            vec![1; rows],
        )];
        BatchInputs { dense, sparse }
    }

    fn queued(id: u64, rows: usize) -> QueuedRequest {
        QueuedRequest {
            request: FrontendRequest {
                id,
                inputs: inputs(rows, id as f32),
            },
            arrival_ms: 0.0,
            enqueued_at: Instant::now(),
        }
    }

    #[test]
    fn merge_then_split_roundtrips_dense_rows() {
        let a = inputs(2, 10.0);
        let b = inputs(3, 90.0);
        let (merged, counts) = merge_inputs(&[&a, &b]);
        assert_eq!(counts, vec![2, 3]);
        assert_eq!(merged.dense.rows(), 5);
        assert_eq!(merged.sparse[0].lengths.len(), 5);
        let back = split_rows(&merged.dense, &counts);
        assert_eq!(back[0], a.dense);
        assert_eq!(back[1], b.dense);
    }

    #[test]
    fn merge_concatenates_sparse_segments_in_order() {
        let a = inputs(1, 0.0);
        let b = inputs(2, 0.0);
        let (merged, _) = merge_inputs(&[&a, &b]);
        assert_eq!(merged.sparse[0].indices, vec![0, 0, 1]);
        assert_eq!(merged.sparse[0].lengths, vec![1, 1, 1]);
    }

    #[test]
    fn size_closes_batch_before_deadline() {
        let (adm, deq, _stats) = admission_queue(16);
        for i in 0..5 {
            adm.offer(queued(i, 1)).unwrap();
        }
        drop(adm);
        let mut sizes = Vec::new();
        batcher_loop(deq, 2, Duration::from_secs(60), |b| {
            sizes.push(b.entries.len());
            true
        });
        assert_eq!(sizes, vec![2, 2, 1]);
    }

    #[test]
    fn deadline_closes_undersized_batch() {
        let (adm, deq, _stats) = admission_queue(16);
        let (tx, rx) = crate::channel::unbounded();
        adm.offer(queued(0, 1)).unwrap();
        let t = std::thread::spawn(move || {
            batcher_loop(deq, 64, Duration::from_millis(10), |b| tx.send(b).is_ok());
        });
        let b = rx.recv().expect("deadline should close the batch");
        assert_eq!(b.entries.len(), 1);
        drop(adm);
        t.join().unwrap();
    }

    #[test]
    fn disconnect_flushes_partial_batch() {
        let (adm, deq, _stats) = admission_queue(16);
        for i in 0..3 {
            adm.offer(queued(i, 1)).unwrap();
        }
        drop(adm);
        let mut sizes = Vec::new();
        batcher_loop(deq, 64, Duration::from_secs(60), |b| {
            sizes.push(b.entries.len());
            true
        });
        assert_eq!(sizes, vec![3], "one flushed batch, then the loop ends");
    }

    #[test]
    #[should_panic(expected = "row counts")]
    fn split_rejects_bad_counts() {
        let m = Matrix::zeros(3, 1);
        let _ = split_rows(&m, &[1, 1]);
    }
}
