//! Sample statistics and the `/proc` readings the end-to-end metrics
//! are computed from.

use dlrm_core::trace::{SpanKind, TraceCollector};

/// The `p`-th percentile by nearest rank: the smallest sample with at
/// least `p` percent of the samples at or below it. Sorts `samples`.
///
/// # Panics
///
/// Panics on an empty slice: a phase that completed nothing has no
/// latency to report and must fail before it gets here.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0)
}

/// One completed request of an open-loop phase, on the phase's clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Scheduled arrival offset, ms.
    pub due_ms: f64,
    /// When the load generator actually enqueued it, ms.
    pub enqueued_ms: f64,
    /// End of the request's `RequestE2E` span, ms.
    pub done_ms: f64,
}

impl Completion {
    /// Latency from the *due* time, so a generator that ran late cannot
    /// hide queueing.
    pub fn latency_ms(&self) -> f64 {
        self.done_ms - self.due_ms
    }

    pub fn generator_late_ms(&self) -> f64 {
        self.enqueued_ms - self.due_ms
    }
}

/// Pairs each request's `RequestE2E` span (trace id = index into
/// `offsets_ms`) with its scheduled offset. Requests without such a span
/// never completed and produce nothing.
pub fn completions(offsets_ms: &[f64], trace: &TraceCollector) -> Vec<Completion> {
    trace
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::RequestE2E)
        .map(|s| Completion {
            due_ms: offsets_ms[s.trace.0 as usize],
            enqueued_ms: s.start,
            done_ms: s.end(),
        })
        .collect()
}

/// Linux reports process CPU time in `USER_HZ` ticks, which is 100 on
/// every supported architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU milliseconds from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn cpu_ms_from_stat(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    // after_comm starts at field 3 (state); utime and stime are 14, 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 1e3 / TICKS_PER_SECOND)
}

pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    cpu_ms_from_stat(&stat).expect("utime and stime in /proc/self/stat")
}

/// `VmRSS` in MiB from the text of `/proc/<pid>/status`.
pub fn rss_mib_from_status(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

pub fn resident_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    rss_mib_from_status(&status).expect("VmRSS in /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrm_core::trace::{ServerId, Span, TraceId};

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&mut v, 50.0), 3.0);
        assert_eq!(percentile(&mut v, 90.0), 5.0);
        assert_eq!(percentile(&mut v, 20.0), 1.0);
        assert_eq!(percentile(&mut v, 21.0), 2.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 100.0), 5.0);
        let mut ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&mut ten, 90.0), 9.0);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn latency_counts_from_the_due_time_not_the_enqueue() {
        let offsets = [10.0, 20.0, 30.0];
        let mut trace = TraceCollector::new();
        let mut e2e = |id: u64, start: f64, end: f64| {
            trace.record(Span {
                trace: TraceId(id),
                server: ServerId::MAIN,
                kind: SpanKind::RequestE2E,
                start,
                duration: end - start,
                cpu: false,
            });
        };
        // Request 1 was enqueued 5 ms late; request 2 never completed.
        e2e(0, 10.0, 14.0);
        e2e(1, 25.0, 31.0);
        trace.record(Span {
            trace: TraceId(1),
            server: ServerId::MAIN,
            kind: SpanKind::QueueWait,
            start: 25.0,
            duration: 1.0,
            cpu: false,
        });
        let done = completions(&offsets, &trace);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].latency_ms(), 4.0);
        assert_eq!(done[0].generator_late_ms(), 0.0);
        assert_eq!(done[1].latency_ms(), 11.0, "6 ms in the system + 5 ms late");
        assert_eq!(done[1].generator_late_ms(), 5.0);
    }

    #[test]
    fn cpu_time_parses_past_a_hostile_command_name() {
        let stat = "4242 (sys) bench (x)) S 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    250 50 0 0 20 0 3 0 100 1000000 200 18446744073709551615";
        assert_eq!(cpu_ms_from_stat(stat), Some(3000.0));
        let later = stat.replace(" 250 50 ", " 400 100 ");
        let delta = cpu_ms_from_stat(&later).unwrap() - cpu_ms_from_stat(stat).unwrap();
        assert_eq!(delta, 2000.0);
        assert_eq!(cpu_ms_from_stat("1 (short) S 1"), None);
    }

    #[test]
    fn rss_parses_kib_to_mib() {
        let status = "Name:\tsysbench\nVmPeak:\t  999 kB\nVmRSS:\t  524288 kB\nThreads:\t3\n";
        assert_eq!(rss_mib_from_status(status), Some(512.0));
        assert_eq!(rss_mib_from_status("Name:\tx\n"), None);
    }
}
