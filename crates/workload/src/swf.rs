//! Streaming parser (and serializer) for the Standard Workload Format.
//!
//! SWF (Feitelson's archive format) is line-based: `;`-prefixed
//! header/comment lines, then one record per line of 18
//! whitespace-separated fields; `-1` marks a missing value. The parser
//! here streams records off any [`BufRead`] — it never buffers the
//! trace — handles CRLF endings, tolerates truncated trailing fields,
//! and surfaces structural problems as typed [`SwfError`]s.
//!
//! [`load_workload`] turns the record stream into a [`WorkloadSpec`]:
//! processors fall back `requested → allocated`, runtimes fall back
//! `actual → requested`, arrivals must be nondecreasing (the SWF
//! contract), and a [`MalleabilityModel`] maps each job's processor
//! count to replica bounds with `work = runtime × processors`
//! core-seconds (linear speedup — see the crate docs).

use std::io::BufRead;

use hpc_metrics::Duration;

use crate::malleability::MalleabilityModel;
use crate::spec::{JobSpec, WorkloadSpec};

/// One SWF record — the 18 standard fields, in file order. Missing
/// values are `-1` exactly as on disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwfRecord {
    /// 1: job number.
    pub job_id: u64,
    /// 2: submit time, seconds since the trace epoch.
    pub submit_s: f64,
    /// 3: wait time (s).
    pub wait_s: f64,
    /// 4: run time (s).
    pub run_s: f64,
    /// 5: number of allocated processors.
    pub allocated_procs: i64,
    /// 6: average CPU time used (s).
    pub avg_cpu_s: f64,
    /// 7: used memory (KB).
    pub used_memory_kb: f64,
    /// 8: requested number of processors.
    pub requested_procs: i64,
    /// 9: requested time (s).
    pub requested_s: f64,
    /// 10: requested memory (KB).
    pub requested_memory_kb: f64,
    /// 11: status (1 = completed).
    pub status: i64,
    /// 12: user id.
    pub user: i64,
    /// 13: group id.
    pub group: i64,
    /// 14: executable (application) number.
    pub executable: i64,
    /// 15: queue number.
    pub queue: i64,
    /// 16: partition number.
    pub partition: i64,
    /// 17: preceding job number.
    pub preceding_job: i64,
    /// 18: think time from preceding job (s).
    pub think_s: f64,
}

impl SwfRecord {
    /// The record as one SWF data line (18 space-separated fields, no
    /// newline). Integral floats print without a decimal point, so a
    /// parse → serialize → parse round trip is exact.
    fn to_line(self) -> String {
        format!(
            "{} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
            self.job_id,
            self.submit_s,
            self.wait_s,
            self.run_s,
            self.allocated_procs,
            self.avg_cpu_s,
            self.used_memory_kb,
            self.requested_procs,
            self.requested_s,
            self.requested_memory_kb,
            self.status,
            self.user,
            self.group,
            self.executable,
            self.queue,
            self.partition,
            self.preceding_job,
            self.think_s,
        )
    }
}

/// Why an SWF stream could not be parsed (or annotated into a
/// workload).
#[derive(Debug)]
pub enum SwfError {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// A data line is structurally broken (too few fields, an
    /// unparsable number, a duplicate job id, …).
    Malformed {
        /// 1-based line number in the stream.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// A record requests (and allocated) no processors — it cannot be
    /// scheduled.
    ZeroProcessors {
        /// 1-based line number.
        line: usize,
        /// The record's job id.
        job_id: u64,
    },
    /// A record neither ran nor carries a requested time — there is no
    /// runtime to replay.
    MissingRuntime {
        /// 1-based line number.
        line: usize,
        /// The record's job id.
        job_id: u64,
    },
    /// A record's submit time precedes its predecessor's (SWF requires
    /// nondecreasing submit order).
    OutOfOrderArrival {
        /// 1-based line number.
        line: usize,
        /// The previous record's submit time (s).
        prev_s: f64,
        /// This record's submit time (s).
        got_s: f64,
    },
}

impl std::fmt::Display for SwfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwfError::Io(e) => write!(f, "swf: io error: {e}"),
            SwfError::Malformed { line, reason } => {
                write!(f, "swf line {line}: {reason}")
            }
            SwfError::ZeroProcessors { line, job_id } => {
                write!(f, "swf line {line}: job {job_id} requests no processors")
            }
            SwfError::MissingRuntime { line, job_id } => {
                write!(
                    f,
                    "swf line {line}: job {job_id} has neither a run time nor a requested time"
                )
            }
            SwfError::OutOfOrderArrival {
                line,
                prev_s,
                got_s,
            } => {
                write!(
                    f,
                    "swf line {line}: submit time {got_s}s precedes predecessor at {prev_s}s"
                )
            }
        }
    }
}

impl std::error::Error for SwfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SwfError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SwfError {
    fn from(e: std::io::Error) -> Self {
        SwfError::Io(e)
    }
}

/// Streaming iterator over the data records of an SWF stream. Header
/// and comment lines (leading `;`) and blank lines are skipped; each
/// data line yields one [`SwfRecord`] (or the first error).
struct SwfRecords<R: BufRead> {
    reader: R,
    line: usize,
    buf: String,
}

/// Streams the records of `reader`.
fn records<R: BufRead>(reader: R) -> SwfRecords<R> {
    SwfRecords {
        reader,
        line: 0,
        buf: String::new(),
    }
}

impl<R: BufRead> SwfRecords<R> {
    fn parse_line(line_no: usize, line: &str) -> Result<SwfRecord, SwfError> {
        let mut fields = line.split_whitespace();
        let mut idx = 0usize;
        let mut next = |name: &str| -> Result<f64, SwfError> {
            idx += 1;
            match fields.next() {
                // Fields beyond the leading eight are optional: some
                // archived traces truncate the tail, which reads as
                // "missing" (-1) rather than malformed.
                None if idx > 8 => Ok(-1.0),
                None => Err(SwfError::Malformed {
                    line: line_no,
                    reason: format!("missing field {idx} ({name})"),
                }),
                Some(tok) => tok.parse::<f64>().map_err(|_| SwfError::Malformed {
                    line: line_no,
                    reason: format!("field {idx} ({name}): unparsable number {tok:?}"),
                }),
            }
        };
        let job_id_f = next("job id")?;
        let submit_s = next("submit time")?;
        let wait_s = next("wait time")?;
        let run_s = next("run time")?;
        let allocated = next("allocated processors")?;
        let avg_cpu_s = next("average cpu time")?;
        let used_memory_kb = next("used memory")?;
        let requested = next("requested processors")?;
        let requested_s = next("requested time")?;
        let requested_memory_kb = next("requested memory")?;
        let status = next("status")?;
        let user = next("user id")?;
        let group = next("group id")?;
        let executable = next("executable")?;
        let queue = next("queue")?;
        let partition = next("partition")?;
        let preceding_job = next("preceding job")?;
        let think_s = next("think time")?;
        if job_id_f < 0.0 || job_id_f.fract() != 0.0 {
            return Err(SwfError::Malformed {
                line: line_no,
                reason: format!("job id must be a nonnegative integer, got {job_id_f}"),
            });
        }
        Ok(SwfRecord {
            job_id: job_id_f as u64,
            submit_s,
            wait_s,
            run_s,
            allocated_procs: allocated as i64,
            avg_cpu_s,
            used_memory_kb,
            requested_procs: requested as i64,
            requested_s,
            requested_memory_kb,
            status: status as i64,
            user: user as i64,
            group: group as i64,
            executable: executable as i64,
            queue: queue as i64,
            partition: partition as i64,
            preceding_job: preceding_job as i64,
            think_s,
        })
    }
}

impl<R: BufRead> Iterator for SwfRecords<R> {
    type Item = Result<(usize, SwfRecord), SwfError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            self.buf.clear();
            match self.reader.read_line(&mut self.buf) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => return Some(Err(SwfError::Io(e))),
            }
            self.line += 1;
            // Tolerate CRLF (and stray trailing whitespace) endings.
            let line = self.buf.trim();
            if line.is_empty() || line.starts_with(';') {
                continue;
            }
            return Some(Self::parse_line(self.line, line).map(|r| (self.line, r)));
        }
    }
}

/// How [`load_workload`] annotates a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwfLoadConfig {
    /// Requested-processors → replica-bounds transform. Its `cap` is
    /// the replay cluster's total slot count.
    pub malleability: MalleabilityModel,
    /// Slots per job the scheduling policies reserve on top of the
    /// workers (the launcher pod; every built-in policy reserves 1).
    /// Processor counts — and the annotated `min_replicas` — clamp to
    /// `cap - reserved_slots`, because a job whose *minimum* footprint
    /// plus launcher exceeds the cluster can never be scheduled:
    /// Feitelson-archive traces routinely contain machine-wide jobs,
    /// and replaying one unclamped would starve forever.
    pub reserved_slots: u32,
    /// Keep only the first `max_jobs` records (`None` = whole trace).
    pub max_jobs: Option<usize>,
}

impl SwfLoadConfig {
    /// Rigid replay onto a `cap`-slot cluster (the unannotated
    /// baseline).
    pub fn rigid(cap: u32) -> Self {
        SwfLoadConfig {
            malleability: MalleabilityModel::rigid(cap),
            reserved_slots: 1,
            max_jobs: None,
        }
    }

    /// Elastic (half-to-double) annotation onto a `cap`-slot cluster.
    pub fn elastic(cap: u32) -> Self {
        SwfLoadConfig {
            malleability: MalleabilityModel::elastic(cap),
            reserved_slots: 1,
            max_jobs: None,
        }
    }

    /// Builder: cap the number of jobs loaded.
    pub fn take(mut self, max_jobs: usize) -> Self {
        self.max_jobs = Some(max_jobs);
        self
    }

    /// The largest worker footprint a job can actually be scheduled
    /// with on the replay cluster.
    fn schedulable_slots(&self) -> u32 {
        self.malleability
            .cap
            .saturating_sub(self.reserved_slots)
            .max(1)
    }
}

/// Priority for an SWF record: queue numbers map cyclically onto the
/// paper's 1–5 scale; records without a queue get priority 1.
fn priority_of(record: &SwfRecord) -> u32 {
    if record.queue >= 1 {
        ((record.queue - 1) % 5 + 1) as u32
    } else {
        1
    }
}

/// Parses an SWF stream into a [`WorkloadSpec`] under `cfg`.
///
/// Field fallbacks: processors use `requested_procs`, falling back to
/// `allocated_procs` when missing (`-1`); runtimes use `run_s`, falling
/// back to `requested_s`. A record missing both sides of either pair is
/// a typed error ([`SwfError::ZeroProcessors`] /
/// [`SwfError::MissingRuntime`]), as is a decreasing submit time
/// ([`SwfError::OutOfOrderArrival`]). Job names are `swf{job_id:07}` —
/// zero-padded so lexicographic order equals numeric (= submission)
/// order.
pub fn load_workload<R: BufRead>(reader: R, cfg: &SwfLoadConfig) -> Result<WorkloadSpec, SwfError> {
    let mut jobs: Vec<JobSpec> = Vec::new();
    let mut seen_ids: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut prev_submit = f64::NEG_INFINITY;
    for item in records(reader) {
        if cfg.max_jobs.is_some_and(|cap| jobs.len() >= cap) {
            break;
        }
        let (line, r) = item?;
        if !seen_ids.insert(r.job_id) {
            return Err(SwfError::Malformed {
                line,
                reason: format!("duplicate job id {}", r.job_id),
            });
        }
        if r.submit_s < 0.0 || !r.submit_s.is_finite() {
            return Err(SwfError::Malformed {
                line,
                reason: format!("bad submit time {}", r.submit_s),
            });
        }
        if r.submit_s < prev_submit {
            return Err(SwfError::OutOfOrderArrival {
                line,
                prev_s: prev_submit,
                got_s: r.submit_s,
            });
        }
        prev_submit = r.submit_s;
        let procs = if r.requested_procs > 0 {
            r.requested_procs
        } else {
            r.allocated_procs
        };
        if procs <= 0 {
            return Err(SwfError::ZeroProcessors {
                line,
                job_id: r.job_id,
            });
        }
        let runtime_s = if r.run_s > 0.0 {
            r.run_s
        } else {
            r.requested_s
        };
        if !(runtime_s.is_finite() && runtime_s > 0.0) {
            return Err(SwfError::MissingRuntime {
                line,
                job_id: r.job_id,
            });
        }
        // Walltime estimate: the user's requested time (field 9), with
        // the opposite fallback to the runtime pair — an archived record
        // missing its estimate borrows the actual run time, so every
        // loadable record carries an estimate for reservation-based
        // backfilling (EASY).
        let walltime_s = if r.requested_s > 0.0 && r.requested_s.is_finite() {
            r.requested_s
        } else {
            runtime_s
        };
        // Clamp to the *schedulable* worker capacity (cluster minus the
        // per-job reserved launcher slots) before computing work, so
        // the rigid annotation reproduces the (clamped) runtime exactly
        // and no job's minimum footprint exceeds what a policy can ever
        // grant. The min bound gets the same clamp for custom
        // malleability factors > 1.
        let schedulable = cfg.schedulable_slots();
        let procs = (procs as u32).min(schedulable);
        let (min_replicas, max_replicas) = cfg.malleability.bounds(procs);
        let min_replicas = min_replicas.min(schedulable);
        let max_replicas = max_replicas.max(min_replicas);
        let mut job = JobSpec::malleable(
            format!("swf{:07}", r.job_id),
            min_replicas,
            max_replicas,
            runtime_s * f64::from(procs),
            priority_of(&r),
        )
        .at(Duration::from_secs(r.submit_s))
        .with_walltime_estimate(Duration::from_secs(walltime_s));
        // Status 5 is SWF's cancellation code: the record stopped at
        // submit + wait + run (queue time plus whatever it ran — either
        // may be missing, reading as zero), which becomes the job's
        // `cancel_at` instant on the replay timeline.
        if r.status == 5 {
            let offset = r.wait_s.max(0.0) + r.run_s.max(0.0);
            job = job.cancelled_at(Duration::from_secs(r.submit_s + offset));
        }
        jobs.push(job);
    }
    Ok(WorkloadSpec::new(jobs))
}

/// Writes `records` as an SWF stream (a minimal header plus one line
/// per record).
pub fn write_swf<W: std::io::Write>(
    w: &mut W,
    records: impl IntoIterator<Item = SwfRecord>,
) -> std::io::Result<()> {
    writeln!(w, "; SWF written by hpc-workload")?;
    writeln!(w, "; Version: 2.2")?;
    for r in records {
        writeln!(w, "{}", r.to_line())?;
    }
    Ok(())
}

/// Renders a [`WorkloadSpec`] as SWF records — the export side of the
/// trace pipeline, so generated or annotated scenarios can be archived
/// and replayed by any SWF consumer.
///
/// The mapping inverts [`load_workload`]'s rigid annotation: each job's
/// processor count is its `max_replicas`, its run time is
/// `work / processors` (exact for the linear-speedup annotation), and
/// its walltime estimate becomes the requested time (field 9, `-1` when
/// the job has none). When *every* job name parses as `swf{N}` with
/// distinct `N`s (the loader's own naming), those ids are written back
/// so a load → write → load round trip preserves names; any other
/// naming uses 1-based positions throughout — mixing the two schemes
/// could collide ids and produce a stream the loader rejects.
/// Priorities 1–5 round-trip through the queue field.
///
/// Cancellations round-trip through SWF's status-5 code: a cancelled
/// job writes `status = 5` with `wait + run` encoding the cancellation
/// offset (`cancel_at - arrival`), exactly what the loader reads back.
/// A job cancelled before its full runtime writes the *partial* run
/// time — what a real archive would have recorded — so its `cancel_at`
/// is preserved exactly while the full intended work is unknowable from
/// the record (work reloads as `partial_run × procs`). A cancellation
/// before arrival is a no-op in every engine and is dropped.
pub fn workload_records(workload: &WorkloadSpec) -> Vec<SwfRecord> {
    let parsed_ids: Option<Vec<u64>> = workload
        .jobs
        .iter()
        .map(|job| {
            job.name
                .strip_prefix("swf")
                .and_then(|digits| digits.parse::<u64>().ok())
        })
        .collect();
    let parsed_ids = parsed_ids.filter(|ids| {
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.windows(2).all(|w| w[0] != w[1])
    });
    workload
        .jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let job_id = parsed_ids.as_ref().map_or(i as u64 + 1, |ids| ids[i]);
            let procs = i64::from(job.max_replicas());
            let full_run = job.work() / procs as f64;
            // Cancelled jobs encode their cancellation offset as
            // wait + run (see the function docs); everyone else writes
            // the full runtime with no wait.
            let (status, wait_s, run_s) = match job.cancel_at {
                Some(c) if c >= job.arrival => {
                    let offset = (c - job.arrival).as_secs();
                    if offset >= full_run {
                        (5, offset - full_run, full_run)
                    } else {
                        (5, 0.0, offset)
                    }
                }
                _ => (1, -1.0, full_run),
            };
            // A record whose run time came out zero (cancelled at
            // arrival) still needs a loadable runtime: fall back to the
            // requested-time field, exactly the pair the loader reads.
            let requested_s = match job.walltime_estimate {
                Some(d) => d.as_secs(),
                None if run_s <= 0.0 => full_run,
                None => -1.0,
            };
            SwfRecord {
                job_id,
                submit_s: job.arrival.as_secs(),
                wait_s,
                run_s,
                allocated_procs: procs,
                avg_cpu_s: -1.0,
                used_memory_kb: -1.0,
                requested_procs: procs,
                requested_s,
                requested_memory_kb: -1.0,
                status,
                user: -1,
                group: -1,
                executable: -1,
                queue: i64::from(job.priority),
                partition: -1,
                preceding_job: -1,
                think_s: -1.0,
            }
        })
        .collect()
}

/// Writes a [`WorkloadSpec`] as an SWF stream (see [`workload_records`]
/// for the field mapping). The inverse of [`load_workload`] for
/// rigid-annotated workloads: loading the written stream with
/// [`SwfLoadConfig::rigid`] at a sufficient cap reproduces the workload
/// (modulo the walltime fallback for jobs that carried no estimate).
pub fn write_workload<W: std::io::Write>(
    w: &mut W,
    workload: &WorkloadSpec,
) -> std::io::Result<()> {
    write_swf(w, workload_records(workload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(job_id: u64, submit: f64, run: f64, procs: i64) -> SwfRecord {
        SwfRecord {
            job_id,
            submit_s: submit,
            wait_s: -1.0,
            run_s: run,
            allocated_procs: procs,
            avg_cpu_s: -1.0,
            used_memory_kb: -1.0,
            requested_procs: procs,
            requested_s: -1.0,
            requested_memory_kb: -1.0,
            status: 1,
            user: -1,
            group: -1,
            executable: -1,
            queue: 1,
            partition: -1,
            preceding_job: -1,
            think_s: -1.0,
        }
    }

    #[test]
    fn parses_a_minimal_trace_with_headers_and_comments() {
        let text = "\
; Version: 2.2
; Computer: test cluster
; note: records follow

1 0 -1 100 4 -1 -1 4 120 -1 1 7 1 -1 1 -1 -1 -1
2 30 -1 200 8 -1 -1 8 240 -1 1 8 1 -1 2 -1 -1 -1
";
        let wl = load_workload(text.as_bytes(), &SwfLoadConfig::rigid(64)).unwrap();
        assert_eq!(wl.len(), 2);
        assert_eq!(&*wl.jobs[0].name, "swf0000001");
        assert_eq!(wl.jobs[0].arrival.as_secs(), 0.0);
        assert_eq!(wl.jobs[0].work(), 400.0); // 100 s × 4 procs
        assert_eq!(
            (wl.jobs[0].min_replicas(), wl.jobs[0].max_replicas()),
            (4, 4)
        );
        assert_eq!(wl.jobs[1].arrival.as_secs(), 30.0);
        assert_eq!(wl.jobs[1].priority, 2); // queue 2 → priority 2
                                            // Field 9 (requested time) is the walltime estimate.
        assert_eq!(wl.jobs[0].walltime_estimate.unwrap().as_secs(), 120.0);
        assert_eq!(wl.jobs[1].walltime_estimate.unwrap().as_secs(), 240.0);
        assert!(wl.validate().is_ok());
    }

    #[test]
    fn walltime_estimate_falls_back_to_actual_runtime() {
        // requested_s = -1: the estimate borrows the actual run time.
        let text = "1 0 -1 100 4 -1 -1 4 -1 -1 1 -1 -1 -1 1 -1 -1 -1\n";
        let wl = load_workload(text.as_bytes(), &SwfLoadConfig::rigid(64)).unwrap();
        assert_eq!(wl.jobs[0].walltime_estimate.unwrap().as_secs(), 100.0);
        // run_s = -1: runtime AND estimate both come from requested_s.
        let text = "1 0 -1 -1 4 -1 -1 4 300 -1 1 -1 -1 -1 1 -1 -1 -1\n";
        let wl = load_workload(text.as_bytes(), &SwfLoadConfig::rigid(64)).unwrap();
        assert_eq!(wl.jobs[0].work(), 300.0 * 4.0);
        assert_eq!(wl.jobs[0].walltime_estimate.unwrap().as_secs(), 300.0);
    }

    #[test]
    fn crlf_lines_parse_identically() {
        let unix = "1 0 -1 100 4 -1 -1 4 -1 -1 1 -1 -1 -1 1 -1 -1 -1\n";
        let dos = "1 0 -1 100 4 -1 -1 4 -1 -1 1 -1 -1 -1 1 -1 -1 -1\r\n";
        let a = load_workload(unix.as_bytes(), &SwfLoadConfig::rigid(64)).unwrap();
        let b = load_workload(dos.as_bytes(), &SwfLoadConfig::rigid(64)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn missing_fields_fall_back_between_pairs() {
        // requested_procs = -1 → allocated; run_s = -1 → requested_s.
        let text = "5 10 -1 -1 16 -1 -1 -1 300 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
        let wl = load_workload(text.as_bytes(), &SwfLoadConfig::rigid(64)).unwrap();
        assert_eq!(wl.jobs[0].work(), 300.0 * 16.0);
        assert_eq!(wl.jobs[0].max_replicas(), 16);
        assert_eq!(wl.jobs[0].priority, 1); // queue -1 → priority 1
    }

    #[test]
    fn truncated_trailing_fields_read_as_missing() {
        // Only the first 9 fields present — fields 10..18 default to -1.
        let text = "3 5 -1 60 2 -1 -1 2 90\n";
        let wl = load_workload(text.as_bytes(), &SwfLoadConfig::rigid(8)).unwrap();
        assert_eq!(wl.jobs[0].work(), 120.0);
    }

    #[test]
    fn zero_processor_record_is_a_typed_error() {
        let text = "1 0 -1 100 0 -1 -1 -1 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
        match load_workload(text.as_bytes(), &SwfLoadConfig::rigid(64)) {
            Err(SwfError::ZeroProcessors { line: 1, job_id: 1 }) => {}
            other => panic!("expected ZeroProcessors, got {other:?}"),
        }
    }

    #[test]
    fn missing_runtime_is_a_typed_error() {
        let text = "1 0 -1 -1 4 -1 -1 4 -1 -1 0 -1 -1 -1 -1 -1 -1 -1\n";
        match load_workload(text.as_bytes(), &SwfLoadConfig::rigid(64)) {
            Err(SwfError::MissingRuntime { line: 1, job_id: 1 }) => {}
            other => panic!("expected MissingRuntime, got {other:?}"),
        }
    }

    #[test]
    fn out_of_order_arrival_is_a_typed_error() {
        let text = "\
1 100 -1 10 1 -1 -1 1 -1 -1 1 -1 -1 -1 -1 -1 -1 -1
2 50 -1 10 1 -1 -1 1 -1 -1 1 -1 -1 -1 -1 -1 -1 -1
";
        match load_workload(text.as_bytes(), &SwfLoadConfig::rigid(64)) {
            Err(SwfError::OutOfOrderArrival { line: 2, .. }) => {}
            other => panic!("expected OutOfOrderArrival, got {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_name_the_field() {
        let few = "1 0 -1\n";
        match load_workload(few.as_bytes(), &SwfLoadConfig::rigid(64)) {
            Err(SwfError::Malformed { line: 1, reason }) => {
                assert!(reason.contains("missing field 4"), "{reason}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
        let junk = "1 zero -1 10 1 -1 -1 1 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
        match load_workload(junk.as_bytes(), &SwfLoadConfig::rigid(64)) {
            Err(SwfError::Malformed { line: 1, reason }) => {
                assert!(reason.contains("field 2"), "{reason}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
        let dup = "\
1 0 -1 10 1 -1 -1 1 -1 -1 1 -1 -1 -1 -1 -1 -1 -1
1 5 -1 10 1 -1 -1 1 -1 -1 1 -1 -1 -1 -1 -1 -1 -1
";
        match load_workload(dup.as_bytes(), &SwfLoadConfig::rigid(64)) {
            Err(SwfError::Malformed { line: 2, reason }) => {
                assert!(reason.contains("duplicate"), "{reason}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn elastic_annotation_and_caps_apply() {
        let text = "\
1 0 -1 100 8 -1 -1 8 -1 -1 1 -1 -1 -1 -1 -1 -1 -1
2 10 -1 100 128 -1 -1 128 -1 -1 1 -1 -1 -1 -1 -1 -1 -1
";
        let wl = load_workload(text.as_bytes(), &SwfLoadConfig::elastic(64).take(2)).unwrap();
        assert_eq!(
            (wl.jobs[0].min_replicas(), wl.jobs[0].max_replicas()),
            (4, 16)
        );
        // 128 procs clamp to the 63 schedulable slots (64-slot cluster
        // minus the reserved launcher) before annotation, so work uses
        // the clamped count.
        assert_eq!(wl.jobs[1].work(), 100.0 * 63.0);
        assert_eq!(
            (wl.jobs[1].min_replicas(), wl.jobs[1].max_replicas()),
            (32, 64)
        );
    }

    #[test]
    fn machine_wide_jobs_clamp_to_schedulable_capacity() {
        // A job requesting the whole 32-slot machine must not produce
        // min_replicas = 32: with one launcher slot reserved per job no
        // policy could ever start it (it would starve forever). The
        // rigid annotation clamps it to the 31 schedulable slots.
        let text = "1 0 0 300 32 -1 -1 32 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
        let wl = load_workload(text.as_bytes(), &SwfLoadConfig::rigid(32)).unwrap();
        assert_eq!(
            (wl.jobs[0].min_replicas(), wl.jobs[0].max_replicas()),
            (31, 31)
        );
        assert_eq!(wl.jobs[0].work(), 300.0 * 31.0);

        // Custom min factors above 1 get the same guard on the min
        // bound.
        let aggressive = SwfLoadConfig {
            malleability: MalleabilityModel {
                min_factor: 1.5,
                max_factor: 2.0,
                cap: 32,
            },
            reserved_slots: 1,
            max_jobs: None,
        };
        let text = "1 0 0 300 24 -1 -1 24 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
        let wl = load_workload(text.as_bytes(), &aggressive).unwrap();
        assert!(wl.jobs[0].min_replicas() <= 31);
        assert!(wl.jobs[0].min_replicas() <= wl.jobs[0].max_replicas());
    }

    #[test]
    fn take_caps_the_stream() {
        let text = "\
1 0 -1 10 1 -1 -1 1 -1 -1 1 -1 -1 -1 -1 -1 -1 -1
2 1 -1 10 1 -1 -1 1 -1 -1 1 -1 -1 -1 -1 -1 -1 -1
3 2 -1 10 1 -1 -1 1 -1 -1 1 -1 -1 -1 -1 -1 -1 -1
";
        let wl = load_workload(text.as_bytes(), &SwfLoadConfig::rigid(4).take(2)).unwrap();
        assert_eq!(wl.len(), 2);
    }

    #[test]
    fn serialize_then_parse_is_identity() {
        let original = vec![rec(1, 0.0, 100.0, 4), rec(2, 30.5, 200.0, 8)];
        let mut buf = Vec::new();
        write_swf(&mut buf, original.clone()).unwrap();
        let parsed: Vec<SwfRecord> = records(buf.as_slice())
            .map(|r| r.map(|(_, rec)| rec))
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn workload_writer_round_trips_through_the_loader() {
        let original = WorkloadSpec::new(vec![
            JobSpec::malleable("swf0000003", 4, 4, 400.0, 2)
                .at(Duration::from_secs(0.0))
                .with_walltime_estimate(Duration::from_secs(150.0)),
            JobSpec::malleable("swf0000007", 8, 8, 1600.0, 5).at(Duration::from_secs(60.0)),
        ]);
        let mut buf = Vec::new();
        write_workload(&mut buf, &original).unwrap();
        let loaded = load_workload(buf.as_slice(), &SwfLoadConfig::rigid(64)).unwrap();
        assert_eq!(&*loaded.jobs[0].name, "swf0000003");
        assert_eq!(loaded.jobs[0].work(), 400.0);
        assert_eq!(loaded.jobs[0].priority, 2);
        assert_eq!(
            loaded.jobs[0].walltime_estimate.unwrap().as_secs(),
            150.0,
            "explicit estimate survives via field 9"
        );
        // The estimate-less job wrote -1 into field 9; the loader's
        // fallback fills it with the actual runtime (400 s at 8 procs
        // on 1600 core-seconds = 200 s).
        assert_eq!(loaded.jobs[1].walltime_estimate.unwrap().as_secs(), 200.0);
        assert!(loaded.validate().is_ok());
    }

    #[test]
    fn workload_writer_never_emits_colliding_ids_for_mixed_names() {
        // "custom" would fall back to position 1 while "swf1" parses to
        // id 1 — the writer must notice the mixed naming and use
        // positions throughout, so its own output stays loadable.
        let mixed = WorkloadSpec::new(vec![
            JobSpec::malleable("custom", 2, 2, 100.0, 1),
            JobSpec::malleable("swf0000001", 2, 2, 100.0, 1).at(Duration::from_secs(5.0)),
        ]);
        let recs = workload_records(&mixed);
        assert_eq!(
            recs.iter().map(|r| r.job_id).collect::<Vec<_>>(),
            vec![1, 2]
        );
        let mut buf = Vec::new();
        write_workload(&mut buf, &mixed).unwrap();
        let loaded = load_workload(buf.as_slice(), &SwfLoadConfig::rigid(8)).unwrap();
        assert_eq!(loaded.len(), 2);
        // Same guard for duplicate parsed ids under different padding.
        let dup = WorkloadSpec::new(vec![
            JobSpec::malleable("swf1", 2, 2, 100.0, 1),
            JobSpec::malleable("swf01", 2, 2, 100.0, 1).at(Duration::from_secs(5.0)),
        ]);
        let recs = workload_records(&dup);
        assert_eq!(
            recs.iter().map(|r| r.job_id).collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    #[test]
    fn status_5_records_load_with_a_cancellation() {
        // wait 30 + run 50: cancelled at submit(100) + 80 = 180.
        let text = "1 100 30 50 4 -1 -1 4 -1 -1 5 -1 -1 -1 1 -1 -1 -1\n";
        let wl = load_workload(text.as_bytes(), &SwfLoadConfig::rigid(64)).unwrap();
        assert_eq!(wl.jobs[0].cancel_at.unwrap().as_secs(), 180.0);
        // Missing wait reads as zero: cancelled at submit + run.
        let text = "1 100 -1 50 4 -1 -1 4 -1 -1 5 -1 -1 -1 1 -1 -1 -1\n";
        let wl = load_workload(text.as_bytes(), &SwfLoadConfig::rigid(64)).unwrap();
        assert_eq!(wl.jobs[0].cancel_at.unwrap().as_secs(), 150.0);
        // Completed records stay cancellation-free.
        let text = "1 100 30 50 4 -1 -1 4 -1 -1 1 -1 -1 -1 1 -1 -1 -1\n";
        let wl = load_workload(text.as_bytes(), &SwfLoadConfig::rigid(64)).unwrap();
        assert!(wl.jobs[0].cancel_at.is_none());
    }

    #[test]
    fn cancelled_jobs_round_trip_through_the_writer() {
        // Cancel after the full runtime: everything round-trips.
        let after = WorkloadSpec::new(vec![JobSpec::malleable("swf0000001", 4, 4, 400.0, 2)
            .at(Duration::from_secs(10.0))
            .cancelled_at(Duration::from_secs(500.0))]);
        let mut buf = Vec::new();
        write_workload(&mut buf, &after).unwrap();
        let loaded = load_workload(buf.as_slice(), &SwfLoadConfig::rigid(64)).unwrap();
        assert_eq!(loaded.jobs[0].cancel_at.unwrap().as_secs(), 500.0);
        assert_eq!(loaded.jobs[0].work(), 400.0);

        // Mid-run cancel: cancel_at exact, work clamps to the partial
        // runtime the archive record captures.
        let mid = WorkloadSpec::new(vec![JobSpec::malleable("swf0000001", 4, 4, 400.0, 2)
            .at(Duration::from_secs(10.0))
            .cancelled_at(Duration::from_secs(40.0))]);
        let mut buf = Vec::new();
        write_workload(&mut buf, &mid).unwrap();
        let loaded = load_workload(buf.as_slice(), &SwfLoadConfig::rigid(64)).unwrap();
        assert_eq!(loaded.jobs[0].cancel_at.unwrap().as_secs(), 40.0);
        assert_eq!(loaded.jobs[0].work(), 30.0 * 4.0);

        // Cancel at arrival (estimate-less): runtime falls back through
        // the requested-time field, so the record stays loadable and
        // work survives exactly.
        let at_arrival = WorkloadSpec::new(vec![JobSpec::malleable("swf0000001", 4, 4, 400.0, 2)
            .at(Duration::from_secs(10.0))
            .cancelled_at(Duration::from_secs(10.0))]);
        let mut buf = Vec::new();
        write_workload(&mut buf, &at_arrival).unwrap();
        let loaded = load_workload(buf.as_slice(), &SwfLoadConfig::rigid(64)).unwrap();
        assert_eq!(loaded.jobs[0].cancel_at.unwrap().as_secs(), 10.0);
        assert_eq!(loaded.jobs[0].work(), 400.0);

        // Cancel before arrival is a no-op and is dropped.
        let noop = WorkloadSpec::new(vec![JobSpec::malleable("swf0000001", 4, 4, 400.0, 2)
            .at(Duration::from_secs(10.0))
            .cancelled_at(Duration::from_secs(5.0))]);
        let mut buf = Vec::new();
        write_workload(&mut buf, &noop).unwrap();
        let loaded = load_workload(buf.as_slice(), &SwfLoadConfig::rigid(64)).unwrap();
        assert!(loaded.jobs[0].cancel_at.is_none());
    }

    proptest::proptest! {
        /// parse(serialize(parse(serialize(r)))) == parse(serialize(r)):
        /// the textual form is a fixed point after one round trip, for
        /// arbitrary integral-and-fractional field values.
        #[test]
        fn round_trip_is_stable(
            job_id in 0u64..1_000_000,
            submit in 0u64..10_000_000,
            run in 1u64..1_000_000,
            procs in 1i64..100_000,
            queue in -1i64..64,
            frac in 0u64..4,
        ) {
            let r = SwfRecord {
                // Mix integral and fractional times (quarters survive
                // f64 round-tripping exactly).
                submit_s: submit as f64 + frac as f64 * 0.25,
                run_s: run as f64,
                queue,
                ..rec(job_id, 0.0, 0.0, procs)
            };
            let mut buf = Vec::new();
            write_swf(&mut buf, [r]).unwrap();
            let (_, once) = records(buf.as_slice()).next().unwrap().unwrap();
            proptest::prop_assert_eq!(once, r);
            let mut buf2 = Vec::new();
            write_swf(&mut buf2, [once]).unwrap();
            let (_, twice) = records(buf2.as_slice()).next().unwrap().unwrap();
            proptest::prop_assert_eq!(twice, once);
        }

        /// Record-level round trip for the walltime pair specifically:
        /// the requested-time field survives serialization whether it is
        /// a real estimate or the `-1` missing sentinel, and the loaded
        /// workload's estimate follows the requested→actual fallback.
        #[test]
        fn walltime_fields_and_sentinels_round_trip(
            run in 1u64..100_000,
            procs in 1i64..64,
            has_estimate in proptest::any::<bool>(),
            estimate in 1u64..200_000,
        ) {
            let requested_s = if has_estimate { estimate as f64 } else { -1.0 };
            let r = SwfRecord { requested_s, ..rec(1, 0.0, run as f64, procs) };
            let mut buf = Vec::new();
            write_swf(&mut buf, [r]).unwrap();
            let (_, parsed) = records(buf.as_slice()).next().unwrap().unwrap();
            proptest::prop_assert_eq!(parsed, r);
            let wl = load_workload(buf.as_slice(), &SwfLoadConfig::rigid(64)).unwrap();
            let expect = if has_estimate { estimate as f64 } else { run as f64 };
            proptest::prop_assert_eq!(
                wl.jobs[0].walltime_estimate.unwrap().as_secs(),
                expect
            );
        }

        /// Status-5 round trip: for any cancellation offset ≥ 0 the
        /// loaded `cancel_at` is exactly the written one, and work
        /// survives exactly whenever the cancellation falls at or after
        /// the job's full runtime (the only lossless regime an archive
        /// record allows — earlier cancels record the partial run).
        #[test]
        fn cancel_at_round_trips_through_status_5(
            submit in 0u64..1_000_000,
            run in 1u64..10_000,
            procs in 1i64..32,
            offset in 0u64..50_000,
        ) {
            let work = run as f64 * procs as f64;
            let cancel = (submit + offset) as f64;
            let original = WorkloadSpec::new(vec![JobSpec::malleable(
                "swf0000001",
                procs as u32,
                procs as u32,
                work,
                1,
            )
            .at(Duration::from_secs(submit as f64))
            .cancelled_at(Duration::from_secs(cancel))]);
            let recs = workload_records(&original);
            proptest::prop_assert_eq!(recs[0].status, 5);
            let mut buf = Vec::new();
            write_workload(&mut buf, &original).unwrap();
            let loaded = load_workload(buf.as_slice(), &SwfLoadConfig::rigid(64)).unwrap();
            proptest::prop_assert_eq!(
                loaded.jobs[0].cancel_at.unwrap().as_secs(),
                cancel
            );
            if offset >= run {
                proptest::prop_assert!((loaded.jobs[0].work() - work).abs() < 1e-9);
            }
            proptest::prop_assert!(loaded.validate().is_ok());
        }

        /// Workload-level round trip: write → load under a rigid config
        /// reproduces every field of a rigid workload exactly (the only
        /// non-identity is the documented walltime fallback for jobs
        /// written without an estimate).
        #[test]
        fn workload_write_then_load_is_identity_for_rigid_workloads(
            n in 1usize..12,
            seed in proptest::any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut at = 0u64;
            let jobs: Vec<JobSpec> = (0..n).map(|i| {
                at += rng.gen_range(0..600);
                let procs = rng.gen_range(1..=31u32);
                let runtime = rng.gen_range(1..=10_000u64) as f64;
                let mut j = JobSpec::malleable(
                    format!("swf{:07}", i + 1),
                    procs,
                    procs,
                    runtime * f64::from(procs),
                    rng.gen_range(1..=5),
                )
                .at(Duration::from_secs(at as f64));
                if rng.gen_bool(0.7) {
                    j = j.with_walltime_estimate(
                        Duration::from_secs(rng.gen_range(1..=20_000u64) as f64),
                    );
                }
                j
            }).collect();
            let original = WorkloadSpec::new(jobs);
            let mut buf = Vec::new();
            write_workload(&mut buf, &original).unwrap();
            let loaded = load_workload(buf.as_slice(), &SwfLoadConfig::rigid(32)).unwrap();
            proptest::prop_assert_eq!(loaded.len(), original.len());
            for (a, b) in original.jobs.iter().zip(&loaded.jobs) {
                proptest::prop_assert_eq!(&a.name, &b.name);
                proptest::prop_assert_eq!(a.arrival, b.arrival);
                proptest::prop_assert_eq!(a.priority, b.priority);
                proptest::prop_assert_eq!(a.min_replicas(), b.min_replicas());
                proptest::prop_assert_eq!(a.max_replicas(), b.max_replicas());
                proptest::prop_assert!((a.work() - b.work()).abs() < 1e-6);
                match a.walltime_estimate {
                    Some(est) => proptest::prop_assert_eq!(Some(est), b.walltime_estimate),
                    // -1 sentinel: the loader fills the estimate from
                    // the actual runtime.
                    None => proptest::prop_assert_eq!(
                        b.walltime_estimate.unwrap().as_secs(),
                        a.work() / f64::from(a.max_replicas())
                    ),
                }
            }
        }
    }
}
