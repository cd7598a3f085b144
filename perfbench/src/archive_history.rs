//! `archive_history`: an office crowd stream feeds a retention-bounded
//! sharded server whose compaction spills to archive segments on a
//! fault-free simulated disk. The round checkpoints on the way, crashes the
//! disk at the end, recovers with `restore_with_archives` plus journal
//! replay, and reads history below and above the retention floor.
//!
//! The archive's write, recovery and read paths do the work; writes run
//! beside reads (views and population estimates during the stream).

use crate::lecture_surge::beacon_minor;
use crate::oracle::{self, History};
use crate::trace::{batch, span, span_counted, timed};
use crate::{drive, n, Options, Outcome, Size, Tally, Workload};
use roomsense::crowd::{self, CrowdPreset, CrowdScenario};
use roomsense_net::{
    ArchiveConfig, CountingConfig, ObservationReport, OccupancyEstimator, ShardedBmsServer,
};
use roomsense_sim::{SharedDisk, SimDisk, SimDuration, SimTime};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Sizes {
    subjects: usize,
    shards: usize,
    retention_s: u64,
    segment_records: u32,
    chunk_s: u64,
    query_every_chunks: u64,
    checkpoint_every_s: u64,
    view_batch: u64,
    population_batch: u64,
    history_probes: u64,
    recent_batch: u64,
    windows: u64,
}

const FULL: Sizes = Sizes {
    subjects: 1_500,
    shards: 8,
    retention_s: 300,
    segment_records: 32,
    chunk_s: 30,
    query_every_chunks: 1,
    checkpoint_every_s: 600,
    view_batch: 10,
    population_batch: 4,
    history_probes: 40,
    recent_batch: 1,
    windows: 16,
};

const SMOKE: Sizes = Sizes {
    subjects: 60,
    shards: 2,
    retention_s: 300,
    segment_records: 8,
    chunk_s: 60,
    query_every_chunks: 10,
    checkpoint_every_s: 600,
    view_batch: 1,
    population_batch: 1,
    history_probes: 4,
    recent_batch: 1,
    windows: 4,
};

const VIEW_TTL: SimDuration = SimDuration::from_secs(300);
/// Reports per bulk call when replaying the journal after a restore.
const REPLAY_CHUNK: usize = 4_096;
/// Length of each `reports_between` window.
const WINDOW_MS: u64 = 120_000;

/// Runs the workload.
pub(crate) fn run(options: &Options) -> Outcome {
    let sizes = match options.size {
        Size::Full => FULL,
        Size::Smoke => SMOKE,
    };
    drive(
        &ArchiveHistory {
            sizes,
            seed: options.seed,
        },
        options,
    )
}

struct ArchiveHistory {
    sizes: Sizes,
    seed: u64,
}

struct Setup {
    scenario: CrowdScenario,
    reports: Vec<ObservationReport>,
    /// Stream index where each ingest chunk ends.
    chunk_ends: Vec<usize>,
    estimator: Arc<dyn OccupancyEstimator>,
    config: ArchiveConfig,
    counting: CountingConfig,
}

impl ArchiveHistory {
    fn fleet(&self, setup: &Setup, disk: &SharedDisk) -> ShardedBmsServer {
        ShardedBmsServer::new(Arc::clone(&setup.estimator), self.sizes.shards)
            .with_retention(SimDuration::from_secs(self.sizes.retention_s))
            .with_archives(disk.clone(), setup.config.clone())
    }
}

impl Workload for ArchiveHistory {
    type Setup = Setup;
    type Model = History;
    const SETUP_REPEATS: usize = 15;

    fn setup(&self, _tally: &mut Tally) -> Setup {
        let scenario = CrowdPreset::OpenPlanOffice.scenario_with(self.seed, self.sizes.subjects);
        let reports = crowd::replay_reports(&scenario, self.seed);
        let chunk_ms = self.sizes.chunk_s * 1_000;
        let chunks = scenario.duration.as_millis().div_ceil(chunk_ms);
        let chunk_ends = (1..=chunks)
            .map(|k| reports.partition_point(|r| r.at.as_millis() < k * chunk_ms))
            .collect();
        let counting = CountingConfig::default().with_carry_rate(scenario.carry_rate);
        Setup {
            scenario,
            reports,
            chunk_ends,
            estimator: Arc::new(beacon_minor),
            config: ArchiveConfig {
                segment_records: self.sizes.segment_records,
                ..ArchiveConfig::default()
            },
            counting,
        }
    }

    fn model(&self, setup: &Setup) -> History {
        History::new(
            setup
                .reports
                .iter()
                .filter_map(|r| beacon_minor(r).map(|room| (r.device.value(), r.at, r.seq, room))),
        )
    }

    fn round(&self, setup: &Setup, history: &History, tally: &mut Tally) {
        let sizes = self.sizes;
        let disk = SharedDisk::new(SimDisk::pristine(self.seed));
        let fleet = self.fleet(setup, &disk);
        let chunk_ms = sizes.chunk_s * 1_000;
        let checkpoint_every_ms = sizes.checkpoint_every_s * 1_000;
        let duration_ms = setup.scenario.duration.as_millis();
        let mut next_checkpoint_ms = checkpoint_every_ms;
        let mut recovery_point = None;
        let mut ingest_s = 0.0;
        let mut start = 0usize;
        let forward = Instant::now();
        for (k, &end) in setup.chunk_ends.iter().enumerate() {
            let chunk = setup.reports[start..end].to_vec();
            let (secs, _) = timed(|| {
                span_counted(
                    "net.ingest_all",
                    || fleet.ingest_all(chunk),
                    |&(a, d)| a + d,
                )
            });
            ingest_s += secs;
            tally.attempted += (end - start) as u64;
            start = end;
            let now_ms = (k as u64 + 1) * chunk_ms;
            let now = SimTime::from_millis(now_ms - 1);
            if (k as u64 + 1).is_multiple_of(sizes.query_every_chunks) {
                tally.view_us.push(
                    1e6 * batch("net.view", sizes.view_batch, || {
                        fleet.occupancy_view(now, VIEW_TTL)
                    }),
                );
                tally.population_us.push(
                    1e6 * batch("net.population", sizes.population_batch, || {
                        fleet.population_view(now, &setup.counting)
                    }),
                );
                tally.attempted += sizes.view_batch + sizes.population_batch;
            }
            if now_ms >= next_checkpoint_ms && now_ms < duration_ms {
                next_checkpoint_ms += checkpoint_every_ms;
                let (secs, checkpoint) = timed(|| span("net.checkpoint", 1, || fleet.checkpoint()));
                tally.checkpoint_ms.push(secs * 1e3);
                span("net.digest", 1, || fleet.state_digest());
                tally.attempted += 2;
                tally.count("net.state_reports", n(checkpoint.report_count()));
                if now_ms * 4 >= duration_ms * 3 && recovery_point.is_none() {
                    recovery_point = Some((checkpoint, end));
                }
            }
        }
        let forward_s = forward.elapsed().as_secs_f64();
        let carriers = crowd::carriers(&setup.scenario, self.seed)
            .iter()
            .filter(|&&c| c)
            .count();
        tally
            .sim_device_s_per_s
            .push(n(carriers) * setup.scenario.duration.as_secs_f64() / forward_s);
        tally
            .ingest_reports_per_s
            .push(n(setup.reports.len()) / ingest_s);
        let archive = fleet.archive_stats().expect("archives attached");
        let written = disk.stats();
        tally.count("net.archive_records", archive.records as f64);
        tally.count("net.segments_sealed", archive.segments_sealed as f64);
        tally.count("sim.disk_bytes_written", written.bytes_written as f64);
        tally.count("sim.disk_fsyncs", written.fsyncs as f64);
        let floor = fleet.retention_floor();
        tally.check(floor.is_some() && archive.records > 0, || {
            "archive_history: retention never compacted into the archive".to_string()
        });
        let expected_digest = fleet.state_digest();

        // Crash at the end of the stream, recover from the last checkpoint at
        // or after three quarters of it, and replay the journal since.
        drop(fleet);
        let crash_at = setup.reports.last().map_or(SimTime::ZERO, |r| r.at);
        disk.crash(crash_at);
        let (checkpoint, replay_from) = recovery_point.expect("a checkpoint late in the stream");
        let in_checkpoint = checkpoint.report_count();
        let tail = &setup.reports[replay_from..];
        let estimator = Arc::clone(&setup.estimator);
        let (recover_s, restored) = timed(|| {
            let restored = span("net.restore", 1, || {
                ShardedBmsServer::restore_with_archives(
                    estimator,
                    checkpoint,
                    disk.clone(),
                    setup.config.clone(),
                )
            });
            if let Ok((server, _, _)) = &restored {
                span("net.replay", tail.len() as u64, || {
                    for chunk in tail.chunks(REPLAY_CHUNK) {
                        server.ingest_all(chunk.to_vec());
                    }
                });
            }
            restored
        });
        tally.attempted += 1 + tail.len() as u64;
        let restored = match restored {
            Ok((server, recovery, coverage)) => {
                tally.recover_reports_per_s.push(
                    (in_checkpoint as f64 + recovery.records as f64 + tail.len() as f64)
                        / recover_s,
                );
                tally.count("net.segments_scanned", n(recovery.segments));
                tally.count("net.records_recovered", recovery.records as f64);
                tally.check(coverage.covered && recovery.clean(), || {
                    format!("archive_history: recovery not covered: {coverage:?} {recovery:?}")
                });
                tally.check(server.state_digest() == expected_digest, || {
                    "archive_history: recovered state differs from the uncrashed one".to_string()
                });
                server
            }
            Err(e) => {
                tally.failed += 1;
                tally.check(false, || format!("archive_history: restore failed: {e}"));
                return;
            }
        };

        // History below the retention floor, and the control above it.
        let floor_ms = floor.map_or(0, SimTime::as_millis);
        for k in 0..sizes.history_probes {
            let at = SimTime::from_millis(duration_ms / 2 * k / sizes.history_probes + 1_000);
            let (secs, answer) =
                timed(|| span("net.history", 1, || restored.occupancy_at_checked(at)));
            tally.history_us.push(secs * 1e6);
            tally.check(
                at.as_millis() < floor_ms && answer.complete && answer.value == history.at(at),
                || format!("archive_history: occupancy at {at} below the floor is wrong"),
            );
            tally.attempted += 1;
            // The control reads as slowly as the history (see the README),
            // so a quarter as many probes keep it measured at a quarter of
            // the cost.
            if k % 4 == 0 {
                let recent = SimTime::from_millis(duration_ms - 250_000 * k / sizes.history_probes);
                batch("net.recent", sizes.recent_batch, || {
                    restored.occupancy_at_checked(recent)
                });
                tally.attempted += sizes.recent_batch;
            }
        }
        // Time-range reads over the retained tier. The sharded fleet has no
        // archive-merging range query, so the windows stay above the floor.
        let live_floor_ms = restored.retention_floor().map_or(0, SimTime::as_millis);
        let end_ms = crash_at.as_millis() + 1;
        let span_ms = end_ms.saturating_sub(live_floor_ms + WINDOW_MS);
        for w in 0..sizes.windows {
            let from = SimTime::from_millis(live_floor_ms + span_ms * w / (sizes.windows - 1));
            let to = SimTime::from_millis(from.as_millis() + WINDOW_MS);
            let rows = restored.reports_between(from, to);
            tally.check(
                rows == oracle::reports_between(&setup.reports, from, to),
                || format!("archive_history: reports between {from} and {to} are wrong"),
            );
            tally.attempted += 1;
        }
    }
}
