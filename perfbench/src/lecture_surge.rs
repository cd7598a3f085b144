//! `lecture_surge`: the lecture-hall crowd preset scaled to thousands of
//! subjects, replayed open-loop into an ingest tier over a sharded BMS.
//!
//! Reports fall due at their own timestamps whatever the tier's state. A
//! phone whose offer is refused with backpressure holds the report, and any
//! later ones, and retries with exponential backoff. Views and population
//! estimates are queried through the surge, and the sharded state is
//! checkpointed at regular simulated intervals. Admission, mailboxes, shard
//! ingest, counting and the state digest do the work; radio and the SVM do
//! none.

use crate::oracle::History;
use crate::trace::{batch, span, span_counted, timed};
use crate::{drive, n, Options, Outcome, Size, Tally, Workload};
use roomsense::crowd::{self, CrowdPreset, CrowdScenario};
use roomsense_net::{
    Admission, CountingConfig, DeviceId, IngestTier, IngestTierConfig, ObservationReport,
    OccupancyEstimator, RoomLabel, ServiceLevel, ShardedBmsServer,
};
use roomsense_sim::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

#[derive(Debug, Clone, Copy)]
struct Sizes {
    subjects: usize,
    shards: usize,
    tier: IngestTierConfig,
    tick_ms: u64,
    query_every_ticks: u64,
    checkpoint_every_s: u64,
    view_batch: u64,
    population_batch: u64,
    history_batch: u64,
    history_probes: u64,
}

const FULL: Sizes = Sizes {
    subjects: 2_500,
    shards: 8,
    tier: IngestTierConfig {
        mailbox_capacity: 64,
        service_rate: 8,
        admit_high: 48,
        admit_low: 16,
    },
    tick_ms: 2_000,
    query_every_ticks: 15,
    checkpoint_every_s: 600,
    view_batch: 10,
    population_batch: 2,
    history_batch: 1,
    history_probes: 60,
};

const SMOKE: Sizes = Sizes {
    subjects: 120,
    shards: 2,
    tier: IngestTierConfig {
        mailbox_capacity: 16,
        service_rate: 2,
        admit_high: 12,
        admit_low: 4,
    },
    tick_ms: 2_000,
    query_every_ticks: 60,
    checkpoint_every_s: 600,
    view_batch: 1,
    population_batch: 1,
    history_batch: 1,
    history_probes: 4,
};

/// Longest backoff, in ticks, a phone waits between retries.
const BACKOFF_CAP_TICKS: u64 = 16;
/// Freshness TTL for occupancy views.
const VIEW_TTL: SimDuration = SimDuration::from_secs(300);
/// Reports per bulk call when replaying the journal after a restore.
const REPLAY_CHUNK: usize = 4_096;

/// Runs the workload.
pub(crate) fn run(options: &Options) -> Outcome {
    let sizes = match options.size {
        Size::Full => FULL,
        Size::Smoke => SMOKE,
    };
    drive(
        &LectureSurge {
            sizes,
            seed: options.seed,
        },
        options,
    )
}

struct LectureSurge {
    sizes: Sizes,
    seed: u64,
}

struct Setup {
    scenario: CrowdScenario,
    reports: Vec<ObservationReport>,
    estimator: Arc<dyn OccupancyEstimator>,
    counting: CountingConfig,
}

/// The expected answers, from the generated stream and the trace alone.
struct Model {
    /// Occupants per room after the whole stream: each device in the room
    /// of its latest report.
    final_rooms: BTreeMap<RoomLabel, usize>,
    history: History,
    /// Instants the population estimate is scored at, with the trace's
    /// true per-room headcounts there.
    probes: Vec<(SimTime, Vec<usize>)>,
    /// The declared overload MAE bound, scaled from the preset's canonical
    /// crowd to this one.
    mae_bound: f64,
    devices: usize,
}

/// The benchmark's estimator: the room is the first sighted beacon's minor.
pub(crate) fn beacon_minor(report: &ObservationReport) -> Option<RoomLabel> {
    report
        .beacons
        .first()
        .map(|b| usize::from(b.identity.minor.value()))
}

/// One phone's client side: reports it holds after a refusal, and when it
/// may retry.
#[derive(Debug, Default)]
struct Phone {
    held: VecDeque<ObservationReport>,
    next_attempt: u64,
    backoff: u64,
}

impl Workload for LectureSurge {
    type Setup = Setup;
    type Model = Model;
    const SETUP_REPEATS: usize = 15;

    fn setup(&self, _tally: &mut Tally) -> Setup {
        let scenario = CrowdPreset::LectureHallSurge.scenario_with(self.seed, self.sizes.subjects);
        let reports = crowd::replay_reports(&scenario, self.seed);
        let counting = CountingConfig::default().with_carry_rate(scenario.carry_rate);
        Setup {
            scenario,
            reports,
            estimator: Arc::new(beacon_minor),
            counting,
        }
    }

    fn model(&self, setup: &Setup) -> Model {
        let history = History::new(
            setup
                .reports
                .iter()
                .filter_map(|r| beacon_minor(r).map(|room| (r.device.value(), r.at, r.seq, room))),
        );
        let duration_ms = setup.scenario.duration.as_millis();
        let final_rooms = history.at(SimTime::from_millis(duration_ms));
        let period_ms = setup.scenario.report_period.as_millis();
        // Half a report period before each eighth of the run, on a tick: a
        // census exactly at a trace boundary would ask the windowed estimate
        // for knowledge no report has delivered yet.
        let probes = (1..=8u64)
            .map(|k| {
                let raw = duration_ms * k / 8 - period_ms / 2;
                let at = SimTime::from_millis(raw - raw % self.sizes.tick_ms);
                (at, setup.scenario.trace.occupancy(at))
            })
            .collect();
        let canonical = CrowdPreset::LectureHallSurge.default_subjects() as f64;
        Model {
            final_rooms,
            history,
            probes,
            mae_bound: setup.scenario.mae_bounds.overload * setup.scenario.subjects() as f64
                / canonical,
            devices: setup.scenario.subjects(),
        }
    }

    fn round(&self, setup: &Setup, model: &Model, tally: &mut Tally) {
        let sizes = self.sizes;
        let fleet = ShardedBmsServer::new(Arc::clone(&setup.estimator), sizes.shards);
        let mut tier = IngestTier::new(fleet, sizes.tier);
        let mut phones: Vec<Phone> = (0..model.devices).map(|_| Phone::default()).collect();
        let mut waiting: BTreeSet<usize> = BTreeSet::new();
        // Admitted reports per shard, in admission order: the delivery journal.
        let shard_of: Vec<usize> = (0..model.devices)
            .map(|d| tier.fleet().shard_of(DeviceId::new(d as u32)))
            .collect();
        let mut journal: Vec<Vec<ObservationReport>> = vec![Vec::new(); sizes.shards];
        let mut next_due = 0usize;
        let mut attempts = 0u64;
        let mut refused = 0u64;
        let mut ingest_s = 0.0;
        let mut maes = Vec::new();
        let mut probes = model.probes.iter().peekable();
        let checkpoint_every_ms = sizes.checkpoint_every_s * 1_000;
        let mut next_checkpoint_ms = checkpoint_every_ms;
        let mut recovery_point = None;
        let mut tick = 0u64;
        loop {
            let now = SimTime::from_millis(tick * sizes.tick_ms);
            // Offers: retries that are due, then the reports falling due now.
            let upto = next_due + setup.reports[next_due..].partition_point(|r| r.at <= now);
            let (offer_s, offered) = timed(|| {
                span_counted(
                    "net.offer",
                    || {
                        let mut offered = 0u64;
                        let retry: Vec<usize> = waiting
                            .iter()
                            .copied()
                            .filter(|&d| phones[d].next_attempt <= tick)
                            .collect();
                        for device in retry {
                            let phone = &mut phones[device];
                            while let Some(report) = phone.held.front() {
                                offered += 1;
                                match tier.offer(now, report.clone()) {
                                    Admission::Admitted => {
                                        journal[shard_of[device]]
                                            .push(phone.held.pop_front().expect("front"));
                                        phone.backoff = 1;
                                    }
                                    Admission::Backpressured => {
                                        refused += 1;
                                        phone.next_attempt = tick + phone.backoff;
                                        phone.backoff = (phone.backoff * 2).min(BACKOFF_CAP_TICKS);
                                        break;
                                    }
                                }
                            }
                            if phone.held.is_empty() {
                                waiting.remove(&device);
                            }
                        }
                        for report in &setup.reports[next_due..upto] {
                            let device = report.device.value() as usize;
                            let phone = &mut phones[device];
                            if !phone.held.is_empty() {
                                phone.held.push_back(report.clone());
                                continue;
                            }
                            offered += 1;
                            match tier.offer(now, report.clone()) {
                                Admission::Admitted => {
                                    journal[shard_of[device]].push(report.clone())
                                }
                                Admission::Backpressured => {
                                    refused += 1;
                                    phone.held.push_back(report.clone());
                                    phone.backoff = 2;
                                    phone.next_attempt = tick + 1;
                                    waiting.insert(device);
                                }
                            }
                        }
                        offered
                    },
                    |&offered| offered,
                )
            });
            next_due = upto;
            attempts += offered;
            let (pump_s, _) = timed(|| span_counted("net.pump", || tier.pump(), |&(a, d)| a + d));
            ingest_s += offer_s + pump_s;

            if tick.is_multiple_of(sizes.query_every_ticks) {
                tally.view_us.push(
                    1e6 * batch("net.view", sizes.view_batch, || {
                        tier.occupancy_view(now, VIEW_TTL)
                    }),
                );
                tally.population_us.push(
                    1e6 * batch("net.population", sizes.population_batch, || {
                        tier.population_view(now, &setup.counting)
                    }),
                );
                tally.attempted += sizes.view_batch + sizes.population_batch;
            }
            if probes.peek().is_some_and(|(at, _)| *at == now) {
                let (_, truth) = probes.next().expect("peeked");
                let view = tier.population_view(now, &setup.counting).view.value;
                let error: f64 = truth
                    .iter()
                    .enumerate()
                    .map(|(room, &t)| {
                        (view.rooms.get(&room).map_or(0.0, |e| e.count) - t as f64).abs()
                    })
                    .sum();
                maes.push(error / truth.len().max(1) as f64);
            }
            if now.as_millis() >= next_checkpoint_ms {
                next_checkpoint_ms += checkpoint_every_ms;
                let (secs, checkpoint) =
                    timed(|| span("net.checkpoint", 1, || tier.fleet().checkpoint()));
                tally.checkpoint_ms.push(secs * 1e3);
                span("net.digest", 1, || tier.state_digest());
                tally.attempted += 2;
                tally.count("net.state_reports", n(checkpoint.report_count()));
                if recovery_point.is_none()
                    && now.as_millis() * 2 >= setup.scenario.duration.as_millis()
                {
                    // Replay must cover what each mailbox still held, which
                    // the checkpoint does not: that shard's latest admissions.
                    let cuts: Vec<usize> = journal
                        .iter()
                        .enumerate()
                        .map(|(shard, admitted)| admitted.len() - tier.shard_backlog(shard))
                        .collect();
                    recovery_point = Some((checkpoint, cuts));
                }
            }
            tick += 1;
            if next_due == setup.reports.len() && waiting.is_empty() && tier.backlog() == 0 {
                break;
            }
        }
        // Simulation speed counts the replay through admission and the tier
        // (offer and pump); the query and checkpoint calls between ticks have
        // their own metrics and, timed in here too, made this the run's
        // noisiest figure.
        let carriers = crowd::carriers(&setup.scenario, self.seed)
            .iter()
            .filter(|&&c| c)
            .count();
        tally
            .sim_device_s_per_s
            .push(n(carriers) * setup.scenario.duration.as_secs_f64() / ingest_s);
        let admitted: usize = journal.iter().map(Vec::len).sum();
        tally.ingest_reports_per_s.push(n(admitted) / ingest_s);
        // A refused offer is retried; a report fails only if it is never admitted.
        tally.attempted += attempts;
        tally.failed += (setup.reports.len() - admitted) as u64;
        tally.count("net.offer_attempts", attempts as f64);
        tally.count("net.admitted", tier.admitted() as f64);
        tally.count("net.backpressured", refused as f64);
        tally.count("sim.mailbox_peak_depth", n(tier.peak_mailbox_depth()));
        tally.count("net.views_degraded", tier.degraded_queries() as f64);

        // Every generated report admitted, backlog drained, and the final
        // exact view equal to the last-report-per-device model.
        tally.check(admitted == setup.reports.len(), || {
            format!(
                "lecture_surge: {} of {} reports admitted",
                admitted,
                setup.reports.len()
            )
        });
        tally.check(tier.backlog() == 0, || {
            "lecture_surge: backlog left".to_string()
        });
        let end = SimTime::from_millis(tick * sizes.tick_ms);
        let last = tier.occupancy_view(end, VIEW_TTL);
        let occupants: BTreeMap<RoomLabel, usize> = last
            .view
            .rooms
            .iter()
            .map(|(room, presence)| (*room, presence.occupants))
            .collect();
        tally.check(
            last.level == ServiceLevel::Exact && occupants == model.final_rooms,
            || {
                format!(
                    "lecture_surge: final view {:?} {occupants:?}, expected {:?}",
                    last.level, model.final_rooms
                )
            },
        );
        let mae = maes.iter().sum::<f64>() / maes.len().max(1) as f64;
        tally.note("population_mae", mae);
        tally.note("population_mae_bound", model.mae_bound);
        tally.check(
            maes.len() == model.probes.len() && mae <= model.mae_bound,
            || {
                format!(
                    "lecture_surge: population MAE {mae:.2} over {} probes, bound {:.2}",
                    maes.len(),
                    model.mae_bound
                )
            },
        );

        // Crash recovery: restore the mid-run checkpoint, replay the journal.
        let (checkpoint, cuts) = recovery_point.expect("a checkpoint at or after mid-run");
        let restored_reports = checkpoint.report_count();
        let tail: Vec<ObservationReport> = journal
            .iter()
            .zip(&cuts)
            .flat_map(|(admitted, &cut)| admitted[cut..].iter().cloned())
            .collect();
        let estimator = Arc::clone(&setup.estimator);
        let (recover_s, restored) = timed(|| {
            let restored = span("net.restore", 1, || {
                ShardedBmsServer::restore(estimator, checkpoint)
            });
            if let Ok(server) = &restored {
                span("net.replay", tail.len() as u64, || {
                    for chunk in tail.chunks(REPLAY_CHUNK) {
                        server.ingest_all(chunk.to_vec());
                    }
                });
            }
            restored
        });
        tally.attempted += 1 + tail.len() as u64;
        let recovered = match restored {
            Ok(restored) => {
                tally
                    .recover_reports_per_s
                    .push(n(restored_reports + tail.len()) / recover_s);
                tally.check(restored.state_digest() == tier.state_digest(), || {
                    "lecture_surge: restore plus replay does not reproduce the tier".to_string()
                });
                restored
            }
            Err(e) => {
                tally.failed += 1;
                tally.check(false, || format!("lecture_surge: restore failed: {e}"));
                return;
            }
        };

        // Historical reads: the first half of the run, and its last minutes.
        // Each instant is read from the live tier and from the recovered
        // fleet. The two hold the same reports in memory laid out apart, and
        // one such read costs up to 1.5 times another from round to round
        // with where its state landed on the heap; two layouts per round
        // halve that.
        let duration_ms = setup.scenario.duration.as_millis();
        for k in 0..sizes.history_probes {
            let at = SimTime::from_millis(duration_ms / 2 * k / sizes.history_probes + 1_000);
            tally.history_us.push(
                1e6 * batch("net.history", sizes.history_batch, || {
                    tier.occupancy_at_checked(at)
                }),
            );
            tally.history_us.push(
                1e6 * batch("net.history", sizes.history_batch, || {
                    recovered.occupancy_at_checked(at)
                }),
            );
            let answer = tier.occupancy_at_checked(at);
            tally.check(
                answer.complete && answer.value == model.history.at(at),
                || format!("lecture_surge: occupancy at {at} differs from the report history"),
            );
            let recent = SimTime::from_millis(duration_ms - 300_000 * k / sizes.history_probes);
            batch("net.recent", sizes.history_batch, || {
                tier.occupancy_at_checked(recent)
            });
            tally.attempted += 3 * sizes.history_batch + 1;
        }
    }
}
