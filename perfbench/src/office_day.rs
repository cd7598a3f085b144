//! `office_day`: phones walk room itineraries on the office floor, the
//! batched fleet turns the walks into scan cycles, and the BMS classifies
//! every report with the SVM trained in set-up.
//!
//! Radio, stack, signal and the SVM do almost all the work. The round then
//! queries, checkpoints and recovers the single-server BMS it filled, so
//! the server-side metrics exist here too, on a small state.

use crate::oracle::History;
use crate::trace::{batch, span, timed};
use crate::{drive, n, Options, Outcome, Size, Tally, Workload};
use rand::Rng;
use roomsense::experiments::report_from_snapshots;
use roomsense::{
    collect_dataset, features_from_snapshots, run_fleet, run_fleet_batched, BatchConfig,
    OccupancyModel, PipelineConfig, ScannerKind, Scenario, MISSING_DISTANCE,
};
use roomsense_building::mobility::{MobilityModel, RoomSchedule};
use roomsense_building::{presets, trace as truth, RoomId};
use roomsense_ml::{Classifier, ProximityClassifier, SvmParams};
use roomsense_net::{
    BmsServer, CountingConfig, IngestOutcome, ObservationReport, OccupancyEstimator, RoomLabel,
};
use roomsense_signal::{aggregate_cycle, EwmaFilter, TrackManager};
use roomsense_sim::{rng, SimDuration, SimTime};
use roomsense_stack::{run_scan, simulate_receptions, AndroidScanner};

/// Room accuracy floor against the ground-truth trace. The paper's scene
/// analysis reaches about 94 % on a static five-room house; this floor
/// leaves room for the nine-room floor (the repository's held-out office
/// result is about 90 %) and for the smoothing lag every walk between
/// rooms costs, while staying far above chance (1 in 10 labels).
const ACCURACY_FLOOR: f64 = 0.75;

/// The scan period of the paper's Android configuration.
const SCAN_PERIOD_MS: u64 = 2_000;

#[derive(Debug, Clone, Copy)]
struct Sizes {
    devices: usize,
    day_s: u64,
    /// Devices replayed stage by stage in a traced round.
    sample: usize,
    query_every_s: u64,
    checkpoints: u64,
    view_batch: u64,
    population_batch: u64,
    history_batch: u64,
    history_probes: u64,
}

const FULL: Sizes = Sizes {
    devices: 8,
    day_s: 900,
    sample: 4,
    query_every_s: 30,
    checkpoints: 6,
    view_batch: 400,
    population_batch: 20,
    history_batch: 100,
    history_probes: 60,
};

const SMOKE: Sizes = Sizes {
    devices: 4,
    day_s: 240,
    sample: 2,
    query_every_s: 60,
    checkpoints: 2,
    view_batch: 2,
    population_batch: 2,
    history_batch: 2,
    history_probes: 4,
};

/// Runs the workload.
pub(crate) fn run(options: &Options) -> Outcome {
    let sizes = match options.size {
        Size::Full => FULL,
        Size::Smoke => SMOKE,
    };
    drive(
        &OfficeDay {
            sizes,
            seed: options.seed,
        },
        options,
    )
}

struct OfficeDay {
    sizes: Sizes,
    seed: u64,
}

struct Setup {
    scenario: Scenario,
    config: PipelineConfig,
    model: OccupancyModel,
    walks: Vec<RoomSchedule>,
}

/// Each device's true label at every scan-cycle end, and the nearest-beacon
/// baseline.
struct Labels {
    /// `truth[cycle][device]`, cycles every scan period from time zero.
    truth: Vec<Vec<usize>>,
    proximity: ProximityClassifier,
}

/// The expected answers for the run's seed, plus the fixed-seed walks the
/// scene-analysis-versus-proximity comparison runs on.
struct Model {
    labels: Labels,
    reference: (OfficeDay, Vec<RoomSchedule>, Labels),
}

/// The deployment every run shares: the floor's radio environment and the
/// collection walk the SVM is trained on. The run's seed draws the day's
/// itineraries and the phones' random streams, so the classifier — and the
/// cost of one prediction — is the same at every seed.
const DEPLOYMENT_SEED: u64 = 20_150_309;

/// The comparison day: fixed walks, so whether the SVM beats the
/// nearest-beacon baseline does not depend on the run's seed. On the
/// office floor it does not (see the README): the comparison is counted as
/// one failed operation per round, and every other check still gates.
const REFERENCE: OfficeDay = OfficeDay {
    sizes: Sizes {
        devices: 2,
        day_s: 600,
        ..SMOKE
    },
    seed: 20_150_309,
};

/// The trained SVM behind a span, so a traced round splits BMS ingest into
/// the classifier's share and the server's own.
struct TracedModel(OccupancyModel);

impl OccupancyEstimator for TracedModel {
    fn classify(&self, report: &ObservationReport) -> Option<RoomLabel> {
        span("ml.predict", 1, || self.0.classify(report))
    }
}

impl OfficeDay {
    fn duration(&self) -> SimDuration {
        SimDuration::from_secs(self.sizes.day_s)
    }

    fn occupants<'a>(&self, walks: &'a [RoomSchedule]) -> Vec<&'a dyn MobilityModel> {
        walks.iter().map(|w| w as &dyn MobilityModel).collect()
    }

    /// One itinerary per phone: random rooms, 120–480 s each, until the day
    /// is planned, walked at 1.2 m/s.
    fn walks(&self, scenario: &Scenario) -> Vec<RoomSchedule> {
        let rooms = scenario.plan().rooms().len();
        (0..self.sizes.devices)
            .map(|i| {
                let mut r = rng::for_indexed(self.seed, "office-day-walk", i as u64);
                let mut visits = Vec::new();
                let mut planned = 0u64;
                while planned < self.sizes.day_s {
                    let dwell = r.gen_range(120..480u64);
                    visits.push((
                        RoomId::new(r.gen_range(0..rooms) as u32),
                        SimDuration::from_secs(dwell),
                    ));
                    planned += dwell;
                }
                RoomSchedule::generate(scenario.plan(), &visits, 1.2, SimTime::ZERO, &mut r)
            })
            .collect()
    }

    fn labels(&self, scenario: &Scenario, walks: &[RoomSchedule]) -> Labels {
        let outside = scenario.outside_label();
        let sampled = truth::ground_truth(
            scenario.plan(),
            &self.occupants(walks),
            self.duration(),
            SimDuration::from_millis(SCAN_PERIOD_MS),
        );
        Labels {
            truth: sampled
                .samples()
                .iter()
                .map(|s| {
                    s.rooms
                        .iter()
                        .map(|room| room.map_or(outside, |r| r.index() as usize))
                        .collect()
                })
                .collect(),
            proximity: ProximityClassifier::new(
                scenario.beacon_room_labels(),
                outside,
                MISSING_DISTANCE,
            ),
        }
    }

    /// SVM and nearest-beacon room accuracy over every scan cycle of the
    /// day that saw a beacon, scored against the ground truth.
    fn accuracies(&self, setup: &Setup, walks: &[RoomSchedule], labels: &Labels) -> (f64, f64) {
        let events = run_fleet_batched(
            &setup.scenario,
            &setup.config,
            &self.occupants(walks),
            self.duration(),
            self.seed,
            &BatchConfig::default(),
        );
        let beacon_order = setup.scenario.beacon_order();
        let (mut total, mut svm, mut proximity) = (0usize, 0usize, 0usize);
        for event in events.iter().filter(|e| !e.record.snapshots.is_empty()) {
            let label = labels.truth[(event.at.as_millis() / SCAN_PERIOD_MS) as usize]
                [event.device.value() as usize];
            let features = features_from_snapshots(&event.record.snapshots, &beacon_order);
            total += 1;
            svm += usize::from(setup.model.predict_features(&features) == label);
            proximity += usize::from(labels.proximity.predict(&features) == label);
        }
        let total = total.max(1) as f64;
        (svm as f64 / total, proximity as f64 / total)
    }
}

impl Workload for OfficeDay {
    type Setup = Setup;
    type Model = Model;
    const SETUP_REPEATS: usize = 3;

    fn setup(&self, _tally: &mut Tally) -> Setup {
        let scenario = Scenario::from_plan(presets::office_floor(), DEPLOYMENT_SEED);
        let config = PipelineConfig::paper_android();
        let labelled = span("core.collect", 1, || {
            collect_dataset(
                &scenario,
                &config,
                SimDuration::from_secs(40),
                3,
                DEPLOYMENT_SEED,
            )
        });
        let model = span("ml.fit", 1, || {
            OccupancyModel::fit(&labelled, &SvmParams::default())
        })
        .expect("the collection walk visits every room, so the dataset is multi-class");
        let walks = self.walks(&scenario);
        Setup {
            scenario,
            config,
            model,
            walks,
        }
    }

    fn model(&self, setup: &Setup) -> Model {
        let walks = REFERENCE.walks(&setup.scenario);
        let labels = REFERENCE.labels(&setup.scenario, &walks);
        Model {
            labels: self.labels(&setup.scenario, &setup.walks),
            reference: (REFERENCE, walks, labels),
        }
    }

    fn round(&self, setup: &Setup, model: &Model, tally: &mut Tally) {
        let sizes = self.sizes;
        let occupants = self.occupants(&setup.walks);
        let (fleet_s, events) = timed(|| {
            span("core.fleet", sizes.devices as u64, || {
                run_fleet_batched(
                    &setup.scenario,
                    &setup.config,
                    &occupants,
                    self.duration(),
                    self.seed,
                    &BatchConfig::default(),
                )
            })
        });
        tally.attempted += sizes.devices as u64;
        tally
            .sim_device_s_per_s
            .push(n(sizes.devices) * sizes.day_s as f64 / fleet_s);
        let cycles_per_device = (sizes.day_s * 1_000 / SCAN_PERIOD_MS) as usize;
        tally.check(events.len() == sizes.devices * cycles_per_device, || {
            format!(
                "office_day: fleet produced {} cycles, expected {} devices x {} cycles",
                events.len(),
                sizes.devices,
                cycles_per_device
            )
        });

        // One report per scan cycle that saw a beacon, with its true label.
        // Every scan cycle counts as one attempted report.
        tally.attempted += events.len() as u64;
        let mut seqs = vec![0u64; sizes.devices];
        let mut reports = Vec::with_capacity(events.len());
        let mut truth_labels = Vec::with_capacity(events.len());
        for event in events.iter().filter(|e| !e.record.snapshots.is_empty()) {
            let device = event.device.value() as usize;
            let mut report = report_from_snapshots(event.device, event.at, &event.record.snapshots);
            seqs[device] += 1;
            report.seq = seqs[device];
            let cycle = (event.at.as_millis() / SCAN_PERIOD_MS) as usize;
            truth_labels.push(model.labels.truth[cycle][device]);
            reports.push(report);
        }
        drop(events);

        // Ingest in report order, stopping at every query instant to time the
        // queries, and at every checkpoint instant to checkpoint.
        let server = BmsServer::new(Box::new(TracedModel(setup.model.clone())));
        let ttl = SimDuration::from_secs(300);
        let counting = CountingConfig::default();
        let query_every_ms = sizes.query_every_s * 1_000;
        let checkpoint_every_ms = sizes.day_s * 1_000 / sizes.checkpoints;
        let mut next_query_ms = query_every_ms;
        let mut next_checkpoint_ms = checkpoint_every_ms;
        let mut ingest_s = 0.0;
        let mut svm_hits = 0usize;
        let mut rooms: Vec<Option<RoomLabel>> = Vec::with_capacity(reports.len());
        let mut recovery_point = None;
        let mut index = 0usize;
        while index < reports.len() || next_checkpoint_ms <= sizes.day_s * 1_000 {
            let mark_ms = next_query_ms.min(next_checkpoint_ms);
            let upto = index + reports[index..].partition_point(|r| r.at.as_millis() <= mark_ms);
            let (secs, ()) = timed(|| {
                for report in &reports[index..upto] {
                    let outcome = span("net.bms_ingest", 1, || server.ingest(report.clone()));
                    let room = match outcome {
                        IngestOutcome::Accepted { room } => room,
                        IngestOutcome::Duplicate => None,
                    };
                    rooms.push(room);
                }
            });
            ingest_s += secs;
            for (room, label) in rooms[index..upto].iter().zip(&truth_labels[index..upto]) {
                svm_hits += usize::from(*room == Some(*label));
            }
            index = upto;
            let now = SimTime::from_millis(mark_ms);
            if mark_ms == next_query_ms {
                next_query_ms += query_every_ms;
                tally.view_us.push(
                    1e6 * batch("net.view", sizes.view_batch, || {
                        server.occupancy_view(now, ttl)
                    }),
                );
                tally.population_us.push(
                    1e6 * batch("net.population", sizes.population_batch, || {
                        server.population_view(now, &counting)
                    }),
                );
                tally.attempted += sizes.view_batch + sizes.population_batch;
            }
            if mark_ms == next_checkpoint_ms {
                next_checkpoint_ms += checkpoint_every_ms;
                let (secs, checkpoint) =
                    timed(|| span("net.checkpoint", 1, || server.checkpoint()));
                tally.checkpoint_ms.push(secs * 1e3);
                let digest = span("net.digest", 1, || server.state_digest());
                tally.check(digest == checkpoint.digest(), || {
                    "office_day: checkpoint digest differs from the state digest".to_string()
                });
                tally.attempted += 2;
                tally.count("net.state_reports", n(checkpoint.report_count()));
                if recovery_point.is_none() && mark_ms * 2 >= sizes.day_s * 1_000 {
                    recovery_point = Some((checkpoint, index));
                }
            }
        }
        tally.ingest_reports_per_s.push(n(reports.len()) / ingest_s);

        let svm_accuracy = svm_hits as f64 / reports.len().max(1) as f64;
        tally.note("svm_accuracy", svm_accuracy);
        tally.check(svm_accuracy >= ACCURACY_FLOOR, || {
            format!(
                "office_day: SVM room accuracy {svm_accuracy:.3} below the {ACCURACY_FLOOR} floor"
            )
        });
        tally.check(
            server.stats().reports_stored == reports.len() as u64,
            || "office_day: the BMS did not store every report".to_string(),
        );

        // Scene analysis against the nearest-beacon baseline on the same
        // snapshots of the fixed-seed day.
        let (reference, reference_walks, reference_labels) = &model.reference;
        let (svm, proximity) = span("core.reference", 1, || {
            reference.accuracies(setup, reference_walks, reference_labels)
        });
        tally.note("reference_svm_accuracy", svm);
        tally.note("reference_proximity_accuracy", proximity);
        tally.attempted += 1;
        if svm <= proximity {
            tally.failed += 1;
        }

        // Crash recovery: restore the mid-day checkpoint, replay the rest.
        let (checkpoint, replay_from) = recovery_point.expect("a checkpoint at or after mid-day");
        let restored_reports = checkpoint.report_count();
        let estimator = Box::new(TracedModel(setup.model.clone()));
        let (recover_s, restored) = timed(|| {
            let restored = span("net.restore", 1, || {
                BmsServer::restore(estimator, checkpoint)
            });
            if let Ok(server) = &restored {
                span("net.replay", (reports.len() - replay_from) as u64, || {
                    for report in &reports[replay_from..] {
                        server.ingest(report.clone());
                    }
                });
            }
            restored
        });
        tally.attempted += 1;
        match restored {
            Ok(restored) => {
                tally
                    .recover_reports_per_s
                    .push(n(restored_reports + reports.len() - replay_from) / recover_s);
                tally.check(restored.state_digest() == server.state_digest(), || {
                    "office_day: restore plus replay does not reproduce the server".to_string()
                });
            }
            Err(e) => {
                tally.failed += 1;
                tally.check(false, || format!("office_day: restore failed: {e}"));
            }
        }

        // Historical reads: the first half of the day, and the last minutes.
        let history = History::new(
            reports
                .iter()
                .zip(&rooms)
                .filter_map(|(r, room)| room.map(|room| (r.device.value(), r.at, r.seq, room))),
        );
        let day_ms = sizes.day_s * 1_000;
        for k in 0..sizes.history_probes {
            let at = SimTime::from_millis(day_ms / 2 * k / sizes.history_probes + 1_000);
            tally.history_us.push(
                1e6 * batch("net.history", sizes.history_batch, || {
                    server.occupancy_at_checked(at)
                }),
            );
            let answer = server.occupancy_at_checked(at);
            tally.check(answer.complete && answer.value == history.at(at), || {
                format!("office_day: occupancy at {at} differs from the report history")
            });
            let recent = SimTime::from_millis(day_ms - 300_000 * k / sizes.history_probes);
            batch("net.recent", sizes.history_batch, || {
                server.occupancy_at_checked(recent)
            });
            tally.attempted += 2 * sizes.history_batch + 1;
        }
    }

    fn traced_extras(&self, setup: &Setup, tally: &mut Tally) {
        let sample = &setup.walks[..self.sizes.sample];
        let occupants = self.occupants(sample);
        let until = SimTime::ZERO + self.duration();
        let ranging = setup.scenario.ranging_config();
        let ScannerKind::Android { stall_probability } = setup.config.scanner else {
            unreachable!("the paper's Android configuration");
        };
        let scanner = AndroidScanner::new(stall_probability);
        let mut receptions_total = 0usize;
        let mut cycles_total = 0usize;
        let mut cycles_per_device = Vec::new();
        for (index, walk) in sample.iter().enumerate() {
            let device_seed = rng::derive_indexed_seed(self.seed, "fleet-device", index as u64);
            let mut radio_rng =
                rng::for_indexed(device_seed, "pipeline-radio", setup.scenario.seed());
            let receptions = span("radio.receptions", 1, || {
                simulate_receptions(
                    setup.scenario.channel(),
                    setup.scenario.advertisers(),
                    &setup.config.device,
                    |t| walk.position_at(t),
                    SimTime::ZERO,
                    until,
                    &mut radio_rng,
                )
            });
            let mut scan_rng =
                rng::for_indexed(device_seed, "pipeline-scan", setup.scenario.seed());
            let cycles = span("stack.scan", 1, || {
                run_scan(
                    &receptions,
                    &scanner,
                    setup.config.scan,
                    SimTime::ZERO,
                    until,
                    &mut scan_rng,
                )
            });
            span("signal.track", cycles.len() as u64, || {
                let mut tracks = TrackManager::new(EwmaFilter::new(
                    setup.config.filter_coefficient,
                    setup.config.loss_policy,
                ));
                for cycle in &cycles {
                    let observations = aggregate_cycle(cycle, setup.config.aggregation, &ranging);
                    std::hint::black_box(tracks.update_cycle(cycle.end, &observations));
                }
            });
            receptions_total += receptions.len();
            cycles_total += cycles.len();
            cycles_per_device.push(cycles.len());
        }
        tally.count("radio.receptions", n(receptions_total));
        tally.count("stack.cycles", n(cycles_total));

        let scalar = span("core.fleet_scalar", sample.len() as u64, || {
            run_fleet(
                &setup.scenario,
                &setup.config,
                &occupants,
                self.duration(),
                self.seed,
            )
        });
        let batched = span("core.fleet_batched", sample.len() as u64, || {
            run_fleet_batched(
                &setup.scenario,
                &setup.config,
                &occupants,
                self.duration(),
                self.seed,
                &BatchConfig::default(),
            )
        });
        tally.check(scalar == batched, || {
            "office_day: scalar and batched fleets disagree".to_string()
        });
        let expected = (self.sizes.day_s * 1_000 / SCAN_PERIOD_MS) as usize;
        tally.check(cycles_per_device.iter().all(|&c| c == expected), || {
            format!("office_day: stage replay gave {cycles_per_device:?} cycles, expected {expected} each")
        });
    }
}
