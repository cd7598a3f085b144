//! Expected query answers computed from a generated report stream alone,
//! without the program's server code.

use roomsense_net::{ObservationReport, RoomLabel};
use roomsense_sim::SimTime;
use std::collections::BTreeMap;

/// Occupancy at any instant from the stream: each device counts in the room
/// of its latest classified report (by time, then sequence number) at or
/// before the instant.
pub(crate) struct History {
    per_device: BTreeMap<u32, Vec<(SimTime, u64, RoomLabel)>>,
}

impl History {
    /// Builds the model from `(device, time, seq, room)` entries.
    pub(crate) fn new(entries: impl Iterator<Item = (u32, SimTime, u64, RoomLabel)>) -> Self {
        let mut per_device: BTreeMap<u32, Vec<(SimTime, u64, RoomLabel)>> = BTreeMap::new();
        for (device, at, seq, room) in entries {
            per_device.entry(device).or_default().push((at, seq, room));
        }
        for entries in per_device.values_mut() {
            entries.sort_by_key(|&(at, seq, _)| (at, seq));
        }
        History { per_device }
    }

    /// Occupants per room at `at`.
    pub(crate) fn at(&self, at: SimTime) -> BTreeMap<RoomLabel, usize> {
        let mut table = BTreeMap::new();
        for entries in self.per_device.values() {
            let upto = entries.partition_point(|&(t, _, _)| t <= at);
            if let Some(&(_, _, room)) = upto.checked_sub(1).map(|i| &entries[i]) {
                *table.entry(room).or_insert(0) += 1;
            }
        }
        table
    }
}

/// The reports stamped in `[from, to)`, sorted by `(time, device, seq)`.
pub(crate) fn reports_between(
    reports: &[ObservationReport],
    from: SimTime,
    to: SimTime,
) -> Vec<ObservationReport> {
    let mut rows: Vec<ObservationReport> = reports
        .iter()
        .filter(|r| r.at >= from && r.at < to)
        .cloned()
        .collect();
    rows.sort_by_key(|r| (r.at, r.device, r.seq));
    rows
}
