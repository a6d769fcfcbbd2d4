//! The untraced end-to-end workloads, driven over the service's Unix
//! socket exactly as remote clients would.
//!
//! Every workload runs in a fixed number of rounds. A round sets the service up
//! from scratch (timed: that is `setup_s`), then measures its share of
//! the run, then shuts the server down. Spreading set-ups and measurements
//! over the whole run means no metric rests on one short stretch of a
//! host whose speed drifts over seconds. The work of a run is fixed by
//! `--seconds` alone, never by how fast the host happens to be: every
//! round replays the same requests from the same state, so the timed
//! requests, and with them the counts, are the same in every run.
//!
//! Timing boundaries: an update is timed from its plaintext cell to the
//! acknowledged response, an alert from its zone's cells to the returned
//! notified set, so encryption and token issuance count wherever they
//! run. Oracle and cost-model checks run outside the timed section.

use crate::inputs::{self, Zone, CHURN_USERS, SCAN_USERS, STORM_CYCLE, ZONES};
use crate::json::Record;
use crate::serve::{self, build_system, err, Res, Served, Workdir};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sla_core::UpsertOutcome;
use sla_datasets::ChurnEvent;
use sla_loadgen::Client;
use sla_server::{Request, Response};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-up + measurement rounds per `scan` run. Its set-ups carry its only
/// updates, so they are spread over many points of the run.
pub const SCAN_ROUNDS: usize = 30;
/// Timed set-ups per `scan` round; the last one serves the round's
/// alerts.
pub const SCAN_SETUPS: usize = 2;
/// Nominal seconds of one `scan` pass over the zone catalogue; a run
/// sends as many whole passes as fit `--seconds`, so every zone is timed
/// equally often.
pub const SCAN_PASS_S: f64 = 9.0;
/// Rounds per `churn` run.
pub const CHURN_ROUNDS: usize = 15;
/// Nominal seconds of one `churn` epoch (its updates and its alert); a
/// round runs as many epochs as fit its share of `--seconds`.
pub const CHURN_EPOCH_S: f64 = 0.07;
/// Timed reopenings of the prepared durable directory per `churn` round.
pub const REOPENS: usize = 2;

// Every pass splits evenly over the rounds.
const _: () = assert!(ZONES % SCAN_ROUNDS == 0);

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds per set-up.
    pub setup_s: Vec<f64>,
    /// Location-update latencies, ns.
    pub update_ns: Vec<f64>,
    /// Alert latencies, ns.
    pub alert_ns: Vec<f64>,
    /// Cost-model pairings of the timed alerts.
    pub alert_pairings: u64,
    /// Exact mean pairings per alert of the workload's alert schedule.
    pub pairings_per_alert: f64,
    /// Operations sent.
    pub attempted: u64,
    /// Operations answered wrongly (error, oracle or cost-model mismatch).
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// `Busy` rejections retried by the client.
    pub busy_retries: u64,
    /// Workload-specific facts for the run record.
    pub record: Record,
}

impl Outcome {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Checks one sequential alert response against the plaintext oracle
    /// (`expected`) and exactly against the cost model over `live`
    /// ciphertexts, recording its latency.
    fn check_alert(&mut self, resp: Response, zone: &Zone, live: u64, ns: f64, expected: &[u64]) {
        self.alert_ns.push(ns);
        let analytic = zone.pairings_per_sub * live;
        self.alert_pairings += analytic;
        match resp {
            Response::Alerted {
                notified,
                tokens_issued,
                pairings_used,
            } => {
                if notified != expected {
                    self.fail(format!(
                        "alert over {} cells notified {} users, the oracle {}",
                        zone.cells.len(),
                        notified.len(),
                        expected.len()
                    ));
                } else if pairings_used != analytic || u64::from(tokens_issued) != zone.tokens {
                    self.fail(format!(
                        "alert used {pairings_used} pairings / {tokens_issued} tokens, \
                         cost model says {analytic} / {}",
                        zone.tokens
                    ));
                }
            }
            other => self.fail(format!("alert answered {other:?}")),
        }
    }
}

fn nanos(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Users of `positions` inside `zone`, sorted.
fn inside<'a>(positions: impl Iterator<Item = (&'a u64, &'a usize)>, zone: &Zone) -> Vec<u64> {
    let mut users: Vec<u64> = positions
        .filter(|(_, &cell)| zone.contains(cell))
        .map(|(&user, _)| user)
        .collect();
    users.sort_unstable();
    users
}

/// One set-up of `scan`, timed as `setup_s`: key generation and
/// codebook, the population's bulk ingest (`subscribe_cells_bulk`) and
/// the server's start. Every subscriber then re-sends its own cell over
/// the wire, each a timed location update that leaves the population
/// where it was.
fn scan_setup(
    seed: u64,
    population: &[(u64, usize)],
    socket: std::path::PathBuf,
    out: &mut Outcome,
) -> Res<(Served, Client)> {
    let probs = inputs::likelihoods();
    let mut rng = StdRng::seed_from_u64(inputs::sub_seed(seed, inputs::stream::INGEST));
    let start = Instant::now();
    let mut system = build_system(seed, &probs, serve::volatile())?;
    let ingested = system
        .subscribe_cells_bulk(population, &mut rng)
        .map_err(err)?;
    let served = Served::start(system, socket)?;
    out.setup_s.push(start.elapsed().as_secs_f64());
    out.attempted += ingested.len() as u64;
    for (outcome, (user_id, _)) in ingested.iter().zip(population) {
        if *outcome != UpsertOutcome::Inserted {
            out.fail(format!(
                "bulk ingest of user {user_id} answered {outcome:?}"
            ));
        }
    }
    let mut client = served.connect()?;
    for &(user_id, cell) in population {
        let req = Request::Subscribe {
            user_id,
            cell: cell as u64,
        };
        let start = Instant::now();
        let resp = client
            .call_retrying(&req, &mut out.busy_retries)
            .map_err(err)?;
        out.update_ns.push(nanos(start.elapsed()));
        out.attempted += 1;
        if resp != (Response::Subscribed { replaced: true }) {
            out.fail(format!("update of user {user_id} answered {resp:?}"));
        }
    }
    Ok((served, client))
}

/// Whole passes over the zone catalogue one `scan` run sends.
pub fn scan_passes(seconds: f64) -> usize {
    ((seconds / SCAN_PASS_S).round() as usize).max(1)
}

/// `scan`: serial alerts on one connection over a static population.
/// Round `r` sends the `r`-th equal share of the run's passes, so each
/// zone of the catalogue is timed exactly `scan_passes` times.
pub fn scan(seed: u64, seconds: f64, work: &Workdir) -> Res<Outcome> {
    let probs = inputs::likelihoods();
    let codebook = inputs::codebook(&probs);
    let inputs = inputs::scan_inputs(seed, &probs, &codebook);
    let positions: BTreeMap<u64, usize> = inputs.population.iter().copied().collect();
    let expected: Vec<Vec<u64>> = inputs
        .zones
        .iter()
        .map(|z| inside(positions.iter(), z))
        .collect();
    let passes = scan_passes(seconds);
    let per_round = passes * ZONES / SCAN_ROUNDS;
    let mut out = Outcome::default();
    for round in 0..SCAN_ROUNDS {
        let socket = |k| work.join(&format!("scan{round}-{k}.sock"));
        let (mut served, mut client) = scan_setup(seed, &inputs.population, socket(0), &mut out)?;
        for k in 1..SCAN_SETUPS {
            served.shutdown(client)?;
            (served, client) = scan_setup(seed, &inputs.population, socket(k), &mut out)?;
        }
        for sent in round * per_round..(round + 1) * per_round {
            let k = sent % ZONES;
            let zone = &inputs.zones[k];
            let start = Instant::now();
            let resp = client
                .call_retrying(&zone.request(), &mut out.busy_retries)
                .map_err(err)?;
            let took = nanos(start.elapsed());
            out.attempted += 1;
            out.check_alert(resp, zone, SCAN_USERS, took, &expected[k]);
        }
        served.shutdown(client)?;
    }
    out.pairings_per_alert = inputs
        .zones
        .iter()
        .map(|z| z.pairings_per_sub * SCAN_USERS)
        .sum::<u64>() as f64
        / ZONES as f64;
    out.record = vec![
        ("store", "ConcurrentSharded (volatile)".into()),
        ("population", SCAN_USERS.to_string()),
        ("zones", ZONES.to_string()),
        ("zone_radii_m", format!("{:?}", inputs::RADII_M)),
        ("connections", "1 (closed loop)".into()),
        ("rounds", SCAN_ROUNDS.to_string()),
        ("setups_per_round", SCAN_SETUPS.to_string()),
        ("passes", passes.to_string()),
    ];
    Ok(out)
}

/// `churn` epochs every round runs for a `seconds`-long run.
pub fn churn_epochs(seconds: f64) -> usize {
    ((seconds / CHURN_ROUNDS as f64 / CHURN_EPOCH_S).round() as usize).max(1)
}

/// `churn`: lifecycle epochs against the durable store, one storm alert
/// after each epoch's updates are acknowledged. Every round replays the
/// same first `churn_epochs` epochs from the same reopened state.
pub fn churn(seed: u64, seconds: f64, work: &Workdir) -> Res<Outcome> {
    let probs = inputs::likelihoods();
    let codebook = inputs::codebook(&probs);
    let workload = inputs::churn_inputs(seed, &probs);
    let storm = inputs::storm_zones(&codebook);
    let initial: BTreeMap<u64, usize> = workload.positions_after(0).into_iter().collect();

    // The prepared directory: epoch 0's population, written once and
    // synced (not timed).
    let prepared = work.join("prepared");
    {
        let system = build_system(seed, &probs, serve::durable(&prepared))?;
        let mut rng = StdRng::seed_from_u64(inputs::sub_seed(seed, inputs::stream::PREPARE));
        for (&user, &cell) in &initial {
            system
                .subscribe_cell_shared(user, cell, &mut rng)
                .map_err(err)?;
        }
        system.sync().map_err(err)?;
    }

    let epochs = churn_epochs(seconds);
    if epochs >= workload.epochs.len() {
        return Err(format!(
            "{epochs} churn epochs per round, only {} generated; raise CHURN_EPOCHS",
            workload.epochs.len() - 1
        ));
    }
    let mut out = Outcome::default();
    let mut disk_per_sub = Vec::new();
    let mut wal_generations = 0u64;
    for round in 0..CHURN_ROUNDS {
        let mut reopened = Vec::new();
        for k in 0..REOPENS {
            let dir = work.join(&format!("churn{round}-{k}"));
            serve::copy_dir(&prepared, &dir)?;
            let start = Instant::now();
            let system = build_system(seed, &probs, serve::durable(&dir))?;
            out.setup_s.push(start.elapsed().as_secs_f64());
            if system.n_subscriptions() != initial.len() {
                out.fail(format!(
                    "reopen recovered {} subscriptions, prepared {}",
                    system.n_subscriptions(),
                    initial.len()
                ));
            }
            reopened.push((system, dir));
        }
        let (system, dir) = reopened.pop().expect("REOPENS > 0");
        for (spare, spare_dir) in reopened {
            drop(spare);
            std::fs::remove_dir_all(&spare_dir).map_err(err)?;
        }

        let served = Served::start(system, work.join(&format!("churn{round}.sock")))?;
        let mut client = served.connect()?;
        let mut positions = initial.clone();
        for (e, epoch) in workload.epochs.iter().enumerate().take(epochs + 1).skip(1) {
            for event in &epoch.events {
                let start = Instant::now();
                let resp = client
                    .call_retrying(&inputs::event_request(event), &mut out.busy_retries)
                    .map_err(err)?;
                let took = start.elapsed();
                out.attempted += 1;
                let ok = match (event, &resp) {
                    (ChurnEvent::Subscribe { .. }, Response::Subscribed { replaced: false })
                    | (ChurnEvent::Move { .. }, Response::Subscribed { replaced: true }) => {
                        out.update_ns.push(nanos(took));
                        true
                    }
                    (ChurnEvent::Unsubscribe { .. }, Response::Unsubscribed) => true,
                    _ => false,
                };
                if !ok {
                    out.fail(format!("{event:?} answered {resp:?}"));
                }
                inputs::apply_event(&mut positions, event);
            }
            let zone = &storm[e % STORM_CYCLE];
            let expected = inside(positions.iter(), zone);
            let start = Instant::now();
            let resp = client
                .call_retrying(&zone.request(), &mut out.busy_retries)
                .map_err(err)?;
            let took = nanos(start.elapsed());
            out.attempted += 1;
            let live = positions.len() as u64;
            out.check_alert(resp, zone, live, took, &expected);
        }
        let lanes = served.service().system().service_stats().durability_lanes;
        wal_generations += lanes.iter().map(|l| l.wal_generation).sum::<u64>();
        served.shutdown(client)?;
        disk_per_sub.push(serve::dir_bytes(&dir) as f64 / positions.len() as f64);
    }
    // The exact count, independent of the seed: the mean storm zone over
    // one cycle of the track, against the nominal population. Each
    // executed alert was checked above against its actual live count.
    out.pairings_per_alert = storm
        .iter()
        .map(|z| z.pairings_per_sub * CHURN_USERS)
        .sum::<u64>() as f64
        / STORM_CYCLE as f64;
    out.record = vec![
        ("store", "Persistent".into()),
        ("flush_policy", format!("Every({} ms)", inputs::FLUSH_MS)),
        ("population", initial.len().to_string()),
        (
            "storm_zone_cells",
            format!(
                "{:?}",
                storm.iter().map(|z| z.cells.len()).collect::<Vec<_>>()
            ),
        ),
        ("connections", "1 (closed loop)".into()),
        ("rounds", CHURN_ROUNDS.to_string()),
        ("reopens_per_round", REOPENS.to_string()),
        ("epochs_per_round", epochs.to_string()),
        (
            "disk_bytes_per_sub",
            format!("{:.1}", crate::stats::median(&disk_per_sub).unwrap_or(0.0)),
        ),
        (
            "wal_generations_per_lane",
            format!("{:.1}", wal_generations as f64 / (16 * CHURN_ROUNDS) as f64),
        ),
    ];
    Ok(out)
}
