//! The benchmark's fixed configuration and its seed-driven inputs.
//!
//! Everything the service receives is generated here from `--seed`:
//! subscriber placements, alert zones, churn epochs and move schedules.
//! The likelihood map, the grid and the storm track are fixed
//! configuration, so the codebook (and with it the cost of a given zone)
//! is the same in every run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sla_datasets::{ChurnConfig, ChurnEvent, ChurnWorkload};
use sla_encoding::{minimize, CellCodebook, EncoderKind};
use sla_grid::{Grid, ProbabilityMap, SigmoidParams, ZoneSampler};
use sla_scenarios::ZoneTrajectory;
use sla_server::Request;
use std::collections::BTreeMap;

/// Bits per prime factor of the group order.
pub const GROUP_BITS: usize = 40;
/// Seed of the fixed, skewed likelihood map (not the run's seed).
pub const MAP_SEED: u64 = 0x2021_0323;
/// The sigmoid of the likelihood map (the paper's synthetic generator;
/// `a = 0.95, b = 100` gives a skewed surface and 15-bit Huffman codes).
pub const MAP_SIGMOID: SigmoidParams = SigmoidParams { a: 0.95, b: 100.0 };
/// Lock shards of the volatile store (the durable store fixes its own 16).
pub const STORE_SHARDS: usize = 16;
/// Server worker threads, and the most connections any workload opens.
pub const WORKERS: usize = 2;
/// WAL group-commit window of the durable store (the server's default).
pub const FLUSH_MS: u64 = 2;

/// Subscribers of `scan`.
pub const SCAN_USERS: u64 = 1024;
/// Zones in the fixed catalogue of `scan`, sent round-robin in a seeded
/// order.
pub const ZONES: usize = 120;
/// Zone radii, cycled through the zone list.
pub const RADII_M: [f64; 5] = [300.0, 450.0, 600.0, 750.0, 900.0];

/// Initial population of `churn`.
pub const CHURN_USERS: u64 = 512;
/// Churn epochs generated; a measured slice never gets through them all.
pub const CHURN_EPOCHS: usize = 600;
/// Per-epoch move / unsubscribe / resubscribe probabilities of `churn`.
pub const CHURN_RATES: (f64, f64, f64) = (0.6, 0.1, 0.5);
/// The storm track restarts after this many epochs, before it leaves the
/// grid.
pub const STORM_CYCLE: usize = 20;

/// A derived, independent seed for one input stream.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    // splitmix64 finalizer over the pair.
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Input streams, one seed each.
pub mod stream {
    /// Group parameters and HVE keys.
    pub const KEYS: u64 = 1;
    /// Subscriber placement.
    pub const POPULATION: u64 = 2;
    /// Order of the alert zones.
    pub const ZONES: u64 = 3;
    /// Churn epochs.
    pub const CHURN: u64 = 4;
    /// Moves of the traced run's update probes.
    pub const MOVES: u64 = 5;
    /// Encryption randomness of the prepared durable directory.
    pub const PREPARE: u64 = 6;
    /// Randomness of the traced ladder.
    pub const LADDER: u64 = 7;
    /// Encryption randomness of the bulk ingest of `scan`.
    pub const INGEST: u64 = 8;
}

/// The grid every workload runs on (Chicago downtown, 32×32 cells).
pub fn grid() -> Grid {
    Grid::chicago_downtown_32()
}

/// The fixed skewed likelihood map.
pub fn likelihoods() -> ProbabilityMap {
    let mut rng = StdRng::seed_from_u64(MAP_SEED);
    ProbabilityMap::sigmoid_synthetic(grid().n_cells(), MAP_SIGMOID, &mut rng)
}

/// The public codebook, as every party can rebuild it from the map.
pub fn codebook(probs: &ProbabilityMap) -> CellCodebook {
    CellCodebook::try_build(EncoderKind::Huffman, probs.raw()).expect("the fixed map is valid")
}

/// One alert zone with its plaintext and cost-model expectations.
#[derive(Debug, Clone, PartialEq)]
pub struct Zone {
    /// Sorted, deduplicated cell indices.
    pub cells: Vec<usize>,
    /// Tokens after minimization.
    pub tokens: u64,
    /// Non-star bits summed over the tokens.
    pub non_star_bits: u64,
    /// Pairings per stored ciphertext: `Σ_tokens (1 + 2·|J|)`.
    pub pairings_per_sub: u64,
}

impl Zone {
    /// Minimizes `cells` against the public codebook.
    pub fn new(mut cells: Vec<usize>, codebook: &CellCodebook) -> Zone {
        cells.sort_unstable();
        cells.dedup();
        let tokens = codebook
            .try_tokens_for(&cells)
            .expect("zone cells lie in the grid");
        Zone {
            tokens: tokens.len() as u64,
            non_star_bits: tokens.iter().map(|t| t.non_star_count() as u64).sum(),
            pairings_per_sub: minimize::pairing_cost(&tokens, 1),
            cells,
        }
    }

    /// The wire request for this zone (serial matching path).
    pub fn request(&self) -> Request {
        Request::Alert {
            cells: self.cells.iter().map(|&c| c as u64).collect(),
        }
    }

    /// Whether `cell` lies inside the zone.
    pub fn contains(&self, cell: usize) -> bool {
        self.cells.binary_search(&cell).is_ok()
    }
}

/// The inputs of `scan`: a placed population and a zone list.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanInputs {
    /// `(user_id, cell)` for every subscriber, in ingest order.
    pub population: Vec<(u64, usize)>,
    /// The zone catalogue in this seed's order.
    pub zones: Vec<Zone>,
}

/// Places `users` subscribers by the likelihood map.
fn place(sampler: &ZoneSampler, users: u64, rng: &mut StdRng) -> Vec<(u64, usize)> {
    (0..users)
        .map(|user| (user, sampler.sample_epicenter_cell(rng).0))
        .collect()
}

/// Generates the `scan` inputs for `seed`: a seeded
/// population and a seeded order of the fixed zone catalogue.
pub fn scan_inputs(seed: u64, probs: &ProbabilityMap, codebook: &CellCodebook) -> ScanInputs {
    let sampler = ZoneSampler::new(grid(), probs);
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, stream::POPULATION));
    let population = place(&sampler, SCAN_USERS, &mut rng);
    let mut zones = zone_catalogue(&sampler, codebook);
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, stream::ZONES));
    for i in (1..zones.len()).rev() {
        let j = rng.gen_range(0, i as u64 + 1) as usize;
        zones.swap(i, j);
    }
    ScanInputs { population, zones }
}

/// The fixed zone catalogue: [`ZONES`] likelihood-sampled disks, radii
/// cycling through [`RADII_M`]. Fixed like the map, so every run sends
/// the same mix of zone costs and only the order depends on the seed.
fn zone_catalogue(sampler: &ZoneSampler, codebook: &CellCodebook) -> Vec<Zone> {
    let mut rng = StdRng::seed_from_u64(MAP_SEED ^ stream::ZONES);
    (0..ZONES)
        .map(|i| {
            let radius = RADII_M[i % RADII_M.len()];
            Zone::new(
                sampler.sample_zone(radius, &mut rng).cell_indices(),
                codebook,
            )
        })
        .collect()
}

/// The moving zone of `churn`: the storm track's path across the grid,
/// one cell width per epoch at a fixed 1.5-cell radius, restarted every
/// [`STORM_CYCLE`] epochs so it never leaves the grid.
pub fn storm() -> ZoneTrajectory {
    let grid = grid();
    let (_, cell_w) = grid.cell_size_m();
    ZoneTrajectory {
        east_m_per_epoch: cell_w,
        start_radius_m: 1.5 * cell_w,
        radius_delta_m: 0.0,
        ..ZoneTrajectory::storm_track(&grid)
    }
}

/// The storm zones, indexed by `epoch % STORM_CYCLE`.
pub fn storm_zones(codebook: &CellCodebook) -> Vec<Zone> {
    let (grid, track) = (grid(), storm());
    (0..STORM_CYCLE)
        .map(|e| Zone::new(track.cells_at(&grid, e), codebook))
        .collect()
}

/// The `churn` inputs: epoch 0 is the prepared population, every later
/// epoch a batch of lifecycle events followed by one storm alert.
pub fn churn_inputs(seed: u64, probs: &ProbabilityMap) -> ChurnWorkload {
    let sampler = ZoneSampler::new(grid(), probs);
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, stream::CHURN));
    let (move_fraction, unsubscribe_fraction, resubscribe_fraction) = CHURN_RATES;
    ChurnConfig {
        users: CHURN_USERS,
        epochs: CHURN_EPOCHS,
        move_fraction,
        unsubscribe_fraction,
        resubscribe_fraction,
        alert_radius_m: RADII_M[0],
    }
    .generate(&sampler, &mut rng)
}

/// The wire request of one lifecycle event.
pub fn event_request(event: &ChurnEvent) -> Request {
    match *event {
        ChurnEvent::Subscribe { user_id, cell } | ChurnEvent::Move { user_id, cell } => {
            Request::Subscribe {
                user_id,
                cell: cell as u64,
            }
        }
        ChurnEvent::Unsubscribe { user_id } => Request::Unsubscribe { user_id },
    }
}

/// Applies one lifecycle event to a plaintext position map.
pub fn apply_event(positions: &mut BTreeMap<u64, usize>, event: &ChurnEvent) {
    match *event {
        ChurnEvent::Subscribe { user_id, cell } | ChurnEvent::Move { user_id, cell } => {
            positions.insert(user_id, cell);
        }
        ChurnEvent::Unsubscribe { user_id } => {
            positions.remove(&user_id);
        }
    }
}

/// The endless move schedule of the traced run on `scan`'s population
/// (its update and open-loop lateness probes): a uniformly chosen
/// subscriber moves to a likelihood-sampled cell. The same seed yields
/// the same sequence, however far it is read.
pub struct Moves {
    sampler: ZoneSampler,
    rng: StdRng,
}

impl Moves {
    /// The schedule for `seed`.
    pub fn new(seed: u64, probs: &ProbabilityMap) -> Moves {
        Moves {
            sampler: ZoneSampler::new(grid(), probs),
            rng: StdRng::seed_from_u64(sub_seed(seed, stream::MOVES)),
        }
    }
}

impl Iterator for Moves {
    type Item = (u64, usize);

    fn next(&mut self) -> Option<(u64, usize)> {
        let user = self.rng.gen_range(0, SCAN_USERS);
        Some((user, self.sampler.sample_epicenter_cell(&mut self.rng).0))
    }
}

#[cfg(test)]
/// The first `limit` requests of a workload's inputs for `seed`, in the
/// order one round uses them: for `scan` the population (as it re-sends
/// it over the wire), then the alerts; for `churn` the epochs' events,
/// each epoch followed by its storm alert. Used to check input
/// determinism.
pub fn request_stream(workload: &str, seed: u64, limit: usize) -> Vec<Request> {
    let probs = likelihoods();
    let codebook = codebook(&probs);
    let subscribe = |&(user_id, cell): &(u64, usize)| Request::Subscribe {
        user_id,
        cell: cell as u64,
    };
    let out: Vec<Request> = match workload {
        "scan" => {
            let inputs = scan_inputs(seed, &probs, &codebook);
            let ingest = inputs.population.iter().map(subscribe);
            ingest
                .chain(inputs.zones.iter().map(Zone::request))
                .collect()
        }
        "churn" => {
            let work = churn_inputs(seed, &probs);
            let storm = storm_zones(&codebook);
            let mut out: Vec<Request> = work.epochs[0].events.iter().map(event_request).collect();
            for (e, epoch) in work.epochs.iter().enumerate().skip(1) {
                out.extend(epoch.events.iter().map(event_request));
                out.push(storm[e % STORM_CYCLE].request());
                if out.len() >= limit {
                    break;
                }
            }
            out
        }
        other => panic!("unknown workload {other}"),
    };
    out.into_iter().take(limit).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sla_server::encode_request;

    fn stream_bytes(workload: &str, seed: u64) -> Vec<u8> {
        request_stream(workload, seed, 4000)
            .iter()
            .flat_map(encode_request)
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_request_streams() {
        for workload in ["scan", "churn"] {
            let a = stream_bytes(workload, 11);
            assert!(a.len() > 4000, "{workload}: stream too short");
            assert_eq!(a, stream_bytes(workload, 11), "{workload}");
        }
    }

    #[test]
    fn different_seeds_give_different_request_streams() {
        for workload in ["scan", "churn"] {
            assert_ne!(
                stream_bytes(workload, 11),
                stream_bytes(workload, 12),
                "{workload}"
            );
        }
    }

    #[test]
    fn storm_zones_stay_inside_the_grid_and_move() {
        let codebook = codebook(&likelihoods());
        let zones = storm_zones(&codebook);
        assert!(zones.iter().all(|z| !z.cells.is_empty() && z.tokens > 0));
        assert!(zones.windows(2).all(|w| w[0].cells != w[1].cells));
    }

    #[test]
    fn the_likelihood_map_gives_variable_length_codes() {
        // 1,024 equal-length prefix codes would be exactly 10 bits wide;
        // anything wider means the Huffman lengths vary.
        let codebook = codebook(&likelihoods());
        assert!(
            codebook.width_bits() > 10,
            "width {}",
            codebook.width_bits()
        );
    }
}
