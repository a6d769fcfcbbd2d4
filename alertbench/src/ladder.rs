//! The traced per-layer run: the alert pipeline composed from each
//! crate's public parts and timed from outside, one rung of the cost
//! chain at a time (Montgomery product → pairing → `match_token` → store
//! scan → service execute → wire), with a span around every call.
//!
//! Each phase runs at least one pass over its inputs and repeats passes
//! until its share of `--seconds` is spent. Counts (pairings, tokens,
//! frame bytes, WAL generations) come from one pass and repeat exactly.

use crate::inputs::{self, stream, sub_seed, Zone, STORM_CYCLE};
use crate::json::{Metrics, Record};
use crate::serve::{self, build_system, err, Res, Served, Workdir};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sla_bigint::{random_below, MontgomeryCtx};
use sla_core::{
    codeword_to_pattern, index_to_attribute, ConcurrentShardedStore, ConcurrentSubscriptionStore,
    ServiceProvider, StoredSubscription, Subscription, TrustedAuthority,
};
use sla_datasets::ChurnEvent;
use sla_hve::{HveScheme, SearchPattern, TokenCache};
use sla_pairing::{BilinearGroup, SimulatedGroup};
use sla_server::{
    decode_request, decode_response, encode_request, encode_response, AlertService, Request,
    Response,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Zones the matching rungs evaluate (a prefix of the workload's order).
const LADDER_ZONES: usize = 12;
/// Calls per span for primitives far below a microsecond.
const BATCH: u64 = 10_000;
/// Bytes a frame adds around its payload: length prefix and CRC.
const FRAME_OVERHEAD: usize = 8;
/// Passes over the zones per span of the minimization rung.
const MINIMIZE_PASSES: u64 = 100;
/// Whole-store passes per span of the empty-visitor scan.
const SCAN_PASSES: u64 = 1000;
/// Requests per timed pass of the cheap per-request rungs.
const PASS: usize = 256;
/// Move rate of the open-loop lateness probe, per second.
const PROBE_RATE: f64 = 500.0;

/// What the traced run produced.
pub struct Ladder {
    /// Every per-layer metric.
    pub metrics: Metrics,
    /// Facts for the run record.
    pub record: Record,
    /// Checked operations.
    pub attempted: u64,
    /// Operations that failed an oracle or cost-model check.
    pub failed: u64,
}

/// The workload's inputs as the ladder replays them.
struct LadderInputs {
    population: Vec<(u64, usize)>,
    /// Location updates of existing users (moves).
    moves: Vec<(u64, usize)>,
    zones: Vec<Zone>,
}

fn ladder_inputs(workload: &str, seed: u64) -> LadderInputs {
    let probs = inputs::likelihoods();
    let codebook = inputs::codebook(&probs);
    if workload == "churn" {
        let work = inputs::churn_inputs(seed, &probs);
        let population = work.positions_after(0);
        let moves = work.epochs[1..]
            .iter()
            .flat_map(|e| &e.events)
            .filter_map(|e| match *e {
                ChurnEvent::Move { user_id, cell } => Some((user_id, cell)),
                _ => None,
            })
            .filter(|(user, _)| population.binary_search_by_key(user, |p| p.0).is_ok())
            .take(4096)
            .collect();
        return LadderInputs {
            population,
            moves,
            zones: inputs::storm_zones(&codebook),
        };
    }
    let scan = inputs::scan_inputs(seed, &probs, &codebook);
    LadderInputs {
        population: scan.population,
        moves: inputs::Moves::new(seed, &probs).take(4096).collect(),
        zones: scan.zones.into_iter().take(LADDER_ZONES).collect(),
    }
}

/// Runs `pass` at least once and again until `budget` has elapsed.
fn fill(budget: Duration, mut pass: impl FnMut()) {
    let start = Instant::now();
    loop {
        pass();
        if start.elapsed() >= budget {
            break;
        }
    }
}

/// Checks collected while the ladder runs.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("alertbench: FAILED: {}", what());
        }
    }
}

/// Plaintext oracle: users of `population` inside `zone`, sorted.
fn oracle(population: &BTreeMap<u64, usize>, zone: &Zone) -> Vec<u64> {
    population
        .iter()
        .filter(|(_, &cell)| zone.contains(cell))
        .map(|(&user, _)| user)
        .collect()
}

/// Runs the ladder for `workload`.
pub fn run(workload: &str, seed: u64, seconds: f64, work: &Workdir) -> Res<Ladder> {
    let share = |w: f64| Duration::from_secs_f64(seconds * w);
    let probs = inputs::likelihoods();
    let codebook = inputs::codebook(&probs);
    let input = ladder_inputs(workload, seed);
    let live: BTreeMap<u64, usize> = input.population.iter().copied().collect();
    let n = input.population.len() as u64;
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, stream::LADDER));
    let mut tr = Tracer::new();
    let mut m = Metrics::default();
    let mut checks = Checks::default();

    // The parts, assembled by hand.
    let mut key_rng = StdRng::seed_from_u64(sub_seed(seed, stream::KEYS));
    let group = SimulatedGroup::generate(inputs::GROUP_BITS, &mut key_rng);
    let scheme = HveScheme::new(&group, codebook.width_bits());
    let (pk, sk) = scheme.setup(&mut key_rng);
    let ppk = scheme.prepare_public_key(&pk);
    let psk = scheme.prepare_secret_key(&sk);
    let mut ta = TrustedAuthority::new(sk, codebook.clone()).map_err(err)?;
    ta.prepare(&scheme);
    let n_order = group.params().n.clone();

    // --- bigint: the Montgomery product and exponentiation at N.
    let ctx = MontgomeryCtx::new(&n_order).ok_or("group order is even")?;
    let (a, b) = (
        ctx.to_mont(&random_below(&n_order, &mut rng)),
        ctx.to_mont(&random_below(&n_order, &mut rng)),
    );
    fill(share(0.03), || {
        let mut acc = a.clone();
        tr.time("bigint.mont_mul", None, 0, BATCH, || {
            for _ in 0..BATCH {
                acc = ctx.mont_mul(&acc, &b);
            }
        });
        black_box(&acc);
    });
    let exps: Vec<_> = (0..2000)
        .map(|_| random_below(&n_order, &mut rng))
        .collect();
    fill(share(0.03), || {
        let base = a.clone();
        tr.time("bigint.mod_pow", None, 0, exps.len() as u64, || {
            for e in &exps {
                black_box(ctx.mod_pow(&base, e));
            }
        });
    });
    let mont_ns = median(&tr.per_call_ns("bigint.mont_mul")).unwrap_or(0.0);
    m.push("bigint.mont_mul_ns", mont_ns, "ns");
    m.push("bigint.mod_pow_us", med_us(&tr, "bigint.mod_pow"), "us");

    // --- pairing: the simulated bilinear map and a prepared power.
    let g = group.g();
    let x = group.pow_g(&g, &random_below(&n_order, &mut rng));
    let y = group.pow_g(&g, &random_below(&n_order, &mut rng));
    fill(share(0.03), || {
        tr.time("pairing.pair", None, 0, BATCH, || {
            for _ in 0..BATCH {
                black_box(group.pair(black_box(&x), black_box(&y)));
            }
        });
    });
    let prepared = group.prepare_g(&x);
    fill(share(0.03), || {
        tr.time("pairing.pow_prepared", None, 0, exps.len() as u64, || {
            for e in &exps {
                black_box(group.pow_prepared_g(&prepared, e));
            }
        });
    });
    let pair_ns = median(&tr.per_call_ns("pairing.pair")).unwrap_or(0.0);
    m.push("pairing.pair_ns", pair_ns, "ns");
    m.push(
        "pairing.pow_prepared_us",
        med_us(&tr, "pairing.pow_prepared"),
        "us",
    );

    // --- encoding: zone minimization.
    fill(share(0.03), || {
        let calls = input.zones.len() as u64 * MINIMIZE_PASSES;
        tr.time("encoding.minimize", None, 0, calls, || {
            for _ in 0..MINIMIZE_PASSES {
                for zone in &input.zones {
                    black_box(codebook.try_tokens_for(&zone.cells).expect("cells in grid"));
                }
            }
        });
    });
    let zones_n = input.zones.len() as f64;
    m.push(
        "encoding.minimize_us",
        med_us(&tr, "encoding.minimize"),
        "us",
    );
    let tokens_per_alert = input.zones.iter().map(|z| z.tokens).sum::<u64>() as f64 / zones_n;
    m.push("encoding.tokens_per_alert", tokens_per_alert, "count");
    let bits = input.zones.iter().map(|z| z.non_star_bits).sum::<u64>() as f64 / zones_n;
    m.push("encoding.non_star_bits_per_alert", bits, "count");

    // --- hve: encryption, token generation, matching.
    let attr = |cell: usize| index_to_attribute(codebook.index_of(cell));
    let mut cts = Vec::with_capacity(input.population.len());
    for &(user, cell) in &input.population {
        let msg = scheme.encode_message(user);
        let ct = tr.time("hve.encrypt", None, 0, 1, || {
            scheme.encrypt_prepared(&ppk, &attr(cell), &msg, &mut rng)
        });
        cts.push((ct, msg));
    }
    let moves = &input.moves[..input.moves.len().min(PASS)];
    let msgs: Vec<_> = moves
        .iter()
        .map(|&(user, _)| scheme.encode_message(user))
        .collect();
    fill(share(0.04), || {
        tr.time("hve.encrypt", None, 0, moves.len() as u64, || {
            for (&(_, cell), msg) in moves.iter().zip(&msgs) {
                black_box(scheme.encrypt_prepared(&ppk, &attr(cell), msg, &mut rng));
            }
        });
    });
    m.push("hve.encrypt_us", med_us(&tr, "hve.encrypt"), "us");
    let patterns: Vec<Vec<SearchPattern>> = input
        .zones
        .iter()
        .map(|z| {
            let words = codebook.try_tokens_for(&z.cells).expect("cells in grid");
            words.iter().map(codeword_to_pattern).collect()
        })
        .collect();
    let tokens: Vec<Vec<_>> = patterns
        .iter()
        .map(|zone_patterns| {
            zone_patterns
                .iter()
                .map(|p| {
                    tr.time("hve.gen_token", None, 0, 1, || {
                        scheme.gen_token_prepared(&psk, p, &mut rng)
                    })
                })
                .collect()
        })
        .collect();
    let all_patterns: Vec<&SearchPattern> = patterns.iter().flatten().collect();
    fill(share(0.04), || {
        tr.time("hve.gen_token", None, 0, all_patterns.len() as u64, || {
            for p in &all_patterns {
                black_box(scheme.gen_token_prepared(&psk, p, &mut rng));
            }
        });
    });
    m.push("hve.gen_token_us", med_us(&tr, "hve.gen_token"), "us");
    // match_token over every (token, ciphertext) pair of the first zones.
    let pairs: Vec<_> = cts.iter().map(|(ct, msg)| (ct, msg)).collect();
    let mut pairings_per_match = Vec::new();
    fill(share(0.06), || {
        for zone_tokens in tokens.iter().take(3) {
            for token in zone_tokens {
                tr.time("hve.match_token", None, 0, n, || {
                    for (ct, msg) in &pairs {
                        black_box(scheme.match_token(token, ct, msg));
                    }
                });
                pairings_per_match.push(token.pairing_cost() as f64);
            }
        }
    });
    fill(share(0.06), || {
        for zone_tokens in tokens.iter().take(3) {
            for token in zone_tokens {
                tr.time("hve.match_token_batch", None, 0, n, || {
                    black_box(scheme.match_token_batch(token, &pairs))
                });
            }
        }
    });
    let match_ns = median(&tr.per_call_ns("hve.match_token")).unwrap_or(0.0);
    m.push("hve.match_ns_per_pair", match_ns, "ns");
    let match_batch_ns = median(&tr.per_call_ns("hve.match_token_batch")).unwrap_or(0.0);
    m.push("hve.match_batch_ns_per_pair", match_batch_ns, "ns");
    // Token reuse along the storm track, two cycles.
    let storm = inputs::storm_zones(&codebook);
    let mut cache = TokenCache::new();
    let (mut reused, mut generated) = (0usize, 0usize);
    for e in 0..2 * STORM_CYCLE {
        let words = codebook
            .try_tokens_for(&storm[e % STORM_CYCLE].cells)
            .expect("cells in grid");
        let pats: Vec<_> = words.iter().map(codeword_to_pattern).collect();
        let (_, stats) = scheme.regen_tokens_prepared(&psk, &mut cache, &pats, &mut rng);
        reused += stats.reused;
        generated += stats.generated;
    }
    m.push(
        "hve.token_reuse_frac",
        reused as f64 / (reused + generated).max(1) as f64,
        "ratio",
    );

    // --- core: the Trusted Authority and the Service Provider's store.
    fill(share(0.03), || {
        tr.time(
            "core.issue_tokens",
            None,
            0,
            input.zones.len() as u64,
            || {
                for zone in &input.zones {
                    let tokens = ta.issue_tokens(&scheme, &zone.cells, &mut rng);
                    black_box(tokens.expect("zone cells lie in the grid"));
                }
            },
        );
    });
    m.push(
        "core.issue_tokens_us",
        med_us(&tr, "core.issue_tokens"),
        "us",
    );
    fill(share(0.03), || {
        let mut cache = TokenCache::new();
        tr.time(
            "core.issue_tokens_cached",
            None,
            0,
            2 * STORM_CYCLE as u64,
            || {
                for e in 0..2 * STORM_CYCLE {
                    let cells = &storm[e % STORM_CYCLE].cells;
                    let tokens = ta.issue_tokens_cached(&scheme, &mut cache, cells, &mut rng);
                    black_box(tokens.expect("zone cells lie in the grid"));
                }
            },
        );
    });
    m.push(
        "core.issue_tokens_cached_us",
        med_us(&tr, "core.issue_tokens_cached"),
        "us",
    );
    let sp = ServiceProvider::with_backend(serve::volatile(), None).map_err(err)?;
    for (&(user, _), (ct, _)) in input.population.iter().zip(&cts) {
        let sub = Subscription {
            user_id: user,
            ciphertext: ct.clone(),
        };
        tr.time("core.upsert", None, 0, 1, || sp.upsert_shared(&scheme, sub))
            .map_err(err)?;
    }
    fill(share(0.03), || {
        let subs: Vec<_> = input
            .population
            .iter()
            .zip(&cts)
            .map(|(&(user_id, _), (ct, _))| Subscription {
                user_id,
                ciphertext: ct.clone(),
            })
            .collect();
        tr.time("core.upsert", None, 0, subs.len() as u64, || {
            for sub in subs {
                let _ = black_box(sp.upsert_shared(&scheme, sub));
            }
        });
    });
    m.push("core.upsert_us", med_us(&tr, "core.upsert"), "us");
    let store = ConcurrentShardedStore::new(inputs::STORE_SHARDS);
    for (&(user, _), (ct, msg)) in input.population.iter().zip(&cts) {
        store.upsert(StoredSubscription {
            user_id: user,
            ciphertext: ct.clone(),
            expected: msg.clone(),
            epoch: 0,
        });
    }
    fill(share(0.03), || {
        tr.time("core.read_shard", None, 0, n * SCAN_PASSES, || {
            for _ in 0..SCAN_PASSES {
                for shard in 0..store.shard_count() {
                    store.read_shard(shard, &mut |records| {
                        black_box(records);
                    });
                }
            }
        });
    });
    m.push(
        "core.scan_ns_per_sub",
        median(&tr.per_call_ns("core.read_shard")).unwrap_or(0.0),
        "ns",
    );
    fill(share(0.06), || {
        for (zone, zone_tokens) in input.zones.iter().zip(&tokens) {
            let notified = tr.time("core.match_alert_exhaustive", None, 0, 1, || {
                sp.match_alert_exhaustive(&scheme, zone_tokens)
            });
            let mut notified = notified.unwrap_or_default();
            notified.sort_unstable();
            checks.check(notified == oracle(&live, zone), || {
                "store match disagrees with the oracle".into()
            });
        }
    });
    m.push(
        "core.match_ms",
        med_ms(&tr, "core.match_alert_exhaustive"),
        "ms",
    );

    // The assembled system, in process.
    let system = build_system(seed, &probs, serve::volatile())?;
    let before = system.counters().snapshot();
    for &(user, cell) in &input.population {
        tr.time("core.subscribe", None, 0, 1, || {
            system.subscribe_cell_shared(user, cell, &mut rng)
        })
        .map_err(err)?;
    }
    let per_update = system.counters().snapshot() - before;
    fill(share(0.04), || {
        tr.time("core.subscribe", None, 0, moves.len() as u64, || {
            for &(user, cell) in moves {
                let _ = black_box(system.subscribe_cell_shared(user, cell, &mut rng));
            }
        });
    });
    // Put the population back where the oracle expects it.
    for &(user, cell) in &input.population {
        system
            .subscribe_cell_shared(user, cell, &mut rng)
            .map_err(err)?;
    }
    m.push("core.subscribe_us", med_us(&tr, "core.subscribe"), "us");
    // One pass for the exact counts; `core.alert_ms` is timed in the
    // stack below, beside the service and the wire.
    let mut alert_pairings = Vec::new();
    let mut g_exps_per_alert = Vec::new();
    for zone in &input.zones {
        let before = system.counters().snapshot();
        let outcome = tr.time("core.issue_alert", None, 0, 1, || {
            system.issue_alert(&zone.cells, &mut rng)
        });
        let delta = system.counters().snapshot() - before;
        match outcome {
            Ok(o) => {
                checks.check(
                    o.pairings_used == o.analytic_pairings
                        && o.pairings_used == zone.pairings_per_sub * n
                        && o.notified == oracle(&live, zone),
                    || format!("core alert: {} pairings", o.pairings_used),
                );
                alert_pairings.push(o.pairings_used as f64);
                g_exps_per_alert.push(delta.g_exps as f64);
            }
            Err(e) => checks.check(false, || e.to_string()),
        }
    }
    let p = n as f64;
    m.push("pairing.pairings_per_alert", mean(&alert_pairings), "count");
    m.push(
        "pairing.g_exps_per_update",
        per_update.g_exps as f64 / p,
        "count",
    );
    m.push(
        "pairing.gt_exps_per_update",
        per_update.gt_exps as f64 / p,
        "count",
    );
    m.push("pairing.g_exps_per_alert", mean(&g_exps_per_alert), "count");
    // Updates while alerts scan the store on another thread.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let mut during = Vec::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut rng = StdRng::seed_from_u64(sub_seed(seed, stream::LADDER) ^ 1);
            let mut k = 0;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let _ = system.issue_alert(&input.zones[k % input.zones.len()].cells, &mut rng);
                k += 1;
            }
        });
        let start = Instant::now();
        let interval = Duration::from_secs_f64(1.0 / PROBE_RATE);
        for (i, &(user, cell)) in input.moves.iter().cycle().enumerate() {
            if start.elapsed() >= share(0.06) {
                break;
            }
            let t = Instant::now();
            let _ = system.subscribe_cell_shared(user, cell, &mut rng);
            during.push(t.elapsed().as_nanos() as f64);
            let due = start + interval * (i as u32 + 1);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    m.push("core.upsert_during_scan_us", mean(&during) / 1e3, "us");
    drop(system);

    // --- persist: the durable store.
    let dir = work.join("ladder-durable");
    let empty_bytes = {
        let system = build_system(seed, &probs, serve::durable(&dir))?;
        system.sync().map_err(err)?;
        serve::dir_bytes(&dir)
    };
    let system = build_system(seed, &probs, serve::durable(&dir))?;
    for &(user, cell) in &input.population {
        tr.time("persist.upsert", None, 0, 1, || {
            system.subscribe_cell_shared(user, cell, &mut rng)
        })
        .map_err(err)?;
    }
    tr.time("persist.sync", None, 0, 1, || system.sync())
        .map_err(err)?;
    let bytes_per_update =
        serve::dir_bytes(&dir).saturating_sub(empty_bytes) as f64 / input.population.len() as f64;
    // Enough updates for several WAL generations per lane (one pass,
    // so the generation count repeats exactly).
    for &(user, cell) in input
        .moves
        .iter()
        .cycle()
        .take(8 * input.moves.len().min(1024))
    {
        system
            .subscribe_cell_shared(user, cell, &mut rng)
            .map_err(err)?;
    }
    let lanes = system.service_stats().durability_lanes;
    fill(share(0.04), || {
        tr.time("persist.upsert", None, 0, moves.len() as u64, || {
            for &(user, cell) in moves {
                let _ = black_box(system.subscribe_cell_shared(user, cell, &mut rng));
            }
        });
        let _ = tr.time("persist.sync", None, 0, 1, || system.sync());
    });
    system.sync().map_err(err)?;
    let live_subs = system.n_subscriptions();
    drop(system);
    let disk_per_sub = serve::dir_bytes(&dir) as f64 / live_subs as f64;
    fill(share(0.04), || {
        let reopened = tr.time("persist.reopen", None, 0, 1, || {
            build_system(seed, &probs, serve::durable(&dir))
        });
        if let Ok(sys) = reopened {
            checks.check(sys.n_subscriptions() == live_subs, || {
                "reopen lost subscriptions".into()
            });
        }
    });
    m.push("persist.upsert_us", med_us(&tr, "persist.upsert"), "us");
    m.push("persist.sync_ms", med_ms(&tr, "persist.sync"), "ms");
    m.push("persist.reopen_ms", med_ms(&tr, "persist.reopen"), "ms");
    m.push("persist.bytes_per_update", bytes_per_update, "bytes");
    m.push("persist.disk_bytes_per_sub", disk_per_sub, "bytes");
    let generations = lanes.iter().map(|l| l.wal_generation).max().unwrap_or(0);
    m.push("persist.wal_generations", generations as f64, "count");
    let depth = lanes.iter().map(|l| l.depth).max().unwrap_or(0);
    m.push("persist.lane_depth_max", depth as f64, "count");

    // --- server: request execution without a socket, and the codec.
    let service = AlertService::new(build_system(seed, &probs, serve::volatile())?).map_err(err)?;
    let subscribe = |&(user_id, cell): &(u64, usize)| Request::Subscribe {
        user_id,
        cell: cell as u64,
    };
    for update in &input.population {
        let req = subscribe(update);
        tr.time("server.handle.subscribe", None, 0, 1, || {
            service.handle(&req, &mut rng)
        });
    }
    let population = &input.population[..input.population.len().min(PASS)];
    fill(share(0.03), || {
        let unsubs: Vec<_> = population
            .iter()
            .map(|&(user_id, _)| Request::Unsubscribe { user_id })
            .collect();
        let subs: Vec<_> = population.iter().map(subscribe).collect();
        let calls = population.len() as u64;
        tr.time("server.handle.unsubscribe", None, 0, calls, || {
            for req in &unsubs {
                black_box(service.handle(req, &mut rng));
            }
        });
        tr.time("server.handle.subscribe", None, 0, calls, || {
            for req in &subs {
                black_box(service.handle(req, &mut rng));
            }
        });
    });
    m.push(
        "server.handle_subscribe_us",
        med_us(&tr, "server.handle.subscribe"),
        "us",
    );
    m.push(
        "server.handle_unsubscribe_us",
        med_us(&tr, "server.handle.unsubscribe"),
        "us",
    );
    let sample_sub = subscribe(&input.population[0]);
    let sample_ack = Response::Subscribed { replaced: true };
    fill(share(0.02), || {
        tr.time("server.codec.subscribe", None, 0, BATCH, || {
            for _ in 0..BATCH {
                let req = decode_request(&encode_request(black_box(&sample_sub)));
                let resp = decode_response(&encode_response(black_box(&sample_ack)));
                black_box((req.is_ok(), resp.is_ok()));
            }
        });
    });
    m.push(
        "server.codec_ns",
        median(&tr.per_call_ns("server.codec.subscribe")).unwrap_or(0.0),
        "ns",
    );
    m.push(
        "server.frame_bytes_subscribe",
        (encode_request(&sample_sub).len() + FRAME_OVERHEAD) as f64,
        "bytes",
    );
    let alert_bytes: usize = input
        .zones
        .iter()
        .map(|z| encode_request(&z.request()).len() + FRAME_OVERHEAD)
        .sum();
    m.push(
        "server.frame_bytes_alert",
        alert_bytes as f64 / zones_n,
        "bytes",
    );
    let alerted_bytes: usize = input
        .zones
        .iter()
        .map(|z| {
            let resp = Response::Alerted {
                notified: oracle(&live, z),
                tokens_issued: z.tokens as u32,
                pairings_used: z.pairings_per_sub * n,
            };
            encode_response(&resp).len() + FRAME_OVERHEAD
        })
        .sum();
    m.push(
        "server.frame_bytes_alerted",
        alerted_bytes as f64 / zones_n,
        "bytes",
    );
    drop(service);

    // --- loadgen: the same requests over the Unix socket.
    let served = Served::start(
        build_system(seed, &probs, serve::volatile())?,
        work.join("ladder.sock"),
    )?;
    let mut client = served.connect()?;
    let mut busy = 0u64;
    let service = served.service();
    // The wire cost of an alert, while the store is still empty: with no
    // ciphertexts to match, the executor's time is token issuance alone,
    // so the difference of a socket call and a direct `handle` of the same
    // request is not drowned by the matching's jitter.
    let mut wire_alert = Vec::new();
    fill(share(0.02), || {
        for (k, zone) in input.zones.iter().enumerate() {
            let req = zone.request();
            let r = tr.request();
            let outer = tr.open("stack.empty_alert", None, r);
            let mut ns = [0.0; 2];
            for step in 0..2 {
                let rung = (step + k) % 2;
                let (name, resp) = if rung == 0 {
                    let span = tr.open("stack.server.handle.empty_alert", Some(outer), r);
                    (span, Ok(service.handle(&req, &mut rng)))
                } else {
                    let span = tr.open("stack.loadgen.call.empty_alert", Some(outer), r);
                    (span, client.call_retrying(&req, &mut busy))
                };
                tr.close(name, 1);
                ns[rung] = tr.ns(name);
                checks.check(
                    matches!(&resp, Ok(Response::Alerted { notified, pairings_used: 0, .. })
                        if notified.is_empty()),
                    || format!("alert on the empty store answered {resp:?}"),
                );
            }
            tr.close(outer, 1);
            wire_alert.push(ns[1] - ns[0]);
        }
    });
    for update in &input.population {
        let req = subscribe(update);
        tr.time("loadgen.call.subscribe", None, 0, 1, || {
            client.call_retrying(&req, &mut busy)
        })
        .map_err(err)?;
    }
    fill(share(0.03), || {
        let subs: Vec<_> = population.iter().map(subscribe).collect();
        tr.time("loadgen.call.subscribe", None, 0, subs.len() as u64, || {
            for req in &subs {
                let _ = black_box(client.call_retrying(req, &mut busy));
            }
        });
    });
    // Open-loop lateness: moves on a fixed schedule.
    let mut lateness = Vec::new();
    let start = Instant::now();
    let interval = Duration::from_secs_f64(1.0 / PROBE_RATE);
    for (i, update) in input.moves.iter().enumerate() {
        let due = start + interval * i as u32;
        if due >= start + share(0.03) {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        lateness.push((Instant::now() - due).as_nanos() as f64);
        client
            .call_retrying(&subscribe(update), &mut busy)
            .map_err(err)?;
    }
    for update in &input.population {
        client
            .call_retrying(&subscribe(update), &mut busy)
            .map_err(err)?;
    }

    // --- the stack, rung by rung on the same request: each update and
    // alert runs through the service's executor (server) and the socket
    // (loadgen), each alert also through the store (core), back to back
    // in rotating order. Ratios and differences of neighbouring calls are
    // not swayed by the host's slow phases the way medians taken minutes
    // apart are.
    let mut wire_sub = Vec::new();
    fill(share(0.03), || {
        for (k, update) in population.iter().enumerate() {
            let req = subscribe(update);
            let r = tr.request();
            let outer = tr.open("stack.update", None, r);
            let mut ns = [0.0; 2];
            for step in 0..2 {
                let rung = (step + k) % 2;
                let span = if rung == 0 {
                    let span = tr.open("stack.server.handle.subscribe", Some(outer), r);
                    black_box(service.handle(&req, &mut rng));
                    span
                } else {
                    let span = tr.open("stack.loadgen.call.subscribe", Some(outer), r);
                    let _ = black_box(client.call_retrying(&req, &mut busy));
                    span
                };
                tr.close(span, 1);
                ns[rung] = tr.ns(span);
            }
            tr.close(outer, 1);
            wire_sub.push(ns[1] - ns[0]);
        }
    });
    let (mut stack_core, mut stack_handle, mut stack_call) = (Vec::new(), Vec::new(), Vec::new());
    let mut service_over_core = Vec::new();
    let mut wire_alert_pairings = 0u64;
    fill(share(0.16), || {
        for (k, zone) in input.zones.iter().enumerate() {
            let req = zone.request();
            let r = tr.request();
            let outer = tr.open("stack.alert", None, r);
            let mut ns = [0.0; 3];
            for step in 0..3 {
                let rung = (step + k) % 3;
                let span = match rung {
                    0 => {
                        let span = tr.open("stack.core.issue_alert", Some(outer), r);
                        let outcome = service.system().issue_alert(&zone.cells, &mut rng);
                        tr.close(span, 1);
                        checks.check(
                            matches!(&outcome, Ok(o) if o.notified == oracle(&live, zone)
                                && o.pairings_used == zone.pairings_per_sub * n),
                            || format!("stack core alert answered {outcome:?}"),
                        );
                        span
                    }
                    1 => {
                        let span = tr.open("stack.server.handle.alert", Some(outer), r);
                        let resp = service.handle(&req, &mut rng);
                        tr.close(span, 1);
                        check_response(&mut checks, resp, zone, &live, n, "stack server");
                        span
                    }
                    _ => {
                        let span = tr.open("stack.loadgen.call.alert", Some(outer), r);
                        let resp = client.call_retrying(&req, &mut busy);
                        tr.close(span, 1);
                        match resp {
                            Ok(resp) => {
                                check_response(&mut checks, resp, zone, &live, n, "stack wire")
                            }
                            Err(e) => checks.check(false, || e.to_string()),
                        }
                        span
                    }
                };
                ns[rung] = tr.ns(span);
            }
            tr.close(outer, 1);
            stack_core.push(ns[0]);
            stack_handle.push(ns[1]);
            stack_call.push(ns[2]);
            service_over_core.push(ns[1] / ns[0]);
            wire_alert_pairings += zone.pairings_per_sub * n;
        }
    });

    // --- tracing overhead: the same requests with and without spans.
    let (mut plain_ns, mut traced_ns) = (0.0, 0.0);
    let block_zones: Vec<&Zone> = input.zones.iter().take(2).collect();
    let block_updates = &input.population[..256.min(input.population.len())];
    let mut blocks = 0;
    let mut outer_spans = Vec::new();
    fill(share(0.06), || {
        // Alternate which side runs first, so warm-up and phase effects
        // fall on both.
        let order = if blocks % 2 == 0 { [false, true] } else { [true, false] };
        for traced in order {
            let start = Instant::now();
            for (i, update) in block_updates.iter().enumerate() {
                let req = subscribe(update);
                if traced {
                    let r = tr.request();
                    let outer = tr.open("e2e.update", None, r);
                    let _ = tr.time("loadgen.call.update", Some(outer), r, 1, || {
                        client.call_retrying(&req, &mut busy)
                    });
                    tr.close(outer, 1);
                    outer_spans.push(outer);
                } else {
                    let _ = black_box(client.call_retrying(&req, &mut busy));
                }
                if i % 128 == 0 {
                    let zone = block_zones[(i / 128) % block_zones.len()];
                    let req = zone.request();
                    if traced {
                        let r = tr.request();
                        let outer = tr.open("e2e.alert", None, r);
                        let _ = tr.time("loadgen.call.alert_traced", Some(outer), r, 1, || {
                            client.call_retrying(&req, &mut busy)
                        });
                        tr.close(outer, 1);
                    } else {
                        let _ = black_box(client.call_retrying(&req, &mut busy));
                    }
                }
            }
            let took = start.elapsed().as_nanos() as f64;
            if traced {
                traced_ns += took;
            } else {
                plain_ns += took;
            }
        }
        blocks += 1;
    });
    let stats = match client.call(&Request::Stats).map_err(err)? {
        Response::Stats(stats) => stats,
        other => return Err(format!("stats answered {other:?}")),
    };
    served.shutdown(client)?;
    m.push(
        "loadgen.call_subscribe_us",
        med_us(&tr, "loadgen.call.subscribe"),
        "us",
    );
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    // Means, not medians: every rung ran the same zones the same number
    // of times, so means over zones of different cost stay comparable.
    let (core_alert, handle_alert, call_alert) =
        (mean(&stack_core), mean(&stack_handle), mean(&stack_call));
    m.push("core.alert_ms", core_alert / 1e6, "ms");
    m.push("server.handle_alert_ms", handle_alert / 1e6, "ms");
    m.push("loadgen.call_alert_ms", call_alert / 1e6, "ms");
    m.push("loadgen.wire_subscribe_us", med(&wire_sub) / 1e3, "us");
    m.push("loadgen.wire_alert_us", med(&wire_alert) / 1e3, "us");
    m.push(
        "loadgen.lateness_us",
        median(&lateness).unwrap_or(0.0) / 1e3,
        "us",
    );

    // --- attribution: each rung over the rung below.
    let hve_pairings = mean(&pairings_per_match);
    let store_ns_per_pair = {
        let (ns, _) = tr.total("core.match_alert_exhaustive");
        let passes = tr.per_call_ns("core.match_alert_exhaustive").len() as f64 / zones_n;
        let pairs_per_pass: f64 = input.zones.iter().map(|z| (z.tokens * n) as f64).sum();
        ns / (passes * pairs_per_pass)
    };
    // A socket call is the executor's work plus the wire's.
    let wire_over_service = (handle_alert + med(&wire_alert)) / handle_alert;
    let ladder = [
        ("overhead.pair_over_mont", pair_ns / mont_ns),
        (
            "overhead.hve_over_pairings",
            match_ns / (hve_pairings * pair_ns),
        ),
        ("overhead.store_over_hve", store_ns_per_pair / match_ns),
        ("overhead.service_over_core", med(&service_over_core)),
        ("overhead.wire_over_service", wire_over_service),
        ("cost_model.residual_frac", {
            let wire_alert_ns: f64 = stack_call.iter().sum();
            (wire_alert_ns - wire_alert_pairings as f64 * pair_ns) / wire_alert_ns
        }),
        ("trace.overhead_frac", (traced_ns - plain_ns) / plain_ns),
    ];
    for (name, value) in ladder {
        m.push(name, value, "ratio");
    }
    eprint!(
        "{}",
        attribution(&[
            ("Montgomery product", mont_ns, None),
            ("pairing", pair_ns, Some(pair_ns / mont_ns)),
            (
                "match_token per (token, ct)",
                match_ns,
                Some(match_ns / (hve_pairings * pair_ns))
            ),
            (
                "store scan per (token, ct)",
                store_ns_per_pair,
                Some(store_ns_per_pair / match_ns)
            ),
            ("store + TA per alert", core_alert, None),
            (
                "service execute per alert",
                handle_alert,
                Some(med(&service_over_core))
            ),
            (
                "wire round trip per alert",
                call_alert,
                Some(wire_over_service)
            ),
        ])
    );

    let trace_path = PathBuf::from(format!("alertbench/out/trace-{workload}-{seed}.jsonl"));
    tr.write_jsonl(&trace_path).map_err(err)?;
    Ok(Ladder {
        metrics: m,
        record: vec![
            ("ladder_zones", input.zones.len().to_string()),
            ("ladder_population", n.to_string()),
            ("spans", tr.len().to_string()),
            ("trace_blocks", blocks.to_string()),
            ("pairings_per_match", format!("{hve_pairings:.2}")),
            (
                "trace_self_ns_per_request",
                format!(
                    "{:.0}",
                    mean(
                        &outer_spans
                            .iter()
                            .map(|&i| tr.self_ns(i) as f64)
                            .collect::<Vec<_>>()
                    )
                ),
            ),
            ("trace_file", trace_path.display().to_string()),
            ("server_busy_rejections", stats.busy_rejections.to_string()),
            ("loadgen_busy_retries", busy.to_string()),
        ],
        attempted: checks.attempted,
        failed: checks.failed,
    })
}

/// Checks one `Alerted` response against the oracle and the cost model.
fn check_response(
    checks: &mut Checks,
    resp: Response,
    zone: &Zone,
    live: &BTreeMap<u64, usize>,
    n: u64,
    path: &str,
) {
    let ok = matches!(&resp, Response::Alerted { notified, pairings_used, .. }
        if *notified == oracle(live, zone) && *pairings_used == zone.pairings_per_sub * n);
    checks.check(ok, || format!("{path} alert answered {resp:?}"));
}

fn med_us(tr: &Tracer, name: &str) -> f64 {
    median(&tr.per_call_ns(name)).unwrap_or(0.0) / 1e3
}

fn med_ms(tr: &Tracer, name: &str) -> f64 {
    median(&tr.per_call_ns(name)).unwrap_or(0.0) / 1e6
}

/// The attribution table: each rung's cost and its ratio to the rung
/// below (for the store, service and wire rungs, to the same unit one
/// layer down).
fn attribution(rungs: &[(&str, f64, Option<f64>)]) -> String {
    let mut out = String::from("  attribution (rung, ns, x rung below)\n");
    for (name, ns, over) in rungs {
        let over = over.map_or("-".to_string(), |x| format!("x{x:.3}"));
        out.push_str(&format!("    {name:<30} {ns:>16.1} ns  {over}\n"));
    }
    out
}
