//! `campaign`: a 100-scan production campaign under the R5 fault
//! schedule (rolling OLCF → NERSC → ALCF outages plus one coordinator
//! crash), with the 3-facility cost-aware router and the durable
//! sharded WAL; then `ShardedOrchestrator::recover_fleet` over the
//! campaign's final journal images, as an operator's restart would.
//! `orchestrator`, `facility`, `simcore` and the WAL do the work; there
//! is no `tomo` or `stream`.

use crate::report::{ms, repeated_setup, us, Layers, OpLog, OpTimer, Outcome, Scratch};
use crate::{checks, Args, PER_LAYER};
use als_facility::RouterMode;
use als_flows::observability::observability_plan;
use als_flows::scan::ScanWorkload;
use als_flows::sim::{FacilitySim, SimConfig};
use als_orchestrator::{Journal, JournalRecord, ShardedOrchestrator};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Scans per campaign. A back-to-back production campaign beyond ~180
/// scans fills the 20 TiB beamline tier and `new_file_832` starts to
/// fail, so the campaign stays well below that.
const SCANS: usize = 100;

/// Campaign seeds, each of which completes every branch under the R5
/// schedule. `--seed` picks where the cycle starts; every seed recurs
/// within a run, which is what the byte-identical replay check needs.
const SEEDS: [u64; 8] = [832, 833, 834, 835, 836, 837, 838, 839];

struct State {
    /// Journal images of each seed's first campaign, for the
    /// byte-identical check.
    reference: Vec<Vec<Vec<u8>>>,
    wal_dir: PathBuf,
}

/// Run one campaign to completion; returns the drained simulator (its
/// journals committed) and the wall time of `FacilitySim::run`.
fn campaign(seed: u64) -> (FacilitySim, Duration) {
    let mut sim = FacilitySim::new(SimConfig {
        seed,
        faults: observability_plan(),
        failover_enabled: true,
        olcf_enabled: true,
        router_mode: RouterMode::CostAware,
        durable_recovery: true,
        ..Default::default()
    });
    let mut workload = ScanWorkload::production().with_cadence_secs(300.0);
    sim.schedule_campaign(&mut workload, SCANS);
    let t = Instant::now();
    sim.run(None);
    let run = t.elapsed();
    sim.orch.commit_all();
    (sim, run)
}

fn setup(scratch: &Scratch) -> Result<State, String> {
    let reference = SEEDS
        .iter()
        .map(|&seed| {
            let (sim, _) = campaign(seed);
            checks::campaign(sim.branches_completed(), SCANS, sim.duplicate_side_effects)
                .map_err(|e| format!("seed {seed}: {e}"))?;
            Ok(sim.orch.crash_images())
        })
        .collect::<Result<_, String>>()?;
    Ok(State {
        reference,
        wal_dir: scratch.fresh("wal")?,
    })
}

/// Write the journal images to one file per shard; returns the time of
/// the writes and of `sync_data`.
fn persist(dir: &Path, images: &[Vec<u8>]) -> Result<(Duration, Duration), String> {
    let t = Instant::now();
    let mut files = Vec::with_capacity(images.len());
    for (k, image) in images.iter().enumerate() {
        let path = dir.join(format!("shard{k}.wal"));
        let mut f = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        f.write_all(image)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        files.push(f);
    }
    let written = t.elapsed();
    let t = Instant::now();
    for f in &files {
        f.sync_data().map_err(|e| format!("WAL sync: {e}"))?;
    }
    Ok((written, t.elapsed()))
}

fn recover(
    sim: &FacilitySim,
    images: &[Vec<u8>],
) -> (ShardedOrchestrator, als_orchestrator::FleetRecoveryInfo) {
    ShardedOrchestrator::recover_fleet(
        images,
        "orch-restart",
        sim.now(),
        sim.cfg.group_commit_batch,
    )
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let scratch = Scratch::new("campaign")?;
    let (st, setup_s) = repeated_setup(args, || setup(&scratch))?;
    if args.setup_only {
        return Ok(Outcome::setup_only(setup_s));
    }
    let mut out = Outcome::default();
    let mut log = OpLog::default();
    let mut layers = Layers::default();
    let start = (args.seed % SEEDS.len() as u64) as usize;

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut i = 0usize;
    while i == 0 || Instant::now() < deadline {
        let k = (start + i) % SEEDS.len();
        out.attempted += 1;
        let timer = OpTimer::start();
        let (sim, run) = campaign(SEEDS[k]);
        let images = sim.orch.crash_images();
        let t = Instant::now();
        let decoded: usize = images
            .iter()
            .map(|im| Journal::replay_bytes(im).0.len())
            .sum();
        let readable = t.elapsed();
        let t = Instant::now();
        let (fleet, info) = recover(&sim, &images);
        let restart = t.elapsed();
        let op = timer.stop();
        log.push(restart, readable, Some(run), &op);
        std::hint::black_box(decoded);

        out.check(checks::campaign(
            sim.branches_completed(),
            SCANS,
            sim.duplicate_side_effects,
        ));
        out.check(checks::recovery(
            &sim.orch.completed_union(),
            &fleet.completed_union(),
            &info,
        ));
        out.check(checks::identical_images(&st.reference[k], &images));
        if args.trace {
            out.check(probe(&st, &sim, &images, run, &mut layers));
        }
        i += 1;
    }

    let scans = SCANS as f64;
    if args.trace {
        layers.report(&mut out, PER_LAYER);
        log.report(&mut out, "traced.", scans);
    } else {
        out.put("setup_s", setup_s, "s");
        log.report(&mut out, "", scans);
        out.put("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
    }
    Ok(out)
}

/// The traced half of a round: the WAL's costs split per record
/// (encode, CRC of the framed line, append), the write and sync of the
/// images, replay alone, and recovery, all on this campaign's records.
fn probe(
    st: &State,
    sim: &FacilitySim,
    images: &[Vec<u8>],
    run: Duration,
    layers: &mut Layers,
) -> Result<(), String> {
    layers.time("simcore.sim_run_ms", ms(run));
    let records: Vec<JournalRecord> = layers.span("orchestrator.replay_ms", 1e3, || {
        images
            .iter()
            .flat_map(|image| Journal::replay_bytes(image).0)
            .collect()
    });
    let n = records.len().max(1) as f64;

    let t = Instant::now();
    let payloads: Vec<String> = records
        .iter()
        .map(|r| serde_json::to_string(r).map_err(|e| format!("encode: {e:?}")))
        .collect::<Result<_, _>>()?;
    layers.time("orchestrator.encode_us_per_record", us(t.elapsed()) / n);

    // the journal frames `"{seq:016x} {payload}"` and checksums that line
    let framed: Vec<Vec<u8>> = payloads
        .iter()
        .enumerate()
        .map(|(seq, p)| format!("{seq:016x} {p}").into_bytes())
        .collect();
    let t = Instant::now();
    let crc = framed
        .iter()
        .fold(0u32, |acc, f| acc ^ als_scidata::crc32(f));
    layers.time("orchestrator.crc_us_per_record", us(t.elapsed()) / n);
    std::hint::black_box(crc);

    let mut journal = Journal::new();
    journal.set_group_commit(sim.cfg.group_commit_batch);
    let t = Instant::now();
    for r in &records {
        journal.append(r);
    }
    journal.flush();
    layers.time("orchestrator.append_us_per_record", us(t.elapsed()) / n);

    let (write, sync) = persist(&st.wal_dir, images)?;
    layers.time("orchestrator.wal_write_ms", ms(write));
    layers.time("orchestrator.wal_sync_ms", ms(sync));
    layers.span("orchestrator.recover_fleet_ms", 1e3, || {
        recover(sim, images)
    });

    layers.count(
        "orchestrator.journal_records",
        sim.orch.journal_records() as f64,
    );
    layers.count(
        "orchestrator.journal_writes",
        sim.orch.journal_writes() as f64,
    );
    layers.count(
        "orchestrator.journal_bytes",
        images.iter().map(Vec::len).sum::<usize>() as f64,
    );
    layers.count("facility.redirects", sim.failover_count as f64);
    layers.count("orchestrator.recoveries", sim.recovery_count as f64);
    Ok(())
}
