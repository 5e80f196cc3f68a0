//! End-to-end and per-layer benchmark of the beamline system.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path beambench/Cargo.toml -- \
//!     --workload <beamtime|archive|reprocess|campaign> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload sets itself up (timed as `setup_s`), then runs whole
//! operations back to back for `--seconds`, checks every output, and
//! prints one JSON line: with `--trace 0` the end-to-end metrics, with
//! `--trace 1` the per-layer metrics timed from outside the program by
//! calling each layer's public functions on the same inputs. See
//! `beambench/README.md` for what each metric means on each workload.

mod analytic;
mod archive;
mod beamtime;
mod campaign;
mod checks;
mod report;

use report::{EnvBlock, Outcome};

/// Every per-layer metric, in output order, with its unit. A traced run
/// of any workload prints all of them; a layer the workload does not
/// run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("phantom.render_ms_per_scan", "ms"),
    ("stream.publish_us_per_frame", "us"),
    ("stream.ingest_us_per_frame", "us"),
    ("stream.finish_ms", "ms"),
    ("stream.mirror_forwarded", "count"),
    ("stream.frames_dropped", "count"),
    ("stream.frames_rejected", "count"),
    ("stream.deep_copies", "count"),
    ("stream.slabs_allocated", "count"),
    ("stream.plans_built", "count"),
    ("stream.plan_cache_hits", "count"),
    ("tomo.fbp_plan_build_ms", "ms"),
    ("tomo.fbp_volume_ms", "ms"),
    ("tomo.fbp_slice_ms", "ms"),
    ("tomo.gridrec_slice_ms", "ms"),
    ("tomo.fbp_mpix_angles_per_s", "1/s"),
    ("tomo.prep_ms", "ms"),
    ("tomo.sirt_plan_build_ms", "ms"),
    ("tomo.sirt_slice_ms", "ms"),
    ("scidata.scan_save_ms", "ms"),
    ("scidata.scan_bytes_written", "bytes"),
    ("scidata.scan_load_ms", "ms"),
    ("scidata.scan_bytes_read", "bytes"),
    ("scidata.tiff_write_ms", "ms"),
    ("scidata.tiff_bytes_written", "bytes"),
    ("scidata.multiscale_write_ms", "ms"),
    ("scidata.multiscale_bytes_written", "bytes"),
    ("pipeline.plan_build_ms", "ms"),
    ("pipeline.load_busy_ms", "ms"),
    ("pipeline.prep_busy_ms", "ms"),
    ("pipeline.recon_busy_ms", "ms"),
    ("pipeline.sink_busy_ms", "ms"),
    ("pipeline.sink_overlap_ratio", "ratio"),
    ("catalog.ingest_us", "us"),
    ("simcore.sim_run_ms", "ms"),
    ("orchestrator.encode_us_per_record", "us"),
    ("orchestrator.crc_us_per_record", "us"),
    ("orchestrator.append_us_per_record", "us"),
    ("orchestrator.wal_write_ms", "ms"),
    ("orchestrator.wal_sync_ms", "ms"),
    ("orchestrator.journal_records", "count"),
    ("orchestrator.journal_writes", "count"),
    ("orchestrator.journal_bytes", "bytes"),
    ("orchestrator.replay_ms", "ms"),
    ("orchestrator.recover_fleet_ms", "ms"),
    ("orchestrator.recoveries", "count"),
    ("facility.redirects", "count"),
    ("traced.wait_p50_ms", "ms"),
    ("traced.data_ready_p50_ms", "ms"),
    ("traced.scans_per_s", "1/s"),
    ("traced.cpu_ms_per_scan", "ms"),
];

/// Command-line arguments shared by every workload.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set up once, report `setup_s` alone and exit: the child processes
    /// that time the extra set-ups (see `report::repeated_setup`).
    pub setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--setup-only" => setup_only = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        setup_only,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("beambench: {e}");
            eprintln!(
                "usage: beambench --workload <beamtime|archive|reprocess|campaign> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let env = EnvBlock::capture();
    let result: Result<Outcome, String> = match args.workload.as_str() {
        "beamtime" => beamtime::run(&args),
        "archive" => archive::run(&args, &archive::ARCHIVE),
        "reprocess" => archive::run(&args, &archive::REPROCESS),
        "campaign" => campaign::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    match result {
        Ok(outcome) => outcome.print(&env),
        Err(e) => {
            eprintln!("beambench: {e}");
            std::process::exit(1);
        }
    }
}
