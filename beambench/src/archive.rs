//! `archive` and `reprocess`: the file branch, one scan file per
//! operation.
//!
//! * `archive` — scan file → `ScanFile::load` → pipeline (fused prep,
//!   SIRT at the paper recipe of 100 iterations) → TIFF + multiscale
//!   sinks → `Catalog::ingest` of the derived dataset with provenance to
//!   the raw one. SIRT does nearly all of the work.
//! * `reprocess` — a large-detector scan (Case Study 2's retrospective
//!   re-analysis) → load → FBP pipeline → TIFF + multiscale. The scan
//!   read, the archive sinks and large-n FBP all carry weight.

use crate::report::{
    dir_bytes, ms, repeated_setup, Layers, OpLog, OpTime, OpTimer, Outcome, Scratch,
};
use crate::{analytic, checks, Args, PER_LAYER};
use als_catalog::{raw_scan_dataset, recon_dataset, Catalog, InstrumentMetadata};
use als_flows::realmode::FileBranchConfig;
use als_phantom::{shepp_logan_volume, DetectorConfig, ScanSimulator};
use als_scidata::{MultiscaleStore, MultiscaleWriter, ScanFile, TiffStackSink};
use als_simcore::{ByteSize, SimInstant};
use als_tomo::pipeline::{self, PipelineConfig, PipelineReport, ReconKind, SliceSink};
use als_tomo::{
    FbpConfig, Geometry, GridrecConfig, GridrecPlan, Image, IterConfig, IterPlan, RawPrepPlan,
    ReconPlan, Sinogram, Volume,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq)]
pub enum Recon {
    /// SIRT at the file branch's recipe (`FileBranchConfig::default`).
    Sirt,
    /// Filtered backprojection.
    Fbp,
}

/// One file-branch workload's inputs and quality floors.
pub struct Spec {
    name: &'static str,
    /// Detector width (= phantom side), rows (= slices), projections.
    n: usize,
    nz: usize,
    angles: usize,
    recon: Recon,
    /// Distinct scan files written in set-up; the loop cycles them.
    files: usize,
    /// Register each derived volume in the catalogue.
    catalog: bool,
    /// Chunk shape `[z, y, x]` of the multiscale product.
    chunk: [usize; 3],
    /// Per-slice PSNR floor (dB) and disk-MSE ceiling against the phantom.
    min_psnr: f64,
    max_mse: f64,
}

pub const ARCHIVE: Spec = Spec {
    name: "archive",
    n: 64,
    nz: 8,
    angles: 90,
    recon: Recon::Sirt,
    files: 2,
    catalog: true,
    chunk: [4, 32, 32],
    min_psnr: 16.0,
    max_mse: 0.03,
};

pub const REPROCESS: Spec = Spec {
    name: "reprocess",
    n: 512,
    nz: 4,
    angles: 360,
    recon: Recon::Fbp,
    files: 2,
    catalog: false,
    // the recipe's [4, 32, 32] would cut each 512² plane into 256 chunk
    // files, and file creation would then outweigh the FBP itself
    chunk: [4, 128, 128],
    min_psnr: 24.0,
    max_mse: 0.005,
};

/// Where derived datasets are registered as reconstructed.
const FACILITY: &str = "beamline";

struct State {
    truth: Volume,
    mu_scale: f64,
    files: Vec<PathBuf>,
    out_dir: PathBuf,
    catalog: Catalog,
    /// Scans registered in `catalog` so far.
    registered: Vec<String>,
}

fn pipeline_config(spec: &Spec, mu_scale: f64) -> PipelineConfig {
    let recipe = FileBranchConfig::default();
    PipelineConfig {
        recon: match spec.recon {
            Recon::Sirt => ReconKind::Sirt(IterConfig {
                iterations: recipe.sirt_iterations,
                ..Default::default()
            }),
            Recon::Fbp => ReconKind::Fbp(FbpConfig::default()),
        },
        mu_scale,
        zinger_threshold: recipe.zinger_threshold,
        slab_rows: recipe.slab_rows,
        queue_depth: recipe.queue_depth,
        ..Default::default()
    }
}

fn setup(spec: &Spec, seed: u64, scratch: &Scratch) -> Result<State, String> {
    let truth = shepp_logan_volume(spec.n, spec.nz);
    let geom = Geometry::parallel_180(spec.angles, spec.n);
    let det = DetectorConfig::default();
    let in_dir = scratch.fresh(&format!("{}-in", spec.name))?;
    let mut sim = match spec.recon {
        // small detectors come from the phantom crate's simulator; the
        // large one from closed-form projections (see `analytic`)
        Recon::Sirt => Some(ScanSimulator::new(&truth, geom.clone(), det, seed)),
        Recon::Fbp => None,
    };
    let mut files = Vec::with_capacity(spec.files);
    for k in 0..spec.files {
        let name = format!("{}_{seed}_{k}", spec.name);
        let scan = match sim.as_mut() {
            Some(sim) => ScanFile::from_frames(
                &name,
                &sim.all_frames(),
                sim.dark_field(),
                sim.flat_field(),
                &geom.angles,
            ),
            None => {
                let f = analytic::render(spec.n, spec.nz, &geom, &det, seed * 16 + k as u64);
                ScanFile::from_raw_parts(
                    &name,
                    spec.angles,
                    spec.nz,
                    spec.n,
                    f.stack,
                    &f.dark,
                    &f.flat,
                    &geom.angles,
                )
            }
        }
        .map_err(|e| format!("scan file {name}: {e}"))?;
        let path = in_dir.join(format!("{name}.sdf"));
        scan.save(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        files.push(path);
    }
    let mut st = State {
        truth,
        mu_scale: det.mu_scale,
        files,
        out_dir: scratch.fresh(&format!("{}-out", spec.name))?,
        catalog: Catalog::new(),
        registered: Vec::new(),
    };
    // warm-up operation: faults in the files and every buffer
    let (report, ..) = archive_op(spec, &mut st, 0, &format!("{}_warmup", spec.name))?;
    check_products(spec, &st, &report)?;
    Ok(st)
}

/// Register the raw dataset of `scan_id`, as `new_file_832` does when
/// the file lands; not part of the timed operation.
fn register_raw(cat: &mut Catalog, scan_id: &str, path: &Path, spec: &Spec) -> Result<(), String> {
    let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
    let instrument = InstrumentMetadata {
        beamline: "8.3.2".into(),
        n_angles: spec.angles,
        detector_rows: spec.nz,
        detector_cols: spec.n,
        pixel_size_um: 0.65,
        exposure_ms: 30.0,
    };
    cat.ingest(raw_scan_dataset(
        scan_id,
        "als-user",
        SimInstant::ZERO,
        ByteSize::from_bytes(bytes),
        instrument,
    ))
    .map_err(|e| format!("raw dataset {scan_id}: {e}"))
}

/// One operation: file `i % files` becomes archived products (and a
/// catalogue entry) under `out_dir`. Returns the pipeline report, the
/// load time, and the operation's time (its wall time is the
/// file→products wait).
fn archive_op(
    spec: &Spec,
    st: &mut State,
    i: usize,
    scan_id: &str,
) -> Result<(PipelineReport, Duration, OpTime), String> {
    let path = st.files[i % spec.files].clone();
    std::fs::remove_dir_all(&st.out_dir).ok();
    if spec.catalog {
        register_raw(&mut st.catalog, scan_id, &path, spec)?;
    }
    let cfg = pipeline_config(spec, st.mu_scale);
    let recipe = FileBranchConfig::default();

    let timer = OpTimer::start();
    let scan = ScanFile::load(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let loaded = timer.elapsed();
    let mut tiff = TiffStackSink::new(&st.out_dir.join("tiff"));
    let mut mzarr = MultiscaleWriter::new(
        &st.out_dir.join("multiscale"),
        scan_id,
        spec.chunk,
        recipe.multiscale_levels,
    );
    let report = {
        let mut sinks: [&mut dyn SliceSink; 2] = [&mut tiff, &mut mzarr];
        pipeline::run(&scan, &mut sinks, &cfg).map_err(|e| format!("{scan_id}: {e}"))?
    };
    if spec.catalog {
        let raw = als_catalog::DatasetPid(format!("als/8.3.2/raw/{scan_id}"));
        let size = ByteSize::from_bytes((spec.n * spec.n * spec.nz * 4) as u64);
        st.catalog
            .ingest(recon_dataset(
                scan_id,
                FACILITY,
                &raw,
                SimInstant::ZERO,
                size,
            ))
            .map_err(|e| format!("derived dataset {scan_id}: {e}"))?;
    }
    let t = timer.stop();
    if spec.catalog {
        st.registered.push(scan_id.to_string());
    }
    Ok((report, loaded, t))
}

fn read_products(st: &State) -> Result<(Vec<Image>, Vec<Volume>), String> {
    let tiff = als_scidata::tiff::read_stack(&st.out_dir.join("tiff"))
        .map_err(|e| format!("TIFF stack: {e}"))?;
    let store = MultiscaleStore::open(&st.out_dir.join("multiscale"))
        .map_err(|e| format!("multiscale store: {e}"))?;
    let levels = (0..store.n_levels())
        .map(|l| store.read_level(l).map_err(|e| format!("level {l}: {e}")))
        .collect::<Result<_, _>>()?;
    Ok((tiff, levels))
}

/// Returns the lowest slice PSNR and highest disk MSE.
fn check_products(spec: &Spec, st: &State, report: &PipelineReport) -> Result<(f64, f64), String> {
    if report.slices != spec.nz {
        return Err(format!(
            "{} slices reconstructed, expected {}",
            report.slices, spec.nz
        ));
    }
    let (tiff, levels) = read_products(st)?;
    checks::archive_products(&tiff, &levels)?;
    checks::volume_quality(&tiff, &st.truth, spec.min_psnr, spec.max_mse)
}

pub fn run(args: &Args, spec: &Spec) -> Result<Outcome, String> {
    let scratch = Scratch::new(spec.name)?;
    let (mut st, setup_s) = repeated_setup(args, || setup(spec, args.seed, &scratch))?;
    if args.setup_only {
        return Ok(Outcome::setup_only(setup_s));
    }
    // the catalogue check covers the timed operations only
    st.catalog = Catalog::new();
    st.registered.clear();
    let mut out = Outcome::default();
    let mut log = OpLog::default();
    let mut layers = Layers::default();
    let mut probe = if args.trace {
        Some(Probe::new(spec, &scratch)?)
    } else {
        None
    };

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut i = 0usize;
    while i == 0 || Instant::now() < deadline {
        let scan_id = format!("{}{}_{i:05}", spec.name, args.seed);
        out.attempted += 1;
        match archive_op(spec, &mut st, i, &scan_id) {
            Ok((report, ready, t)) => {
                log.push(t.wall, ready, None, &t);
                match check_products(spec, &st, &report) {
                    Ok((q, e)) => {
                        out.note_min("volume_psnr_db", q);
                        out.note_max("volume_disk_mse", e);
                    }
                    Err(e) => out.check(Err(e)),
                }
                if let Some(p) = probe.as_mut() {
                    out.check(p.round(spec, &st, i, &report, &mut layers));
                }
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("{scan_id}: {e}");
            }
        }
        i += 1;
    }
    if spec.catalog {
        out.check(checks::catalog(&st.catalog, &st.registered, FACILITY));
    }

    if args.trace {
        layers.report(&mut out, PER_LAYER);
        log.report(&mut out, "traced.", 1.0);
    } else {
        out.put("setup_s", setup_s, "s");
        log.report(&mut out, "", 1.0);
        out.put("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
    }
    Ok(out)
}

/// The traced half of a round: the operation's layers called one at a
/// time on the same scan file and products.
struct Probe {
    geom: Geometry,
    /// Built once: only its per-slice cost is probed.
    gridrec: Option<GridrecPlan>,
    dir: PathBuf,
    catalog: Catalog,
}

impl Probe {
    fn new(spec: &Spec, scratch: &Scratch) -> Result<Probe, String> {
        let geom = Geometry::parallel_180(spec.angles, spec.n);
        let gridrec = match spec.recon {
            Recon::Fbp => Some(
                GridrecPlan::new(&geom, &GridrecConfig::default())
                    .map_err(|e| format!("gridrec plan: {e}"))?,
            ),
            Recon::Sirt => None,
        };
        Ok(Probe {
            geom,
            gridrec,
            dir: scratch.fresh(&format!("{}-probe", spec.name))?,
            catalog: Catalog::new(),
        })
    }

    fn round(
        &mut self,
        spec: &Spec,
        st: &State,
        i: usize,
        report: &PipelineReport,
        layers: &mut Layers,
    ) -> Result<(), String> {
        layers.time("pipeline.plan_build_ms", ms(report.plan_build));
        layers.time("pipeline.load_busy_ms", ms(report.load_busy));
        layers.time("pipeline.prep_busy_ms", ms(report.prep_busy));
        layers.time("pipeline.recon_busy_ms", ms(report.recon_busy));
        layers.time("pipeline.sink_busy_ms", ms(report.sink_busy));
        let sink = report.sink_busy.as_secs_f64();
        if sink > 0.0 {
            layers.time(
                "pipeline.sink_overlap_ratio",
                report.sink_busy_overlapped.as_secs_f64() / sink,
            );
        }

        let path = &st.files[i % spec.files];
        let scan = layers
            .span("scidata.scan_load_ms", 1e3, || ScanFile::load(path))
            .map_err(|e| format!("probe load: {e}"))?;
        layers.count(
            "scidata.scan_bytes_read",
            std::fs::metadata(path).map_or(0, |m| m.len()) as f64,
        );

        // fused prep of the whole scan, as the pipeline's prep stage does
        let (n_angles, rows, cols) = scan.shape();
        let cfg = pipeline_config(spec, st.mu_scale);
        let sinos: Vec<Sinogram> = layers.span("tomo.prep_ms", 1e3, || {
            let prep = RawPrepPlan::new(
                scan.dark(),
                scan.flat(),
                rows,
                cols,
                cfg.mu_scale,
                cfg.zinger_threshold,
            );
            (0..rows)
                .map(|r| {
                    let mut s = Sinogram::zeros(n_angles, cols);
                    for a in 0..n_angles {
                        prep.prep_angle_row(
                            r,
                            &scan.frame_data(a)[r * cols..(r + 1) * cols],
                            s.row_mut(a),
                        );
                    }
                    s
                })
                .collect()
        });
        let mid = &sinos[rows / 2];
        let mut slice = vec![0.0f32; cols * cols];
        match (&cfg.recon, &self.gridrec) {
            (ReconKind::Sirt(c), _) => {
                let plan = layers
                    .span("tomo.sirt_plan_build_ms", 1e3, || {
                        IterPlan::new(&self.geom, c)
                    })
                    .map_err(|e| format!("probe SIRT plan: {e}"))?;
                let mut scratch = plan.make_scratch();
                layers.span("tomo.sirt_slice_ms", 1e3, || {
                    plan.sirt_into(mid, &mut scratch, &mut slice)
                });
            }
            (ReconKind::Fbp(c), Some(gridrec)) => {
                let plan = layers
                    .span("tomo.fbp_plan_build_ms", 1e3, || {
                        ReconPlan::new(&self.geom, c)
                    })
                    .map_err(|e| format!("probe FBP plan: {e}"))?;
                let mut scratch = plan.make_scratch();
                let t = Instant::now();
                plan.fbp_slice_into(mid, &mut scratch, &mut slice);
                let fbp_s = t.elapsed().as_secs_f64();
                layers.time("tomo.fbp_slice_ms", fbp_s * 1e3);
                layers.time(
                    "tomo.fbp_mpix_angles_per_s",
                    (cols * cols * n_angles) as f64 / fbp_s / 1e6,
                );
                let mut scratch = gridrec.make_scratch();
                layers
                    .span("tomo.gridrec_slice_ms", 1e3, || {
                        gridrec.gridrec_slice_with(mid, &mut scratch)
                    })
                    .map_err(|e| format!("probe gridrec: {e}"))?;
            }
            (ReconKind::Fbp(_), None) => return Err("probe has no gridrec plan".into()),
        }

        // the two archive sinks on their own, fed the operation's volume
        let (tiff, _) = read_products(st)?;
        let data: Vec<f32> = tiff
            .iter()
            .flat_map(|img| img.data.iter().copied())
            .collect();
        let tiff_dir = self.dir.join("tiff");
        let ms_dir = self.dir.join("multiscale");
        std::fs::remove_dir_all(&self.dir).ok();
        let recipe = FileBranchConfig::default();
        let mut tiff_sink = TiffStackSink::new(&tiff_dir);
        let mut ms_sink =
            MultiscaleWriter::new(&ms_dir, "probe", spec.chunk, recipe.multiscale_levels);
        for (name, sink) in [
            (
                "scidata.tiff_write_ms",
                &mut tiff_sink as &mut dyn SliceSink,
            ),
            ("scidata.multiscale_write_ms", &mut ms_sink),
        ] {
            layers
                .span(name, 1e3, || -> Result<(), String> {
                    sink.begin(cols, cols, rows)?;
                    sink.write_slab(0, rows, &data)?;
                    sink.finish()
                })
                .map_err(|e| format!("probe {name}: {e}"))?;
        }
        layers.count("scidata.tiff_bytes_written", dir_bytes(&tiff_dir) as f64);
        layers.count(
            "scidata.multiscale_bytes_written",
            dir_bytes(&ms_dir) as f64,
        );

        if spec.catalog {
            let id = format!("probe_{i:05}");
            register_raw(&mut self.catalog, &id, path, spec)?;
            let raw = als_catalog::DatasetPid(format!("als/8.3.2/raw/{id}"));
            let ds = recon_dataset(&id, FACILITY, &raw, SimInstant::ZERO, ByteSize::ZERO);
            let cat = &mut self.catalog;
            layers
                .span("catalog.ingest_us", 1e6, || cat.ingest(ds))
                .map_err(|e| format!("probe ingest: {e}"))?;
        }
        Ok(())
    }
}
