//! `beamtime`: the streaming branch as a closed loop.
//!
//! One operation is one scan: pre-rendered frames go IOC → channel
//! mirror → {file writer (reliable), streaming reconstruction service
//! (lossy)}, published back to back; the beamline waits for both the
//! preview and the written file before its next scan. Rendering happens
//! in set-up, so the timed path is `stream`, the FBP plan and the scan
//! file write — no SIRT, no orchestrator.

use crate::checks;
use crate::report::{ms, repeated_setup, us, Layers, OpLog, OpTime, OpTimer, Outcome, Scratch};
use crate::{Args, PER_LAYER};
use als_phantom::{shepp_logan_volume, DetectorConfig, FrameMeta, ScanSimulator};
use als_scidata::ScanFile;
use als_stream::filewriter::WrittenScan;
use als_stream::{
    announce_for, deep_copy_count, ChannelMirror, DeliveryMode, FileWriterService, IncrementalScan,
    PlanCache, Preview, PreviewChannel, PvaServer, ScanAnnounce, SlabPool, StreamMessage,
    StreamerConfig, StreamingReconService, Subscription,
};
use als_tomo::{FbpConfig, Geometry, RawPrepPlan, ReconPlan, Sinogram, Volume};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Detector width (= phantom side), rows (= slices) and projections.
const N: usize = 128;
const NZ: usize = 16;
const ANGLES: usize = 180;
/// Distinct acquisitions rendered in set-up; the loop cycles through them.
const RENDERED: usize = 4;
/// Preview XY-slice PSNR floor against the phantom, dB.
const PREVIEW_PSNR_DB: f64 = 20.0;
/// Longest wait for a preview or a written file before the scan fails.
const WAIT: Duration = Duration::from_secs(60);
/// Queue bound of every subscription: a whole scan fits, so a consumer
/// that keeps up within the scan never drops or stalls the IOC.
const QUEUE: usize = 1 << 10;

/// One rendered acquisition: the `ANGLES × NZ × N` stack and frame
/// metadata, as the detector would publish them.
struct Acquisition {
    frames: Vec<u16>,
    metas: Vec<FrameMeta>,
}

/// The running dual-path topology of one beamline.
struct Services {
    ioc: Arc<PvaServer>,
    mirror: ChannelMirror,
    streamer: Option<StreamingReconService>,
    previews: PreviewChannel,
    plans: Arc<PlanCache>,
    pool: SlabPool,
    /// Written-scan reports with their arrival instants, from a watcher
    /// thread that owns the file writer.
    files: Receiver<(WrittenScan, Instant)>,
    stop: Arc<AtomicBool>,
    /// Returns the writer's `(rejected frames, completions dropped)`.
    watcher: Option<JoinHandle<(u64, u64)>>,
}

impl Services {
    fn spawn(out_dir: &Path) -> Services {
        let ioc = PvaServer::new();
        let mirror = ChannelMirror::spawn(
            ioc.subscribe_named("mirror", QUEUE, DeliveryMode::Reliable),
            Duration::from_millis(10),
        );
        let writer = FileWriterService::spawn(
            mirror
                .output()
                .subscribe_named("filewriter", QUEUE, DeliveryMode::Reliable),
            out_dir,
        );
        let plans = PlanCache::new();
        let (streamer, previews) = StreamingReconService::spawn_shared(
            mirror
                .output()
                .subscribe_named("preview", QUEUE, DeliveryMode::Lossy),
            StreamerConfig::default(),
            Arc::clone(&plans),
        );
        let (tx, files) = channel();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let watcher = std::thread::spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                if let Some(w) = writer.wait_completion(Duration::from_millis(20)) {
                    if tx.send((w, Instant::now())).is_err() {
                        break;
                    }
                }
            }
            let counts = (writer.rejected_count(), writer.completions_dropped());
            writer.stop();
            counts
        });
        Services {
            ioc,
            mirror,
            streamer: Some(streamer),
            previews,
            plans,
            pool: SlabPool::new(NZ * N),
            files,
            stop,
            watcher: Some(watcher),
        }
    }

    /// Stop every service thread and return the writer's counts.
    fn shutdown(&mut self) -> (u64, u64) {
        self.stop.store(true, Ordering::Relaxed);
        let counts = self
            .watcher
            .take()
            .map_or((0, 0), |h| h.join().unwrap_or((0, 0)));
        if let Some(s) = self.streamer.take() {
            s.stop();
        }
        counts
    }
}

impl Drop for Services {
    fn drop(&mut self) {
        self.shutdown();
    }
}

struct State {
    sim: ScanSimulator,
    geom: Geometry,
    truth: Volume,
    peak: f64,
    acqs: Vec<Acquisition>,
    announce: ScanAnnounce,
    out_dir: PathBuf,
    svc: Services,
}

fn render(sim: &mut ScanSimulator) -> Acquisition {
    let px = NZ * N;
    let mut frames = vec![0u16; ANGLES * px];
    let metas = frames
        .chunks_mut(px)
        .enumerate()
        .map(|(a, buf)| sim.fill_frame(a, buf))
        .collect();
    Acquisition { frames, metas }
}

fn setup(seed: u64, scratch: &Scratch) -> Result<State, String> {
    let truth = shepp_logan_volume(N, NZ);
    let geom = Geometry::parallel_180(ANGLES, N);
    let det = DetectorConfig::default();
    // the simulator forward-projects the phantom once; every rendered
    // acquisition draws fresh detector noise from the seeded stream
    let mut sim = ScanSimulator::new(&truth, geom.clone(), det, seed);
    let acqs = (0..RENDERED).map(|_| render(&mut sim)).collect();
    let announce = announce_for(&sim, "", det.mu_scale);
    let out_dir = scratch.fresh("beamtime")?;
    let svc = Services::spawn(&out_dir);
    let st = State {
        sim,
        geom,
        peak: checks::peak(&truth),
        truth,
        acqs,
        announce,
        out_dir,
        svc,
    };
    // warm-up scan: builds the FBP plan and faults in every buffer
    let (preview, written, ..) = scan(&st, 0, "warmup")?;
    check_scan(&st, 0, &preview, &written)?;
    Ok(st)
}

/// Publish acquisition `acq` as scan `id` and wait for both products.
/// Returns the preview, the written file, the ScanEnd→preview and
/// ScanEnd→file waits, and the operation's time.
fn scan(
    st: &State,
    acq: usize,
    id: &str,
) -> Result<(Preview, WrittenScan, Duration, Duration, OpTime), String> {
    let svc = &st.svc;
    let a = &st.acqs[acq];
    let px = NZ * N;
    let timer = OpTimer::start();
    let mut announce = st.announce.clone();
    announce.scan_id = id.to_string();
    svc.ioc
        .publish(StreamMessage::ScanStart(Arc::new(announce)));
    for (i, meta) in a.metas.iter().enumerate() {
        let frame = svc.pool.frame(meta.clone(), |buf| {
            buf.copy_from_slice(&a.frames[i * px..(i + 1) * px])
        });
        svc.ioc.publish(StreamMessage::Frame(frame));
    }
    let t_end = Instant::now();
    svc.ioc.publish(StreamMessage::ScanEnd {
        scan_id: Arc::from(id),
    });
    let preview = svc
        .previews
        .recv_timeout(WAIT)
        .ok_or_else(|| format!("no preview of {id} within {WAIT:?}"))?;
    let t_preview = t_end.elapsed();
    let (written, at) = svc
        .files
        .recv_timeout(WAIT)
        .map_err(|_| format!("no scan file of {id} within {WAIT:?}"))?;
    let t = timer.stop();
    if preview.scan_id != id || written.scan_id != id {
        return Err(format!(
            "scan {id} answered by preview {} and file {}",
            preview.scan_id, written.scan_id
        ));
    }
    Ok((preview, written, t_preview, at - t_end, t))
}

/// The preview is complete and close to the phantom; the written file
/// holds exactly the published acquisition. Returns the preview PSNR.
fn check_scan(st: &State, acq: usize, p: &Preview, w: &WrittenScan) -> Result<f64, String> {
    if p.cached_frames != ANGLES || p.dropped_frames != 0 || p.rejected_frames != 0 {
        return Err(format!(
            "preview of {} used {}/{ANGLES} frames ({} dropped, {} rejected)",
            p.scan_id, p.cached_frames, p.dropped_frames, p.rejected_frames
        ));
    }
    let q = checks::preview(
        &p.slices,
        &st.truth.slice_xy(NZ / 2),
        st.peak,
        PREVIEW_PSNR_DB,
    )?;
    if w.n_frames != ANGLES || w.rejected_frames != 0 {
        return Err(format!(
            "file of {} holds {}/{ANGLES} frames ({} rejected)",
            w.scan_id, w.n_frames, w.rejected_frames
        ));
    }
    let loaded = ScanFile::load(&w.path).map_err(|e| format!("{}: {e}", w.path.display()))?;
    std::fs::remove_file(&w.path).ok();
    checks::written_scan(
        &loaded,
        &st.acqs[acq].frames,
        &st.announce.dark,
        &st.announce.flat,
        &st.geom.angles,
    )?;
    Ok(q)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let scratch = Scratch::new("beamtime")?;
    let (mut st, setup_s) = repeated_setup(args, || setup(args.seed, &scratch))?;
    if args.setup_only {
        return Ok(Outcome::setup_only(setup_s));
    }
    let mut out = Outcome::default();
    let mut log = OpLog::default();
    let mut layers = Layers::default();
    let mut probe = if args.trace {
        Some(Probe::new(&st))
    } else {
        None
    };
    let copies_at_start = deep_copy_count();
    let mut rejected = 0u64;

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut i = 0usize;
    while i == 0 || Instant::now() < deadline {
        let acq = i % RENDERED;
        let id = format!("bt{}_{i:05}", args.seed);
        out.attempted += 1;
        match scan(&st, acq, &id) {
            Ok((preview, written, wait, ready, t)) => {
                log.push(wait, ready, None, &t);
                rejected += preview.rejected_frames as u64;
                match check_scan(&st, acq, &preview, &written) {
                    Ok(q) => out.note_min("preview_psnr_db", q),
                    Err(e) => out.check(Err(e)),
                }
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("scan {id}: {e}");
            }
        }
        if let Some(p) = probe.as_mut() {
            out.check(p.round(&mut st, acq, &mut layers));
        }
        i += 1;
    }

    let (writer_rejected, completions_dropped) = st.svc.shutdown();
    let svc = &st.svc;
    if args.trace {
        layers.count(
            "stream.mirror_forwarded",
            svc.mirror.forwarded_count() as f64,
        );
        let dropped = svc.ioc.dropped_count()
            + svc.mirror.output().dropped_count()
            + svc.previews.dropped_count()
            + completions_dropped;
        layers.count("stream.frames_dropped", dropped as f64);
        layers.count(
            "stream.frames_rejected",
            (rejected + writer_rejected) as f64,
        );
        layers.count(
            "stream.deep_copies",
            deep_copy_count().saturating_sub(copies_at_start) as f64,
        );
        layers.count("stream.slabs_allocated", svc.pool.allocated() as f64);
        layers.count("stream.plans_built", svc.plans.misses() as f64);
        layers.count("stream.plan_cache_hits", svc.plans.hits() as f64);
        layers.report(&mut out, PER_LAYER);
        log.report(&mut out, "traced.", 1.0);
    } else {
        out.put("setup_s", setup_s, "s");
        log.report(&mut out, "", 1.0);
        out.put("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
    }
    std::fs::remove_dir_all(&st.out_dir).ok();
    Ok(out)
}

/// The traced half of a round: the same acquisition driven through each
/// layer's public functions one at a time, so every layer's cost is
/// timed on its own.
struct Probe {
    ioc: Arc<PvaServer>,
    mirror: ChannelMirror,
    to_writer: Subscription,
    to_preview: Subscription,
    /// The probe's own slabs and plans, so the service counts stay pure.
    pool: SlabPool,
    plans: Arc<PlanCache>,
    /// Each acquisition's prepped sinograms, for the plan-level FBP probe.
    sinos: Vec<Vec<Sinogram>>,
    /// Messages the probe mirror must have forwarded so far.
    expected: u64,
    render_buf: Vec<u16>,
}

impl Probe {
    fn new(st: &State) -> Probe {
        let ioc = PvaServer::new();
        let mirror = ChannelMirror::spawn(
            ioc.subscribe_named("mirror", QUEUE, DeliveryMode::Reliable),
            Duration::from_millis(10),
        );
        let to_writer =
            mirror
                .output()
                .subscribe_named("filewriter", QUEUE, DeliveryMode::Reliable);
        let to_preview = mirror
            .output()
            .subscribe_named("preview", QUEUE, DeliveryMode::Lossy);
        let a = &st.announce;
        let prep = RawPrepPlan::new(&a.dark, &a.flat, NZ, N, a.mu_scale, None);
        let sinos = st
            .acqs
            .iter()
            .map(|acq| {
                (0..NZ)
                    .map(|r| {
                        let mut s = Sinogram::zeros(ANGLES, N);
                        for angle in 0..ANGLES {
                            let base = angle * NZ * N + r * N;
                            prep.prep_angle_row(r, &acq.frames[base..base + N], s.row_mut(angle));
                        }
                        s
                    })
                    .collect()
            })
            .collect();
        Probe {
            ioc,
            mirror,
            to_writer,
            to_preview,
            pool: SlabPool::new(NZ * N),
            plans: PlanCache::new(),
            sinos,
            expected: 0,
            render_buf: vec![0; NZ * N],
        }
    }

    fn round(&mut self, st: &mut State, acq: usize, layers: &mut Layers) -> Result<(), String> {
        let sim = &mut st.sim;
        let buf = &mut self.render_buf;
        layers.span("phantom.render_ms_per_scan", 1e3, || {
            for a in 0..ANGLES {
                sim.fill_frame(a, buf);
            }
        });

        // IOC publish, frame by frame, into the probe mirror
        let id = "probe";
        let a = &st.acqs[acq];
        let px = NZ * N;
        let mut announce = st.announce.clone();
        announce.scan_id = id.to_string();
        self.ioc
            .publish(StreamMessage::ScanStart(Arc::new(announce)));
        let mut publish_us = 0.0;
        for (i, meta) in a.metas.iter().enumerate() {
            let frame = self.pool.frame(meta.clone(), |b| {
                b.copy_from_slice(&a.frames[i * px..(i + 1) * px])
            });
            let t = Instant::now();
            self.ioc.publish(StreamMessage::Frame(frame));
            publish_us += us(t.elapsed());
        }
        layers.time("stream.publish_us_per_frame", publish_us / ANGLES as f64);
        self.ioc.publish(StreamMessage::ScanEnd {
            scan_id: Arc::from(id),
        });
        self.expected += ANGLES as u64 + 2;
        let t = Instant::now();
        while self.mirror.forwarded_count() < self.expected {
            if t.elapsed() > WAIT {
                return Err("probe mirror stalled".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }

        // streaming service's work: per-frame ingest, then scan-end finish
        let mut incremental = None;
        let mut ingest_us = 0.0;
        while let Some(msg) = self.to_preview.try_recv() {
            match msg {
                StreamMessage::ScanStart(a) => incremental = Some(IncrementalScan::new(a)),
                StreamMessage::Frame(f) => {
                    let scan = incremental.as_mut().ok_or("probe frame before start")?;
                    let t = Instant::now();
                    scan.ingest(&f);
                    ingest_us += us(t.elapsed());
                }
                StreamMessage::ScanEnd { .. } => {
                    let scan = incremental.take().ok_or("probe end before start")?;
                    layers.time("stream.ingest_us_per_frame", ingest_us / ANGLES as f64);
                    let plans = &self.plans;
                    let fbp = FbpConfig::default();
                    layers
                        .span("stream.finish_ms", 1e3, || scan.finish(plans, &fbp, id))
                        .ok_or("probe preview failed")?;
                }
            }
        }

        // file writer's work: append every frame, then build and save
        let mut stack: Vec<u16> = Vec::with_capacity(ANGLES * px);
        let mut angles = Vec::with_capacity(ANGLES);
        while let Some(msg) = self.to_writer.try_recv() {
            match msg {
                StreamMessage::ScanStart(_) => stack.clear(),
                StreamMessage::Frame(f) => {
                    stack.extend_from_slice(f.data());
                    angles.push(f.meta.angle_rad);
                }
                StreamMessage::ScanEnd { .. } => {
                    let path = st.out_dir.join("probe.sdf");
                    let data = std::mem::take(&mut stack);
                    let ann = &st.announce;
                    let t = Instant::now();
                    let file = ScanFile::from_raw_parts(
                        id, ANGLES, NZ, N, data, &ann.dark, &ann.flat, &angles,
                    )
                    .map_err(|e| format!("probe scan file: {e}"))?;
                    file.save(&path).map_err(|e| format!("probe save: {e}"))?;
                    layers.time("scidata.scan_save_ms", ms(t.elapsed()));
                    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
                    layers.count("scidata.scan_bytes_written", bytes as f64);
                    std::fs::remove_file(&path).ok();
                }
            }
        }

        // the FBP plan on its own: build, then one whole-volume pass
        let plan = layers
            .span("tomo.fbp_plan_build_ms", 1e3, || {
                ReconPlan::new(&st.geom, &FbpConfig::default())
            })
            .map_err(|e| format!("probe plan: {e}"))?;
        let sinos = &self.sinos[acq];
        layers
            .span("tomo.fbp_volume_ms", 1e3, || plan.fbp_volume(sinos))
            .map_err(|e| format!("probe fbp: {e}"))?;
        Ok(())
    }
}
