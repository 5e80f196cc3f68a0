//! Correctness checks on the program's outputs, each against a value
//! computed apart from the program (the phantom truth, the generator's
//! own frames, the benchmark's own block mean) or a property the method
//! must have. Each returns `Err` with a reason; the tests at the bottom
//! feed every check a deliberately wrong output.

use als_catalog::{Catalog, DatasetKind, DatasetPid};
use als_orchestrator::FleetRecoveryInfo;
use als_scidata::ScanFile;
use als_tomo::quality::{mse_in_disk, psnr};
use als_tomo::{Image, Volume};
use std::collections::BTreeSet;

/// Largest value of the truth volume: the PSNR peak.
pub fn peak(truth: &Volume) -> f64 {
    truth.data.iter().fold(0.0f32, |m, &v| m.max(v.abs())) as f64
}

/// A streaming preview: the axial slice is within `min_psnr` dB of the
/// truth slice, and the three orthogonal slices through the volume
/// centre agree exactly where they intersect. Returns the PSNR.
pub fn preview(
    slices: &[Image; 3],
    truth_xy: &Image,
    peak: f64,
    min_psnr: f64,
) -> Result<f64, String> {
    let [xy, xz, yz] = slices;
    if (xy.width, xy.height) != (truth_xy.width, truth_xy.height) {
        return Err(format!(
            "preview XY slice is {}x{}, expected {}x{}",
            xy.width, xy.height, truth_xy.width, truth_xy.height
        ));
    }
    let (nx, ny, nz) = (xy.width, xy.height, xz.height);
    if (xz.width, yz.width, yz.height) != (nx, ny, nz) {
        return Err("preview slices disagree in shape".into());
    }
    let q = psnr(truth_xy, xy, peak);
    if q.is_nan() || q < min_psnr {
        return Err(format!("preview XY PSNR {q:.2} dB < {min_psnr} dB"));
    }
    let (x0, y0, z0) = (nx / 2, ny / 2, nz / 2);
    for x in 0..nx {
        if xy.get(x, y0).to_bits() != xz.get(x, z0).to_bits() {
            return Err(format!("XY and XZ slices differ at x={x}"));
        }
    }
    for y in 0..ny {
        if xy.get(x0, y).to_bits() != yz.get(y, z0).to_bits() {
            return Err(format!("XY and YZ slices differ at y={y}"));
        }
    }
    for z in 0..nz {
        if xz.get(x0, z).to_bits() != yz.get(y0, z).to_bits() {
            return Err(format!("XZ and YZ slices differ at z={z}"));
        }
    }
    Ok(q)
}

/// A written scan file holds exactly what the generator published:
/// every frame (`frames` is the `n × rows × cols` stack), dark, flat and
/// angle.
pub fn written_scan(
    loaded: &ScanFile,
    frames: &[u16],
    dark: &[u16],
    flat: &[u16],
    angles: &[f64],
) -> Result<(), String> {
    let (n, rows, cols) = loaded.shape();
    if n != angles.len() || n * rows * cols != frames.len() {
        return Err(format!(
            "written scan is {n}x{rows}x{cols}, published {} frames of {} pixels",
            angles.len(),
            frames.len() / angles.len().max(1)
        ));
    }
    let px = rows * cols;
    for a in 0..n {
        if loaded.frame_data(a) != &frames[a * px..(a + 1) * px] {
            return Err(format!("written frame {a} differs from the published one"));
        }
    }
    if loaded.dark() != dark || loaded.flat() != flat {
        return Err("written dark/flat differ from the published ones".into());
    }
    if loaded.angles() != angles {
        return Err("written angles differ from the published ones".into());
    }
    Ok(())
}

/// Every reconstructed slice is within `min_psnr` dB of the truth and
/// its MSE inside the reconstruction disk is at most `max_mse`. Returns
/// the lowest PSNR and the highest disk MSE.
pub fn volume_quality(
    slices: &[Image],
    truth: &Volume,
    min_psnr: f64,
    max_mse: f64,
) -> Result<(f64, f64), String> {
    if slices.len() != truth.nz {
        return Err(format!("{} slices, expected {}", slices.len(), truth.nz));
    }
    let peak = peak(truth);
    let (mut worst_psnr, mut worst_mse) = (f64::INFINITY, 0.0f64);
    for (z, img) in slices.iter().enumerate() {
        let t = truth.slice_xy(z);
        if (img.width, img.height) != (t.width, t.height) {
            return Err(format!("slice {z} has the wrong shape"));
        }
        let q = psnr(&t, img, peak);
        let e = mse_in_disk(&t, img);
        if q.is_nan() || q < min_psnr || e.is_nan() || e > max_mse {
            return Err(format!(
                "slice {z}: PSNR {q:.2} dB (floor {min_psnr}), disk MSE {e:.3e} (ceiling {max_mse:.1e})"
            ));
        }
        worst_psnr = worst_psnr.min(q);
        worst_mse = worst_mse.max(e);
    }
    Ok((worst_psnr, worst_mse))
}

/// The 2x2x2 block mean of `vol`, averaging the voxels that exist at
/// odd edges; output extent `max(1, n / 2)` per axis.
pub fn block_mean(vol: &Volume) -> Volume {
    let (nx, ny, nz) = (
        (vol.nx / 2).max(1),
        (vol.ny / 2).max(1),
        (vol.nz / 2).max(1),
    );
    let mut out = Volume::zeros(nx, ny, nz);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let mut acc = 0.0f64;
                let mut n = 0u32;
                for (sx, sy, sz) in
                    (0..8).map(|i| (2 * x + (i & 1), 2 * y + (i >> 1 & 1), 2 * z + (i >> 2)))
                {
                    if sx < vol.nx && sy < vol.ny && sz < vol.nz {
                        acc += vol.get(sx, sy, sz) as f64;
                        n += 1;
                    }
                }
                out.set(x, y, z, (acc / n as f64) as f32);
            }
        }
    }
    out
}

/// Archive products agree: the TIFF stack read back equals multiscale
/// level 0, and each level equals the block mean of the level above
/// within float rounding.
pub fn archive_products(tiff: &[Image], levels: &[Volume]) -> Result<(), String> {
    let Some(l0) = levels.first() else {
        return Err("multiscale store has no levels".into());
    };
    if tiff.len() != l0.nz {
        return Err(format!("{} TIFF slices, level 0 has {}", tiff.len(), l0.nz));
    }
    for (z, img) in tiff.iter().enumerate() {
        if img.data != l0.slice_xy(z).data {
            return Err(format!("TIFF slice {z} differs from multiscale level 0"));
        }
    }
    for l in 1..levels.len() {
        let want = block_mean(&levels[l - 1]);
        let got = &levels[l];
        if (got.nx, got.ny, got.nz) != (want.nx, want.ny, want.nz) {
            return Err(format!("multiscale level {l} has the wrong shape"));
        }
        for (i, (&g, &w)) in got.data.iter().zip(&want.data).enumerate() {
            if (g - w).abs() > 1e-6 * w.abs().max(1.0) {
                return Err(format!(
                    "multiscale level {l} voxel {i} is {g}, block mean is {w}"
                ));
            }
        }
    }
    Ok(())
}

/// The catalogue holds, for each scan, its raw dataset and exactly one
/// derived dataset linked back to the raw PID.
pub fn catalog(cat: &Catalog, scans: &[String], facility: &str) -> Result<(), String> {
    if cat.len() != 2 * scans.len() {
        return Err(format!(
            "catalogue holds {} datasets for {} scans",
            cat.len(),
            scans.len()
        ));
    }
    for s in scans {
        let raw = DatasetPid(format!("als/8.3.2/raw/{s}"));
        let derived = DatasetPid(format!("als/8.3.2/recon/{facility}/{s}"));
        cat.get(&raw)
            .map_err(|e| format!("raw dataset of {s}: {e}"))?;
        let d = cat
            .get(&derived)
            .map_err(|e| format!("derived dataset of {s}: {e}"))?;
        if d.kind != DatasetKind::Derived || d.derived_from != [raw] {
            return Err(format!(
                "derived dataset of {s} is not linked to its raw PID"
            ));
        }
    }
    Ok(())
}

/// A drained campaign completed both branches of every scan and
/// initiated no facility step twice.
pub fn campaign(branches: usize, scans: usize, duplicated: usize) -> Result<(), String> {
    if branches != 2 * scans || duplicated != 0 {
        return Err(format!(
            "campaign completed {branches}/{} branches with {duplicated} duplicated side effects",
            2 * scans
        ));
    }
    Ok(())
}

/// A fleet recovered from the journal images replayed cleanly and holds
/// the live orchestrator's completed-key set.
pub fn recovery(
    live: &BTreeSet<&str>,
    recovered: &BTreeSet<&str>,
    info: &FleetRecoveryInfo,
) -> Result<(), String> {
    if info.dropped_bytes() != 0 || !info.damaged_shards().is_empty() {
        return Err(format!(
            "replay dropped {} bytes, damaged shards {:?}",
            info.dropped_bytes(),
            info.damaged_shards()
        ));
    }
    if live != recovered {
        return Err(format!(
            "recovered fleet completed {} keys, live orchestrator {}",
            recovered.len(),
            live.len()
        ));
    }
    Ok(())
}

/// Repeating a campaign seed reproduces its journal images byte for byte.
pub fn identical_images(first: &[Vec<u8>], again: &[Vec<u8>]) -> Result<(), String> {
    if first != again {
        return Err("a repeated campaign seed wrote different journal images".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_phantom::{shepp_logan_volume, DetectorConfig, ScanSimulator};
    use als_scidata::{MultiscaleStore, MultiscaleWriter, TiffStackSink};
    use als_tomo::pipeline::SliceSink;
    use als_tomo::Geometry;

    fn center_slices(vol: &Volume) -> [Image; 3] {
        [
            vol.slice_xy(vol.nz / 2),
            vol.slice_xz(vol.ny / 2),
            vol.slice_yz(vol.nx / 2),
        ]
    }

    #[test]
    fn zeroed_preview_slice_fails() {
        let vol = shepp_logan_volume(32, 4);
        let truth = vol.slice_xy(2);
        let mut slices = center_slices(&vol);
        assert!(preview(&slices, &truth, peak(&vol), 20.0).is_ok());
        slices[0].data.iter_mut().for_each(|v| *v = 0.0);
        assert!(preview(&slices, &truth, peak(&vol), 20.0).is_err());
    }

    #[test]
    fn flipped_pixel_in_written_frame_fails() {
        let vol = shepp_logan_volume(16, 2);
        let geom = Geometry::parallel_180(8, 16);
        let mut sim = ScanSimulator::new(&vol, geom.clone(), DetectorConfig::default(), 9);
        let frames: Vec<u16> = sim.all_frames().into_iter().flat_map(|f| f.data).collect();
        let (dark, flat) = (sim.dark_field().to_vec(), sim.flat_field().to_vec());
        let mut written = frames.clone();
        let scan = |data: Vec<u16>| {
            ScanFile::from_raw_parts("t", 8, 2, 16, data, &dark, &flat, &geom.angles).unwrap()
        };
        assert!(written_scan(&scan(written.clone()), &frames, &dark, &flat, &geom.angles).is_ok());
        written[5 * 32 + 7] ^= 1;
        assert!(written_scan(&scan(written), &frames, &dark, &flat, &geom.angles).is_err());
    }

    #[test]
    fn perturbed_tiff_slice_fails() {
        let dir = std::path::PathBuf::from(".beambench/selftest-tiff");
        std::fs::remove_dir_all(&dir).ok();
        let vol = shepp_logan_volume(32, 4);
        let mut tiff = TiffStackSink::new(&dir.join("tiff"));
        let mut ms = MultiscaleWriter::new(&dir.join("ms"), "t", [2, 16, 16], 3);
        for sink in [&mut tiff as &mut dyn SliceSink, &mut ms] {
            sink.begin(32, 32, 4).unwrap();
            sink.write_slab(0, 4, &vol.data).unwrap();
            sink.finish().unwrap();
        }
        let mut stack = als_scidata::tiff::read_stack(&dir.join("tiff")).unwrap();
        let store = MultiscaleStore::open(&dir.join("ms")).unwrap();
        let levels: Vec<Volume> = (0..store.n_levels())
            .map(|l| store.read_level(l).unwrap())
            .collect();
        std::fs::remove_dir_all(&dir).ok();
        assert!(archive_products(&stack, &levels).is_ok());
        stack[1].data[100] += 0.25;
        assert!(archive_products(&stack, &levels).is_err());
        // a wrong pyramid level fails too
        let mut bad = levels.clone();
        bad[2].data[0] += 0.25;
        assert!(archive_products(&xy_slices(&levels[0]), &bad).is_err());
    }

    fn xy_slices(vol: &Volume) -> Vec<Image> {
        (0..vol.nz).map(|z| vol.slice_xy(z)).collect()
    }

    #[test]
    fn fleet_from_truncated_journal_fails() {
        use als_flows::observability::run_observability_sim;
        use als_orchestrator::ShardedOrchestrator;
        let mut sim = run_observability_sim(3, 832);
        sim.orch.commit_all();
        let images = sim.orch.crash_images();
        let live = sim.orch.completed_union();
        let recover = |images: &[Vec<u8>]| {
            ShardedOrchestrator::recover_fleet(
                images,
                "selftest",
                sim.now(),
                sim.cfg.group_commit_batch,
            )
        };
        let (fleet, info) = recover(&images);
        assert!(recovery(&live, &fleet.completed_union(), &info).is_ok());
        let mut truncated = images.clone();
        let longest = (0..truncated.len())
            .max_by_key(|&i| truncated[i].len())
            .unwrap();
        let keep = truncated[longest].len() - 40;
        truncated[longest].truncate(keep);
        let (fleet, info) = recover(&truncated);
        assert!(recovery(&live, &fleet.completed_union(), &info).is_err());
        assert!(identical_images(&images, &truncated).is_err());
    }
}
