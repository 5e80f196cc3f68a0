//! Analytic detector frames of the Shepp-Logan volume, for the
//! large-detector workload.
//!
//! `ScanSimulator::new` forward-projects every slice by ray marching,
//! about 2.9 s per 512² slice at 360 angles; a set-up that repeats has
//! no room for that. The Shepp-Logan phantom is a sum of ellipses, whose
//! line integrals have a closed form, so the projections of the same
//! volume `als_phantom::shepp_logan_volume` rasterises cost microseconds
//! here. The detector model (dark current, flat field, photon noise with
//! the normal approximation the phantom crate uses above 30 counts) is
//! the same as `als_phantom::DetectorConfig`'s.

use als_phantom::DetectorConfig;
use als_simcore::SimRng;
use als_tomo::Geometry;

/// The Shepp-Logan ellipses: value, centre x, centre y, semi-axis a,
/// semi-axis b, rotation in degrees (normalised coordinates in [-1, 1]).
const ELLIPSES: [[f64; 6]; 10] = [
    [1.0, 0.0, 0.0, 0.69, 0.92, 0.0],
    [-0.8, 0.0, -0.0184, 0.6624, 0.874, 0.0],
    [-0.2, 0.22, 0.0, 0.11, 0.31, -18.0],
    [-0.2, -0.22, 0.0, 0.16, 0.41, 18.0],
    [0.1, 0.0, 0.35, 0.21, 0.25, 0.0],
    [0.1, 0.0, 0.1, 0.046, 0.046, 0.0],
    [0.1, 0.0, -0.1, 0.046, 0.046, 0.0],
    [0.1, -0.08, -0.605, 0.046, 0.023, 0.0],
    [0.1, 0.0, -0.606, 0.023, 0.023, 0.0],
    [0.1, 0.06, -0.605, 0.023, 0.046, 0.0],
];

/// Line integral, in pixel units, of slice `z` of an `n × n × nz`
/// Shepp-Logan volume along the ray at angle `theta` through detector
/// coordinate `s` (pixels from the rotation centre). Slices shrink
/// towards the volume's ends exactly as `shepp_logan_volume` does.
pub fn line_integral(n: usize, nz: usize, z: usize, theta: f64, s: f64) -> f64 {
    let zn = if nz > 1 {
        2.0 * z as f64 / (nz - 1) as f64 - 1.0
    } else {
        0.0
    };
    let shrink = (1.0 - 0.6 * zn * zn).max(0.2);
    let sn = s * 2.0 / n as f64;
    let (sin_t, cos_t) = theta.sin_cos();
    let mut acc = 0.0;
    for &[value, x0, y0, a, b, phi] in &ELLIPSES {
        let (a, b) = (a * shrink, b * shrink);
        let offset = sn - shrink * (x0 * cos_t + y0 * sin_t);
        let (sd, cd) = (theta - phi.to_radians()).sin_cos();
        let h2 = a * a * cd * cd + b * b * sd * sd;
        if offset * offset < h2 {
            acc += value * 2.0 * a * b * (h2 - offset * offset).sqrt() / h2;
        }
    }
    acc * n as f64 / 2.0
}

/// One acquisition: the `n_angles × nz × n` count stack plus dark and
/// flat reference frames.
pub struct Frames {
    pub stack: Vec<u16>,
    pub dark: Vec<u16>,
    pub flat: Vec<u16>,
}

fn counts(expected: f64, det: &DetectorConfig, rng: &mut SimRng) -> u16 {
    let v = if det.noise {
        rng.normal_pos(expected, expected.sqrt())
    } else {
        expected
    };
    v.round().clamp(0.0, u16::MAX as f64) as u16
}

/// Render a scan of the `n × n × nz` volume over `geom`'s angles.
pub fn render(n: usize, nz: usize, geom: &Geometry, det: &DetectorConfig, seed: u64) -> Frames {
    let mut rng = SimRng::seeded(seed);
    let mut dark = Vec::with_capacity(nz * n);
    let mut flat = Vec::with_capacity(nz * n);
    for _ in 0..nz * n {
        dark.push(counts(det.dark_counts, det, &mut rng));
        flat.push(counts(det.dark_counts + det.i0, det, &mut rng));
    }
    let mut stack = Vec::with_capacity(geom.n_angles() * nz * n);
    for &theta in &geom.angles {
        for z in 0..nz {
            for t in 0..n {
                let p = line_integral(n, nz, z, theta, t as f64 - geom.center);
                let expected = det.dark_counts + det.i0 * (-p * det.mu_scale).exp();
                stack.push(counts(expected, det, &mut rng));
            }
        }
    }
    Frames { stack, dark, flat }
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_phantom::shepp_logan_volume;
    use als_tomo::forward_project;

    #[test]
    fn matches_ray_marched_projection_of_the_rasterised_phantom() {
        // the rasterised phantom's one-pixel skull rim limits agreement;
        // mirroring the detector axis must agree far worse, so the
        // orientation convention is pinned down too
        let (n, nz) = (256, 5);
        let vol = shepp_logan_volume(n, nz);
        let geom = Geometry::parallel_180(36, n);
        for z in 1..4 {
            let sino = forward_project(&vol.slice_xy(z), &geom);
            let (mut err, mut mirrored, mut norm) = (0.0, 0.0, 0.0);
            for (a, &theta) in geom.angles.iter().enumerate() {
                for t in 0..n {
                    let exact = line_integral(n, nz, z, theta, t as f64 - geom.center);
                    err += (exact - sino.get(a, t) as f64).powi(2);
                    mirrored += (exact - sino.get(a, n - 1 - t) as f64).powi(2);
                    norm += exact * exact;
                }
            }
            let (rel, rel_mirrored) = ((err / norm).sqrt(), (mirrored / norm).sqrt());
            eprintln!("slice {z}: relative error {rel}, mirrored {rel_mirrored}");
            assert!(
                rel < 0.03 && rel * 3.0 < rel_mirrored,
                "slice {z}: {rel} vs {rel_mirrored}"
            );
        }
    }
}
