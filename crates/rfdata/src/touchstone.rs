//! Touchstone v1 (`.sNp`) reader and writer.
//!
//! The synthetic PDN data sets produced by `pim-circuit` can be exported to
//! Touchstone so they can be inspected with standard EDA tools, and measured
//! or field-solver data can be imported into the macromodeling flow.
//!
//! Supported subset: the version-1 option line (`# <unit> <type> <format> R
//! <resistance>`), formats `RI`, `MA` and `DB`, parameter types `S`, `Y` and
//! `Z`, comment lines (`!`), and multi-line data blocks for any port count.
//! The 2-port column-major ordering quirk of the standard (S11 S21 S12 S22)
//! is honoured on both read and write.

use crate::{FrequencyGrid, NetworkData, ParameterKind, Result, RfDataError};
use pim_linalg::{CMat, Complex64};
use std::fmt::Write as _;
use std::path::Path;

/// Numeric format of the complex entries in a Touchstone file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TouchstoneFormat {
    /// Real / imaginary pairs.
    Ri,
    /// Magnitude (linear) / angle (degrees) pairs.
    Ma,
    /// Magnitude (dB) / angle (degrees) pairs.
    Db,
}

impl TouchstoneFormat {
    fn encode(self, z: Complex64) -> (f64, f64) {
        match self {
            TouchstoneFormat::Ri => (z.re, z.im),
            TouchstoneFormat::Ma => (z.abs(), z.arg().to_degrees()),
            TouchstoneFormat::Db => (20.0 * z.abs().max(1e-300).log10(), z.arg().to_degrees()),
        }
    }

    fn decode(self, a: f64, b: f64) -> Complex64 {
        match self {
            TouchstoneFormat::Ri => Complex64::new(a, b),
            TouchstoneFormat::Ma => Complex64::from_polar(a, b.to_radians()),
            TouchstoneFormat::Db => Complex64::from_polar(10f64.powf(a / 20.0), b.to_radians()),
        }
    }
}

fn unit_scale(unit: &str) -> Option<f64> {
    match unit.to_ascii_uppercase().as_str() {
        "HZ" => Some(1.0),
        "KHZ" => Some(1e3),
        "MHZ" => Some(1e6),
        "GHZ" => Some(1e9),
        _ => None,
    }
}

fn kind_letter(kind: ParameterKind) -> &'static str {
    match kind {
        ParameterKind::Scattering => "S",
        ParameterKind::Admittance => "Y",
        ParameterKind::Impedance => "Z",
    }
}

/// Serializes a [`NetworkData`] set into Touchstone v1 text.
///
/// Frequencies are written in Hz; one data block per frequency sample.
pub fn to_touchstone_string(data: &NetworkData, format: TouchstoneFormat) -> String {
    let p = data.ports();
    let fmt_name = match format {
        TouchstoneFormat::Ri => "RI",
        TouchstoneFormat::Ma => "MA",
        TouchstoneFormat::Db => "DB",
    };
    let mut out = String::new();
    let _ = writeln!(out, "! Generated by pim-rfdata ({p}-port {} parameters)", data.kind());
    let _ = writeln!(out, "# HZ {} {} R {}", kind_letter(data.kind()), fmt_name, data.z_ref());
    for (k, &f) in data.grid().freqs_hz().iter().enumerate() {
        let m = data.matrix(k);
        let mut values: Vec<(f64, f64)> = Vec::with_capacity(p * p);
        if p == 2 {
            // Touchstone 2-port ordering: S11 S21 S12 S22.
            for &(i, j) in &[(0usize, 0usize), (1, 0), (0, 1), (1, 1)] {
                values.push(format.encode(m[(i, j)]));
            }
        } else {
            for i in 0..p {
                for j in 0..p {
                    values.push(format.encode(m[(i, j)]));
                }
            }
        }
        let _ = write!(out, "{:.12e}", f);
        for (idx, (a, b)) in values.iter().enumerate() {
            // At most four complex pairs per line, as customary.
            if idx > 0 && idx % 4 == 0 {
                let _ = write!(out, "\n ");
            }
            let _ = write!(out, " {:.12e} {:.12e}", a, b);
        }
        let _ = writeln!(out);
    }
    out
}

/// Parses Touchstone v1 text into a [`NetworkData`] set.
///
/// The port count must be supplied by the caller (in a file it is implied by
/// the `.sNp` extension, which a string does not carry).
///
/// # Errors
///
/// Returns [`RfDataError::Parse`] on malformed content.
pub fn from_touchstone_string(text: &str, ports: usize) -> Result<NetworkData> {
    if ports == 0 {
        return Err(RfDataError::Parse("port count must be positive".into()));
    }
    let mut scale = 1e9; // Touchstone default unit is GHz
    let mut kind = ParameterKind::Scattering;
    let mut format = TouchstoneFormat::Ma; // Touchstone default format is MA
    let mut z_ref = 50.0;
    let mut numbers: Vec<f64> = Vec::new();
    let mut saw_option_line = false;

    for raw_line in text.lines() {
        let line = match raw_line.find('!') {
            Some(pos) => &raw_line[..pos],
            None => raw_line,
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            if saw_option_line {
                // Subsequent option lines are ignored per the v1 spec.
                continue;
            }
            saw_option_line = true;
            let tokens: Vec<&str> = rest.split_whitespace().collect();
            let mut idx = 0;
            while idx < tokens.len() {
                let tk = tokens[idx].to_ascii_uppercase();
                match tk.as_str() {
                    "HZ" | "KHZ" | "MHZ" | "GHZ" => {
                        scale = unit_scale(&tk).expect("checked unit");
                    }
                    "S" => kind = ParameterKind::Scattering,
                    "Y" => kind = ParameterKind::Admittance,
                    "Z" => kind = ParameterKind::Impedance,
                    "RI" => format = TouchstoneFormat::Ri,
                    "MA" => format = TouchstoneFormat::Ma,
                    "DB" => format = TouchstoneFormat::Db,
                    "R" => {
                        idx += 1;
                        let v = tokens.get(idx).ok_or_else(|| {
                            RfDataError::Parse("option line: missing resistance after R".into())
                        })?;
                        z_ref = v.parse::<f64>().map_err(|_| {
                            RfDataError::Parse(format!("option line: bad resistance '{v}'"))
                        })?;
                    }
                    other => {
                        return Err(RfDataError::Parse(format!(
                            "option line: unsupported token '{other}'"
                        )))
                    }
                }
                idx += 1;
            }
            continue;
        }
        for tok in line.split_whitespace() {
            let v = tok
                .parse::<f64>()
                .map_err(|_| RfDataError::Parse(format!("invalid number '{tok}'")))?;
            numbers.push(v);
        }
    }

    // 1 + 2·P² numbers per sample; P comes from outside (a file name), so
    // a width that overflows `usize` is malformed input, not a panic.
    let per_sample = ports
        .checked_mul(ports)
        .and_then(|p2| p2.checked_mul(2))
        .and_then(|w| w.checked_add(1))
        .ok_or_else(|| RfDataError::Parse(format!("port count {ports} is too large")))?;
    if numbers.is_empty() || !numbers.len().is_multiple_of(per_sample) {
        return Err(RfDataError::Parse(format!(
            "data length {} is not a multiple of {} (1 + 2·P²) for P = {}",
            numbers.len(),
            per_sample,
            ports
        )));
    }
    let n_samples = numbers.len() / per_sample;
    let mut freqs = Vec::with_capacity(n_samples);
    let mut matrices = Vec::with_capacity(n_samples);
    for s in 0..n_samples {
        let chunk = &numbers[s * per_sample..(s + 1) * per_sample];
        freqs.push(chunk[0] * scale);
        let mut m = CMat::zeros(ports, ports);
        let pairs: Vec<Complex64> =
            (0..ports * ports).map(|e| format.decode(chunk[1 + 2 * e], chunk[2 + 2 * e])).collect();
        if ports == 2 {
            m[(0, 0)] = pairs[0];
            m[(1, 0)] = pairs[1];
            m[(0, 1)] = pairs[2];
            m[(1, 1)] = pairs[3];
        } else {
            for i in 0..ports {
                for j in 0..ports {
                    m[(i, j)] = pairs[i * ports + j];
                }
            }
        }
        matrices.push(m);
    }
    let grid = FrequencyGrid::from_hz(freqs)?;
    NetworkData::new(grid, matrices, kind, z_ref)
}

/// Reads a Touchstone file; the port count is inferred from the `.sNp`
/// extension when possible, otherwise `ports_hint` is required.
///
/// # Errors
///
/// Returns [`RfDataError::Io`] on filesystem failures, or
/// [`RfDataError::Parse`] when the port count cannot be determined or the
/// content is malformed.
// audit:allow(dead-pub): the import path for outside (measured or field-solver) data
pub fn read_touchstone<P: AsRef<Path>>(path: P, ports_hint: Option<usize>) -> Result<NetworkData> {
    let path = path.as_ref();
    let ports = ports_hint.or_else(|| infer_ports_from_extension(path)).ok_or_else(|| {
        RfDataError::Parse(format!(
            "cannot infer port count from file name '{}'; pass ports_hint",
            path.display()
        ))
    })?;
    let text = std::fs::read_to_string(path)?;
    from_touchstone_string(&text, ports)
}

fn infer_ports_from_extension(path: &Path) -> Option<usize> {
    let ext = path.extension()?.to_str()?.to_ascii_lowercase();
    let inner = ext.strip_prefix('s')?.strip_suffix('p')?;
    inner.parse::<usize>().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data(ports: usize) -> NetworkData {
        let grid = FrequencyGrid::log_space(1e6, 1e9, 5).unwrap();
        let matrices: Vec<CMat> = grid
            .freqs_hz()
            .iter()
            .enumerate()
            .map(|(k, &f)| {
                CMat::from_fn(ports, ports, |i, j| {
                    Complex64::new(
                        0.1 * (i as f64 - j as f64) + 0.01 * k as f64,
                        1e-10 * f * (1 + i + j) as f64,
                    )
                })
            })
            .collect();
        NetworkData::new(grid, matrices, ParameterKind::Scattering, 50.0).unwrap()
    }

    #[test]
    fn roundtrip_ri_format_multiport() {
        for ports in [1usize, 2, 3, 5] {
            let d = sample_data(ports);
            let text = to_touchstone_string(&d, TouchstoneFormat::Ri);
            let back = from_touchstone_string(&text, ports).unwrap();
            assert_eq!(back.ports(), ports);
            assert_eq!(back.len(), d.len());
            assert_eq!(back.kind(), ParameterKind::Scattering);
            for k in 0..d.len() {
                assert!(back.matrix(k).max_abs_diff(d.matrix(k)) < 1e-9);
                assert!((back.grid().freqs_hz()[k] - d.grid().freqs_hz()[k]).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn roundtrip_ma_and_db_formats() {
        let d = sample_data(2);
        for fmt in [TouchstoneFormat::Ma, TouchstoneFormat::Db] {
            let text = to_touchstone_string(&d, fmt);
            let back = from_touchstone_string(&text, 2).unwrap();
            for k in 0..d.len() {
                assert!(back.matrix(k).max_abs_diff(d.matrix(k)) < 1e-8);
            }
        }
    }

    #[test]
    fn parses_ghz_units_and_y_parameters() {
        let text = "! comment\n# GHZ Y RI R 75\n1.0 0.02 0.0\n2.0 0.02 -0.001\n";
        let d = from_touchstone_string(text, 1).unwrap();
        assert_eq!(d.kind(), ParameterKind::Admittance);
        assert_eq!((d.z_ref()).to_bits(), 75.0f64.to_bits());
        assert!((d.grid().freqs_hz()[0] - 1e9).abs() < 1.0);
        assert!((d.matrix(1)[(0, 0)].im + 0.001).abs() < 1e-15);
    }

    #[test]
    fn default_options_follow_the_standard() {
        // No option line: GHz, S, MA, 50 Ω.
        let text = "1.0 0.5 0.0\n";
        let d = from_touchstone_string(text, 1).unwrap();
        assert_eq!(d.kind(), ParameterKind::Scattering);
        assert_eq!((d.z_ref()).to_bits(), 50.0f64.to_bits());
        assert!((d.matrix(0)[(0, 0)].re - 0.5).abs() < 1e-12);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(from_touchstone_string("# HZ S RI R 50\n1.0 0.1\n", 1).is_err());
        assert!(from_touchstone_string("# HZ S RI R\n", 1).is_err());
        assert!(from_touchstone_string("# HZ S RI R 50\nabc def ghi\n", 1).is_err());
        assert!(from_touchstone_string("# HZ S QQ R 50\n1.0 0.0 0.0\n", 1).is_err());
        assert!(from_touchstone_string("", 1).is_err());
        assert!(from_touchstone_string("1.0 0.0 0.0", 0).is_err());
        assert!(from_touchstone_string("1 0.5 0", 1 << 32).is_err());
    }

    #[test]
    fn file_roundtrip_and_extension_inference() {
        let d = sample_data(3);
        let dir = std::env::temp_dir().join("pim_rfdata_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.s3p");
        std::fs::write(&path, to_touchstone_string(&d, TouchstoneFormat::Ri)).unwrap();
        let back = read_touchstone(&path, None).unwrap();
        assert_eq!(back.ports(), 3);
        assert!(back.matrix(2).max_abs_diff(d.matrix(2)) < 1e-9);
        // Unknown extension requires the hint.
        let odd = dir.join("sample.dat");
        std::fs::copy(&path, &odd).unwrap();
        assert!(read_touchstone(&odd, None).is_err());
        assert!(read_touchstone(&odd, Some(3)).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn two_port_ordering_is_column_major() {
        // Construct a 2-port with distinct entries and check the serialized
        // order is S11 S21 S12 S22.
        let grid = FrequencyGrid::from_hz(vec![1.0]).unwrap();
        let m = CMat::from_fn(2, 2, |i, j| Complex64::new((1 + i * 2 + j) as f64, 0.0));
        let d = NetworkData::new(grid, vec![m], ParameterKind::Scattering, 50.0).unwrap();
        let text = to_touchstone_string(&d, TouchstoneFormat::Ri);
        let data_line = text.lines().find(|l| !l.starts_with('!') && !l.starts_with('#')).unwrap();
        let nums: Vec<f64> = data_line.split_whitespace().map(|t| t.parse().unwrap()).collect();
        // [freq, S11re, S11im, S21re, S21im, S12re, S12im, S22re, S22im]
        assert_eq!((nums[1]).to_bits(), 1.0f64.to_bits()); // S11
        assert_eq!((nums[3]).to_bits(), 3.0f64.to_bits()); // S21
        assert_eq!((nums[5]).to_bits(), 2.0f64.to_bits()); // S12
        assert_eq!((nums[7]).to_bits(), 4.0f64.to_bits()); // S22
    }
}
