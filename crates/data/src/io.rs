//! Readers and writers for the ann-benchmarks on-disk vector formats.
//!
//! * `.fvecs` — each vector is a little-endian `i32` dimension followed by `dim` `f32`s;
//! * `.ivecs` — same layout with `i32` components (used for ground-truth files);
//! * `.bvecs` — `i32` dimension followed by `dim` bytes (SIFT1B descriptors).
//!
//! When the real SIFT/MNIST files are present these loaders let the experiments run on
//! them unchanged; otherwise the synthetic generators in [`crate::synthetic`] are used.

use std::io::{self, Read, Write};
use std::path::Path;

use bytes::{Buf, BufMut, BytesMut};
use usp_linalg::Matrix;

/// Errors produced by the vector-file readers.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem in the file (bad dimension header, truncated record, ...).
    Format(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Parses an fvecs byte buffer into a matrix. `limit` caps the number of vectors read.
pub fn parse_fvecs(bytes: &[u8], limit: Option<usize>) -> Result<Matrix, IoError> {
    let mut buf = bytes;
    let (mut flat, mut rows) = (Vec::new(), 0usize);
    let mut dim: Option<usize> = None;
    while limit.is_none_or(|l| rows < l) {
        match buf.remaining() {
            0 => break,
            n @ 1..=3 => {
                return Err(IoError::Format(format!(
                    "{n} trailing byte(s) after the last record"
                )))
            }
            _ => {}
        }
        let d = buf.get_i32_le();
        if d <= 0 {
            return Err(IoError::Format(format!("non-positive dimension {d}")));
        }
        let d = d as usize;
        match dim {
            None => dim = Some(d),
            Some(prev) if prev != d => {
                return Err(IoError::Format(format!(
                    "inconsistent dimensions {prev} vs {d}"
                )))
            }
            _ => {}
        }
        if buf.remaining() < 4 * d {
            return Err(IoError::Format("truncated vector record".into()));
        }
        flat.extend((0..d).map(|_| buf.get_f32_le()));
        rows += 1;
    }
    Ok(Matrix::from_vec(rows, dim.unwrap_or(0), flat))
}

/// Serialises a matrix to fvecs bytes.
pub fn write_fvecs_bytes(m: &Matrix) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(m.rows() * (4 + 4 * m.cols()));
    for row in m.row_iter() {
        buf.put_i32_le(m.cols() as i32);
        for &v in row {
            buf.put_f32_le(v);
        }
    }
    buf.to_vec()
}

/// Parses an ivecs byte buffer into integer neighbour lists.
pub fn parse_ivecs(bytes: &[u8], limit: Option<usize>) -> Result<Vec<Vec<u32>>, IoError> {
    let mut buf = bytes;
    let mut rows = Vec::new();
    while limit.is_none_or(|l| rows.len() < l) {
        match buf.remaining() {
            0 => break,
            n @ 1..=3 => {
                return Err(IoError::Format(format!(
                    "{n} trailing byte(s) after the last record"
                )))
            }
            _ => {}
        }
        let d = buf.get_i32_le();
        if d < 0 {
            return Err(IoError::Format(format!("negative dimension {d}")));
        }
        let d = d as usize;
        if buf.remaining() < 4 * d {
            return Err(IoError::Format("truncated ivecs record".into()));
        }
        let mut row = Vec::with_capacity(d);
        for _ in 0..d {
            let id = buf.get_i32_le();
            row.push(
                u32::try_from(id)
                    .map_err(|_| IoError::Format(format!("negative component {id}")))?,
            );
        }
        rows.push(row);
    }
    Ok(rows)
}

/// Serialises integer neighbour lists to ivecs bytes.
pub fn write_ivecs_bytes(rows: &[Vec<u32>]) -> Vec<u8> {
    let mut buf = BytesMut::new();
    for row in rows {
        buf.put_i32_le(row.len() as i32);
        for &v in row {
            buf.put_i32_le(v as i32);
        }
    }
    buf.to_vec()
}

/// Parses a bvecs buffer (byte-quantised vectors) into a float matrix.
pub fn parse_bvecs(bytes: &[u8], limit: Option<usize>) -> Result<Matrix, IoError> {
    let mut buf = bytes;
    let (mut flat, mut rows) = (Vec::new(), 0usize);
    let mut dim: Option<usize> = None;
    while limit.is_none_or(|l| rows < l) {
        match buf.remaining() {
            0 => break,
            n @ 1..=3 => {
                return Err(IoError::Format(format!(
                    "{n} trailing byte(s) after the last record"
                )))
            }
            _ => {}
        }
        let d = buf.get_i32_le();
        if d <= 0 {
            return Err(IoError::Format(format!("non-positive dimension {d}")));
        }
        let d = d as usize;
        // Ragged records must be an error, not a mis-shaped `Matrix`.
        match dim {
            None => dim = Some(d),
            Some(prev) if prev != d => {
                return Err(IoError::Format(format!(
                    "inconsistent dimensions {prev} vs {d}"
                )))
            }
            _ => {}
        }
        if buf.remaining() < d {
            return Err(IoError::Format("truncated bvecs record".into()));
        }
        flat.extend((0..d).map(|_| buf.get_u8() as f32));
        rows += 1;
    }
    Ok(Matrix::from_vec(rows, dim.unwrap_or(0), flat))
}

/// Reads an fvecs file from disk.
pub fn read_fvecs(path: impl AsRef<Path>, limit: Option<usize>) -> Result<Matrix, IoError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    parse_fvecs(&bytes, limit)
}

/// Writes a matrix as an fvecs file.
pub fn write_fvecs(path: impl AsRef<Path>, m: &Matrix) -> Result<(), IoError> {
    let bytes = write_fvecs_bytes(m);
    std::fs::File::create(path)?.write_all(&bytes)?;
    Ok(())
}

/// Reads an ivecs file from disk.
pub fn read_ivecs(path: impl AsRef<Path>, limit: Option<usize>) -> Result<Vec<Vec<u32>>, IoError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    parse_ivecs(&bytes, limit)
}

/// Reads a bvecs file from disk.
pub fn read_bvecs(path: impl AsRef<Path>, limit: Option<usize>) -> Result<Matrix, IoError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    parse_bvecs(&bytes, limit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fvecs_roundtrip() {
        let m = Matrix::from_vec(3, 4, (0..12).map(|x| x as f32 * 0.5).collect());
        let bytes = write_fvecs_bytes(&m);
        let back = parse_fvecs(&bytes, None).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn fvecs_limit_caps_rows() {
        let m = Matrix::from_vec(5, 2, (0..10).map(|x| x as f32).collect());
        let bytes = write_fvecs_bytes(&m);
        let back = parse_fvecs(&bytes, Some(2)).unwrap();
        assert_eq!(back.rows(), 2);
        assert_eq!(back.row(1), m.row(1));
    }

    #[test]
    fn fvecs_truncated_is_error() {
        let m = Matrix::from_vec(1, 4, vec![1., 2., 3., 4.]);
        let mut bytes = write_fvecs_bytes(&m);
        bytes.truncate(bytes.len() - 3);
        assert!(parse_fvecs(&bytes, None).is_err());
    }

    #[test]
    fn fvecs_bad_dimension_is_error() {
        let bytes = (-1i32).to_le_bytes().to_vec();
        assert!(parse_fvecs(&bytes, None).is_err());
    }

    #[test]
    fn fvecs_inconsistent_dims_is_error() {
        let a = Matrix::from_vec(1, 2, vec![1., 2.]);
        let b = Matrix::from_vec(1, 3, vec![1., 2., 3.]);
        let mut bytes = write_fvecs_bytes(&a);
        bytes.extend(write_fvecs_bytes(&b));
        assert!(parse_fvecs(&bytes, None).is_err());
    }

    #[test]
    fn ivecs_roundtrip() {
        let rows = vec![vec![1u32, 2, 3], vec![7, 8, 9]];
        let bytes = write_ivecs_bytes(&rows);
        let back = parse_ivecs(&bytes, None).unwrap();
        assert_eq!(rows, back);
    }

    #[test]
    fn ivecs_negative_id_is_an_error() {
        // Regression: a `-1` component used to come back as id 4 294 967 295; the
        // bits round-trip, so only this test sees it.
        let mut bytes = Vec::new();
        bytes.extend(2i32.to_le_bytes());
        bytes.extend(7i32.to_le_bytes());
        bytes.extend((-1i32).to_le_bytes());
        assert!(matches!(parse_ivecs(&bytes, None), Err(IoError::Format(_))));
    }

    #[test]
    fn bvecs_inconsistent_dims_is_error_not_panic() {
        // Regression: this used to reach `Matrix::from_rows` with ragged rows
        // and panic; a dimension lie in an untrusted file must be `IoError`.
        let mut bytes = Vec::new();
        bytes.extend(2i32.to_le_bytes());
        bytes.extend([1u8, 2]);
        bytes.extend(3i32.to_le_bytes());
        bytes.extend([3u8, 4, 5]);
        assert!(matches!(parse_bvecs(&bytes, None), Err(IoError::Format(_))));
    }

    #[test]
    fn trailing_garbage_is_error_in_every_format() {
        // Regression: 1–3 trailing bytes used to be silently swallowed by the
        // `remaining() >= 4` loop guard in all three parsers.
        let m = Matrix::from_vec(1, 2, vec![1., 2.]);
        let ivecs = write_ivecs_bytes(&[vec![1u32, 2]]);
        let mut bvecs = Vec::new();
        bvecs.extend(2i32.to_le_bytes());
        bvecs.extend([1u8, 2]);
        for extra in 1..=3usize {
            let mut f = write_fvecs_bytes(&m);
            f.extend(std::iter::repeat_n(0xAAu8, extra));
            assert!(
                matches!(parse_fvecs(&f, None), Err(IoError::Format(_))),
                "fvecs must reject {extra} trailing byte(s)"
            );
            let mut i = ivecs.clone();
            i.extend(std::iter::repeat_n(0xAAu8, extra));
            assert!(
                matches!(parse_ivecs(&i, None), Err(IoError::Format(_))),
                "ivecs must reject {extra} trailing byte(s)"
            );
            let mut b = bvecs.clone();
            b.extend(std::iter::repeat_n(0xAAu8, extra));
            assert!(
                matches!(parse_bvecs(&b, None), Err(IoError::Format(_))),
                "bvecs must reject {extra} trailing byte(s)"
            );
        }
    }

    #[test]
    fn limit_tolerates_unread_remainder() {
        // A `limit` stop is not a trailing-bytes error: the unread suffix is
        // simply the rest of the file.
        let m = Matrix::from_vec(5, 2, (0..10).map(|x| x as f32).collect());
        let bytes = write_fvecs_bytes(&m);
        assert_eq!(parse_fvecs(&bytes, Some(2)).unwrap().rows(), 2);
        let rows = vec![vec![1u32], vec![2], vec![3]];
        assert_eq!(
            parse_ivecs(&write_ivecs_bytes(&rows), Some(1))
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn dimension_lie_never_over_allocates() {
        // A header claiming a huge vector with almost no bytes behind it must
        // fail the remaining-bytes check before any allocation happens.
        let mut bytes = i32::MAX.to_le_bytes().to_vec();
        bytes.extend([0u8; 8]);
        assert!(matches!(parse_fvecs(&bytes, None), Err(IoError::Format(_))));
        assert!(matches!(parse_ivecs(&bytes, None), Err(IoError::Format(_))));
        assert!(matches!(parse_bvecs(&bytes, None), Err(IoError::Format(_))));
    }

    #[test]
    fn empty_input_is_an_empty_result() {
        assert_eq!(parse_fvecs(&[], None).unwrap().rows(), 0);
        assert!(parse_ivecs(&[], None).unwrap().is_empty());
        assert_eq!(parse_bvecs(&[], None).unwrap().rows(), 0);
    }

    #[test]
    fn bvecs_parses_bytes_to_floats() {
        let mut bytes = Vec::new();
        bytes.extend(3i32.to_le_bytes());
        bytes.extend([10u8, 20, 30]);
        let m = parse_bvecs(&bytes, None).unwrap();
        assert_eq!(m.row(0), &[10.0, 20.0, 30.0]);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("usp_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("vectors.fvecs");
        let m = Matrix::from_vec(4, 3, (0..12).map(|x| x as f32).collect());
        write_fvecs(&path, &m).unwrap();
        let back = read_fvecs(&path, None).unwrap();
        assert_eq!(m, back);
        std::fs::remove_file(&path).ok();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn fvecs_roundtrip_any_matrix(rows in 1usize..8, cols in 1usize..8, seed in 0u64..1000) {
            let data: Vec<f32> = (0..rows * cols).map(|i| ((i as u64 * 2654435761 + seed) % 1000) as f32 * 0.37).collect();
            let m = Matrix::from_vec(rows, cols, data);
            let back = parse_fvecs(&write_fvecs_bytes(&m), None).unwrap();
            prop_assert_eq!(m, back);
        }

        #[test]
        fn ivecs_roundtrip_any_rows(rows in prop::collection::vec(prop::collection::vec(0u32..10000, 0..16), 0..8)) {
            let back = parse_ivecs(&write_ivecs_bytes(&rows), None).unwrap();
            prop_assert_eq!(rows, back);
        }

        /// Fuzz: arbitrary bytes through every parser. The parsers must return
        /// (Ok or `IoError`), never panic, and never allocate from a lying
        /// dimension header. When a full parse succeeds, re-serialising must
        /// reproduce the input exactly — i.e. `Ok` means every byte was a
        /// well-formed record, nothing was skipped or invented.
        #[test]
        fn parsers_never_panic_on_garbage(
            bytes in prop::collection::vec(0u8..=255, 0..256),
            limit_sel in 0usize..8,
        ) {
            // Selector 6 and 7 mean "no cap" (the shim has no option strategy).
            let limit = (limit_sel < 6).then_some(limit_sel);
            if let Ok(m) = parse_fvecs(&bytes, None) {
                prop_assert_eq!(write_fvecs_bytes(&m), bytes.clone());
            }
            if let Ok(rows) = parse_ivecs(&bytes, None) {
                prop_assert_eq!(write_ivecs_bytes(&rows), bytes.clone());
            }
            let _ = parse_bvecs(&bytes, None);
            // A row cap must never turn a defined outcome into a panic either.
            let _ = parse_fvecs(&bytes, limit);
            let _ = parse_ivecs(&bytes, limit);
            let _ = parse_bvecs(&bytes, limit);
        }

        /// Fuzz: every truncation of a valid fvecs file either fails cleanly
        /// (mid-record cut) or yields exactly the complete-record prefix.
        #[test]
        fn fvecs_truncation_is_error_or_exact_prefix(
            rows in 1usize..6,
            cols in 1usize..6,
            seed in 0u64..1000,
            cut_sel in 0u64..1_000_000,
        ) {
            let data: Vec<f32> = (0..rows * cols)
                .map(|i| ((i as u64 * 2654435761 + seed) % 1000) as f32 * 0.37)
                .collect();
            let m = Matrix::from_vec(rows, cols, data);
            let bytes = write_fvecs_bytes(&m);
            let cut = (cut_sel as usize) % (bytes.len() + 1);
            let record = 4 + 4 * cols;
            match parse_fvecs(&bytes[..cut], None) {
                Ok(back) => {
                    prop_assert_eq!(cut % record, 0, "Ok implies a record-boundary cut");
                    prop_assert_eq!(back.rows(), cut / record);
                    for r in 0..back.rows() {
                        prop_assert_eq!(back.row(r), m.row(r));
                    }
                }
                Err(IoError::Format(_)) => prop_assert_ne!(cut % record, 0),
                Err(e) => prop_assert!(false, "unexpected error kind: {e}"),
            }
        }
    }
}
