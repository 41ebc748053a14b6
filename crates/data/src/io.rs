//! Readers and writers for the ann-benchmarks on-disk vector formats.
//!
//! * `.fvecs` — each vector is a little-endian `i32` dimension followed by `dim` `f32`s;
//! * `.ivecs` — same layout with `i32` components (used for ground-truth files);
//! * `.bvecs` — `i32` dimension followed by `dim` bytes (SIFT1B descriptors).
//!
//! No experiment opens a file yet: the experiments run on the synthetic generators in
//! [`crate::synthetic`], and these readers are for the real SIFT/MNIST files of ROADMAP
//! items 3(2) and 14(1). All three formats go through one streaming record walker, so a
//! file is never resident beside the matrix parsed from it and a `limit` stops reading at
//! its last record.

use std::fs::File;
use std::io::{self, BufReader, Read};
use std::path::Path;

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

/// The record walker: reads `i32` headers and `d × width`-byte bodies until the stream
/// ends cleanly or `limit` records are read, and returns the record count. `dim` turns a
/// header into `d` or refuses it; `body` decodes one record. Reading never runs past the
/// last record it returns, and a body grows only as its bytes arrive, so a lying header
/// cannot make it allocate.
fn walk_records(
    mut r: impl Read,
    limit: Option<usize>,
    width: usize,
    mut dim: impl FnMut(i32) -> Result<usize, IoError>,
    mut body: impl FnMut(&[u8]) -> Result<(), IoError>,
) -> Result<usize, IoError> {
    let (mut buf, mut rows) = (Vec::new(), 0usize);
    while limit.is_none_or(|l| rows < l) {
        buf.clear();
        match r.by_ref().take(4).read_to_end(&mut buf)? {
            0 => break,
            4 => {}
            n => {
                return Err(IoError::Format(format!(
                    "{n} trailing byte(s) after the last record"
                )))
            }
        }
        let d = dim(i32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]))?;
        let len = d as u64 * width as u64;
        buf.clear();
        if (r.by_ref().take(len).read_to_end(&mut buf)? as u64) < len {
            return Err(IoError::Format("truncated vector record".into()));
        }
        body(&buf)?;
        rows += 1;
    }
    Ok(rows)
}

/// `.fvecs` / `.bvecs`: every dimension positive and equal to the first; each
/// `width`-byte component goes through `decode`.
fn read_matrix(
    r: impl Read,
    limit: Option<usize>,
    width: usize,
    decode: impl Fn(&[u8]) -> f32,
) -> Result<Matrix, IoError> {
    let (mut flat, mut dim) = (Vec::new(), None);
    let rows = walk_records(
        r,
        limit,
        width,
        |d| {
            if d <= 0 {
                return Err(IoError::Format(format!("non-positive dimension {d}")));
            }
            let d = d as usize;
            match *dim.get_or_insert(d) {
                prev if prev != d => Err(IoError::Format(format!(
                    "inconsistent dimensions {prev} vs {d}"
                ))),
                _ => Ok(d),
            }
        },
        |body| {
            flat.extend(body.chunks_exact(width).map(&decode));
            Ok(())
        },
    )?;
    Ok(Matrix::from_vec(rows, dim.unwrap_or(0), flat))
}

fn read_fvecs_from(r: impl Read, limit: Option<usize>) -> Result<Matrix, IoError> {
    read_matrix(r, limit, 4, |c| {
        f32::from_le_bytes([c[0], c[1], c[2], c[3]])
    })
}

fn read_bvecs_from(r: impl Read, limit: Option<usize>) -> Result<Matrix, IoError> {
    read_matrix(r, limit, 1, |c| c[0] as f32)
}

/// `.ivecs`: ragged rows (a dimension of 0 is an empty row), non-negative components.
fn read_ivecs_from(r: impl Read, limit: Option<usize>) -> Result<Vec<Vec<u32>>, IoError> {
    let mut rows = Vec::new();
    walk_records(
        r,
        limit,
        4,
        |d| usize::try_from(d).map_err(|_| IoError::Format(format!("negative dimension {d}"))),
        |body| {
            let row = body
                .chunks_exact(4)
                .map(|c| {
                    let id = i32::from_le_bytes([c[0], c[1], c[2], c[3]]);
                    u32::try_from(id)
                        .map_err(|_| IoError::Format(format!("negative component {id}")))
                })
                .collect::<Result<_, _>>()?;
            rows.push(row);
            Ok(())
        },
    )?;
    Ok(rows)
}

/// Parses an fvecs byte buffer into a matrix. `limit` caps the number of vectors read.
pub fn parse_fvecs(bytes: &[u8], limit: Option<usize>) -> Result<Matrix, IoError> {
    read_fvecs_from(bytes, limit)
}

/// Serialises a matrix to fvecs bytes.
pub fn write_fvecs_bytes(m: &Matrix) -> Vec<u8> {
    let mut out = Vec::with_capacity(m.rows() * (4 + 4 * m.cols()));
    for row in m.row_iter() {
        out.extend_from_slice(&(m.cols() as i32).to_le_bytes());
        for &v in row {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// Parses an ivecs byte buffer into integer neighbour lists.
pub fn parse_ivecs(bytes: &[u8], limit: Option<usize>) -> Result<Vec<Vec<u32>>, IoError> {
    read_ivecs_from(bytes, limit)
}

/// Serialises integer neighbour lists to ivecs bytes.
pub fn write_ivecs_bytes(rows: &[Vec<u32>]) -> Vec<u8> {
    let mut out = Vec::new();
    for row in rows {
        out.extend_from_slice(&(row.len() as i32).to_le_bytes());
        for &v in row {
            out.extend_from_slice(&(v as i32).to_le_bytes());
        }
    }
    out
}

/// Parses a bvecs buffer (byte-quantised vectors) into a float matrix.
pub fn parse_bvecs(bytes: &[u8], limit: Option<usize>) -> Result<Matrix, IoError> {
    read_bvecs_from(bytes, limit)
}

/// Reads an fvecs file from disk.
pub fn read_fvecs(path: impl AsRef<Path>, limit: Option<usize>) -> Result<Matrix, IoError> {
    read_fvecs_from(BufReader::new(File::open(path)?), limit)
}

/// Writes a matrix as an fvecs file.
pub fn write_fvecs(path: impl AsRef<Path>, m: &Matrix) -> Result<(), IoError> {
    std::fs::write(path, write_fvecs_bytes(m))?;
    Ok(())
}

/// Reads an ivecs file from disk.
pub fn read_ivecs(path: impl AsRef<Path>, limit: Option<usize>) -> Result<Vec<Vec<u32>>, IoError> {
    read_ivecs_from(BufReader::new(File::open(path)?), limit)
}

/// Reads a bvecs file from disk.
pub fn read_bvecs(path: impl AsRef<Path>, limit: Option<usize>) -> Result<Matrix, IoError> {
    read_bvecs_from(BufReader::new(File::open(path)?), limit)
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

        // 300 records of 37 components: records straddle `BufReader`'s 8 KiB buffer.
        let (n, d) = (300usize, 37usize);
        let ids: Vec<Vec<u32>> = (0..n)
            .map(|i| (0..d).map(|j| (i * d + j) as u32 * 7919).collect())
            .collect();
        let path = dir.join("neighbours.ivecs");
        std::fs::write(&path, write_ivecs_bytes(&ids)).unwrap();
        assert_eq!(read_ivecs(&path, None).unwrap(), ids);
        assert_eq!(read_ivecs(&path, Some(111)).unwrap(), ids[..111]);
        std::fs::remove_file(&path).ok();

        let codes: Vec<u8> = (0..n * d).map(|i| (i * 31 % 256) as u8).collect();
        let mut bvecs = Vec::new();
        for row in codes.chunks_exact(d) {
            bvecs.extend((d as i32).to_le_bytes());
            bvecs.extend(row);
        }
        let path = dir.join("codes.bvecs");
        std::fs::write(&path, bvecs).unwrap();
        let want = Matrix::from_vec(n, d, codes.iter().map(|&b| b as f32).collect());
        assert_eq!(read_bvecs(&path, None).unwrap(), want);
        let head = read_bvecs(&path, Some(222)).unwrap();
        assert_eq!(head.rows(), 222);
        assert_eq!(head.row(221), want.row(221));
        std::fs::remove_file(&path).ok();
    }

    /// A reader that counts the bytes it hands out.
    struct Counting<R> {
        inner: R,
        read: usize,
    }

    impl<R: Read> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.read += n;
            Ok(n)
        }
    }

    #[test]
    fn a_limited_read_stops_at_its_last_record() {
        let (rows, d) = (50usize, 37usize);
        let m = Matrix::from_vec(rows, d, (0..rows * d).map(|x| x as f32).collect());
        let bytes = write_fvecs_bytes(&m);
        for n in [0usize, 1, 7, rows] {
            let mut r = Counting {
                inner: &bytes[..],
                read: 0,
            };
            let back = read_fvecs_from(&mut r, Some(n)).unwrap();
            assert_eq!(back.rows(), n);
            assert_eq!(r.read, n * (4 + 4 * d), "limit {n}");
        }
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
