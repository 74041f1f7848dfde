//! Cheap 64-bit content fingerprints for columns, segments, and frames.
//!
//! Derived state is keyed by data *content*: the feature cache's fitted
//! statistics and blocks, `comet-core`'s detection memo, and the spill
//! tier's segment files. These fingerprints use the
//! FxHash mixing function (rotate-xor-multiply) over the raw column
//! payloads — not cryptographic, but fast (one multiply per word) and
//! sensitive to any single-cell change: value bits, validity flips,
//! dictionary edits, column renames, and column order all alter the hash.
//!
//! Two granularities coexist:
//!
//! * The **whole-column** fingerprint streams the payload in row order
//!   across segments, carrying the validity bit-packing word over segment
//!   boundaries, so the value is *segment-size-invariant*: a column split
//!   1Ki-wise, 64Ki-wise, or not at all hashes identically, which keeps
//!   cache keys and traces bit-identical to the pre-segmentation layout.
//! * The **per-segment** content fingerprint ([`segment_content_fp`])
//!   covers one segment's kind + values + validity but *not* the column
//!   name, so identical content is shared across columns. It addresses
//!   spill files and keys per-segment feature-block caches.

use crate::segment::{SegData, SegPayload};
use crate::{Column, ColumnKind, DataFrame};

/// FxHash multiply constant (64-bit golden-ratio derivative).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[inline]
fn mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(SEED)
}

pub(crate) fn mix_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    hash = mix(hash, bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        hash = mix(hash, u64::from_le_bytes(word));
    }
    hash
}

/// Streaming validity packer: 64 mask bits per mixed word (MSB-first),
/// carried across [`push`](ValidityMixer::push) calls so segment boundaries
/// never flush a partial word. Packing keeps the per-row cost at one
/// shift/or, far below hashing a bool per row.
struct ValidityMixer {
    hash: u64,
    word: u64,
    bits: u32,
}

impl ValidityMixer {
    fn new(hash: u64, total_len: usize) -> Self {
        ValidityMixer { hash: mix(hash, total_len as u64), word: 0, bits: 0 }
    }

    fn push(&mut self, valid: &[bool]) {
        for &v in valid {
            self.word = (self.word << 1) | v as u64;
            self.bits += 1;
            if self.bits == 64 {
                self.hash = mix(self.hash, self.word);
                self.word = 0;
                self.bits = 0;
            }
        }
    }

    fn finish(self) -> u64 {
        if self.bits > 0 {
            mix(self.hash, self.word)
        } else {
            self.hash
        }
    }
}

fn mix_validity(hash: u64, valid: &[bool]) -> u64 {
    let mut mixer = ValidityMixer::new(hash, valid.len());
    mixer.push(valid);
    mixer.finish()
}

fn mix_values(mut hash: u64, data: &SegData) -> u64 {
    match data {
        SegData::Num(values) => {
            for &v in values {
                hash = mix(hash, v.to_bits());
            }
        }
        SegData::Cat(codes) => {
            for &c in codes {
                hash = mix(hash, c as u64);
            }
        }
    }
    hash
}

/// Content fingerprint of one segment payload: kind tag, raw values, and
/// validity. Excludes the column name and dictionary, so identical content
/// shares spill files and feature-block cache entries across columns (codes
/// round-trip bit-exactly regardless of the dictionary, which lives on the
/// column).
pub(crate) fn segment_content_fp(payload: &SegPayload, kind: ColumnKind) -> u64 {
    let tag = match kind {
        ColumnKind::Numeric => 1,
        ColumnKind::Categorical => 2,
    };
    let hash = mix_values(mix(SEED, tag), &payload.data);
    mix_validity(hash, &payload.valid)
}

impl Column {
    /// 64-bit content fingerprint covering name, kind, payload, validity
    /// mask, and (for categoricals) the dictionary. Memoized per column:
    /// the O(rows) scan runs once and the value rides along on clones until
    /// a mutation resets it, so re-fingerprinting a frame where a candidate
    /// touched one column only re-scans that column. Invariant under
    /// resegmentation (values stream in row order; validity packing carries
    /// across segment boundaries).
    pub fn fingerprint(&self) -> u64 {
        *self.fp_slot().get_or_init(|| self.fingerprint_uncached())
    }

    fn fingerprint_uncached(&self) -> u64 {
        let mut hash = mix_bytes(SEED, self.name().as_bytes());
        hash = mix(
            hash,
            match self.kind() {
                ColumnKind::Numeric => 1,
                ColumnKind::Categorical => 2,
            },
        );
        // Hold every view first so a reload failure degrades to hashing the
        // rows that are reachable rather than silently skipping mid-stream.
        let views: Vec<_> =
            (0..self.n_segments()).filter_map(|seg| self.segment_view(seg).ok()).collect();
        for view in &views {
            hash = mix_values(hash, &view.payload().data);
        }
        if self.kind() == ColumnKind::Categorical {
            for cat in self.categories() {
                hash = mix_bytes(hash, cat.as_bytes());
            }
        }
        let mut mixer = ValidityMixer::new(hash, self.len());
        for view in &views {
            mixer.push(&view.payload().valid);
        }
        mixer.finish()
    }
}

impl DataFrame {
    /// 64-bit content fingerprint of the whole frame: every column's
    /// fingerprint folded in order, plus shape and label position.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = mix(SEED, self.nrows() as u64);
        hash = mix(hash, self.ncols() as u64);
        hash = mix(hash, self.schema().label_index().map_or(u64::MAX, |i| i as u64));
        for column in self.columns() {
            hash = mix(hash, column.fingerprint());
        }
        hash
    }
}

/// Fingerprint arbitrary tagged bytes with the frame hash (used by
/// `comet-core` for config fingerprints so one mixing function covers every
/// cache key in the system).
pub fn fingerprint_bytes(tag: u64, bytes: &[u8]) -> u64 {
    mix_bytes(mix(SEED, tag), bytes)
}

#[cfg(test)]
mod tests {
    use crate::{Cell, Column, DataFrame};

    fn frame() -> DataFrame {
        DataFrame::new(
            vec![
                Column::numeric("x", vec![1.0, 2.0, 3.0]),
                Column::numeric_opt("y", vec![Some(0.5), None, Some(1.5)]),
                Column::categorical("label", vec![0, 1, 0], vec!["no".into(), "yes".into()])
                    .unwrap(),
            ],
            Some("label"),
        )
        .unwrap()
    }

    #[test]
    fn fingerprint_is_deterministic() {
        assert_eq!(frame().fingerprint(), frame().fingerprint());
    }

    #[test]
    fn single_cell_change_alters_fingerprint() {
        let base = frame().fingerprint();
        let mut f = frame();
        f.set(1, 0, Cell::Num(2.0000001)).unwrap();
        assert_ne!(f.fingerprint(), base);
    }

    #[test]
    fn validity_flip_alters_fingerprint() {
        let base = frame().fingerprint();
        let mut f = frame();
        // Same neutral filler value, only the mask changes.
        f.set(0, 1, Cell::Missing).unwrap();
        assert_ne!(f.fingerprint(), base);
    }

    #[test]
    fn column_name_and_order_matter() {
        let a = Column::numeric("a", vec![1.0, 2.0]);
        let b = Column::numeric("b", vec![1.0, 2.0]);
        assert_ne!(a.fingerprint(), b.fingerprint());
        let ab = DataFrame::new(vec![a.clone(), b.clone()], None).unwrap();
        let ba = DataFrame::new(vec![b, a], None).unwrap();
        assert_ne!(ab.fingerprint(), ba.fingerprint());
    }

    #[test]
    fn negative_zero_distinct_from_positive_zero() {
        let pos = Column::numeric("x", vec![0.0]);
        let neg = Column::numeric("x", vec![-0.0]);
        assert_ne!(pos.fingerprint(), neg.fingerprint());
    }

    #[test]
    fn memoized_fingerprint_tracks_mutation_cycles() {
        let mut c = Column::numeric("x", vec![1.0, 2.0, 3.0]);
        let base = c.fingerprint();
        let clone = c.clone();
        // Clones share the memoized value and the content.
        assert_eq!(clone.fingerprint(), base);
        c.set(1, Cell::Num(9.0)).unwrap();
        let mutated = c.fingerprint();
        assert_ne!(mutated, base);
        // Restoring the original value restores the original fingerprint
        // (content-addressed, not identity-addressed).
        c.set(1, Cell::Num(2.0)).unwrap();
        assert_eq!(c.fingerprint(), base);
        assert_eq!(clone.fingerprint(), base);
    }

    #[test]
    fn dictionary_edit_alters_fingerprint() {
        let a = Column::categorical("c", vec![0], vec!["x".into(), "y".into()]).unwrap();
        let b = Column::categorical("c", vec![0], vec!["x".into(), "z".into()]).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_is_segment_size_invariant() {
        // 131 rows with a mix of missing cells straddles segment boundaries
        // at every size below; the packed-validity carry must not flush at
        // the boundary.
        let vals: Vec<Option<f64>> =
            (0..131).map(|i| if i % 5 == 0 { None } else { Some(i as f64 * 1.25) }).collect();
        let whole = Column::numeric_opt("x", vals);
        let base = whole.fingerprint();
        for seg_rows in [1usize, 3, 16, 64, 100, 1024] {
            let seg = whole.resegment(seg_rows).unwrap();
            // Recompute from scratch (the memoized value carries over on
            // resegment, so poke a fresh clone via take to force a rescan).
            let fresh = seg.take(&(0..seg.len()).collect::<Vec<_>>()).unwrap();
            assert_eq!(fresh.fingerprint(), base, "seg_rows={seg_rows}");
        }
        let cat = Column::categorical_opt(
            "c",
            (0..131).map(|i| if i % 7 == 0 { None } else { Some(i % 3) }).collect(),
            vec!["a".into(), "b".into(), "c".into()],
        )
        .unwrap();
        let cat_base = cat.fingerprint();
        for seg_rows in [1usize, 8, 50] {
            let fresh =
                cat.resegment(seg_rows).unwrap().take(&(0..cat.len()).collect::<Vec<_>>()).unwrap();
            assert_eq!(fresh.fingerprint(), cat_base, "seg_rows={seg_rows}");
        }
    }
}
