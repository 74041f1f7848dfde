//! Fixed-size row segments — the unit of storage, copy-on-write, content
//! fingerprinting, and disk spill (DESIGN.md §15).
//!
//! A [`crate::Column`] is an ordered list of segments of `seg_rows` rows
//! (default [`DEFAULT_SEGMENT_ROWS`]; the last segment may be short). Each
//! segment is an `Arc<SegmentCore>`: cloning a column bumps one refcount per
//! segment, and a cell write un-shares only the touched segment, so a
//! few-cell pollution on a million-row column clones and re-fingerprints
//! O(segment) data instead of O(column).
//!
//! A segment's payload is either *resident* (in memory) or *spilled* to a
//! fingerprint-addressed file managed by [`crate::spill`]. All readers go
//! through [`SegmentCore::view`], which transparently reloads spilled
//! payloads; when no spill pool is configured (the default), segments are
//! always resident and the state lock is the only overhead.
//!
//! Lock order (shared with the pool): pool → fingerprint slot → state.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::spill;
use crate::{ColumnKind, FrameError, Result};

/// Default rows per segment (64Ki). Small frames therefore occupy a single
/// segment and behave exactly like the pre-segmentation layout.
pub const DEFAULT_SEGMENT_ROWS: usize = 65_536;

/// Typed payload of one segment. Slots for missing rows hold a neutral
/// filler (0.0 / code 0) and are masked out by the validity slice.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SegData {
    Num(Vec<f64>),
    Cat(Vec<u32>),
}

/// One segment's values plus validity mask.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SegPayload {
    pub(crate) data: SegData,
    pub(crate) valid: Vec<bool>,
}

impl SegPayload {
    pub(crate) fn len(&self) -> usize {
        self.valid.len()
    }

    /// Heap bytes this payload pins (the spill pool's accounting unit).
    pub(crate) fn heap_bytes(&self) -> u64 {
        let data = match &self.data {
            SegData::Num(v) => v.len() * std::mem::size_of::<f64>(),
            SegData::Cat(v) => v.len() * std::mem::size_of::<u32>(),
        };
        (data + self.valid.len()) as u64
    }
}

/// Resident-or-spilled state, guarded by the core's state mutex.
#[derive(Debug)]
pub(crate) enum SegState {
    Resident(Arc<SegPayload>),
    Spilled,
}

/// Result of an eviction attempt (reported back to the pool without
/// touching the pool lock).
pub(crate) enum SpillOutcome {
    /// Payload written; this many resident bytes were released.
    Spilled(u64),
    /// Already spilled, no fingerprint yet, or empty — nothing to do.
    Skip,
    /// The write failed.
    Failed(String),
}

/// Global monotonic access counter backing the spill pool's LRU order.
static TOUCH_CLOCK: AtomicU64 = AtomicU64::new(1);

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The shared heart of a segment. Columns hold `Arc<SegmentCore>`; the
/// spill pool holds `Weak<SegmentCore>`.
#[derive(Debug)]
pub(crate) struct SegmentCore {
    len: usize,
    kind: ColumnKind,
    /// Memoized content fingerprint (kind + values + validity; no name) —
    /// the spill file address and the feature-block cache key component.
    /// `None` after a mutation. A mutex rather than `OnceLock` so in-place
    /// writes can reset it through a shared reference.
    fp: Mutex<Option<u64>>,
    /// LRU clock value of the last access (global monotonic counter — no
    /// wall clock, so eviction never reads entropy; lint rule D3).
    touch: AtomicU64,
    /// Set by [`spill::register`] when a pool accounted for this segment's
    /// bytes; tells `drop` whether it owes the pool a refund.
    tracked: AtomicBool,
    state: Mutex<SegState>,
}

/// A tracked segment dropped while resident must hand its bytes back to
/// the pool, or they inflate the `resident` counter forever and the pool
/// degenerates into evict-everything thrash once the phantom total passes
/// the budget. Drops can run while the pool lock is held (eviction may
/// release the last strong reference), so the refund is recorded lock-free
/// and settled at the pool's next operation.
impl Drop for SegmentCore {
    fn drop(&mut self) {
        // comet-lint: allow(D9) — tracked is set once before the segment is shared; Drop races nothing
        if !self.tracked.load(Ordering::Relaxed) {
            return;
        }
        let state = self.state.get_mut().unwrap_or_else(PoisonError::into_inner);
        if let SegState::Resident(p) = state {
            spill::note_dead(p.heap_bytes());
        }
    }
}

impl SegmentCore {
    pub(crate) fn new_resident(payload: SegPayload, kind: ColumnKind) -> Arc<SegmentCore> {
        let core = Arc::new(SegmentCore {
            len: payload.len(),
            kind,
            fp: Mutex::new(None),
            // comet-lint: allow(D9) — LRU clock tick; ties only skew eviction order, never correctness
            touch: AtomicU64::new(TOUCH_CLOCK.fetch_add(1, Ordering::Relaxed)),
            tracked: AtomicBool::new(false),
            state: Mutex::new(SegState::Resident(Arc::new(payload))),
        });
        spill::register(&core);
        core
    }

    /// Mark this segment as accounted for by the spill pool.
    pub(crate) fn set_tracked(&self) {
        // comet-lint: allow(D9) — one-way flag set under the pool lock; readers tolerate a stale false
        self.tracked.store(true, Ordering::Relaxed);
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn last_touch(&self) -> u64 {
        // comet-lint: allow(D9) — LRU clock read; staleness only skews eviction order
        self.touch.load(Ordering::Relaxed)
    }

    /// Resident payload bytes if currently resident (pool accounting).
    pub(crate) fn resident_bytes(&self) -> Option<u64> {
        match &*lock(&self.state) {
            SegState::Resident(p) => Some(p.heap_bytes()),
            SegState::Spilled => None,
        }
    }

    /// Fetch the payload, reloading from the spill file when necessary.
    /// Bumps the LRU clock. The returned view keeps the payload alive even
    /// if the pool spills this segment concurrently.
    pub(crate) fn view(&self) -> Result<SegmentView> {
        // comet-lint: allow(D9) — LRU clock bump; an out-of-order touch only skews eviction order
        self.touch.store(TOUCH_CLOCK.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
        // Fast path: resident. Only the state lock is taken.
        {
            let state = lock(&self.state);
            if let SegState::Resident(p) = &*state {
                return Ok(SegmentView { payload: Arc::clone(p) });
            }
        }
        // Slow path: reload with no segment lock held (the pool lock is
        // taken briefly inside the helpers; pool → state order everywhere).
        let fp = lock(&self.fp).ok_or_else(|| {
            // Segments only spill after fingerprinting (the file is named
            // by the fingerprint), so an empty slot here means corruption.
            FrameError::Io("spilled segment has no memoized fingerprint".into())
        })?;
        let dir = spill::dir().ok_or_else(|| {
            FrameError::Io("segment is spilled but the spill pool is not configured".into())
        })?;
        let payload = match spill::read_segment_file(&dir, fp, self.kind, self.len) {
            Ok(p) => Arc::new(p),
            Err(err) => {
                spill::note_error(&err.to_string());
                return Err(err);
            }
        };
        let bytes = payload.heap_bytes();
        {
            let mut state = lock(&self.state);
            match &*state {
                SegState::Resident(p) => {
                    // A racing reader installed the payload first.
                    return Ok(SegmentView { payload: Arc::clone(p) });
                }
                SegState::Spilled => {
                    *state = SegState::Resident(Arc::clone(&payload));
                }
            }
        }
        spill::after_reload(bytes);
        Ok(SegmentView { payload })
    }

    /// Content fingerprint, memoized. Loads the payload (possibly from
    /// disk) on first use.
    pub(crate) fn fingerprint(&self) -> Result<u64> {
        if let Some(fp) = *lock(&self.fp) {
            return Ok(fp);
        }
        let view = self.view()?;
        let mut slot = lock(&self.fp);
        if let Some(fp) = *slot {
            return Ok(fp);
        }
        let fp = crate::fingerprint::segment_content_fp(view.payload(), self.kind);
        *slot = Some(fp);
        Ok(fp)
    }

    /// Reset the memoized fingerprint (after an in-place mutation).
    pub(crate) fn reset_fingerprint(&self) {
        *lock(&self.fp) = None;
    }

    /// Mutable access to the resident payload when this core is uniquely
    /// owned by the calling column (`Arc::strong_count == 1` checked by the
    /// caller). Reloads first if spilled. The payload `Arc` itself may
    /// still be shared with live views, so the caller goes through
    /// `Arc::make_mut`.
    pub(crate) fn with_payload_mut<T>(&self, f: impl FnOnce(&mut SegPayload) -> T) -> Result<T> {
        // The view both ensures residency and pins the payload, so a pool
        // eviction racing the reload — deterministic under a budget
        // smaller than one segment, where `view()` itself re-evicts —
        // cannot strand the mutation: a Spilled state is reinstated from
        // the pinned payload without touching disk.
        let view = self.view()?;
        let mut state = lock(&self.state);
        let mut reinstated = 0u64;
        if matches!(&*state, SegState::Spilled) {
            reinstated = view.payload.heap_bytes();
            *state = SegState::Resident(Arc::clone(&view.payload));
        }
        // Release the pin before `make_mut`: a payload whose only other
        // reference is the view would otherwise be deep-copied on every
        // single-cell write, turning bulk injection quadratic. Dropping a
        // view is a plain `Arc` drop — no locks.
        drop(view);
        match &mut *state {
            SegState::Resident(p) => {
                let out = f(Arc::make_mut(p));
                drop(state);
                self.reset_fingerprint();
                if reinstated > 0 {
                    // Rebalance the pool after the state flip (pool lock is
                    // never taken while the state lock is held).
                    spill::after_reinstate(reinstated);
                }
                Ok(out)
            }
            // Unreachable (just reinstated), but typed rather than
            // panicking (lint rule D4).
            SegState::Spilled => Err(FrameError::Io("segment evicted during mutation".into())),
        }
    }

    /// Try to move the payload to disk under `dir`. Called by the spill
    /// pool with the pool lock held; never touches the pool lock itself.
    pub(crate) fn try_spill(&self, dir: &std::path::Path) -> SpillOutcome {
        let fp = {
            let slot = lock(&self.fp);
            match *slot {
                Some(fp) => fp,
                None => {
                    // Fingerprint lazily on first eviction.
                    drop(slot);
                    let payload = match &*lock(&self.state) {
                        SegState::Resident(p) => Arc::clone(p),
                        SegState::Spilled => return SpillOutcome::Skip,
                    };
                    let fp = crate::fingerprint::segment_content_fp(&payload, self.kind);
                    *lock(&self.fp) = Some(fp);
                    fp
                }
            }
        };
        let payload = match &*lock(&self.state) {
            SegState::Resident(p) => Arc::clone(p),
            SegState::Spilled => return SpillOutcome::Skip,
        };
        if payload.len() == 0 {
            return SpillOutcome::Skip;
        }
        let bytes = payload.heap_bytes();
        if let Err(err) = spill::write_segment_file(dir, fp, &payload) {
            return SpillOutcome::Failed(format!("spill write failed: {err}"));
        }
        let mut state = lock(&self.state);
        match &*state {
            SegState::Resident(_) => {
                *state = SegState::Spilled;
                SpillOutcome::Spilled(bytes)
            }
            SegState::Spilled => SpillOutcome::Skip,
        }
    }
}

/// A read handle on one segment's payload. Holding a view pins the payload
/// in memory (spilling the segment does not invalidate the view). Row
/// indices are segment-local.
#[derive(Debug, Clone)]
pub struct SegmentView {
    payload: Arc<SegPayload>,
}

impl SegmentView {
    /// Rows in this segment.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True when the segment has no rows.
    pub fn is_empty(&self) -> bool {
        self.payload.len() == 0
    }

    /// True when the cell at segment-local `row` is present.
    pub fn is_valid(&self, row: usize) -> bool {
        self.payload.valid.get(row).copied().unwrap_or(false)
    }

    /// Numeric value at segment-local `row`, if present and numeric.
    pub fn num(&self, row: usize) -> Option<f64> {
        match (&self.payload.data, self.payload.valid.get(row)) {
            (SegData::Num(v), Some(true)) => Some(v[row]),
            _ => None,
        }
    }

    /// Categorical code at segment-local `row`, if present and categorical.
    pub fn cat(&self, row: usize) -> Option<u32> {
        match (&self.payload.data, self.payload.valid.get(row)) {
            (SegData::Cat(v), Some(true)) => Some(v[row]),
            _ => None,
        }
    }

    pub(crate) fn payload(&self) -> &SegPayload {
        &self.payload
    }
}

/// Accumulates `(value, validity)` slots and seals every `seg_rows` of them
/// into a resident segment: the one sealer behind the streaming
/// [`crate::ColumnBuilder`] and behind [`crate::Column::take`] and
/// [`crate::Column::resegment`], which push raw values (fillers under
/// masked cells included) so fingerprints survive any re-layout.
#[derive(Debug, Clone)]
pub(crate) struct SegmentSealer {
    kind: ColumnKind,
    seg_rows: usize,
    nums: Vec<f64>,
    cats: Vec<u32>,
    valid: Vec<bool>,
    segments: Vec<Arc<SegmentCore>>,
}

impl SegmentSealer {
    /// `size_hint` (expected rows) only sizes the first segment's buffers.
    pub(crate) fn new(kind: ColumnKind, seg_rows: usize, size_hint: usize) -> Self {
        let cap = seg_rows.min(size_hint);
        let (nums, cats) = match kind {
            ColumnKind::Numeric => (Vec::with_capacity(cap), Vec::new()),
            ColumnKind::Categorical => (Vec::new(), Vec::with_capacity(cap)),
        };
        let valid = Vec::with_capacity(cap);
        SegmentSealer { kind, seg_rows, nums, cats, valid, segments: Vec::new() }
    }

    pub(crate) fn kind(&self) -> ColumnKind {
        self.kind
    }

    pub(crate) fn seg_rows(&self) -> usize {
        self.seg_rows
    }

    /// Push a numeric slot; the caller guarantees the column is numeric.
    pub(crate) fn push_num(&mut self, value: f64, valid: bool) {
        self.nums.push(value);
        self.push_valid(valid);
    }

    /// Push a categorical slot; the caller guarantees the column is
    /// categorical.
    pub(crate) fn push_cat(&mut self, code: u32, valid: bool) {
        self.cats.push(code);
        self.push_valid(valid);
    }

    /// Copy segment-local slot `local` of `view` verbatim.
    pub(crate) fn push_raw(&mut self, view: &SegmentView, local: usize) {
        let payload = view.payload();
        match &payload.data {
            SegData::Num(v) => self.push_num(v[local], payload.valid[local]),
            SegData::Cat(v) => self.push_cat(v[local], payload.valid[local]),
        }
    }

    fn push_valid(&mut self, valid: bool) {
        self.valid.push(valid);
        if self.valid.len() == self.seg_rows {
            self.seal();
        }
    }

    fn seal(&mut self) {
        let valid = std::mem::take(&mut self.valid);
        let data = match self.kind {
            ColumnKind::Numeric => SegData::Num(std::mem::take(&mut self.nums)),
            ColumnKind::Categorical => SegData::Cat(std::mem::take(&mut self.cats)),
        };
        self.segments.push(SegmentCore::new_resident(SegPayload { data, valid }, self.kind));
    }

    /// Seal the trailing partial segment (or one empty segment when nothing
    /// was pushed) and return every segment in order.
    pub(crate) fn finish(mut self) -> Vec<Arc<SegmentCore>> {
        if !self.valid.is_empty() || self.segments.is_empty() {
            self.seal();
        }
        self.segments
    }
}

/// Split a full column's values/validity into sealed segments of `seg_rows`.
pub(crate) fn seal_numeric(
    values: Vec<f64>,
    valid: Vec<bool>,
    seg_rows: usize,
) -> Vec<Arc<SegmentCore>> {
    if values.len() <= seg_rows {
        return vec![SegmentCore::new_resident(
            SegPayload { data: SegData::Num(values), valid },
            ColumnKind::Numeric,
        )];
    }
    values
        .chunks(seg_rows)
        .zip(valid.chunks(seg_rows))
        .map(|(v, m)| {
            SegmentCore::new_resident(
                SegPayload { data: SegData::Num(v.to_vec()), valid: m.to_vec() },
                ColumnKind::Numeric,
            )
        })
        .collect()
}

/// Split a full categorical column into sealed segments of `seg_rows`.
pub(crate) fn seal_categorical(
    codes: Vec<u32>,
    valid: Vec<bool>,
    seg_rows: usize,
) -> Vec<Arc<SegmentCore>> {
    if codes.len() <= seg_rows {
        return vec![SegmentCore::new_resident(
            SegPayload { data: SegData::Cat(codes), valid },
            ColumnKind::Categorical,
        )];
    }
    codes
        .chunks(seg_rows)
        .zip(valid.chunks(seg_rows))
        .map(|(v, m)| {
            SegmentCore::new_resident(
                SegPayload { data: SegData::Cat(v.to_vec()), valid: m.to_vec() },
                ColumnKind::Categorical,
            )
        })
        .collect()
}
