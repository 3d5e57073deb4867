//! Operand packing (`σ_packing`, §IV-C2) with the generated kernels'
//! padding contract.
//!
//! Packed `A` blocks are row-major `m_c × k_c` with the leading dimension
//! extended by `2·σ_lane` elements per row; packed `B` blocks are
//! row-major `k_c × n_c` with two zeroed trailing rows. These paddings
//! absorb the faithful Listing-1 kernels' trailing stream loads (see
//! `autogemm-kernelgen`'s module docs).
//!
//! Every panel buffer ([`AlignedVec`]) is 64-byte aligned at its base —
//! the SIMD kernels' load contract (asserted in debug builds): vector
//! loads of a panel's first row never split a cache line, and panel rows
//! stay line-aligned whenever the leading dimension is a multiple of 16
//! elements.

use crate::telemetry::report::PackStats;
use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::Ordering;

/// Alignment (bytes) of every panel buffer: one cache line, a multiple
/// of the 16-byte vector width — the SIMD kernels' load contract.
pub const PANEL_ALIGN: usize = 64;

/// Storage unit of [`AlignedVec`]: 16 `f32`s forced to cache-line
/// alignment, so a `Vec` of them starts 64-byte aligned.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct AlignedChunk([f32; 16]);

const CHUNK_LANES: usize = 16;
const ZERO_CHUNK: AlignedChunk = AlignedChunk([0.0; CHUNK_LANES]);

/// A growable `f32` buffer whose base address is always
/// [`PANEL_ALIGN`]-byte aligned — the backing store of every packed
/// panel, so vector loads of panel rows never split a cache line at the
/// panel base. Dereferences to `[f32]`; only the small `Vec`-compatible
/// surface the packing paths use is implemented.
#[derive(Debug, Clone, Default)]
pub struct AlignedVec {
    chunks: Vec<AlignedChunk>,
    len: usize,
}

impl AlignedVec {
    pub fn new() -> Self {
        AlignedVec::default()
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element capacity of the current allocation.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.chunks.capacity() * CHUNK_LANES
    }

    /// Grow the allocation to hold at least `len` elements; contents and
    /// length are unchanged. Growth is amortized like `Vec::reserve` (and
    /// like [`AlignedVec::resize`]): sizing each buffer exactly made
    /// every slightly larger shape reallocate, and the freed chunks
    /// raised the process's peak RSS.
    pub(crate) fn reserve_total(&mut self, len: usize) {
        let chunks = len.div_ceil(CHUNK_LANES);
        self.chunks.reserve(chunks.saturating_sub(self.chunks.len()));
    }

    /// Drop the elements, keeping the allocation (like `Vec::clear`).
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Resize to `new_len`, filling any newly exposed elements with
    /// `val` (like `Vec::resize`; `clear()` + `resize(n, 0.0)` therefore
    /// zero-fills without reallocating when capacity suffices).
    pub fn resize(&mut self, new_len: usize, val: f32) {
        let chunks = new_len.div_ceil(CHUNK_LANES);
        if self.chunks.len() < chunks {
            self.chunks.resize(chunks, ZERO_CHUNK);
        }
        if new_len > self.len {
            let (old_len, ptr) = (self.len, self.as_mut_ptr());
            // SAFETY: capacity covers new_len; elements are plain f32.
            unsafe { std::slice::from_raw_parts_mut(ptr.add(old_len), new_len - old_len) }
                .fill(val);
        }
        self.len = new_len;
    }

    #[inline]
    pub fn as_ptr(&self) -> *const f32 {
        self.chunks.as_ptr() as *const f32
    }

    #[inline]
    pub fn as_mut_ptr(&mut self) -> *mut f32 {
        self.chunks.as_mut_ptr() as *mut f32
    }
}

impl std::ops::Deref for AlignedVec {
    type Target = [f32];

    #[inline]
    fn deref(&self) -> &[f32] {
        // SAFETY: `len` elements are initialized and f32's alignment is
        // below the chunk alignment.
        unsafe { std::slice::from_raw_parts(self.as_ptr(), self.len) }
    }
}

impl std::ops::DerefMut for AlignedVec {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f32] {
        let (len, ptr) = (self.len, self.as_mut_ptr());
        // SAFETY: as for `Deref`.
        unsafe { std::slice::from_raw_parts_mut(ptr, len) }
    }
}

/// A packed operand block plus its layout.
#[derive(Debug, Clone, Default)]
pub struct PackedBlock {
    pub data: AlignedVec,
    /// Leading dimension in elements.
    pub ld: usize,
    pub rows: usize,
    pub cols: usize,
}

impl PackedBlock {
    /// An empty block ready for [`pack_block_into`] (no allocation yet).
    pub fn empty() -> Self {
        PackedBlock::default()
    }
}

thread_local! {
    /// Panels packed by this thread since it started: one bump per
    /// [`pack_a_into`]/[`pack_b_into`] call, never per element.
    static PACKS: Cell<PackStats> = const {
        Cell::new(PackStats { a_packs: 0, b_packs: 0, a_bytes: 0, b_bytes: 0 })
    };
}

/// The calling thread's running pack tally. A recording driver reads it
/// before and after each runner's share of a pack phase and reports the
/// difference ([`PackStats::since`]), so the counts are measured — a
/// panel packed twice shows up twice — and stay exact under concurrent
/// GEMMs on other threads.
pub fn thread_pack_counts() -> PackStats {
    PACKS.with(Cell::get)
}

#[inline]
fn count_pack(operand_a: bool, bytes: u64) {
    PACKS.with(|c| {
        let mut s = c.get();
        if operand_a {
            s.a_packs += 1;
            s.a_bytes += bytes;
        } else {
            s.b_packs += 1;
            s.b_bytes += bytes;
        }
        c.set(s);
    });
}

/// Pack an `rows × cols` block of `src` (leading dimension `src_ld`,
/// starting at `(row0, col0)`) into a fresh buffer with `pad_cols` extra
/// elements per row and `pad_rows` extra zeroed rows.
#[allow(clippy::too_many_arguments)]
pub fn pack_block(
    src: &[f32],
    src_ld: usize,
    row0: usize,
    col0: usize,
    rows: usize,
    cols: usize,
    pad_cols: usize,
    pad_rows: usize,
) -> PackedBlock {
    let mut dst = PackedBlock::empty();
    pack_block_into(&mut dst, src, src_ld, row0, col0, rows, cols, pad_cols, pad_rows);
    dst
}

/// Elements of a packed block of `rows × cols` with the given padding.
fn panel_len(rows: usize, cols: usize, pad_cols: usize, pad_rows: usize) -> usize {
    (rows + pad_rows) * (cols + pad_cols)
}

/// [`pack_block`] into an existing block, reusing its allocation when the
/// capacity suffices (the buffer-pool fast path: zero allocations per
/// pack after warm-up).
#[allow(clippy::too_many_arguments)]
pub fn pack_block_into(
    dst: &mut PackedBlock,
    src: &[f32],
    src_ld: usize,
    row0: usize,
    col0: usize,
    rows: usize,
    cols: usize,
    pad_cols: usize,
    pad_rows: usize,
) {
    let ld = reset_panel(dst, rows, cols, pad_cols, pad_rows);
    for r in 0..rows {
        let src_off = (row0 + r) * src_ld + col0;
        dst.data[r * ld..r * ld + cols].copy_from_slice(&src[src_off..src_off + cols]);
    }
}

/// [`pack_block_into`] from the *transpose* of `src`: element `(r, c)`
/// of the packed block is `src[(col0 + c) * src_ld + (row0 + r)]`. This
/// is how the `op(A) = Aᵀ` / `op(B) = Bᵀ` BLAS forms are packed: the
/// kernels always see row-major panels, so transposition costs nothing
/// at run time beyond this copy.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_block_t_into(
    dst: &mut PackedBlock,
    src: &[f32],
    src_ld: usize,
    row0: usize,
    col0: usize,
    rows: usize,
    cols: usize,
    pad_cols: usize,
    pad_rows: usize,
) {
    let ld = reset_panel(dst, rows, cols, pad_cols, pad_rows);
    for r in 0..rows {
        for c in 0..cols {
            dst.data[r * ld + c] = src[(col0 + c) * src_ld + (row0 + r)];
        }
    }
}

/// Lay `dst` out for a `rows × cols` block with `pad_cols` extra
/// elements per row and `pad_rows` extra rows, every element (padding
/// included) zeroed, and return its leading dimension. `clear` +
/// `resize` zero-fills without reallocating when the capacity already
/// suffices.
fn reset_panel(
    dst: &mut PackedBlock,
    rows: usize,
    cols: usize,
    pad_cols: usize,
    pad_rows: usize,
) -> usize {
    dst.data.clear();
    dst.data.resize(panel_len(rows, cols, pad_cols, pad_rows), 0.0);
    debug_assert_eq!(
        dst.data.as_ptr() as usize % PANEL_ALIGN,
        0,
        "packed panel base must be {PANEL_ALIGN}-byte aligned"
    );
    dst.ld = cols + pad_cols;
    dst.rows = rows;
    dst.cols = cols;
    dst.ld
}

/// Pack an A block (`m_c × k_c`): rows padded by `2·σ_lane` columns.
pub fn pack_a(
    a: &[f32],
    lda: usize,
    row0: usize,
    col0: usize,
    mc: usize,
    kc: usize,
    sigma_lane: usize,
) -> PackedBlock {
    let mut dst = PackedBlock::empty();
    pack_a_into(&mut dst, a, lda, row0, col0, mc, kc, sigma_lane);
    dst
}

/// [`pack_a`] into a reused buffer.
#[allow(clippy::too_many_arguments)]
pub fn pack_a_into(
    dst: &mut PackedBlock,
    a: &[f32],
    lda: usize,
    row0: usize,
    col0: usize,
    mc: usize,
    kc: usize,
    sigma_lane: usize,
) {
    count_pack(true, pack_traffic_bytes(mc, kc));
    pack_block_into(dst, a, lda, row0, col0, mc, kc, 2 * sigma_lane, 0);
}

/// [`pack_a_into`] for `op(A) = Aᵀ`: `a` stores `Aᵀ` row-major (`K × M`,
/// so `lda` is `M`), and the panel holds the same block of `A` that
/// [`pack_a_into`] packs from `A` itself. Counted in the thread's tally
/// like any A panel.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_a_t_into(
    dst: &mut PackedBlock,
    a: &[f32],
    lda: usize,
    row0: usize,
    col0: usize,
    mc: usize,
    kc: usize,
    sigma_lane: usize,
) {
    count_pack(true, pack_traffic_bytes(mc, kc));
    pack_block_t_into(dst, a, lda, row0, col0, mc, kc, 2 * sigma_lane, 0);
}

/// Elements [`pack_a_into`] fills for an `mc × kc` block.
pub(crate) fn a_panel_len(mc: usize, kc: usize, sigma_lane: usize) -> usize {
    panel_len(mc, kc, 2 * sigma_lane, 0)
}

/// Pack a B block (`k_c × n_c`): two zeroed trailing rows plus one lane
/// of zeroed trailing columns — edge kernels are lane-width-rounded and
/// read up to `σ_lane - 1` elements past a narrow block's columns.
pub fn pack_b(
    b: &[f32],
    ldb: usize,
    row0: usize,
    col0: usize,
    kc: usize,
    nc: usize,
    sigma_lane: usize,
) -> PackedBlock {
    let mut dst = PackedBlock::empty();
    pack_b_into(&mut dst, b, ldb, row0, col0, kc, nc, sigma_lane);
    dst
}

/// [`pack_b`] into a reused buffer.
#[allow(clippy::too_many_arguments)]
pub fn pack_b_into(
    dst: &mut PackedBlock,
    b: &[f32],
    ldb: usize,
    row0: usize,
    col0: usize,
    kc: usize,
    nc: usize,
    sigma_lane: usize,
) {
    count_pack(false, pack_traffic_bytes(kc, nc));
    pack_block_into(dst, b, ldb, row0, col0, kc, nc, sigma_lane, 2);
}

/// [`pack_b_into`] for `op(B) = Bᵀ`: `b` stores `Bᵀ` row-major (`N × K`,
/// so `ldb` is `K`). Counted in the thread's tally like any B panel.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_b_t_into(
    dst: &mut PackedBlock,
    b: &[f32],
    ldb: usize,
    row0: usize,
    col0: usize,
    kc: usize,
    nc: usize,
    sigma_lane: usize,
) {
    count_pack(false, pack_traffic_bytes(kc, nc));
    pack_block_t_into(dst, b, ldb, row0, col0, kc, nc, sigma_lane, 2);
}

/// Elements [`pack_b_into`] fills for a `kc × nc` block.
pub(crate) fn b_panel_len(kc: usize, nc: usize, sigma_lane: usize) -> usize {
    panel_len(kc, nc, sigma_lane, 2)
}

/// Recycling pool for panel buffers.
///
/// Packing allocates one `Vec<f32>` per operand panel; across repeated
/// GEMM calls (the engine's steady state, and every batched workload)
/// those allocations are identical in size, so the pool keeps released
/// buffers and hands them back on the next call — after the first call a
/// GEMM performs zero panel allocations. The free list is a single
/// mutex-protected stack: it is touched once per panel at call start/end
/// (never inside the kernel loops), and [`PanelPool::acquire_blocks`]
/// batches the whole acquisition into one lock round-trip per caller, so
/// worker threads do not contend on it.
#[derive(Debug, Default)]
pub struct PanelPool {
    free: Mutex<Vec<AlignedVec>>,
    /// Blocks handed out and not yet returned — the pool's leak
    /// indicator (must settle at 0 between calls; see
    /// [`PanelPool::outstanding`]).
    outstanding: std::sync::atomic::AtomicUsize,
    /// Highest `outstanding` ever observed (bounded-memory check for
    /// soak runs).
    high_water: std::sync::atomic::AtomicUsize,
}

impl PanelPool {
    pub fn new() -> Self {
        PanelPool::default()
    }

    /// Take `n` blocks, reusing pooled buffers and topping up with empty
    /// ones, each grown to hold `len` elements. The growth happens here,
    /// on the calling thread, so pool workers that pack into the blocks
    /// never allocate: panel memory stays in the caller's malloc arena
    /// instead of landing in a second, per-worker one.
    pub fn acquire_blocks(&self, n: usize, len: usize) -> Vec<PackedBlock> {
        let now = self.outstanding.fetch_add(n, Ordering::Relaxed) + n;
        self.high_water.fetch_max(now, Ordering::Relaxed);
        let mut free = self.free.lock();
        let take = free.len().min(n);
        let start = free.len() - take;
        let mut blocks: Vec<PackedBlock> =
            free.drain(start..).map(|data| PackedBlock { data, ld: 0, rows: 0, cols: 0 }).collect();
        drop(free);
        blocks.resize_with(n, PackedBlock::empty);
        for b in &mut blocks {
            b.data.reserve_total(len);
        }
        blocks
    }

    /// Return blocks' buffers to the pool (layout metadata is dropped;
    /// only the allocations are kept).
    pub fn release_blocks(&self, blocks: impl IntoIterator<Item = PackedBlock>) {
        let mut bufs: Vec<AlignedVec> = blocks.into_iter().map(|b| b.data).collect();
        // Saturating: releasing blocks acquired elsewhere (or plain
        // `PackedBlock`s never acquired) must not underflow the gauge.
        let n = bufs.len();
        let _ = self
            .outstanding
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| Some(cur.saturating_sub(n)));
        self.free.lock().append(&mut bufs);
    }

    /// Buffers currently pooled.
    pub fn buffered(&self) -> usize {
        self.free.lock().len()
    }

    /// Blocks currently acquired and not yet released. Zero whenever no
    /// call is in flight — every driver path (success, error,
    /// cancellation) releases its panels; soak runs assert this.
    pub fn outstanding(&self) -> usize {
        self.outstanding.load(Ordering::Relaxed)
    }

    /// Highest simultaneous [`PanelPool::outstanding`] observed over the
    /// pool's lifetime — the bounded-memory witness for soak runs.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Drop every pooled buffer (memory release valve for long-lived
    /// engines that have seen a large shape).
    pub fn clear(&self) {
        self.free.lock().clear();
    }
}

/// Bytes moved by packing one block (read + write), used for traffic
/// accounting in the simulated backend.
pub fn pack_traffic_bytes(rows: usize, cols: usize) -> u64 {
    2 * 4 * (rows as u64) * (cols as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_a_extracts_the_right_block() {
        // 4x6 source, pack the 2x3 block at (1,2).
        let src: Vec<f32> = (0..24).map(|i| i as f32).collect();
        let p = pack_a(&src, 6, 1, 2, 2, 3, 4);
        assert_eq!(p.ld, 3 + 8);
        assert_eq!(&p.data[0..3], &[8.0, 9.0, 10.0]);
        assert_eq!(&p.data[p.ld..p.ld + 3], &[14.0, 15.0, 16.0]);
        // Padding is zeroed.
        assert_eq!(p.data[3], 0.0);
    }

    #[test]
    fn pack_b_adds_zero_rows_and_lane_columns() {
        let src: Vec<f32> = (0..12).map(|i| i as f32 + 1.0).collect();
        let p = pack_b(&src, 4, 0, 0, 3, 4, 4);
        assert_eq!(p.ld, 8);
        assert_eq!(p.data.len(), 5 * 8);
        assert_eq!(&p.data[0..4], &[1.0, 2.0, 3.0, 4.0]);
        assert!(p.data[4..8].iter().all(|&x| x == 0.0), "lane padding zeroed");
        assert!(p.data[3 * 8..].iter().all(|&x| x == 0.0), "row padding zeroed");
    }

    #[test]
    fn traffic_is_read_plus_write() {
        assert_eq!(pack_traffic_bytes(10, 10), 800);
    }

    #[test]
    fn round_trip_preserves_values() {
        let src: Vec<f32> = (0..64).map(|i| (i * i) as f32).collect();
        let p = pack_block(&src, 8, 2, 2, 4, 4, 1, 1);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(p.data[r * p.ld + c], src[(r + 2) * 8 + (c + 2)]);
            }
        }
    }

    #[test]
    fn pack_into_reuses_capacity_and_rezeroes_padding() {
        let big: Vec<f32> = vec![5.0; 16 * 16];
        let small: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let mut p = PackedBlock::empty();
        // First pack: large block, buffer filled with non-zero values.
        pack_block_into(&mut p, &big, 16, 0, 0, 16, 16, 2, 1);
        let cap = p.data.capacity();
        // Second pack: smaller block into the same buffer must not
        // reallocate and must present freshly zeroed padding.
        pack_block_into(&mut p, &small, 4, 0, 0, 4, 4, 2, 1);
        assert_eq!(p.data.capacity(), cap, "reused allocation");
        assert_eq!(p.ld, 6);
        assert_eq!(&p.data[0..4], &[0.0, 1.0, 2.0, 3.0]);
        assert!(p.data[4..6].iter().all(|&x| x == 0.0), "stale column padding");
        assert!(p.data[4 * 6..].iter().all(|&x| x == 0.0), "stale row padding");
    }

    #[test]
    fn panel_pool_recycles_buffers() {
        let pool = PanelPool::new();
        let mut blocks = pool.acquire_blocks(3, 0);
        assert_eq!(blocks.len(), 3);
        for b in &mut blocks {
            b.data.resize(128, 1.0);
        }
        let ptrs: Vec<*const f32> = blocks.iter().map(|b| b.data.as_ptr()).collect();
        pool.release_blocks(blocks);
        assert_eq!(pool.buffered(), 3);
        let again = pool.acquire_blocks(4, 0);
        assert_eq!(again.len(), 4);
        let reused = again.iter().filter(|b| ptrs.contains(&b.data.as_ptr())).count();
        assert_eq!(reused, 3, "all pooled buffers handed back");
        pool.clear();
        assert_eq!(pool.buffered(), 0);
    }

    /// Acquisition sizes the buffers, so a pack into an acquired block —
    /// fresh or recycled from a smaller shape — never reallocates.
    #[test]
    fn acquired_blocks_are_presized_for_their_panels() {
        let (kc, nc, sigma) = (24, 40, 4);
        let src = vec![1.0f32; kc * nc];
        let pool = PanelPool::new();
        pool.release_blocks(pool.acquire_blocks(2, 16));
        let mut blocks = pool.acquire_blocks(3, b_panel_len(kc, nc, sigma));
        for b in &mut blocks {
            let ptr = b.data.as_ptr();
            pack_b_into(b, &src, nc, 0, 0, kc, nc, sigma);
            assert_eq!(b.data.len(), b_panel_len(kc, nc, sigma));
            assert_eq!(b.data.as_ptr(), ptr, "pack reallocated an acquired block");
        }
        let mut a = pool.acquire_blocks(1, a_panel_len(kc, nc, sigma)).remove(0);
        let ptr = a.data.as_ptr();
        pack_a_into(&mut a, &src, nc, 0, 0, kc, nc, sigma);
        assert_eq!((a.data.len(), a.data.as_ptr()), (a_panel_len(kc, nc, sigma), ptr));
    }

    #[test]
    fn aligned_vec_resize_matches_vec_semantics() {
        let mut v = AlignedVec::new();
        v.resize(5, 1.5);
        assert_eq!(&v[..], &[1.5; 5]);
        // Shrink then regrow: the region beyond the old len refills.
        v.resize(2, 0.0);
        v.resize(6, 2.0);
        assert_eq!(&v[..], &[1.5, 1.5, 2.0, 2.0, 2.0, 2.0]);
        // clear + resize zero-fills everything without reallocating.
        let cap = v.capacity();
        let ptr = v.as_ptr();
        v.clear();
        v.resize(6, 0.0);
        assert_eq!(&v[..], &[0.0; 6]);
        assert_eq!(v.capacity(), cap);
        assert_eq!(v.as_ptr(), ptr);
    }

    #[test]
    fn panel_buffers_are_cache_line_aligned() {
        let src = vec![1.0f32; 64];
        let p = pack_a(&src, 8, 0, 0, 4, 4, 4);
        assert_eq!(p.data.as_ptr() as usize % PANEL_ALIGN, 0);
        let pool = PanelPool::new();
        let mut blocks = pool.acquire_blocks(3, 0);
        for b in &mut blocks {
            b.data.resize(100, 0.0);
            assert_eq!(b.data.as_ptr() as usize % PANEL_ALIGN, 0);
        }
        pool.release_blocks(blocks);
        for b in &pool.acquire_blocks(3, 0) {
            assert_eq!(b.data.as_ptr() as usize % PANEL_ALIGN, 0, "pooled buffer stays aligned");
        }
    }

    /// Each packed panel bumps the calling thread's tally exactly once,
    /// with its traffic; other threads' packs never land in it.
    #[test]
    fn thread_tally_counts_packs_and_bytes() {
        let src = vec![1.0f32; 64];
        let before = thread_pack_counts();
        let _ = pack_a(&src, 8, 0, 0, 4, 4, 4);
        let _ = pack_a(&src, 8, 0, 0, 4, 4, 4);
        let _ = pack_b(&src, 8, 0, 0, 4, 4, 4);
        std::thread::spawn(move || drop(pack_b(&src, 8, 0, 0, 4, 4, 4))).join().unwrap();
        let stats = thread_pack_counts().since(before);
        assert_eq!(stats.a_packs, 2);
        assert_eq!(stats.b_packs, 1);
        assert_eq!(stats.a_bytes, 2 * pack_traffic_bytes(4, 4));
        assert_eq!(stats.b_bytes, pack_traffic_bytes(4, 4));
    }
}

#[cfg(test)]
mod transpose_tests {
    use super::*;

    #[test]
    fn pack_block_t_transposes() {
        // src is 3x4 row-major; packing its transpose's 4x3 block at (0,0)
        // must give columns-as-rows.
        let src: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let mut p = PackedBlock::empty();
        pack_block_t_into(&mut p, &src, 4, 0, 0, 4, 3, 1, 0);
        // packed[r][c] = src[c * 4 + r]
        assert_eq!(p.data[0], 0.0); // (0,0) -> src[0]
        assert_eq!(p.data[1], 4.0); // (0,1) -> src[4]
        assert_eq!(p.data[2], 8.0); // (0,2) -> src[8]
        assert_eq!(p.data[p.ld], 1.0); // (1,0) -> src[1]
    }

    #[test]
    fn pack_block_t_subblock() {
        let src: Vec<f32> = (0..36).map(|i| i as f32).collect(); // 6x6
        let mut p = PackedBlock::empty();
        pack_block_t_into(&mut p, &src, 6, 1, 2, 2, 3, 0, 0);
        // (r,c) -> src[(2+c)*6 + (1+r)]
        assert_eq!(p.data[0], 13.0);
        assert_eq!(p.data[1], 19.0);
        assert_eq!(p.data[p.ld], 14.0);
    }
}
