//! The engine's persistent failure-state table.
//!
//! The failure-state table of §3.2.1 does not depend on the plan under
//! assessment, and with per-component sampler streams
//! ([`Sampler::sample_row`]) neither does any single row of it depend on
//! the other rows. So the table is filled *on demand*: one [`Slot`] per
//! chunk holds the chunk's effective (collapsed) states, and a row is
//! materialised — own sample, OR the fault tree over its dependency
//! events' raw rows — the first time a plan's cone names it. A fresh seed
//! on a 27K-host fat-tree materialises the few hundred rows a 5-host plan
//! can read; a search on one seed extends the table as neighbours touch
//! new hosts; a router without a narrow cone names every row and gets the
//! full-width table.
//!
//! A slot holds its cone, not the data centre: its matrices are
//! [packed](BitMatrix::packed), so a row is placed at the slot's next free
//! position the first time it is materialised and read through the
//! matrix's component → position index. The rows a chunk needs sit
//! together at the front of the slot's store, and the pages a slot never
//! writes never become resident.
//!
//! # Invariants
//!
//! * The table holds at most [`MAX_SLOTS`] slots: chunk `i` lives in slot
//!   `i % MAX_SLOTS`, so a request of more chunks than that re-keys the
//!   slots it wraps onto (an *eviction*, counted) and the table's memory
//!   is bounded whatever round count a peer asks for.
//! * A slot is keyed by `(chunk seed, rounds)`. Row `r` is *valid* iff the
//!   slot's matrix holds it; a valid row equals the row function of
//!   `(seed, r)` at `rounds` rounds under the engine's current model and
//!   injector, with the dependency tree folded in for component rows.
//! * Invalidation is O(1): it zeroes the slot's `rounds`, so the next
//!   request re-keys the slot, and a re-key [releases](BitMatrix::release)
//!   the rows — only the index entries they used are reset, no row is
//!   cleared, and the next key's rows are placed over them front to back.
//! * A row the slot does not hold reads as the matrix's poison row,
//!   all-failed, in every build: a router that reads outside its declared
//!   cone changes verdicts and fails the equivalence tests instead of
//!   passing on stale-but-plausible bits.
//! * A slot carries a *generation*, minted from a process-wide counter
//!   on every re-key, whether or not a row was valid. Invalidation zeroes
//!   `rounds`, so the first request after it re-keys: no row is ever read
//!   under a generation older than the last invalidation. Under one
//!   generation a valid row never changes — rows are only ever added — so
//!   anything derived from valid rows alone may be kept for as long as
//!   the generation lasts. [`Materialised::key`] hands `(slot,
//!   generation)` to the router
//!   ([`recloud_routing::Router::external_reach_keyed`]), which keeps its
//!   digests under it.
//! * Rows are only ever added under one key too, so a cone found
//!   complete stays complete: a slot remembers, per key, that the base
//!   cone is in place and which hosts' cones are. A plan that shares hosts
//!   with earlier ones names and checks only the rows of its new hosts.
//! * A request for the same seed with `n ≤ rounds` reads the valid rows
//!   as they are (rows are prefix-stable); any other request re-keys the
//!   slot. New rows are always sampled at the slot's `rounds`, so all
//!   valid rows of a slot agree on their width.
//! * Rows depend on the model and the injector, so whoever changes either
//!   calls [`FailureTable::invalidate`]. Invalid slots keep their memory:
//!   all slots of a table are one width, the widest chunk asked of it.

use crate::assessor::StageClock;
use recloud_faults::{FaultInjector, FaultModel};
use recloud_routing::TableKey;
use recloud_sampling::{BitMatrix, Sampler};
use recloud_topology::ComponentId;
use std::num::NonZeroU64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Most slots a table holds: enough that a 100,000-round stream (40
/// chunks) still has a slot per chunk, few enough that a peer's 10⁶-round
/// request (391 chunks) cannot pin six times that for the engine's life.
/// A slot reserves room for every row but writes only the rows it holds,
/// so what the bound caps is the rows a request can keep resident — a few
/// hundred per Medium slot for a plan's cone, all of them for a router
/// without a narrow one.
pub(crate) const MAX_SLOTS: usize = 64;

/// Mints slot generations: process-wide, so no two table contents — of
/// any slot, of any engine — ever share one, and a router can tell them
/// apart without knowing which table it is looking at.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

fn mint_generation() -> NonZeroU64 {
    NonZeroU64::new(NEXT_GENERATION.fetch_add(1, Ordering::Relaxed))
        .expect("2^64 generations minted")
}

/// Everything a row is a function of besides its slot's key.
pub(crate) struct RowSource<'a> {
    pub sampler: &'a dyn Sampler,
    pub model: &'a FaultModel,
    /// Macro-cycle of `model.probs()`.
    pub s_max: usize,
    pub injector: Option<&'a FaultInjector>,
}

impl RowSource<'_> {
    /// Row of the dependency matrix that holds tree event `e`.
    fn dep_row(&self, e: ComponentId) -> usize {
        self.model.dependency_slot(e).expect("tree events are dependency events")
    }

    /// Event `e`'s raw sampled row: its own stream, then forced states.
    fn sample(&self, e: ComponentId, rounds: usize, row: &mut [u64]) {
        self.sampler.sample_row(e.index(), self.model.prob_of(e), self.s_max, rounds, row);
        if let Some(injector) = self.injector {
            injector.apply_row(e, row, rounds);
        }
    }
}

/// What [`FailureTable::materialise`] hands back.
pub(crate) struct Materialised<'a> {
    /// The slot's effective-state matrix, every cone row valid.
    pub states: &'a BitMatrix,
    /// The slot and the generation of its rows.
    pub key: TableKey,
    /// Time spent sampling / collapsing: the chunk clock's laps, zero when
    /// the chunk is not timed and when nothing was missing.
    pub sampling: Duration,
    pub collapse: Duration,
    /// Rows materialised by this call (component rows + dependency rows).
    pub rows: usize,
}

/// One chunk's rows.
struct Slot {
    /// The chunk index the rows were keyed for.
    chunk: usize,
    seed: u64,
    rounds: usize,
    /// Effective states, one row per topology component — what routers
    /// read. Packed: a row is valid iff the matrix holds it.
    states: BitMatrix,
    /// Raw sampled states of the model's dependency events, one row per
    /// [`FaultModel::dependency_events`] entry, shared by all consumers.
    /// Packed like `states`.
    deps: BitMatrix,
    /// Names the rows valid under the current key; see the module docs.
    generation: NonZeroU64,
    /// Every base-cone row is valid under the current key.
    base_valid: bool,
    /// Bit per component: set for a host whose whole cone is valid under
    /// the current key.
    cone_valid: Vec<u64>,
}

impl Slot {
    fn new(model: &FaultModel, width: usize) -> Self {
        let (components, deps) = (model.num_topology_components(), model.dependency_events().len());
        Slot {
            chunk: 0,
            seed: 0,
            rounds: 0,
            states: BitMatrix::packed(components, width),
            deps: BitMatrix::packed(deps, width),
            generation: mint_generation(),
            base_valid: false,
            cone_valid: vec![0; components.div_ceil(64)],
        }
    }

    /// Rows placed under the last key, component and dependency rows
    /// alike.
    fn rows(&self) -> usize {
        self.states.rows_held() + self.deps.rows_held()
    }

    /// Rows valid under the current key: none once invalidated.
    fn valid_rows(&self) -> usize {
        if self.rounds == 0 {
            0
        } else {
            self.rows()
        }
    }

    /// O(1): zeroing `rounds` makes the next [`FailureTable::key`] re-key
    /// the slot, and that releases the rows.
    fn invalidate(&mut self) {
        self.rounds = 0;
    }

    /// Takes the rows of the last key away, touching only the index
    /// entries they used.
    fn release(&mut self) {
        self.states.release();
        self.deps.release();
        self.forget_cones();
    }

    /// The next materialisation checks every row it is handed: nothing is
    /// known to be complete any more. Valid rows stay valid.
    fn forget_cones(&mut self) {
        self.base_valid = false;
        self.cone_valid.fill(0);
    }

    /// Makes dependency event `e`'s raw row valid.
    fn ensure_dep(&mut self, src: &RowSource, e: ComponentId) -> usize {
        let slot = src.dep_row(e);
        if !self.deps.holds(slot) {
            src.sample(e, self.rounds, self.deps.place(slot));
        }
        slot
    }

    fn written_bytes(&self) -> usize {
        self.states.written_bytes() + self.deps.written_bytes() + 8 * self.cone_valid.len()
    }
}

/// Per-chunk slots of lazily materialised rows; see the module docs.
pub(crate) struct FailureTable {
    chunk_rounds: usize,
    /// Rounds every slot is allocated for: the widest chunk since the
    /// slots were last dropped, so all slots of a table have one width.
    slot_rounds: usize,
    slots: Vec<Slot>,
    /// Scratch: components sampled but not yet collapsed.
    pending: Vec<ComponentId>,
}

impl FailureTable {
    pub fn new(chunk_rounds: usize) -> Self {
        FailureTable {
            chunk_rounds,
            slot_rounds: chunk_rounds,
            slots: Vec::new(),
            pending: Vec::new(),
        }
    }

    pub fn chunk_rounds(&self) -> usize {
        self.chunk_rounds
    }

    /// Every row becomes invalid. Slots that still fit `model` — same row
    /// counts, at least `chunk_rounds` wide — keep their allocations (a
    /// slot wider than the chunk is harmless: readers never look past the
    /// chunk's rounds); otherwise all are dropped and rebuilt on demand.
    /// Paper-default models differ in macro-cycle, hence chunk width, from
    /// seed to seed, so a served engine settles on its widest: slots made
    /// while a narrower chunk is current are still `slot_rounds` wide, or
    /// a narrow seed that needs more chunks than the last wide one would
    /// leave narrow slots behind for the next wide seed to drop all over.
    pub fn invalidate(&mut self, model: &FaultModel, chunk_rounds: usize) {
        let same_shape = |s: &Slot| {
            s.states.components() == model.num_topology_components()
                && s.deps.components() == model.dependency_events().len()
        };
        if !self.slots.iter().all(same_shape) || chunk_rounds > self.slot_rounds {
            self.slots.clear();
            self.slot_rounds = chunk_rounds;
        }
        self.chunk_rounds = chunk_rounds;
        self.slots.iter_mut().for_each(Slot::invalidate);
    }

    /// Keys chunk `chunk`'s slot for `(seed, rounds)` — re-keying it, under
    /// a new generation, when it holds anything else — and returns the
    /// slot's index and whether rows of *another chunk* were dropped for it.
    pub fn key(
        &mut self,
        chunk: usize,
        seed: u64,
        rounds: usize,
        model: &FaultModel,
    ) -> (usize, bool) {
        assert!(rounds <= self.chunk_rounds, "chunk exceeds table width");
        let index = chunk % MAX_SLOTS;
        while self.slots.len() <= index {
            self.slots.push(Slot::new(model, self.slot_rounds));
        }
        let slot = &mut self.slots[index];
        let mut evicted = false;
        if slot.seed != seed || slot.rounds < rounds {
            if slot.rows() > 0 {
                evicted = slot.valid_rows() > 0 && slot.chunk != chunk;
                slot.release();
            }
            (slot.chunk, slot.seed, slot.rounds) = (chunk, seed, rounds);
            slot.generation = mint_generation();
        }
        (index, evicted)
    }

    /// True when `host` is known to have its whole cone valid in slot
    /// `index` under its current key.
    pub fn cone_valid(&self, index: usize, host: ComponentId) -> bool {
        (self.slots[index].cone_valid[host.index() / 64] >> (host.index() % 64)) & 1 == 1
    }

    /// Makes every row the cone names valid in slot `index` (keyed by
    /// [`FailureTable::key`]). The cone comes in two parts: `base`, the
    /// router's host-independent rows — the same list on every call, so a
    /// slot checks it once per key — and `rows`, what `hosts` add to it;
    /// `hosts` are remembered as complete. `clock` is the caller's chunk
    /// clock: it laps after sampling and after collapsing, and only when a
    /// row was missing.
    pub fn materialise(
        &mut self,
        index: usize,
        (base, rows, hosts): (&[ComponentId], &[ComponentId], &[ComponentId]),
        src: &RowSource,
        clock: &mut StageClock,
    ) -> Materialised<'_> {
        let slot = &mut self.slots[index];
        let key = TableKey { slot: index, generation: slot.generation };

        // Sampling pass: own rows of the missing components, and the raw
        // rows of the dependency events their trees read.
        let before = slot.rows();
        self.pending.clear();
        let base = if slot.base_valid { &[] } else { base };
        for &c in base.iter().chain(rows) {
            if slot.states.holds(c.index()) {
                continue;
            }
            self.pending.push(c);
            if src.model.dependency_slot(c).is_some() {
                // A component other trees read: its raw row lives in
                // `deps`, its effective row starts as a copy.
                let dep = slot.ensure_dep(src, c);
                slot.states.place(c.index()).copy_from_slice(slot.deps.row_words(dep));
            } else {
                src.sample(c, slot.rounds, slot.states.place(c.index()));
            }
            for e in src.model.tree_of(c).into_iter().flat_map(|tree| tree.leaf_events()) {
                slot.ensure_dep(src, e);
            }
        }
        slot.base_valid = true;
        for h in hosts {
            slot.cone_valid[h.index() / 64] |= 1 << (h.index() % 64);
        }
        if self.pending.is_empty() {
            let (sampling, collapse) = (Duration::ZERO, Duration::ZERO);
            return Materialised { states: &slot.states, key, sampling, collapse, rows: 0 };
        }
        let sampling = clock.lap();

        let Slot { states, deps, rounds, .. } = slot;
        for &c in &self.pending {
            src.model.or_dependencies_into(
                c.index(),
                states.row_words_mut(c.index()),
                *rounds,
                |e| deps.row_words(src.dep_row(e)),
            );
        }
        let (collapse, rows) = (clock.lap(), slot.rows() - before);
        Materialised { states: &slot.states, key, sampling, collapse, rows }
    }

    /// The next call per slot checks every row it is handed again: for a
    /// new router, whose cones may name rows the old one's did not. Valid
    /// rows stay valid.
    pub fn recheck_cones(&mut self) {
        self.slots.iter_mut().for_each(Slot::forget_cones);
    }

    /// Slots allocated so far.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Each slot's component and dependency-event matrices.
    #[cfg(test)]
    pub fn matrices(&self) -> impl Iterator<Item = (&BitMatrix, &BitMatrix)> {
        self.slots.iter().map(|s| (&s.states, &s.deps))
    }

    /// Bytes of valid rows, over all slots.
    pub fn valid_bytes(&self) -> usize {
        let row_bytes = |s: &Slot| s.states.words_per_row() * 8;
        self.slots.iter().map(|s| s.valid_rows() * row_bytes(s)).sum()
    }

    /// Bytes written, over all slots: each slot's rows up to the most it
    /// has held, its poison rows, indexes and cone bits. What a slot has
    /// reserved beyond that it has never touched.
    pub fn written_bytes(&self) -> usize {
        self.slots.iter().map(Slot::written_bytes).sum()
    }
}
